import csv
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shellact import brace
from shellact.brace import (
    TRACE_HEADER,
    ActuatorPlacement,
    BraceLayout,
    ForceDirection,
    GaitPhase,
    GaitSchedule,
    Side,
    SimulationTrace,
    Site,
    corrective_moment,
    default_layout,
    default_valgus_schedule,
    run_gait_cycle,
    write_trace_csv,
)
from shellact.loss import balloon_spec, predicted_force


def zero_forces(layout):
    return {a.actuator_id: 0.0 for a in layout.actuators}


def mirrored(layout):
    """Swap medial/lateral sides and flip each push direction."""
    flipped = []
    for a in layout.actuators:
        flipped.append(
            ActuatorPlacement(
                actuator_id=a.actuator_id,
                site=a.site,
                side=Side.LATERAL if a.side is Side.MEDIAL else Side.MEDIAL,
                spec=a.spec,
                lever_arm_m=a.lever_arm_m,
                direction=(
                    ForceDirection.LATERAL_TO_MEDIAL
                    if a.direction is ForceDirection.MEDIAL_TO_LATERAL
                    else ForceDirection.MEDIAL_TO_LATERAL
                ),
            )
        )
    return BraceLayout(tuple(flipped))


class TestLayout:
    def test_default_layout_valid(self):
        layout = default_layout()
        assert len(layout.actuators) == 6
        assert {(a.site, a.side) for a in layout.actuators} == {
            (site, side) for site in Site for side in Side
        }

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="^a brace has exactly 6 actuators, got 5$"):
            BraceLayout(default_layout().actuators[:5])

    def test_duplicate_slot_rejected(self):
        a = default_layout().actuators
        dup = a[:5] + (
            ActuatorPlacement("extra", a[0].site, a[0].side, a[0].spec, 0.1, a[0].direction),
        )
        with pytest.raises(ValueError, match=r"^each \(site, side\) slot must hold exactly one"):
            BraceLayout(dup)

    @pytest.mark.parametrize("arm", [math.nan, math.inf, -math.inf])
    def test_non_finite_lever_arm_rejected_naming_it(self, arm):
        a = default_layout().actuators[0]
        with pytest.raises(ValueError, match=f"^lever_arm_m of 'thigh_medial' must be finite, "
                                             f"got {arm!r}$"):
            dataclasses.replace(a, lever_arm_m=arm)


class TestCorrectiveMoment:
    def test_three_force_valgus_example(self):
        # 100 N at the knee opposed by two 50 N side pushes 0.15 m away
        layout = default_layout()
        forces = zero_forces(layout)
        forces["knee_lateral"] = 100.0
        forces["thigh_medial"] = 50.0
        forces["shank_medial"] = 50.0
        net, moment = corrective_moment(layout, forces)
        assert net == 0.0
        assert moment == 15.0

    def test_all_zero(self):
        layout = default_layout()
        assert corrective_moment(layout, zero_forces(layout)) == (0.0, 0.0)

    def test_mirroring_negates_moment(self):
        layout = default_layout()
        forces = zero_forces(layout)
        forces["knee_lateral"] = 80.0
        forces["thigh_medial"] = 30.0
        forces["shank_lateral"] = 20.0
        net, moment = corrective_moment(layout, forces)
        mnet, mmoment = corrective_moment(mirrored(layout), forces)
        assert mnet == pytest.approx(-net)
        assert mmoment == pytest.approx(-moment)

    def test_bilinearity(self):
        layout = default_layout()
        rng = np.random.default_rng(11)
        forces = {a.actuator_id: float(rng.uniform(0, 100)) for a in layout.actuators}
        net, moment = corrective_moment(layout, forces)
        net2, moment2 = corrective_moment(
            layout, {k: 2.5 * v for k, v in forces.items()}
        )
        assert net2 == pytest.approx(2.5 * net)
        assert moment2 == pytest.approx(2.5 * moment)
        # additivity over singleton force sets
        parts = []
        for aid in forces:
            single = zero_forces(layout)
            single[aid] = forces[aid]
            parts.append(corrective_moment(layout, single))
        assert sum(m for _, m in parts) == pytest.approx(moment)
        assert sum(n for n, _ in parts) == pytest.approx(net)

    def test_against_resummation_oracle(self):
        # independent recomputation of the signed sums on random configurations
        layout = default_layout()
        placements = layout.by_id()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            forces = {aid: float(rng.uniform(0.0, 120.0)) for aid in placements}
            net, moment = corrective_moment(layout, forces)
            oracle_net = math.fsum(
                placements[aid].direction.value * f for aid, f in forces.items()
            )
            oracle_moment = math.fsum(
                (-1.0 if placements[aid].site is Site.SHANK else 1.0)
                * placements[aid].direction.value
                * f
                * placements[aid].lever_arm_m
                for aid, f in forces.items()
            )
            assert abs(net - oracle_net) < 1e-12
            assert abs(moment - oracle_moment) < 1e-12

    def test_missing_force_rejected(self):
        layout = default_layout()
        forces = zero_forces(layout)
        del forces["knee_medial"]
        with pytest.raises(ValueError, match=r"^forces missing for actuators: \['knee_medial'\]$"):
            corrective_moment(layout, forces)

    def test_negative_force_rejected(self):
        layout = default_layout()
        forces = zero_forces(layout)
        forces["knee_medial"] = -1.0
        with pytest.raises(ValueError):
            corrective_moment(layout, forces)


def held_pressure(commanded_kpa, dt_s, tau_s, n_steps):
    """knee_medial's actual_kpa from 0 kPa, and the trace, under one phase at ``commanded_kpa``."""
    schedule = GaitSchedule((GaitPhase("hold", 1.0, {"knee_medial": commanded_kpa}),))
    trace = run_gait_cycle(default_layout(), schedule, n_steps * dt_s, dt_s, tau_s=tau_s)
    assert len(trace.t_s) == n_steps
    return trace.actual_kpa[:, trace.actuator_ids.index("knee_medial")], trace


class TestStepPressure:
    """The supply-pressure lag step, seen through run_gait_cycle's actual_kpa."""

    def test_analytic_value(self):
        first = held_pressure(50.0, 0.2, 0.2, 5)[0][0]
        assert first == pytest.approx(50.0 * (1 - math.exp(-1)))
        assert first == pytest.approx(31.61, abs=0.01)

    def test_fixed_point(self):
        # idle actuators hold 0 kPa from 0 kPa
        _, trace = held_pressure(50.0, 0.01, 0.2, 100)
        assert np.all(trace.actual_kpa[:, trace.commanded_kpa[0] == 0.0] == 0.0)
        # with tau << dt the lag factor is 1.0: 50 kPa is reached in one step, then held
        assert held_pressure(50.0, 0.2, 1e-3, 5)[0].tolist() == [50.0] * 5

    def test_never_overshoots(self):
        actual = held_pressure(50.0, 0.05, 0.2, 500)[0]
        assert np.all(actual <= 50.0)
        assert actual[-1] == pytest.approx(50.0, abs=1e-9)

    def test_gap_non_increasing(self):
        gap = np.abs(45.0 - held_pressure(45.0, 0.02, 0.2, 100)[0])
        assert np.all(np.diff(gap) <= 0.0)

    def test_bad_args(self):
        for tau in (0.0, -0.2):
            with pytest.raises(ValueError, match="tau_s must be finite and > 0"):
                held_pressure(50.0, 0.1, tau, 5)
        with pytest.raises(ValueError, match="dt_s must be finite and > 0"):
            run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.0)


class TestSchedule:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="^phase fractions must sum to 1, got 0.9"):
            GaitSchedule((GaitPhase("a", 0.5, {}), GaitPhase("b", 0.4, {})))

    def test_over_cap_command_rejected_at_validation(self):
        layout = default_layout()  # engineered spec, max 50 kPa
        schedule = GaitSchedule((GaitPhase("hold", 1.0, {"knee_medial": 55.0}),))
        with pytest.raises(ValueError, match=r"commands 55.0 kPa on 'knee_medial', outside \[0, "):
            schedule.validate_against(layout)

    def test_unknown_actuator_rejected(self):
        schedule = GaitSchedule((GaitPhase("hold", 1.0, {"nope": 10.0}),))
        with pytest.raises(ValueError, match="^phase 'hold' commands unknown actuator 'nope'$"):
            schedule.validate_against(default_layout())

    def test_phase_lookup_at_exact_boundaries(self):
        schedule = default_valgus_schedule()
        names = [ph.name for ph in schedule.phases]
        assert names[schedule.phase_index(0.0)] == "heel_strike"
        assert names[schedule.phase_index(0.1)] == "mid_stance"
        assert names[schedule.phase_index(0.4)] == "toe_off"
        assert names[schedule.phase_index(0.6)] == "swing"
        assert names[schedule.phase_index(0.999)] == "swing"


# --- reference: the per-step simulation the columnar code replaced ---------


def reference_phase_at(schedule, cycle_position):
    pos = cycle_position % 1.0
    cumulative = 0.0
    for ph in schedule.phases:
        cumulative += ph.fraction
        if pos < cumulative - 1e-15:
            return ph
    return schedule.phases[-1]


def reference_step_pressure(actual_kpa, commanded_kpa, dt_s, tau_s):
    """Exact discrete step of the first-order supply-line lag."""
    return actual_kpa + (commanded_kpa - actual_kpa) * (1.0 - math.exp(-dt_s / tau_s))


def reference_gait_cycle(layout, schedule, cycle_duration_s, dt_s, tau_s=0.2, n_cycles=1):
    """One (t, commanded, actual, forces, net, moment) tuple of dicts per step."""
    placements = layout.by_id()
    ids = tuple(sorted(placements))
    actual = {aid: 0.0 for aid in ids}
    steps = []
    n_steps = int(round(n_cycles * cycle_duration_s / dt_s))
    for k in range(1, n_steps + 1):
        t = k * dt_s
        phase = reference_phase_at(schedule, ((k - 1) * dt_s) / cycle_duration_s)
        commanded = {aid: phase.pressures_kpa.get(aid, 0.0) for aid in ids}
        actual = {
            aid: reference_step_pressure(actual[aid], commanded[aid], dt_s, tau_s) for aid in ids
        }
        forces = {aid: predicted_force(actual[aid], placements[aid].spec) for aid in ids}
        net, moment = corrective_moment(layout, forces)
        steps.append((t, commanded, actual, forces, net, moment))
    return steps, ids


def reference_trace_csv(steps, ids):
    lines = [",".join(TRACE_HEADER)]
    for t, commanded, actual, forces, _net, moment in steps:
        for aid in ids:
            lines.append(
                f"{t:.4f},{aid},{commanded[aid]:.4f},"
                f"{actual[aid]:.4f},{forces[aid]:.4f},{moment:.4f}"
            )
    return "\n".join(lines) + "\n"


def mixed_layout():
    """Balloon (linear loss) actuators on the thigh, engineered ones elsewhere."""
    return BraceLayout(tuple(
        dataclasses.replace(a, spec=balloon_spec()) if a.site is Site.THIGH else a
        for a in default_layout().actuators
    ))


@st.composite
def simulations(draw):
    layout = draw(st.sampled_from([default_layout(), mixed_layout()]))
    ids = sorted(layout.by_id())
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    phases = []
    for i, w in enumerate(weights):
        active = draw(st.lists(st.sampled_from(ids), unique=True, max_size=6))
        pressures = {aid: draw(st.floats(0.0, 50.0)) for aid in active}
        phases.append(GaitPhase(f"p{i}", w / math.fsum(weights), pressures))
    schedule = GaitSchedule(tuple(phases))
    duration = draw(st.floats(0.2, 2.0))
    dt = draw(st.floats(0.001, 0.05))
    cycles = draw(st.integers(1, 3))
    assume(dt < min(ph.fraction for ph in phases) * duration)
    assume(cycles * duration / dt <= 1500)
    return layout, schedule, duration, dt, draw(st.floats(0.005, 1.0)), cycles


class TestColumnarMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(simulations())
    def test_exact_match(self, sim):
        layout, schedule, duration, dt, tau, cycles = sim
        trace = run_gait_cycle(layout, schedule, duration, dt, tau_s=tau, n_cycles=cycles)
        steps, ids = reference_gait_cycle(layout, schedule, duration, dt, tau, cycles)
        assert trace.actuator_ids == ids
        assert trace.t_s.tolist() == [s[0] for s in steps]
        for field, i in (("commanded_kpa", 1), ("actual_kpa", 2), ("force_n", 3)):
            want = [[float(s[i][aid]) for aid in ids] for s in steps]
            assert getattr(trace, field).reshape(-1, len(ids)).tolist() == want, field
        assert trace.net_force_n.tolist() == [s[4] for s in steps]
        assert trace.moment_nm.tolist() == [s[5] for s in steps]
        assert write_trace_csv(trace) == reference_trace_csv(steps, ids)

    def test_default_brace_gait_match(self):
        layout, schedule = default_layout(), default_valgus_schedule()
        trace = run_gait_cycle(layout, schedule, 1.2, 0.001, n_cycles=2)
        steps, ids = reference_gait_cycle(layout, schedule, 1.2, 0.001, n_cycles=2)
        assert write_trace_csv(trace) == reference_trace_csv(steps, ids)

    def test_phase_lookup_matches_reference(self):
        schedule = default_valgus_schedule()
        for pos in (0.0, 0.1, 0.4, 0.6, 0.999, 1.0, 1.1, 0.1 - 1e-16, 0.4 + 1e-15, 3.7):
            assert schedule.phases[schedule.phase_index(pos)] is reference_phase_at(schedule, pos)


class TestMemory:
    def test_lag_holds_one_column_of_python_floats(self):
        # one column's input and result lists are about 2 * 12000 * 32 bytes; all six
        # columns at once put the traced peak at about 8x the output's bytes
        commanded = np.tile([0.0, 30.0, 50.0, 40.0, 0.0, 30.0], (12000, 1))
        tracemalloc.start()
        try:
            actual = brace._lag(commanded, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * actual.nbytes, (peak, actual.nbytes)


class TestTraceCsv:
    def hand_built(self, moment_nm):
        n = len(moment_nm)
        zeros = np.zeros((n, 6))
        ids = tuple(sorted(default_layout().by_id()))
        t = np.arange(1, n + 1) * 0.01
        return SimulationTrace(t, zeros, zeros, zeros, np.zeros(n), np.array(moment_nm), ids)

    def test_small_negative_moment_writes_negative_zero(self):
        rows = write_trace_csv(self.hand_built([-1e-6, 0.0, 1e-6])).splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows[::6]] == ["-0.0000", "0.0000", "0.0000"]

    def test_negative_zero_kept_apart_from_zero(self):
        rows = write_trace_csv(self.hand_built([-0.0, 0.0])).splitlines()[1:]
        assert [r.rsplit(",", 1)[1] for r in rows[::6]] == ["-0.0000", "0.0000"]

    def test_chunking_does_not_change_bytes(self, monkeypatch):
        trace = run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.01)
        whole = write_trace_csv(trace)
        for chunk in (1, 7):
            monkeypatch.setattr(brace, "_CHUNK_STEPS", chunk)
            assert write_trace_csv(trace) == whole

    def test_writer_holds_the_text_once(self):
        # 12,000 steps are 24 chunks; the chunks plus their join put the traced peak at 2x the text
        trace = run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.001, n_cycles=10)
        tracemalloc.start()
        try:
            text = write_trace_csv(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = len(text) * brace._CHUNK_STEPS / len(trace.t_s)
        assert peak < 1.25 * len(text) + 4 * chunk, (peak, len(text))

    def test_actuator_ids_quoted_once(self):
        quoted = 'knee "a,b"'
        layout = BraceLayout(tuple(
            dataclasses.replace(a, actuator_id=quoted) if a.actuator_id == "thigh_medial" else a
            for a in default_layout().actuators
        ))
        trace = run_gait_cycle(layout, default_valgus_schedule(), 1.2, 0.01)
        rows = list(csv.reader(io.StringIO(write_trace_csv(trace))))
        assert {len(row) for row in rows} == {6}
        assert [row[1] for row in rows[1:7]] == list(trace.actuator_ids)
        assert quoted in trace.actuator_ids

    def test_zero_steps_writes_header_only(self):
        trace = run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.01, n_cycles=0)
        assert trace.force_n.shape == (0, 6)
        assert write_trace_csv(trace) == ",".join(TRACE_HEADER) + "\n"


class TestArrayChecks:
    def test_negative_array_force_names_value(self):
        layout = default_layout()
        forces = {aid: np.zeros(3) for aid in layout.by_id()}
        forces["knee_medial"] = np.array([1.0, -2.5, -3.0])
        with pytest.raises(ValueError, match=r"got -2\.5 for 'knee_medial'"):
            corrective_moment(layout, forces)

    def test_array_moment_matches_scalar(self):
        layout = default_layout()
        rng = np.random.default_rng(5)
        forces = {aid: rng.uniform(0.0, 120.0, 50) for aid in layout.by_id()}
        net, moment = corrective_moment(layout, forces)
        for k in range(50):
            n_k, m_k = corrective_moment(layout, {a: float(f[k]) for a, f in forces.items()})
            assert (net[k], moment[k]) == (n_k, m_k)

    # used to return -inf with a numpy RuntimeWarning, which simulate wrote into the trace
    @pytest.mark.parametrize("forces", [120.0, np.array([0.0, 120.0])], ids=["float", "array"])
    def test_moment_past_the_float_range_is_refused(self, forces):
        layout = default_layout()
        thigh_lateral = dataclasses.replace(layout.actuators[1], lever_arm_m=1e308)
        layout = BraceLayout((layout.actuators[0], thigh_lateral, *layout.actuators[2:]))
        message = (r"^net force or corrective moment is past the float range \(moment -inf N\*m\): "
                   r"a lever_arm_m or a force is too large$")
        with pytest.raises(ValueError, match=message):
            corrective_moment(layout, {aid: forces for aid in layout.by_id()})

    def test_net_force_past_the_float_range_is_refused(self):
        layout = default_layout()
        forces = {a.actuator_id: 1e308 if a.side is Side.MEDIAL else 0.0 for a in layout.actuators}
        with pytest.raises(ValueError, match=r"^net force or corrective moment is past"):
            corrective_moment(layout, forces)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.01, tau_s=0.0)


class TestRunGaitCycle:
    def test_empty_schedule_gives_zero_trace(self):
        layout = default_layout()
        schedule = GaitSchedule((GaitPhase("idle", 1.0, {}),))
        trace = run_gait_cycle(layout, schedule, 1.0, 0.01)
        assert len(trace.t_s) == 100
        assert trace.force_n.shape == (100, 6)
        assert np.all(trace.net_force_n == 0.0)
        assert np.all(trace.moment_nm == 0.0)
        assert np.all(trace.force_n == 0.0)

    def test_steady_state_knee_pair_force(self):
        layout = default_layout()
        schedule = GaitSchedule(
            (GaitPhase("hold", 1.0, {"knee_medial": 50.0, "knee_lateral": 50.0}),)
        )
        tau = 0.2
        trace = run_gait_cycle(layout, schedule, 2.0, 0.01, tau_s=tau)  # 10 tau
        last = dict(zip(trace.actuator_ids, trace.force_n[-1]))
        assert last["knee_medial"] == pytest.approx(113.7, abs=1.0)
        assert last["knee_lateral"] == pytest.approx(113.7, abs=1.0)

    def test_moment_matches_recomputation_every_step(self):
        layout = default_layout()
        trace = run_gait_cycle(layout, default_valgus_schedule(), 1.2, 0.01)
        for k in range(len(trace.t_s)):
            net, moment = corrective_moment(layout, dict(zip(trace.actuator_ids, trace.force_n[k])))
            assert abs(trace.moment_nm[k] - moment) < 1e-12
            assert abs(trace.net_force_n[k] - net) < 1e-12

    def test_determinism(self):
        layout = default_layout()
        t1 = run_gait_cycle(layout, default_valgus_schedule(), 1.2, 0.01)
        t2 = run_gait_cycle(layout, default_valgus_schedule(), 1.2, 0.01)
        assert write_trace_csv(t1) == write_trace_csv(t2)

    def test_pressures_within_bounds(self):
        layout = default_layout()
        trace = run_gait_cycle(layout, default_valgus_schedule(), 1.2, 0.01)
        for j, aid in enumerate(trace.actuator_ids):
            actual = trace.actual_kpa[:, j]
            assert np.all((0.0 <= actual) & (actual <= layout.by_id()[aid].spec.max_pressure_kpa))

    def test_time_strictly_increasing(self):
        trace = run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.01)
        assert np.all(np.diff(trace.t_s) > 0.0)

    def test_dt_longer_than_shortest_phase_rejected(self):
        with pytest.raises(ValueError, match="^dt 0.2 s must be shorter than the shortest phase"):
            run_gait_cycle(default_layout(), default_valgus_schedule(), 1.0, 0.2)

    def test_trace_csv_header(self):
        trace = run_gait_cycle(default_layout(), default_valgus_schedule(), 1.2, 0.01)
        assert write_trace_csv(trace).splitlines()[0] == (
            "t_s,actuator_id,commanded_kpa,actual_kpa,force_n,moment_nm"
        )
