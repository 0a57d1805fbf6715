"""Six-actuator knee brace simulation.

The brace carries one actuator on each side (medial/lateral) of the thigh,
knee and shank. A gait schedule selects which actuators are pressurized
during each phase of the cycle; supply pressure follows a first-order lag
toward the commanded value, forces come from each actuator's loss model,
and the force system is reduced to a net medio-lateral force plus the
corrective varus/valgus moment about the knee.

Sign conventions:
- force direction medial->lateral is positive, lateral->medial negative;
- lever arms are signed distances along the leg axis from the knee joint
  (thigh positive, shank negative, knee ~0);
- the corrective moment is the relative bending moment between femur and
  tibia: thigh and knee contributions enter as signed_force * lever_arm,
  shank contributions with the opposite sign, so a classic three-point
  force system (two side pushes plus an opposing center push) corrects
  rather than cancels.

The simulation is columnar: :class:`SimulationTrace` holds one array per
quantity over all steps, and loss, force and moment are array math through
the same functions the scalar callers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import NamedTuple

from ._lazy import np
from .geometry import MAX_ROWS, reject
from .loss import ActuatorSpec, engineered_spec, predicted_force
from .svgchart import byte_rows, csv_field, fixed_text, text_table


class Site(Enum):
    THIGH = "thigh"
    KNEE = "knee"
    SHANK = "shank"


class Side(Enum):
    MEDIAL = "medial"
    LATERAL = "lateral"


class ForceDirection(Enum):
    MEDIAL_TO_LATERAL = 1
    LATERAL_TO_MEDIAL = -1


@dataclass(frozen=True)
class ActuatorPlacement:
    actuator_id: str
    site: Site
    side: Side
    spec: ActuatorSpec
    lever_arm_m: float
    direction: ForceDirection

    def __post_init__(self) -> None:
        if not math.isfinite(self.lever_arm_m):
            raise ValueError(f"lever_arm_m of {self.actuator_id!r} must be finite, "
                             f"got {self.lever_arm_m!r}")


@dataclass(frozen=True)
class BraceLayout:
    actuators: tuple[ActuatorPlacement, ...]

    def __post_init__(self) -> None:
        if len(self.actuators) != 6:
            raise ValueError(f"a brace has exactly 6 actuators, got {len(self.actuators)}")
        slots = {(a.site, a.side) for a in self.actuators}
        if len(slots) != 6:
            raise ValueError("each (site, side) slot must hold exactly one actuator")
        ids = {a.actuator_id for a in self.actuators}
        if len(ids) != 6:
            raise ValueError("actuator ids must be unique")

    def by_id(self) -> dict[str, ActuatorPlacement]:
        return {a.actuator_id: a for a in self.actuators}


def corrective_moment(layout: BraceLayout, forces_n: dict) -> tuple:
    """Net medio-lateral force (N) and corrective moment (N*m) about the knee.

    ``forces_n`` maps actuator id to force magnitude, a float or an array
    over time steps; inactive actuators must be present with 0. The sums
    run in layout order from 0.0, so floats and arrays add up alike.
    """
    missing = set(layout.by_id()) - set(forces_n)
    if missing:
        raise ValueError(f"forces missing for actuators: {sorted(missing)}")
    net = 0.0
    moment = 0.0
    for placement in layout.actuators:
        aid = placement.actuator_id
        f = forces_n[aid]
        reject(f, f < 0.0, "force magnitudes must be >= 0, got {} for {!r}", aid)
        signed = placement.direction.value * f
        net += signed
        segment = -1.0 if placement.site is Site.SHANK else 1.0
        moment += segment * signed * placement.lever_arm_m
    return net, moment


def _lag(commanded_kpa: np.ndarray, alpha: float) -> np.ndarray:
    """Supply pressures [n, k] from 0 kPa, stepping a <- a + (c - a) * alpha, a column at a time."""
    actual = np.empty(commanded_kpa.shape)
    for j in range(actual.shape[1]):
        a = 0.0
        actual[:, j] = [a := a + (c - a) * alpha for c in commanded_kpa[:, j].tolist()]
    return actual


@dataclass(frozen=True)
class GaitPhase:
    name: str
    fraction: float
    pressures_kpa: dict[str, float]  # active actuator id -> commanded pressure


@dataclass(frozen=True)
class GaitSchedule:
    phases: tuple[GaitPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("schedule needs at least one phase")
        # written so that NaN fails each check
        for ph in self.phases:
            if not ph.fraction > 0.0:
                raise ValueError(f"phase {ph.name!r} has fraction {ph.fraction}, not > 0")
        total = math.fsum(ph.fraction for ph in self.phases)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"phase fractions must sum to 1, got {total}")

    def validate_against(self, layout: BraceLayout) -> None:
        placements = layout.by_id()
        for ph in self.phases:
            for actuator_id, p in ph.pressures_kpa.items():
                if actuator_id not in placements:
                    raise ValueError(
                        f"phase {ph.name!r} commands unknown actuator {actuator_id!r}"
                    )
                cap = placements[actuator_id].spec.max_pressure_kpa
                if not 0.0 <= p <= cap:  # NaN fails it too
                    raise ValueError(
                        f"phase {ph.name!r} commands {p} kPa on {actuator_id!r}, "
                        f"outside [0, {cap}]"
                    )

    def phase_index(self, cycle_position):
        """Index of the phase active at each cycle position (a float or an array).

        Positions wrap modulo 1; transitions fall at exact cumulative fractions.
        """
        ends = np.array(list(accumulate(ph.fraction for ph in self.phases))) - 1e-15
        index = np.searchsorted(ends, np.asarray(cycle_position) % 1.0, side="right")
        return np.minimum(index, len(self.phases) - 1)


class SimulationTrace(NamedTuple):
    """Row k of each array is step k; [n, 6] arrays have a column per ``actuator_ids``."""

    t_s: np.ndarray
    commanded_kpa: np.ndarray
    actual_kpa: np.ndarray
    force_n: np.ndarray
    net_force_n: np.ndarray
    moment_nm: np.ndarray
    actuator_ids: tuple[str, ...]


def run_gait_cycle(
    layout: BraceLayout,
    schedule: GaitSchedule,
    cycle_duration_s: float,
    dt_s: float,
    tau_s: float = 0.2,
    n_cycles: int = 1,
) -> SimulationTrace:
    """Simulate n gait cycles from a depressurized start.

    Deterministic: the trace is a pure function of the arguments.
    """
    # written so that NaN fails each check
    for name, value in (("cycle_duration_s", cycle_duration_s), ("dt_s", dt_s), ("tau_s", tau_s)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not 0 <= n_cycles <= MAX_ROWS:  # a cycle has at least one step, so more pass the cap
        raise ValueError(f"n_cycles must be between 0 and {MAX_ROWS}, got {n_cycles}")
    shortest = min(ph.fraction for ph in schedule.phases) * cycle_duration_s
    if dt_s >= shortest:
        raise ValueError(
            f"dt {dt_s} s must be shorter than the shortest phase ({shortest:g} s)"
        )
    schedule.validate_against(layout)
    alpha = 1.0 - math.exp(-dt_s / tau_s)  # exact discrete step of the first-order lag
    placements = layout.by_id()
    ids = tuple(sorted(placements))
    n_steps = round(n_cycles * cycle_duration_s / dt_s, 0)  # a float, inf for a subnormal dt_s
    rows = n_steps * len(ids)
    reject(rows, rows > MAX_ROWS,
           "a trace of {:.0f} rows exceeds the cap of {} rows", MAX_ROWS)
    k = np.arange(int(n_steps), dtype=float)
    # phase is held over the step interval [t - dt, t)
    phase = schedule.phase_index(k * dt_s / cycle_duration_s)
    table = [[ph.pressures_kpa.get(aid, 0.0) for aid in ids] for ph in schedule.phases]
    commanded = np.array(table, dtype=float)[phase]
    actual = _lag(commanded, alpha)
    force = np.column_stack(
        [predicted_force(actual[:, j], placements[aid].spec) for j, aid in enumerate(ids)]
    )
    net, moment = corrective_moment(layout, dict(zip(ids, force.T)))
    return SimulationTrace((k + 1.0) * dt_s, commanded, actual, force, net, moment, ids)


def default_layout() -> BraceLayout:
    """Six molded actuators, one per (site, side), each pushing inward from its side.

    Lever arms: thigh +0.15 m, knee 0.0 m, shank -0.15 m.
    """
    spec = engineered_spec()
    arms = {Site.THIGH: 0.15, Site.KNEE: 0.0, Site.SHANK: -0.15}
    inward = {Side.MEDIAL: ForceDirection.MEDIAL_TO_LATERAL,
              Side.LATERAL: ForceDirection.LATERAL_TO_MEDIAL}
    return BraceLayout(tuple(
        ActuatorPlacement(f"{site.value}_{side.value}", site, side, spec, arms[site], inward[side])
        for site in Site
        for side in Side
    ))


def default_valgus_schedule() -> GaitSchedule:
    """Illustrative valgus-correction schedule: a three-point force system
    (medial knee vs lateral thigh and shank) engaged through stance.
    """
    trio = ("knee_medial", "thigh_lateral", "shank_lateral")

    def at(p: float) -> dict[str, float]:
        return {aid: p for aid in trio}

    return GaitSchedule(
        (
            GaitPhase("heel_strike", 0.10, at(30.0)),
            GaitPhase("mid_stance", 0.30, at(50.0)),
            GaitPhase("toe_off", 0.20, at(40.0)),
            GaitPhase("swing", 0.40, {}),
        )
    )


TRACE_HEADER = ["t_s", "actuator_id", "commanded_kpa", "actual_kpa", "force_n", "moment_nm"]
_CHUNK_STEPS = 512


def write_trace_csv(trace: SimulationTrace) -> str:
    """One row per (time step, actuator); moment repeats the step's value.

    Built as byte rows a chunk of steps at a time; each actuator id is quoted once.
    """
    ids = byte_rows([csv_field(aid) for aid in trace.actuator_ids])
    per_step = (trace.t_s, trace.moment_nm)
    per_actuator = (trace.commanded_kpa, trace.actual_kpa, trace.force_n)

    def fields(rows: slice) -> list[np.ndarray]:
        t, moment = (fixed_text(x[rows], 4).repeat(len(ids), 0) for x in per_step)
        columns = (fixed_text(x[rows], 4) for x in per_actuator)
        return [t, np.tile(ids, (len(t) // len(ids), 1)), *columns, moment]

    return text_table(",".join(TRACE_HEADER) + "\n", len(trace.t_s), _CHUNK_STEPS, fields)
