"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the whole gate can be read off `pytest -s tests/test_acceptance.py`.
"""

import math

import numpy as np
import pytest

from shellact.brace import corrective_moment, default_layout
from shellact.cli import main
from shellact.geometry import equal_area_family, ideal_force
from shellact.loss import (
    balloon_spec,
    efficiency,
    engineered_spec,
    loss_fraction,
    predicted_force,
)
from shellact.rig import RigConfig, default_noise_sigma_n, generate_sweep
from shellact.sweep import SweepProtocol, compute_loss_series, fit_linear_loss, write_measurements_csv

SHAPE_IDS = ["circle", "triangle", "square", "rectangle"]
SHAPES = dict(zip(SHAPE_IDS, equal_area_family(25.0, 2.0)))
GROUND_TRUTH = {sid: balloon_spec(cs) for sid, cs in SHAPES.items()}


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_prediction_chain_endpoints():
    spec = balloon_spec()
    f30 = predicted_force(30.0, spec)
    f60 = predicted_force(60.0, spec)
    ok = (
        abs(f30 - 36.99) <= 0.01
        and abs(f60 - 91.66) <= 0.01
        and abs(f60 - 90.0) <= 3.0
        and 36.0 - 1.0 <= f30
    )
    report("criterion 1: predicted force 36.99 N @ 30 kPa, 91.66 N @ 60 kPa", ok)


def test_criterion_2_efficiency_anchor():
    eff = efficiency(60.0, balloon_spec().loss_model)
    report("criterion 2: efficiency 0.778 @ 60 kPa (within 0.01 of 77%)", abs(eff - 0.778) <= 0.01)


def test_criterion_3_engineered_block_force():
    spec = engineered_spec()
    force = predicted_force(50.0, spec)
    loss = loss_fraction(50.0, spec.loss_model)
    ok = abs(force - 113.7) <= 1.0 and force > 100.0 and abs(loss - 0.03) <= 0.001
    report("criterion 3: engineered actuator 113.7 +/- 1 N @ 50 kPa, 3% loss", ok)


def test_criterion_4_fit_recovery():
    # noiseless: exact coefficient recovery
    cfg = RigConfig(ground_truth=GROUND_TRUTH, protocol=SweepProtocol(), seed=0)
    series = compute_loss_series(generate_sweep(cfg).aggregates(), SHAPES)
    rep = fit_linear_loss(series["circle"], (30.0, 60.0))
    exact_ok = (
        abs(rep.slope_per_kpa + 0.005) <= 1e-10
        and abs(rep.intercept - 0.522) <= 1e-10
        and abs(rep.r_squared - 1.0) <= 1e-12
    )
    # 200-seed Monte-Carlo at sigma = 0.01 fractional loss noise per trial
    # (3 trials per step, as in the measurement protocol)
    ps = np.arange(30.0, 61.0, 5.0)
    good = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        loss = -0.005 * ps + 0.522 + rng.normal(0.0, 0.01, (3, ps.size)).mean(axis=0)
        r = fit_linear_loss(list(zip(ps, loss)))
        if abs(r.slope_per_kpa + 0.005) <= 8e-4 and r.r_squared >= 0.97:
            good += 1
    mc_ok = good >= 190
    report(
        f"criterion 4: noiseless fit exact; MC {good}/200 seeds within tolerance",
        exact_ok and mc_ok,
    )


def test_criterion_5_equal_area_invariance():
    ok = True
    family = equal_area_family(25.0, 2.0)
    for p in SweepProtocol().pressures():
        forces = [ideal_force(p, cs) for cs in family]
        ok = ok and all(abs(f - forces[0]) / forces[0] < 1e-9 for f in forces)
    report("criterion 5: ideal forces agree < 1e-9 relative across the shape family", ok)


def test_criterion_6_ols_vs_grid_search():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        slope_t = rng.uniform(-0.008, -0.002)
        icpt_t = rng.uniform(0.3, 0.7)
        ps = np.arange(30.0, 61.0, 5.0)
        ys = slope_t * ps + icpt_t + rng.normal(0.0, 0.01, ps.size)
        rep = fit_linear_loss(list(zip(ps, ys)))
        # centered parametrization y = s*(p - mean) + c decouples the two
        # grid axes, so the argmin is within one step of the true minimum
        pc = ps - ps.mean()
        slopes = np.linspace(slope_t - 0.002, slope_t + 0.002, 201)
        centers = np.linspace(ys.mean() - 0.1, ys.mean() + 0.1, 201)
        sse = (
            (ys[None, None, :] - (slopes[:, None, None] * pc[None, None, :] + centers[None, :, None]))
            ** 2
        ).sum(axis=2)
        i, j = np.unravel_index(sse.argmin(), sse.shape)
        fitted_center = rep.slope_per_kpa * ps.mean() + rep.intercept
        ok = ok and abs(rep.slope_per_kpa - slopes[i]) <= slopes[1] - slopes[0]
        ok = ok and abs(fitted_center - centers[j]) <= centers[1] - centers[0]
    report("criterion 6: OLS matches grid-search SSE minimizer on 20 datasets", ok)


def test_criterion_7_moment_oracle():
    layout = default_layout()
    placements = layout.by_id()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        forces = {aid: float(rng.uniform(0.0, 120.0)) for aid in placements}
        net, moment = corrective_moment(layout, forces)
        oracle_net = math.fsum(placements[a].direction.value * f for a, f in forces.items())
        oracle_moment = math.fsum(
            (-1.0 if placements[a].site.value == "shank" else 1.0)
            * placements[a].direction.value
            * f
            * placements[a].lever_arm_m
            for a, f in forces.items()
        )
        ok = ok and abs(net - oracle_net) < 1e-12 and abs(moment - oracle_moment) < 1e-12
    forces = {aid: 0.0 for aid in placements}
    forces["knee_lateral"] = 100.0
    forces["thigh_medial"] = 50.0
    forces["shank_medial"] = 50.0
    net, moment = corrective_moment(layout, forces)
    ok = ok and net == 0.0 and moment == 15.0
    report("criterion 7: moment oracle (1000 random configs + 3-force valgus example)", ok)


def test_criterion_8_byte_determinism(tmp_path):
    sigma = 0.5
    cfg = lambda: RigConfig(
        ground_truth=GROUND_TRUTH, protocol=SweepProtocol(), noise_sigma_n=sigma, seed=99
    )
    csv_text = lambda: write_measurements_csv(generate_sweep(cfg()))
    gen_ok = csv_text() == csv_text()

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--seed", "4", "--out", str(out)]) == 0
        assert main(["fit", "--input", str(out / "measurements.csv"), "--out", str(out)]) == 0
        assert main(["simulate", "--out", str(out)]) == 0
    files = ["measurements.csv", "fit_report.csv", "comparison.csv", "loss_vs_pressure.svg",
             "trace.csv", "trace.svg"]
    cli_ok = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    report("criterion 8: generation, fitting, simulation byte-identical across runs", gen_ok and cli_ok)


def test_criterion_9_engineered_anchor_recovered():
    # the engineered actuator's 3 % loss at 50 kPa, recovered by generate -> fit of
    # (P, ln loss): amplitude e**intercept, decay -slope
    spec, protocol = engineered_spec(), SweepProtocol(stop_kpa=50.0)

    def recovered(sigma, seed):
        cfg = RigConfig({"eng": spec}, protocol, noise_sigma_n=sigma, seed=seed)
        series = compute_loss_series(generate_sweep(cfg).aggregates(), {"eng": spec.cross_section})
        rep = fit_linear_loss([(p, math.log(y)) for p, y in series["eng"]], (5.0, 50.0))
        amplitude, decay = math.exp(rep.intercept), -rep.slope_per_kpa
        return amplitude, decay, amplitude * math.exp(-decay * 50.0)

    amplitude, decay, loss50 = recovered(0.0, 0)
    exact_ok = (abs(amplitude - 0.993) <= 1e-6 and abs(decay - 0.07) <= 1e-6
                and abs(loss50 - 0.03) <= 1e-4)
    # 200-seed Monte Carlo at the default sigma, 1 % of the mid-sweep P*A: 0.645 N
    sigma = default_noise_sigma_n({"eng": spec}, protocol)
    mc = [recovered(sigma, seed)[2] for seed in range(200)]
    mc_ok = abs(sigma - 0.645) <= 5e-4 and all(0.0250 <= x <= 0.0345 for x in mc)
    report(
        f"criterion 9: engineered loss(50) = {loss50:.2%} recovered exactly; "
        f"MC loss(50) {min(mc):.2%}-{max(mc):.2%} over 200 seeds, within [2.50, 3.45] %",
        exact_ok and mc_ok,
    )
