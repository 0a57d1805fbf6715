import io
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from shellact.geometry import Square, equal_area_family
from shellact.loss import balloon_spec, engineered_spec, loss_fraction, predicted_force
from shellact.rig import (
    RigConfig,
    _config_digest,
    default_noise_sigma_n,
    generate_sweep,
    true_loss,
)
from shellact.sweep import (
    SweepProtocol,
    compute_loss_series,
    fit_linear_loss,
    read_measurements_csv,
    write_measurements_csv,
)
from sweep_reference import generate_records, rows_of

SHAPES = dict(zip(["circle", "triangle", "square", "rectangle"], equal_area_family(25.0, 2.0)))
GROUND_TRUTH = {sid: balloon_spec(cs) for sid, cs in SHAPES.items()}


def valid_from(spec, lo):
    """``spec`` with its loss model valid from ``lo`` kPa, where the rig's blend ends."""
    hi = spec.loss_model.valid_range_kpa[1]
    return replace(spec, loss_model=replace(spec.loss_model, valid_range_kpa=(lo, hi)))


def make_cfg(**kw):
    defaults = dict(ground_truth=GROUND_TRUTH, protocol=SweepProtocol(), seed=0)
    defaults.update(kw)
    return RigConfig(**defaults)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = write_measurements_csv(generate_sweep(make_cfg(noise_sigma_n=0.5, seed=42)))
        b = write_measurements_csv(generate_sweep(make_cfg(noise_sigma_n=0.5, seed=42)))
        assert a == b

    def test_different_seed_different_data(self):
        a = write_measurements_csv(generate_sweep(make_cfg(noise_sigma_n=0.5, seed=1)))
        b = write_measurements_csv(generate_sweep(make_cfg(noise_sigma_n=0.5, seed=2)))
        assert a != b


class TestZeroNoise:
    def test_records_on_model_above_knee(self):
        ds = generate_sweep(make_cfg())
        for shape_id, p, _trial, force in rows_of(ds):
            if p >= 30.0:
                expected = predicted_force(p, GROUND_TRUTH[shape_id])
                assert force == pytest.approx(expected, abs=1e-12)

    def test_engineered_records_on_model_from_the_first_step(self):
        # its loss model is valid from 5 kPa, the first step, so there is nothing to blend
        spec = engineered_spec()
        cfg = make_cfg(ground_truth={"eng": spec}, protocol=SweepProtocol(stop_kpa=50.0))
        ds = generate_sweep(cfg)
        assert ds.pressure_kpa.tolist() == [5.0 * i for i in range(1, 11) for _ in range(3)]
        for _, p, _, force in rows_of(ds):
            assert force == pytest.approx(predicted_force(p, spec), abs=1e-12)

    def test_fit_recovers_ground_truth(self):
        ds = generate_sweep(make_cfg())
        series = compute_loss_series(ds.aggregates(), SHAPES)
        for sid in SHAPES:
            rep = fit_linear_loss(series[sid], (30.0, 60.0))
            assert rep.slope_per_kpa == pytest.approx(-0.005, abs=1e-10)
            assert rep.intercept == pytest.approx(0.522, abs=1e-10)
            assert rep.r_squared == pytest.approx(1.0, abs=1e-12)


class TestPreKneeRegime:
    def test_blend_endpoints(self):
        spec = GROUND_TRUTH["circle"]
        assert true_loss(spec, 5.0) == pytest.approx(0.70)
        knee_loss = loss_fraction(30.0, spec.loss_model)
        assert true_loss(spec, 30.0) == pytest.approx(knee_loss)

    def test_blend_is_monotone_down_to_knee(self):
        spec = GROUND_TRUTH["circle"]
        losses = [true_loss(spec, p) for p in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    # the knee is the loss model's lower valid bound: 30 kPa, the first step, below it
    @pytest.mark.parametrize("spec", [
        GROUND_TRUTH["circle"], valid_from(GROUND_TRUTH["circle"], 5.0),
        valid_from(GROUND_TRUTH["circle"], 2.0), valid_from(engineered_spec(), 30.0),
        engineered_spec(), valid_from(engineered_spec(), 2.0),
    ], ids=["linear-30", "linear-5", "linear-2", "exponential-30", "exponential-5", "exponential-2"])
    def test_array_equals_scalar(self, spec):
        knee = spec.loss_model.valid_range_kpa[0]
        # below, at and just around the knee, above it, and below the first step
        pressures = [1.0, 5.0, 12.5, 29.999999, 30.0, 30.000001, 45.0, 60.0]
        losses = [true_loss(spec, p) for p in pressures]
        assert true_loss(spec, np.array(pressures)).tolist() == losses
        assert all(type(loss) in (float, np.float64) for loss in losses)
        if knee <= 5.0:  # nothing to blend: the model's loss throughout
            assert losses == [loss_fraction(p, spec.loss_model) for p in pressures]


class TestColumns:
    def test_row_order_and_values_match_per_record_generator(self):
        cfg = make_cfg(noise_sigma_n=0.5, seed=11, protocol=SweepProtocol(trials=4))
        records, provenance = generate_records(cfg)
        ds = generate_sweep(cfg)
        assert rows_of(ds) == [(r.shape_id, r.pressure_kpa, r.trial, r.force_n) for r in records]
        assert ds.provenance == tuple(provenance)

    def test_integer_columns_are_as_narrow_as_their_values_and_read_back(self):
        ds = generate_sweep(make_cfg(noise_sigma_n=0.5, protocol=SweepProtocol(trials=3000)))
        assert (ds.shape_code.dtype, ds.trial.dtype) == (np.uint8, np.uint16)
        back = read_measurements_csv(io.BytesIO(write_measurements_csv(ds).encode()))
        written = [(s, p, t, float(f"{f:.4f}")) for s, p, t, f in rows_of(ds)]
        assert rows_of(back) == written
        assert back.trial.max() == 3000 and back.shape_names == ds.shape_names

    def test_vector_draw_equals_scalar_draws(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        # the rig draws a [shapes, pressures, trials] array; its C order is the scalar order
        vector = a.normal(0.0, 0.7, (4, 25, 100)).ravel().tolist()
        assert vector == [b.normal(0.0, 0.7) for _ in range(10_000)]


class TestNoise:
    def test_residual_std_converges(self):
        # 10^4 trials over 8 steps: the residuals about each step's clean force
        # have an empirical sigma within 5% of configured
        sigma = 0.8
        cfg = make_cfg(
            ground_truth={"circle": GROUND_TRUTH["circle"]},
            protocol=SweepProtocol(stop_kpa=40.0, trials=1250),
            noise_sigma_n=sigma,
            seed=9,
        )
        clean = generate_sweep(replace(cfg, noise_sigma_n=0.0)).force_n
        residuals = generate_sweep(cfg).force_n - clean
        assert len(residuals) == 10_000
        assert abs(residuals.std(ddof=1) - sigma) / sigma < 0.05

    def test_noisy_fit_recovery(self):
        # sigma ~= 0.01 in loss space scaled to force units at mid sweep
        hits = 0
        for seed in range(50):
            cfg = make_cfg(noise_sigma_n=0.01 * 63.8, seed=seed)
            series = compute_loss_series(generate_sweep(cfg).aggregates(), SHAPES)
            rep = fit_linear_loss(series["circle"], (30.0, 60.0))
            if abs(rep.slope_per_kpa + 0.005) <= 8e-4:
                hits += 1
        assert hits >= 47

    def test_forces_never_negative(self):
        cfg = make_cfg(noise_sigma_n=5.0, seed=3)
        forces = generate_sweep(cfg).force_n
        assert (forces > 0.0).any() and (forces == 0.0).any()
        assert all(f >= 0.0 and math.copysign(1.0, f) == 1.0 for f in forces.tolist())


class TestProvenance:
    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            make_cfg(seed=-1)

    def test_csv_carries_comment_header(self):
        text = write_measurements_csv(generate_sweep(make_cfg(seed=5)))
        lines = text.splitlines()
        assert lines[0] == "# seed: 5"
        assert any(l.startswith("# config:") for l in lines)
        assert "# conditioning_cycles: 10" in lines


class TestConfigValidation:
    def test_protocol_beyond_actuator_cap(self):
        message = "protocol stop 55.0 kPa exceeds max pressure of actuator 'eng'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_cfg(ground_truth={"eng": engineered_spec()}, protocol=SweepProtocol(stop_kpa=55.0))

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            make_cfg(noise_sigma_n=-0.1)

    def test_negative_zero_sigma_is_zero_noise(self):
        assert math.copysign(1.0, make_cfg(noise_sigma_n=-0.0).noise_sigma_n) == 1.0
        text = lambda sigma: write_measurements_csv(generate_sweep(make_cfg(noise_sigma_n=sigma)))
        assert text(-0.0) == text(0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_not_finite(self, sigma):
        message = f"noise_sigma_n must be finite and >= 0, got {sigma!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_cfg(noise_sigma_n=sigma)

    def test_sigma_whose_draws_overflow_names_it(self):
        for sigma in (1e308, 1e300):  # refused before any draw: far above the sweep's P*A
            message = ("noise_sigma_n must be <= 117.8 N, the largest ideal force P*A of the "
                       f"sweep (at stop_kpa 60.0), got {sigma!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_cfg(noise_sigma_n=sigma)

    def test_sigma_is_bounded_by_the_largest_ideal_force_at_stop(self):
        make_cfg(noise_sigma_n=117.8)  # the balloon family's P*A at 60 kPa is 117.81 N
        with pytest.raises(ValueError, match=r"^noise_sigma_n must be <= 117\.8 N, .* 117\.81$"):
            make_cfg(noise_sigma_n=117.81)
        with pytest.raises(ValueError, match=r"<= 58\.9 N, .* \(at stop_kpa 30\.0\), got 60\.0$"):
            make_cfg(noise_sigma_n=60.0, protocol=SweepProtocol(stop_kpa=30.0))

    def test_ideal_force_past_the_float_range_is_refused(self):
        # P*A at stop_kpa overflows, so the config is refused before any sweep is drawn
        message = "P*A overflows the float range: pressure 60.0 kPa, area 1e+308 mm^2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RigConfig({"huge": balloon_spec(Square(1e154))}, SweepProtocol(), noise_sigma_n=1e308)

    def test_default_sigma_is_one_percent_of_midrange_ideal(self):
        sigma = default_noise_sigma_n(GROUND_TRUTH, SweepProtocol())
        # mid-sweep pressure 32.5 kPa on the 1963.5 mm^2 family
        assert sigma == pytest.approx(0.01 * 32.5 * 1963.4954 / 1000.0, rel=1e-6)


class TestConfigDigest:
    def test_each_field_changes_the_digest(self):
        assert {f.name for f in fields(RigConfig)} == {
            "ground_truth", "protocol", "noise_sigma_n", "seed"}
        base = make_cfg(protocol=SweepProtocol(stop_kpa=50.0), noise_sigma_n=0.5)
        changed = [
            # one shape's spec; a lower valid bound of 25 kPa also moves the rig's knee
            replace(base, ground_truth={**GROUND_TRUTH,
                                        "circle": valid_from(GROUND_TRUTH["circle"], 25.0)}),
            replace(base, protocol=SweepProtocol(stop_kpa=55.0)),
            replace(base, protocol=SweepProtocol(stop_kpa=50.0, trials=4)),
            replace(base, noise_sigma_n=0.6),
            replace(base, seed=1),
        ]
        digests = [_config_digest(cfg) for cfg in (base, *changed)]
        assert len(set(digests)) == len(digests)
        assert _config_digest(replace(base)) == digests[0]
