import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shellact.geometry import Circle, RoundedRectangle, ideal_force
from shellact.loss import (
    BALLOON_LOSS,
    ENGINEERED_LOSS,
    ActuatorSpec,
    ExponentialLoss,
    LinearLoss,
    balloon_spec,
    efficiency,
    engineered_spec,
    loss_fraction,
    loss_from_measurement,
    predicted_force,
)


class TestLossFraction:
    def test_linear_at_sweep_endpoints(self):
        assert loss_fraction(60.0, BALLOON_LOSS) == pytest.approx(0.222)
        assert loss_fraction(30.0, BALLOON_LOSS) == pytest.approx(0.372)

    def test_exponential_anchors(self):
        # coefficients solved from loss(5) = 0.70 and loss(50) = 0.03
        assert loss_fraction(50.0, ENGINEERED_LOSS) == pytest.approx(0.030, abs=1e-3)
        assert loss_fraction(5.0, ENGINEERED_LOSS) == pytest.approx(0.70, abs=1e-3)

    def test_clamped_to_unit_interval(self):
        high = LinearLoss(0.1, 0.9, (0.0, 60.0))
        assert loss_fraction(60.0, high) == 1.0
        falling = LinearLoss(-0.1, 0.5, (0.0, 60.0))
        assert loss_fraction(60.0, falling) == 0.0

    @given(st.floats(min_value=0.0, max_value=60.0))
    def test_efficiency_is_complement(self, p):
        assert efficiency(p, BALLOON_LOSS) == pytest.approx(1.0 - loss_fraction(p, BALLOON_LOSS))

    def test_efficiency_anchor_77_percent(self):
        assert efficiency(60.0, BALLOON_LOSS) == pytest.approx(0.778, abs=0.01)


class TestPredictedForce:
    def test_balloon_endpoints(self):
        spec = balloon_spec()
        assert predicted_force(60.0, spec) == pytest.approx(91.66, abs=0.01)
        assert predicted_force(30.0, spec) == pytest.approx(36.99, abs=0.01)

    def test_balloon_matches_paper_range(self):
        spec = balloon_spec()
        assert abs(predicted_force(60.0, spec) - 90.0) <= 3.0
        forces = [predicted_force(float(p), spec) for p in range(30, 65, 5)]
        assert min(forces) >= 36.0 - 1.0
        assert max(forces) <= 90.0 + 3.0

    def test_engineered_block_force(self):
        assert predicted_force(50.0, engineered_spec()) == pytest.approx(113.7, abs=1.0)
        assert predicted_force(50.0, engineered_spec()) > 100.0

    def test_over_pressure(self):
        with pytest.raises(ValueError, match="^pressure 55.0 kPa exceeds actuator max 50.0 kPa$"):
            predicted_force(55.0, engineered_spec())

    def test_bounded_by_ideal(self):
        spec = balloon_spec()
        for p in [x * 0.5 for x in range(1, 121)]:
            f = predicted_force(p, spec)
            assert 0.0 <= f <= ideal_force(p, spec.cross_section) + 1e-12

    def test_strictly_increasing_over_fit_window(self):
        spec = balloon_spec()
        grid = [30.0 + 0.1 * i for i in range(301)]
        forces = [predicted_force(p, spec) for p in grid]
        assert all(b > a for a, b in zip(forces, forces[1:]))


class TestLossFromMeasurement:
    def test_inverse_of_prediction(self):
        assert loss_from_measurement(60.0, Circle(25.0), 91.66) == pytest.approx(0.222, abs=1e-4)

    def test_lossless_and_blocked(self):
        cs = Circle(25.0)
        assert loss_from_measurement(40.0, cs, ideal_force(40.0, cs)) == pytest.approx(0.0)
        assert loss_from_measurement(40.0, cs, 0.0) == pytest.approx(1.0)

    def test_anomalous_measurement_goes_negative(self):
        cs = Circle(25.0)
        assert loss_from_measurement(40.0, cs, 1.1 * ideal_force(40.0, cs)) < 0.0

    def test_zero_pressure_rejected(self):
        with pytest.raises(ValueError, match="^loss is undefined at zero pressure$"):
            loss_from_measurement(0.0, Circle(25.0), 10.0)

    def test_array_equals_scalar_calls(self):
        cs = Circle(25.0)
        pressures = [30.0, 37.5, 45.0, 60.0, 1e-300]
        forces = [60.0, 0.0, 91.66, 150.0, 1e-303]  # 150 N lies above P*A: a negative loss
        scalar = [loss_from_measurement(p, cs, f) for p, f in zip(pressures, forces)]
        assert loss_from_measurement(np.array(pressures), cs, np.array(forces)).tolist() == scalar

    @pytest.mark.parametrize("pressures, forces, message", [
        ([30.0, 0.0, 60.0], [10.0, 10.0, 10.0], "loss is undefined at zero pressure"),
        ([30.0, -5.0], [10.0, 10.0], "loss is undefined at zero pressure"),
        ([30.0, 60.0], [10.0, -1.5], "measured force must be >= 0, got -1.5"),
    ])
    def test_array_refusal_names_the_first_bad_value(self, pressures, forces, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loss_from_measurement(np.array(pressures), Circle(25.0), np.array(forces))

    @given(st.floats(min_value=30.0, max_value=60.0))
    def test_round_trip_with_prediction(self, p):
        spec = balloon_spec()
        recovered = loss_from_measurement(p, spec.cross_section, predicted_force(p, spec))
        assert abs(recovered - loss_fraction(p, spec.loss_model)) < 1e-12

    @given(st.floats(min_value=5.0, max_value=50.0))
    def test_round_trip_exponential(self, p):
        spec = engineered_spec()
        recovered = loss_from_measurement(p, spec.cross_section, predicted_force(p, spec))
        assert abs(recovered - loss_fraction(p, spec.loss_model)) < 1e-12


class TestActuatorSpec:
    def test_max_pressure_beyond_validity_needs_flag(self):
        with pytest.raises(ValueError):
            ActuatorSpec(Circle(25.0), ENGINEERED_LOSS, max_pressure_kpa=60.0)
        spec = ActuatorSpec(
            Circle(25.0), ENGINEERED_LOSS, max_pressure_kpa=60.0, allow_extrapolation=True
        )
        assert spec.max_pressure_kpa == 60.0

    def test_stroke_positive(self):
        with pytest.raises(ValueError):
            ActuatorSpec(Circle(25.0), BALLOON_LOSS, stroke_mm=0.0)

    @pytest.mark.parametrize("name", ["max_pressure_kpa", "stroke_mm"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_limit_must_be_positive_and_finite(self, name, value):
        message = f"{name} must be positive and finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ActuatorSpec(Circle(25.0), BALLOON_LOSS, **{name: value})

    def test_bad_valid_range(self):
        with pytest.raises(ValueError):
            LinearLoss(-0.005, 0.522, (60.0, 30.0))
        with pytest.raises(ValueError):
            ExponentialLoss(1.0, 0.1, (10.0, 10.0))

    @pytest.mark.parametrize("valid_range", [(30.0, 45.0, 60.0), (30.0,)])
    def test_valid_range_of_other_than_two_values_is_named(self, valid_range):
        message = f"valid_range_kpa must be finite with 0 <= lo < hi, got {valid_range!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearLoss(-0.005, 0.522, valid_range)

    # the clamp read such a curve as no loss at every pressure, so predict printed force = P*A
    @pytest.mark.parametrize("form, params, ends", [
        (LinearLoss, (-0.005, 0.1, (30.0, 60.0)), (-0.005 * 30.0 + 0.1, -0.005 * 60.0 + 0.1)),
        (ExponentialLoss, (-0.5, 0.07, (5.0, 50.0)),
         (-0.5 * math.exp(-0.07 * 5.0), -0.5 * math.exp(-0.07 * 50.0))),
    ], ids=["linear", "exponential"])
    def test_loss_below_zero_over_the_valid_range_is_refused(self, form, params, ends):
        message = f"loss is below 0 over valid_range_kpa {params[2]!r}: {ends!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            form(*params)

    def test_engineered_defaults(self):
        spec = engineered_spec()
        assert isinstance(spec.cross_section, RoundedRectangle)
        assert spec.loss_model.amplitude == pytest.approx(0.9930)
        assert spec.loss_model.decay_per_kpa == pytest.approx(0.0700)
        # the anchors the defaults were solved from
        assert 0.9930 * math.exp(-0.0700 * 5.0) == pytest.approx(0.70, abs=1e-3)
        assert 0.9930 * math.exp(-0.0700 * 50.0) == pytest.approx(0.03, abs=1e-3)


class TestArrayEvaluation:
    """Arrays go through the same functions as floats and give the same bits."""

    GRID = np.linspace(0.0, 50.0, 201)

    def test_predicted_force_matches_scalar(self):
        for spec in (balloon_spec(), engineered_spec()):
            forces = predicted_force(self.GRID, spec)
            assert forces.tolist() == [predicted_force(p, spec) for p in self.GRID.tolist()]

    def test_loss_fraction_matches_scalar(self):
        grid = np.append(self.GRID, [-10.0, 500.0, math.nan])
        for model in (BALLOON_LOSS, ENGINEERED_LOSS):
            want = [loss_fraction(p, model) for p in grid.tolist()]
            assert loss_fraction(grid, model).tolist() == want

    def test_over_pressure_names_first_offender(self):
        with pytest.raises(ValueError, match="pressure 61.5 kPa exceeds actuator max"):
            predicted_force(np.array([10.0, 61.5, 70.0]), balloon_spec())

    def test_bad_pressures_name_offender(self):
        with pytest.raises(ValueError, match="got nan"):
            ideal_force(np.array([[1.0, 2.0], [math.nan, -1.0]]), Circle(25.0))
        with pytest.raises(ValueError, match="got -1.0"):
            ideal_force(np.array([1.0, -1.0, math.inf]), Circle(25.0))
        with pytest.raises(ValueError, match="got inf"):
            ideal_force(np.array([1.0, math.inf]), Circle(25.0))

    def test_scalar_errors_unchanged(self):
        with pytest.raises(ValueError, match="got -5$"):
            ideal_force(-5, Circle(25.0))
        with pytest.raises(ValueError, match="got nan"):
            ideal_force(math.nan, Circle(25.0))
        with pytest.raises(ValueError, match="pressure 61 kPa exceeds actuator max"):
            predicted_force(61, balloon_spec())


# one bad pressure as each input kind, with the value the error message shows for it
NEGATIVE_BY_KIND = [
    (-5, "-5"),
    (-5.0, "-5.0"),
    (np.float64(-5.0), "np.float64(-5.0)"),
    (np.array(-5.0), "array(-5.)"),
    (np.array([30.0, -5.0]), "-5.0"),
]
OVER_CAP_BY_KIND = [
    (70, "70"),
    (70.0, "70.0"),
    (np.float64(70.0), "70.0"),
    (np.array(70.0), "70.0"),
    (np.array([30.0, 70.0]), "70.0"),
]


class TestInputKindParity:
    """Scalar-or-array dispatch keys on ``ndim``, not on the numpy type: every
    input kind raises the same exception type and message it always did."""

    @pytest.mark.parametrize("p, shown", NEGATIVE_BY_KIND)
    def test_negative_pressure(self, p, shown):
        want = f"pressure must be a finite non-negative kPa value, got {shown}"
        for call in (lambda x: ideal_force(x, Circle(25.0)),
                     lambda x: predicted_force(x, balloon_spec())):
            with pytest.raises(ValueError) as exc:
                call(p)
            assert type(exc.value) is ValueError and str(exc.value) == want

    @pytest.mark.parametrize("p, shown", OVER_CAP_BY_KIND)
    def test_over_cap(self, p, shown):
        with pytest.raises(ValueError, match="exceeds actuator max") as exc:
            predicted_force(p, balloon_spec())
        assert str(exc.value) == f"pressure {shown} kPa exceeds actuator max 60.0 kPa"

    @pytest.mark.parametrize(
        "p, kind",
        [(30, float), (30.0, float), (np.float64(30.0), np.float64),
         (np.array(30.0), np.float64), (np.array([30.0]), np.ndarray)],
    )
    def test_valid_pressure_keeps_its_kind(self, p, kind):
        force = predicted_force(p, balloon_spec())
        assert type(force) is kind
        assert float(np.ravel(force)[0]) == predicted_force(30.0, balloon_spec())
