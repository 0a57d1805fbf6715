"""Force-loss models and force prediction for shell-constrained actuators.

The measured output force of the actuator is the ideal pressure*area force
scaled by ``1 - loss``, where the loss is a dimensionless fraction in
[0, 1]. Two parametric loss curves are supported: a linear fit valid over
the upper half of the pressure sweep (balloon prototype) and an
exponentially decaying loss (molded actuator). Every evaluation takes a
float or a numpy array of pressures. A pressure cap is each actuator's
``max_pressure_kpa``, checked where the actuator is driven (:func:`predicted_force`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._lazy import np
from .geometry import Circle, CrossSection, RoundedRectangle, _require_positive, ideal_force, reject


def _exp(x):
    """math.exp of a float or of each array element (np.exp can differ in the last bit)."""
    if getattr(x, "ndim", 0):
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.exp(x)


def _check_valid_range(range_kpa: tuple[float, float], name: str = "valid_range_kpa") -> None:
    lo, hi = range_kpa if len(range_kpa) == 2 else (math.nan, math.nan)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError(f"{name} must be finite with 0 <= lo < hi, got {range_kpa!r}")


@dataclass(frozen=True)
class LinearLoss:
    """loss(P) = clamp(slope*P + intercept, 0, 1)."""

    slope_per_kpa: float
    intercept: float
    valid_range_kpa: tuple[float, float] = (30.0, 60.0)

    def __post_init__(self) -> None:
        _check_valid_range(self.valid_range_kpa)

    def raw(self, pressure_kpa):
        return self.slope_per_kpa * pressure_kpa + self.intercept


@dataclass(frozen=True)
class ExponentialLoss:
    """loss(P) = clamp(amplitude * exp(-decay*P), 0, 1)."""

    amplitude: float
    decay_per_kpa: float
    valid_range_kpa: tuple[float, float] = (5.0, 50.0)

    def __post_init__(self) -> None:
        _check_valid_range(self.valid_range_kpa)

    def raw(self, pressure_kpa):
        return self.amplitude * _exp(-self.decay_per_kpa * pressure_kpa)


LossModel = LinearLoss | ExponentialLoss

#: Linear loss fitted to the balloon prototype sweep over [30, 60] kPa.
BALLOON_LOSS = LinearLoss(slope_per_kpa=-0.005, intercept=0.522)

#: Exponential loss of the molded actuator, anchored at loss(5)=0.70 and
#: loss(50)=0.03. Defaults only; a fit can replace them.
ENGINEERED_LOSS = ExponentialLoss(amplitude=0.9930, decay_per_kpa=0.0700)


class LossValue(NamedTuple):
    """Loss fraction plus out-of-validity-range flag, as floats or as arrays."""

    fraction: float
    extrapolated: bool


def loss_fraction(pressure_kpa, model: LossModel) -> LossValue:
    """Evaluate the loss fraction, clamped to [0, 1].

    Pressures outside the model's validity range are evaluated anyway but
    flagged as extrapolated.
    """
    raw = model.raw(pressure_kpa)
    if getattr(raw, "ndim", 0):  # NaN clamps to 0.0, as with min/max below
        fraction = np.where(raw > 0.0, np.where(raw < 1.0, raw, 1.0), 0.0)
    else:
        fraction = min(1.0, max(0.0, raw))
    lo, hi = model.valid_range_kpa
    inside = (lo <= pressure_kpa) & (pressure_kpa <= hi)
    return LossValue(fraction, extrapolated=inside ^ True)  # ^ negates a bool and an array alike


def efficiency(pressure_kpa, model: LossModel) -> LossValue:
    """Complement of the loss fraction (1 - loss), same extrapolation flag."""
    lv = loss_fraction(pressure_kpa, model)
    return LossValue(1.0 - lv.fraction, lv.extrapolated)


@dataclass(frozen=True)
class ActuatorSpec:
    """A cross-section paired with its loss model and operating limits."""

    cross_section: CrossSection
    loss_model: LossModel
    max_pressure_kpa: float = 60.0
    stroke_mm: float = 5.0
    allow_extrapolation: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.allow_extrapolation, bool):  # bool("no") would be True
            raise ValueError("allow_extrapolation must be true or false, "
                             f"got {self.allow_extrapolation!r}")
        _require_positive("max_pressure_kpa", self.max_pressure_kpa)
        _require_positive("stroke_mm", self.stroke_mm)
        if self.max_pressure_kpa > self.loss_model.valid_range_kpa[1] and not self.allow_extrapolation:
            raise ValueError(
                f"max_pressure_kpa {self.max_pressure_kpa} exceeds the loss model's "
                f"validity range {self.loss_model.valid_range_kpa}; "
                "set allow_extrapolation=True to accept"
            )


#: Balloon prototype: radius-25 mm circular interaction area, linear loss.
def balloon_spec(cross_section: CrossSection | None = None) -> ActuatorSpec:
    return ActuatorSpec(cross_section if cross_section is not None else Circle(25.0), BALLOON_LOSS)


#: Molded actuator: rounded-rectangle interaction area, exponential loss.
def engineered_spec() -> ActuatorSpec:
    return ActuatorSpec(RoundedRectangle(60.0, 40.0, 8.0), ENGINEERED_LOSS, max_pressure_kpa=50.0)


def predicted_force(pressure_kpa, spec: ActuatorSpec):
    """Model force in newtons: ideal_force * (1 - loss), for a float or an array."""
    cap = spec.max_pressure_kpa
    reject(pressure_kpa, pressure_kpa > cap, "pressure {} kPa exceeds actuator max {} kPa", cap)
    ideal = ideal_force(pressure_kpa, spec.cross_section)
    return ideal * (1.0 - loss_fraction(pressure_kpa, spec.loss_model).fraction)


def loss_from_measurement(pressure_kpa, cs: CrossSection, measured_force_n):
    """Back-calculate the loss fraction from a measured force, for a float or an array.

    The result is deliberately not clamped: a measurement above the ideal
    force yields a negative loss, which flags bad data instead of hiding it.
    """
    reject(pressure_kpa, pressure_kpa <= 0.0, "loss is undefined at zero pressure")
    reject(measured_force_n, measured_force_n < 0.0, "measured force must be >= 0, got {!r}")
    return 1.0 - measured_force_n / ideal_force(pressure_kpa, cs)
