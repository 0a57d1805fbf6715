"""Cross-section geometry and the ideal pressure-force-area relation.

Unit system (locked package-wide):
- pressure: kilopascal (kPa)
- length: millimetre (mm)
- area: mm^2
- force: newton (N)

The single kPa*mm^2 -> N conversion (factor 1e-3) lives in
:func:`ideal_force`; no other function converts units. It is only P*A: a
pressure cap belongs to each actuator and is checked where it is driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Most rows a simulation trace or a synthetic sweep may hold, checked before allocating.
MAX_ROWS = 10_000_000

#: kPa * mm^2 -> N
_KPA_MM2_TO_N = 1e-3


def reject(values, bad, message: str, *args) -> None:
    """Raise ``ValueError(message.format(v, *args))`` for the first value v flagged ``bad``.

    ``values`` is a float with a bool flag or an array with a bool mask of
    its shape, so one check serves scalar and array callers.
    """
    if getattr(bad, "ndim", 0):
        if bad.any():
            raise ValueError(message.format(values[bad][0].item(), *args))
    elif bad:
        raise ValueError(message.format(values, *args))


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _PositiveDimensions:
    def __post_init__(self) -> None:
        for f in fields(self):
            _require_positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class Circle(_PositiveDimensions):
    radius_mm: float


@dataclass(frozen=True)
class EquilateralTriangle(_PositiveDimensions):
    side_mm: float


@dataclass(frozen=True)
class Square(_PositiveDimensions):
    side_mm: float


@dataclass(frozen=True)
class Rectangle(_PositiveDimensions):
    width_mm: float
    height_mm: float


@dataclass(frozen=True)
class RoundedRectangle:
    width_mm: float
    height_mm: float
    corner_radius_mm: float

    def __post_init__(self) -> None:
        _require_positive("width_mm", self.width_mm)
        _require_positive("height_mm", self.height_mm)
        if not (math.isfinite(self.corner_radius_mm) and self.corner_radius_mm >= 0.0):
            raise ValueError(f"corner_radius_mm must be >= 0, got {self.corner_radius_mm!r}")
        if self.corner_radius_mm > min(self.width_mm, self.height_mm) / 2.0:
            raise ValueError(
                "corner_radius_mm must not exceed half the shorter side: "
                f"r={self.corner_radius_mm}, w={self.width_mm}, h={self.height_mm}"
            )


CrossSection = Circle | EquilateralTriangle | Square | Rectangle | RoundedRectangle

#: Each cross-section class by the kind name that configs and the CLI use.
CROSS_SECTIONS = {
    "circle": Circle,
    "equilateral_triangle": EquilateralTriangle,
    "square": Square,
    "rectangle": Rectangle,
    "rounded_rectangle": RoundedRectangle,
}


_AREA = {
    Circle: lambda c: math.pi * (c.radius_mm * c.radius_mm),
    EquilateralTriangle: lambda t: math.sqrt(3.0) / 4.0 * (t.side_mm * t.side_mm),
    Square: lambda s: s.side_mm * s.side_mm,
    Rectangle: lambda r: r.width_mm * r.height_mm,
    # full rectangle minus the four corner cutouts (square minus quarter circle)
    RoundedRectangle: lambda r: (r.width_mm * r.height_mm
                                 - (4.0 - math.pi) * (r.corner_radius_mm * r.corner_radius_mm)),
}


def area(cs: CrossSection) -> float:
    """Exact analytic area of a cross-section in mm^2."""
    formula = _AREA.get(type(cs))
    if formula is None:
        raise TypeError(f"not a cross-section: {cs!r}")
    return formula(cs)


def equal_area_family(
    reference_radius_mm: float, rectangle_aspect: float = 2.0
) -> list[CrossSection]:
    """Circle, equilateral triangle, square and rectangle of identical area.

    The common area is that of a circle with ``reference_radius_mm``; the
    rectangle has width/height equal to ``rectangle_aspect`` (>= 1, so the
    aspect-1 rectangle coincides with the square).
    """
    _require_positive("reference_radius_mm", reference_radius_mm)
    if not (math.isfinite(rectangle_aspect) and rectangle_aspect >= 1.0):
        raise ValueError(f"rectangle_aspect must be >= 1, got {rectangle_aspect!r}")
    try:
        target = math.pi * reference_radius_mm**2
        height = math.sqrt(target / rectangle_aspect)
        return [
            Circle(reference_radius_mm),
            EquilateralTriangle(math.sqrt(4.0 * target / math.sqrt(3.0))),
            Square(math.sqrt(target)),
            Rectangle(rectangle_aspect * height, height),
        ]
    except (OverflowError, ValueError):  # r**2 overflows, or a side is inf or 0.0
        raise ValueError(
            f"reference_radius_mm {reference_radius_mm!r} (rectangle_aspect {rectangle_aspect!r}) "
            "gives sides that a float cannot hold"
        ) from None


def ideal_force(pressure_kpa, cs: CrossSection):
    """Lossless force P*A in newtons for finite non-negative pressures (a float or an array)."""
    p = pressure_kpa  # negative, NaN (p != p) or infinite; plain comparisons keep floats off numpy
    reject(p, (p < 0.0) | (p != p) | (p == math.inf),
           "pressure must be a finite non-negative kPa value, got {!r}")
    a = area(cs)
    # the largest pressure overflows first; as a float it does so without a numpy warning
    p = p.max(initial=0.0).item() if getattr(p, "ndim", 0) else p
    if not p * a * _KPA_MM2_TO_N < math.inf:  # inf, or NaN from 0 kPa on an infinite area
        raise ValueError(f"P*A overflows the float range: pressure {p!r} kPa, area {a!r} mm^2")
    return pressure_kpa * a * _KPA_MM2_TO_N
