import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shellact.geometry import (
    Circle,
    EquilateralTriangle,
    Rectangle,
    RoundedRectangle,
    Square,
    area,
    equal_area_family,
    ideal_force,
)

REF_AREA = math.pi * 625.0  # radius-25 mm circle


def test_circle_area_exact():
    assert area(Circle(25.0)) == pytest.approx(1963.4954, abs=1e-4)


def test_square_area_matches_reference():
    side = math.sqrt(REF_AREA)
    assert side == pytest.approx(44.3113, abs=1e-4)
    assert area(Square(side)) == pytest.approx(1963.49, abs=0.01)


def test_triangle_side_formula():
    side = math.sqrt(4.0 * REF_AREA / math.sqrt(3.0))
    assert area(EquilateralTriangle(side)) == pytest.approx(REF_AREA, rel=1e-12)


def test_rounded_rectangle_area_analytic():
    assert area(RoundedRectangle(60.0, 40.0, 8.0)) == pytest.approx(2345.062, abs=1e-3)
    assert area(RoundedRectangle(60.0, 40.0, 8.0)) == pytest.approx(
        2400.0 - (4.0 - math.pi) * 64.0, rel=1e-15
    )


def test_rounded_rectangle_area_monte_carlo_oracle():
    # independent point-in-shape integration over the bounding box
    w, h, r = 60.0, 40.0, 8.0
    rng = np.random.default_rng(12345)
    n = 400_000
    x = rng.uniform(0.0, w, n)
    y = rng.uniform(0.0, h, n)
    cx = np.clip(x, r, w - r)
    cy = np.clip(y, r, h - r)
    inside = (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    estimate = inside.mean() * w * h
    assert estimate == pytest.approx(area(RoundedRectangle(w, h, r)), rel=5e-3)


def test_rounded_rectangle_zero_radius_equals_rectangle():
    assert area(RoundedRectangle(60.0, 40.0, 0.0)) == area(Rectangle(60.0, 40.0))


@pytest.mark.parametrize("cs", [Circle(1e155), EquilateralTriangle(1e155), Square(1e155),
                                RoundedRectangle(1e155, 1e155, 1e155 / 2)])
def test_area_past_the_float_range_reaches_the_named_force_check(cs):
    # a dimension squared past the float range is inf (or NaN, inf - inf), never OverflowError
    assert not area(cs) < math.inf
    with pytest.raises(ValueError, match=r"^P\*A overflows the float range: pressure 30.0 kPa"):
        ideal_force(30.0, cs)


def test_area_of_a_non_cross_section_is_a_type_error():
    with pytest.raises(TypeError, match="not a cross-section: 25.0"):
        area(25.0)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Circle(0.0),
        lambda: Circle(-1.0),
        lambda: Square(-3.0),
        lambda: Rectangle(10.0, 0.0),
        lambda: RoundedRectangle(10.0, 10.0, 6.0),  # r > min/2
        lambda: RoundedRectangle(10.0, 10.0, -1.0),
    ],
)
def test_invalid_dimensions_rejected(bad):
    with pytest.raises(ValueError, match=r"^\w+_mm must "):  # names the dimension
        bad()


class TestEqualAreaFamily:
    def test_all_areas_match_reference(self):
        for cs in equal_area_family(25.0, 2.0):
            assert abs(area(cs) - REF_AREA) / REF_AREA < 1e-9

    def test_expected_dimensions(self):
        circle, triangle, square, rectangle = equal_area_family(25.0, 2.0)
        assert square.side_mm == pytest.approx(44.3113, abs=1e-4)
        assert triangle.side_mm == pytest.approx(math.sqrt(4 * REF_AREA / math.sqrt(3)))
        assert rectangle.width_mm / rectangle.height_mm == pytest.approx(2.0)

    def test_aspect_one_degenerates_to_square(self):
        _, _, square, rectangle = equal_area_family(25.0, 1.0)
        assert rectangle.width_mm == pytest.approx(square.side_mm)
        assert rectangle.height_mm == pytest.approx(square.side_mm)

    def test_bad_aspect_rejected(self):
        with pytest.raises(ValueError):
            equal_area_family(25.0, 0.5)

    # 1e200**2 raises OverflowError; 1e-200**2 underflows to a zero side
    @pytest.mark.parametrize("radius", [1e200, 1e-200])
    def test_radius_beyond_float_range_names_it(self, radius):
        with pytest.raises(ValueError, match=f"^reference_radius_mm {re.escape(repr(radius))} "):
            equal_area_family(radius)


class TestIdealForce:
    def test_reference_values(self):
        assert ideal_force(60.0, Circle(25.0)) == pytest.approx(117.810, abs=1e-3)
        assert ideal_force(0.0, Square(10.0)) == 0.0
        assert ideal_force(50.0, RoundedRectangle(60, 40, 8)) == pytest.approx(117.253, abs=1e-3)

    def test_negative_pressure_rejected(self):
        with pytest.raises(ValueError):
            ideal_force(-1.0, Circle(25.0))

    def test_force_past_the_float_range_is_refused_naming_pressure_and_area(self):
        # 30 * 1e308 overflows; 0 kPa on an infinite area would give NaN
        for pressures, cs, p, a in [(30.0, Square(1e154), "30.0", "1e+308"),
                                    (0.0, Rectangle(1e200, 1e200), "0.0", "inf")]:
            message = f"P*A overflows the float range: pressure {p} kPa, area {a} mm^2"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ideal_force(pressures, cs)

    def test_array_past_the_float_range_is_refused_without_a_warning(self):
        message = "P*A overflows the float range: pressure 30.0 kPa, area 1e+308 mm^2"
        with np.errstate(all="raise"), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ideal_force(np.array([1.0, 30.0, 2.0]), Square(1e154))
        assert ideal_force(np.array([1.0, 2.0]), Square(1e152)).tolist() == [1e301, 2e301]
        assert ideal_force(np.array([]), Square(1e154)).size == 0

    @given(
        p=st.floats(min_value=0.0, max_value=60.0),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_linearity_in_pressure(self, p, alpha):
        f1 = ideal_force(p, Circle(25.0))
        f2 = ideal_force(alpha * p, Circle(25.0))
        assert f2 == pytest.approx(alpha * f1, rel=1e-12, abs=1e-12)

    @given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=0.01, max_value=50.0))
    def test_area_strictly_increasing_in_radius(self, r, dr):
        assert area(Circle(r + dr)) > area(Circle(r))
        assert ideal_force(10.0, Circle(r + dr)) > ideal_force(10.0, Circle(r))

    def test_equal_area_invariance_over_sweep(self):
        family = equal_area_family(25.0, 2.0)
        for p in range(5, 65, 5):
            forces = [ideal_force(float(p), cs) for cs in family]
            for f in forces[1:]:
                assert abs(f - forces[0]) / forces[0] < 1e-9
