import math
import os
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shellact.svgchart import _escape, byte_rows, fixed_text, join_rows, line_chart_svg, text_table


def reference_polylines(series):
    """Per-point scalar coordinates, as the chart computed them before it used arrays."""
    pts = [p for s in series.values() for p in s]
    if not pts:
        return [""] * len(series)
    xs_lo, xs_hi = min(x for x, _ in pts), max(x for x, _ in pts)
    ys_lo, ys_hi = min(y for _, y in pts), max(y for _, y in pts)
    xs_hi = xs_lo + 1.0 if xs_hi == xs_lo else xs_hi
    ys_hi = ys_lo + 1.0 if ys_hi == ys_lo else ys_hi

    def px(x):
        return 60 + (x - xs_lo) / (xs_hi - xs_lo) * 560

    def py(y):
        return 355 - (y - ys_lo) / (ys_hi - ys_lo) * 325

    return [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(s)) for s in series.values()]


def polylines(svg):
    return [chunk.split('"')[0] for chunk in svg.split('points="')[1:]]


coordinate = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]))


class TestEscaping:
    def test_special_label_parses(self):
        svg = line_chart_svg({"a<b&c": [(0.0, 1.0), (1.0, 2.0)]}, "t", "x", "y")
        doc = xml.dom.minidom.parseString(svg)
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert "a<b&c" in labels

    def test_title_and_axis_labels_escaped(self):
        svg = line_chart_svg({"s": [(0.0, 1.0)]}, "P & F", "x <kPa>", "y > 0")
        texts = xml.dom.minidom.parseString(svg).getElementsByTagName("text")
        labels = [t.firstChild.data for t in texts]
        assert {"P & F", "x <kPa>", "y > 0"} <= set(labels)

    def test_matches_saxutils(self):
        for text in ("", "plain", "a<b&c", "&amp;", "x>y<z", "'\"quotes\""):
            assert _escape(text) == escape(text)

    # XML 1.0 forbids these even as character references: each is written as its repr
    @pytest.mark.parametrize("char", [*map(chr, [*range(9), 11, 12, *range(14, 32)]),
                                      "\ufffe", "\uffff"], ids=lambda c: f"U+{ord(c):04X}")
    def test_label_with_a_character_xml_forbids_parses(self, char):
        svg = line_chart_svg({f"a{char}b": [(0.0, 1.0)]}, f"t{char}", "x", f"y{char}")
        shown = repr(char)[1:-1]
        labels = {t.text for t in ET.fromstring(svg.encode()).iter("{http://www.w3.org/2000/svg}text")}
        assert {f"a{shown}b", f"t{shown}", f"y{shown}"} <= labels


class TestSeriesInput:
    def test_array_and_pair_list_render_alike(self):
        pairs = [(2.0, 5.0), (0.0, 1.0), (1.0, 3.0), (1.0, -2.0)]
        as_list = line_chart_svg({"s": pairs}, "t", "x", "y")
        as_array = line_chart_svg({"s": np.array(pairs)}, "t", "x", "y")
        assert as_list == as_array

    def test_points_sorted_by_x_then_y(self):
        svg = line_chart_svg({"s": [(1.0, 3.0), (0.0, 0.0), (1.0, 1.0)]}, "t", "x", "y")
        points = svg.split('points="')[1].split('"')[0].split()
        assert points == ["60.00,355.00", "620.00,246.67", "620.00,30.00"]

    def test_rising_x_needs_no_sort(self):
        rising = [(0.0, 2.0), (1.0, 0.0), (2.0, 1.0), (2.5, 1.0)]
        svg = line_chart_svg({"a": rising, "b": rising[::-1]}, "t", "x", "y")
        assert polylines(svg)[0] == polylines(svg)[1] == reference_polylines({"a": rising})[0]

    def test_empty_series(self):
        svg = line_chart_svg({"s": []}, "t", "x", "y")
        assert 'points=""' in svg
        xml.dom.minidom.parseString(svg)


class TestMemory:
    def test_chart_works_one_series_at_a_time(self):
        # all 72k points sorted and formatted at once put the traced peak at about 47x
        # one series' array; one series at a time, plus the SVG text, at about 17x; with
        # the text grown in place, not held as lines plus their join, at about 14x
        t = np.arange(1, 12001) * 1e-3
        series = {f"s{j}": np.column_stack((t, np.sin(t * (j + 1)) * 50.0)) for j in range(6)}
        tracemalloc.start()
        try:
            line_chart_svg(series, "t", "x", "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * series["s0"].nbytes, (peak, series["s0"].nbytes)


class TestTextTable:
    # n = 0 is the head alone; 8 and 12 rows fill their chunks exactly; 10 leaves a short one
    @pytest.mark.parametrize("n, chunk", [(0, 4), (8, 4), (12, 4), (8, 8), (10, 4)])
    def test_head_then_each_chunk_of_rows(self, n, chunk):
        values = np.arange(n)
        seen = []

        def fields(rows):
            seen.append((rows.start, rows.stop))
            return [fixed_text(values[rows]), fixed_text(values[rows] * 2)]

        text = text_table("a,b\n", n, chunk, fields)
        assert text == "a,b\n" + "".join(f"{v},{2 * v}\n" for v in range(n))
        assert seen == [(start, start + chunk) for start in range(0, n, chunk)]


class TestMatchesReference:
    @given(st.lists(st.lists(st.tuples(coordinate, coordinate), max_size=30), max_size=6))
    def test_polyline_text(self, point_lists):
        series = {f"s{i}": pts for i, pts in enumerate(point_lists)}
        assert polylines(line_chart_svg(series, "t", "x", "y")) == reference_polylines(series)


class TestSpansBelowFloatResolution:
    def test_underflowing_span_renders(self):
        svg = line_chart_svg({"s": [(0.0, 0.0), (1.0, 5e-324)]}, "t", "x", "y")
        xml.dom.minidom.parseString(svg)

    def test_one_ulp_span_terminates(self):
        # before the fix the tick loop never ended, so run it where a timeout can stop it
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import math; from shellact.svgchart import line_chart_svg; "
            "one_ulp = math.nextafter(1.0, 2.0); "
            "print(line_chart_svg({'s': [(1.0, 0.0), (one_ulp, 1.0)]}, 't', 'x', 'y'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        xml.dom.minidom.parseString(proc.stdout)


def texts(values, digits=0):
    """The kernel's text of each value, as a list of strings."""
    return join_rows([fixed_text(values, digits)]).split("\n")[:-1]


def ties(digits):
    """Values (k + 0.5) / 10**digits: a rounding tie, or the float nearest to one."""
    return st.integers(-10**7, 10**7).map(lambda k: (k + 0.5) / 10**digits)


any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-300, 1e-300),  # subnormals and values that round to zero
    st.floats(2.0**51, 2.0**60) | st.floats(-(2.0**60), -(2.0**51)),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.0**52]),
)


class TestFixedText:
    def test_row_major_order(self):
        values = np.array([[1.0, 2.5], [1.0, 1.0]])
        assert texts(values, 2) == ["1.00", "2.50", "1.00", "1.00"]

    def test_negative_zero_kept(self):
        assert texts(np.array([0.0, -0.0, -1e-9]), 4) == ["0.0000", "-0.0000", "-0.0000"]

    @pytest.mark.parametrize("digits", [2, 4])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_format(self, digits, data):
        values = data.draw(st.lists(any_float | ties(digits), max_size=40))
        assert texts(np.array(values, dtype=float), digits) == [
            format(v, f".{digits}f") for v in values
        ]

    def test_integers_written_as_str(self):
        values = np.array([0, 7, -10, 123456789, 2**53 + 1, -(2**63)], dtype=np.int64)
        assert texts(values) == [str(v) for v in values.tolist()]

    # a narrow dtype used to overflow at "0" + digit: uint8 raised OverflowError
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16,
                                       np.int32, np.uint32, np.int64, np.uint64])
    def test_every_integer_dtype_written_as_str(self, dtype):
        info = np.iinfo(dtype)  # int64's min is -(2**63), uint64's max 2**64 - 1
        values = np.array([0, 7, 10, info.max // 10, info.min, info.max], dtype)
        assert texts(values) == [str(v) for v in values.tolist()]

    def test_fallback_values_format_like_the_rest(self):
        # a tie, a float next to one, a value past 2**52, NaN and inf take the per-value path
        values = [1.25, 0.125, 0.015, 2.0**53 + 2, math.nan, -math.inf, -3.5, 0.004999]
        assert texts(np.array(values), 2) == [format(v, ".2f") for v in values]
        rows = join_rows([fixed_text([1.0, 1e20], 1), fixed_text([math.nan, -2.0], 1)], ";", "|")
        assert rows == "1.0;nan|100000000000000000000.0;-2.0|"

    def test_text_with_nul_and_multibyte_bytes(self):
        table = byte_rows(["a\x00b", "é", "", "a,b"])
        assert join_rows([table, table[::-1]]) == "a\x00b,a,b\né,\n,é\na,b,a\x00b\n"
