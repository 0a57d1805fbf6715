"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: outputs must be byte-identical across runs, which
rules out plotting libraries that embed timestamps or version metadata.
One polyline per series, fixed palette, fixed coordinate formatting.
Coordinates are array math, one series at a time. The text of the polyline
points, and of the trace, measurement and comparison CSVs, comes from one
kernel: ``fixed_text`` builds each number's exact ``format`` text as a row of
bytes with array arithmetic, ``join_rows`` joins such rows into lines, and
``text_table`` appends those lines a chunk of rows at a time to one text.
A text-rows array is uint8 [n, w], one UTF-8 byte per cell; the byte 0xFF,
which UTF-8 never contains, marks padding, so a NUL byte of a text is kept.
"""

from __future__ import annotations

import csv
import io
import math
import sys

from ._lazy import np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45  # margins
_PAD = 0xFF  # a text-rows cell that holds no byte of the text


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo  # line_chart_svg widens a zero span
    # spans too small for floats to resolve: span / 5 can underflow to 0.0,
    # and a step below half an ulp of t would never move t
    step = 10 ** math.floor(math.log10(max(span / 5, sys.float_info.min)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 5:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        if t + step == t:
            break
        t += step
    return out


def csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row of several fields."""
    buf = io.StringIO()
    # the writer quotes a field holding a terminator character: a bare CR as well as LF
    csv.writer(buf, lineterminator="\r\n").writerow([text, ""])
    return buf.getvalue()[:-3]


def byte_rows(texts: list[str], width: int = 0) -> np.ndarray:
    """Text rows of ``texts``: uint8 [n, w], at least ``width`` wide.

    Row i holds the UTF-8 bytes of text i, left-aligned; padding cells hold
    0xFF, a byte UTF-8 never contains, so a NUL byte of a text is kept.
    """
    raw = [text.encode() for text in texts]
    lengths = np.array([len(b) for b in raw], dtype=np.intp)
    keep = np.arange(max([width, *lengths.tolist()])) < lengths[:, None]
    rows = np.full(keep.shape, _PAD, np.uint8)
    rows[keep] = np.frombuffer(b"".join(raw), np.uint8)
    return rows


def fixed_text(values, digits: int = 0) -> np.ndarray:
    """Text rows (see ``byte_rows``) of ``format(v, f".{digits}f")`` for each value, row-major.

    Integer arrays are written as ``str`` writes them; their digits are peeled
    in int64, or in uint64 for uint64. Float digits are peeled from
    rint(|v| * 10**digits) in int64, which gives ``format``'s digits unless
    the scaled value lies within its rounding error of a tie or at 2**52 and
    above; those values, NaN, inf and negative integers are formatted one by one.
    """
    x = np.asarray(values).ravel()
    if x.dtype.kind in "iu":  # peeled in 64 bits: int8 holds neither 0xFF nor 10 * (-128 // 10)
        spec, digits, exact = "{:d}", 0, x >= 0
        q = x if x.dtype.itemsize == 8 else x.astype(np.int64)
    else:
        spec = f"{{:.{digits}f}}"
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fall back
            y = np.abs(x.astype(float, copy=False)) * 10.0**digits
            exact = (np.abs(y - np.floor(y) - 0.5) > 4e-16 * y) & (y < 2.0**52)
        q = np.rint(y, out=np.zeros_like(y), where=exact).astype(np.int64)
    slow = list(map(spec.format, x[~exact].tolist()))
    int_width = len(str(int(q.max(initial=0)) // 10**digits))
    width = max([1 + int_width + (digits + 1 if digits else 0), *map(len, slow)])
    rows = np.full((len(x), width), _PAD, np.uint8)
    if digits:
        rows[:, -digits - 1] = ord(".")
    for k in range(digits + int_width):
        col = width - 1 - k - (k >= digits > 0)  # integer digits sit left of the point
        high = q // 10  # numpy divides by a scalar far faster in // than in np.divmod
        digit = q - high * 10 + ord("0")
        rows[:, col] = digit if k <= digits else np.where(q > 0, digit, _PAD)  # units digit kept
        q = high
    rows[:, col - 1] = np.where(np.signbit(x), ord("-"), _PAD)
    rows[~exact] = byte_rows(slow, width)
    return rows


def join_rows(fields: list[np.ndarray], sep: str = ",", end: str = "\n") -> str:
    """Row i of every text-rows field, joined by ``sep`` and ended by ``end``, for all rows."""
    marks = [np.full((len(fields[0]), 1), ord(m), np.uint8)
             for m in [sep] * (len(fields) - 1) + [end]]
    cells = np.concatenate([part for pair in zip(fields, marks) for part in pair], axis=1)
    return cells[cells != _PAD].tobytes().decode()


def text_table(head: str, n: int, chunk: int, fields) -> str:
    """``head``, then ``join_rows(fields(rows))`` for each slice ``rows`` of ``chunk`` of ``n`` rows.

    The text is one local ``str`` grown by ``+=``. CPython grows a ``str`` in place while one
    name holds its only reference, so the table is never held as chunks plus their join;
    another interpreter gives the same text and only holds more memory while building it.
    """
    text = head
    for start in range(0, n, chunk):
        text += join_rows(fields(slice(start, start + chunk)))
    return text


_XML_TEXT = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", **{
    c: repr(chr(c))[1:-1] for c in [*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF]}}


def _escape(text: str) -> str:
    """XML text: ``& < >`` escaped as xml.sax.saxutils.escape does, without importing urllib,
    and each character XML 1.0 forbids even as a reference written as its repr, e.g. ``\\x0b``."""
    return text.translate(_XML_TEXT)


def line_chart_svg(series: dict, title: str, x_label: str, y_label: str) -> str:
    """Render named (x, y) series as an SVG line chart string.

    Each series is a sequence of (x, y) pairs or an [n, 2] array.
    """
    arrays = [np.asarray(s, dtype=float) if len(s) else np.empty((0, 2)) for s in series.values()]
    filled = [a for a in arrays if len(a)] or [np.zeros((1, 2))]  # no points: ranges [0, 1]
    # one column at a time: numpy reduces a column far faster than an [n, 2] array over axis 0
    xs_lo, ys_lo = np.min([(a[:, 0].min(), a[:, 1].min()) for a in filled], axis=0).tolist()
    xs_hi, ys_hi = np.max([(a[:, 0].max(), a[:, 1].max()) for a in filled], axis=0).tolist()
    if xs_hi == xs_lo:
        xs_hi = xs_lo + 1.0
    if ys_hi == ys_lo:
        ys_hi = ys_lo + 1.0

    def px(x):
        return _ML + (x - xs_lo) / (xs_hi - xs_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ys_lo) / (ys_hi - ys_lo) * (_H - _MT - _MB)

    # one str grown in place (see text_table): the document is never held as lines plus their join
    text = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
        f'{_escape(title)}</text>',
        # axes
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="12">{_escape(x_label)}</text>',
        f'<text x="14" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.1f})">{_escape(y_label)}</text>',
        "",
    ])
    for tx in _ticks(xs_lo, xs_hi):
        text += (
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10">{tx:g}</text>\n'
        )
    for ty in _ticks(ys_lo, ys_hi):
        text += (
            f'<text x="{_ML - 6}" y="{py(ty):.2f}" text-anchor="end" '
            f'font-size="10">{ty:g}</text>\n'
        )
    for i, (label, pts) in enumerate(zip(series, arrays)):
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = pts.T
        if not np.all(xs[1:] > xs[:-1]):  # x that rises strictly is in order; a NaN x is not
            xs, ys = pts[np.lexsort((ys, xs))].T  # by x, then y
        rows = fixed_text([px(xs), py(ys)], 2)  # the x rows, then the y rows
        text += f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
        text += join_rows([rows[:len(xs)], rows[len(xs):]], ",", " ")[:-1]
        text += (
            '"/>\n'
            f'<text x="{_W - _MR - 5}" y="{_MT + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_escape(label)}</text>\n'
        )
    text += "</svg>\n"
    return text
