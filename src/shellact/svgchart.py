"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: outputs must be byte-identical across runs, which
rules out plotting libraries that embed timestamps or version metadata.
One polyline per series, fixed palette, fixed coordinate formatting.
Coordinates are array math, one series at a time. The text of the polyline
points, and of the trace and measurement CSVs, comes from one kernel:
``fixed_text`` builds each number's exact ``format`` text as a row of bytes
with array arithmetic, and ``join_rows`` joins such rows into lines.
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
_KEEP = 0x100  # set in a text-rows cell that holds a byte of the text


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    # spans too small for floats to resolve: span / n can underflow to 0.0,
    # and a step below half an ulp of t would never move t
    step = 10 ** math.floor(math.log10(max(span / n, sys.float_info.min)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
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
    """Text rows of ``texts``: uint16 [n, w], at least ``width`` wide.

    Row i holds the UTF-8 bytes of text i, left-aligned, each as
    ``_KEEP | byte``; padding cells are 0, so a NUL byte of a text is kept.
    """
    raw = [text.encode() for text in texts]
    lengths = np.array([len(b) for b in raw], dtype=np.intp)
    keep = np.arange(max([width, *lengths.tolist()])) < lengths[:, None]
    rows = np.zeros(keep.shape, np.uint16)
    rows[keep] = np.frombuffer(b"".join(raw), np.uint8).astype(np.uint16) | _KEEP
    return rows


def fixed_text(values, digits: int = 0) -> np.ndarray:
    """Text rows (see ``byte_rows``) of ``format(v, f".{digits}f")`` for each value, row-major.

    Integer arrays are written as ``str`` writes them. Digits are peeled
    from rint(|v| * 10**digits) in int64, which gives ``format``'s digits
    unless the scaled value lies within its rounding error of a tie or at
    2**52 and above; those values, NaN, inf and negative integers are
    formatted one by one.
    """
    x = np.asarray(values).ravel()
    if x.dtype.kind in "iu":
        spec, digits, q, exact = "{:d}", 0, x, x >= 0
    else:
        spec = f"{{:.{digits}f}}"
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fall back
            y = np.abs(x.astype(float, copy=False)) * 10.0**digits
            exact = (np.abs(y - np.floor(y) - 0.5) > 4e-16 * y) & (y < 2.0**52)
        q = np.rint(y, out=np.zeros_like(y), where=exact).astype(np.int64)
    slow = list(map(spec.format, x[~exact].tolist()))
    int_width = len(str(int(q.max(initial=0)) // 10**digits))
    width = max([1 + int_width + (digits + 1 if digits else 0), *map(len, slow)])
    rows = np.zeros((len(x), width), np.uint16)
    if digits:
        rows[:, -digits - 1] = _KEEP | ord(".")
    for k in range(digits + int_width):
        col = width - 1 - k - (k >= digits > 0)  # integer digits sit left of the point
        high = q // 10  # numpy divides by a scalar far faster in // than in np.divmod
        digit = q - high * 10 + (_KEEP | ord("0"))
        rows[:, col] = digit if k <= digits else np.where(q > 0, digit, 0)  # units digit kept
        q = high
    rows[:, col - 1] = np.where(np.signbit(x), _KEEP | ord("-"), 0)
    rows[~exact] = byte_rows(slow, width)
    return rows


def join_rows(fields: list[np.ndarray], sep: str = ",", end: str = "\n") -> str:
    """Row i of every text-rows field, joined by ``sep`` and ended by ``end``, for all rows."""
    marks = [np.full((len(fields[0]), 1), _KEEP | ord(m), np.uint16)
             for m in [sep] * (len(fields) - 1) + [end]]
    cells = np.concatenate([part for pair in zip(fields, marks) for part in pair], axis=1)
    return cells[cells >= _KEEP].astype(np.uint8).tobytes().decode()


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
    xs_lo, ys_lo = np.min([a.min(axis=0) for a in filled], axis=0).tolist()
    xs_hi, ys_hi = np.max([a.max(axis=0) for a in filled], axis=0).tolist()
    if xs_hi == xs_lo:
        xs_hi = xs_lo + 1.0
    if ys_hi == ys_lo:
        ys_hi = ys_lo + 1.0

    def px(x):
        return _ML + (x - xs_lo) / (xs_hi - xs_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ys_lo) / (ys_hi - ys_lo) * (_H - _MT - _MB)

    parts = [
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
    ]
    for tx in _ticks(xs_lo, xs_hi):
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10">{tx:g}</text>'
        )
    for ty in _ticks(ys_lo, ys_hi):
        parts.append(
            f'<text x="{_ML - 6}" y="{py(ty):.2f}" text-anchor="end" '
            f'font-size="10">{ty:g}</text>'
        )
    for i, (label, pts) in enumerate(zip(series, arrays)):
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = pts[np.lexsort((pts[:, 1], pts[:, 0]))].T  # by x, then y
        text = fixed_text([px(xs), py(ys)], 2)  # the x rows, then the y rows
        coords = join_rows([text[:len(xs)], text[len(xs):]], ",", " ")[:-1]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 5}" y="{_MT + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
