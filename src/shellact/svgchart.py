"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: outputs must be byte-identical across runs, which
rules out plotting libraries that embed timestamps or version metadata.
One polyline per series, fixed palette, fixed coordinate formatting.
Coordinates are array math over all points; the text is Python-formatted.
"""

from __future__ import annotations

import math
import sys

from ._lazy import np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45  # margins


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


def format_each(values: np.ndarray, spec: str) -> list[str]:
    """``spec.format`` of each value, row-major, run once per distinct bit pattern."""
    bits, inverse = np.unique(np.asarray(values, float).ravel().view(np.int64), return_inverse=True)
    text = np.array(list(map(spec.format, bits.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def _escape(text: str) -> str:
    """XML-escape text as xml.sax.saxutils.escape does, without importing urllib."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart_svg(series: dict, title: str, x_label: str, y_label: str) -> str:
    """Render named (x, y) series as an SVG line chart string.

    Each series is a sequence of (x, y) pairs or an [n, 2] array.
    """
    counts = [len(s) for s in series.values()]
    arrays = (np.asarray(s, dtype=float) for s in series.values() if len(s))
    pts = np.concatenate([np.empty((0, 2)), *arrays])
    if not len(pts):
        xs_lo, xs_hi, ys_lo, ys_hi = 0.0, 1.0, 0.0, 1.0
    else:
        xs_lo, ys_lo = pts.min(axis=0).tolist()
        xs_hi, ys_hi = pts.max(axis=0).tolist()
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
    # all series at once: sorted by series, then x, then y; each coordinate formatted once
    owner = np.repeat(np.arange(len(counts)), counts)
    xs, ys = pts[np.lexsort((pts[:, 1], pts[:, 0], owner))].T
    x_text, y_text = format_each(px(xs), "{:.2f}"), format_each(py(ys), "{:.2f}")
    end = 0
    for i, (label, count) in enumerate(zip(series, counts)):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(map("{},{}".format, x_text[end:end + count], y_text[end:end + count]))
        end += count
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 5}" y="{_MT + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
