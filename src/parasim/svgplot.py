"""Minimal standalone SVG line plots for study results: axes, tick labels,
one polyline-with-markers per series, error bars and a legend.  Kept
dependency-free on purpose; this is a figure-reproduction aid, not a UI.
"""
from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#ff7f0e", "#9467bd",
           "#8c564b", "#17becf", "#7f7f7f")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 28, 46


def _ticks(lo: float, hi: float):
    """About five round values from lo < hi."""
    raw = (hi - lo) / 4
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    values = []
    v = start
    while v <= hi + 1e-12 * step:
        values.append(0.0 if abs(v) < step * 1e-9 else float(v))
        v += step
    return values


def line_plot(series: dict, xlabel: str, ylabel: str, title: str) -> str:
    """series: label -> (xs, ys, errs), as experiments.study_series builds
    it, where an error of 0 draws no bar; returns SVG text."""
    data = {label: np.asarray(s, dtype=float) for label, s in series.items()}
    xs_all = np.concatenate([xs for xs, _, _ in data.values()])
    ys_all = np.concatenate([ys + sign * errs for _, ys, errs in data.values()
                             for sign in (-1, 1)])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(y):
        return _HEIGHT - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) \
            * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.append(f'<text x="{_WIDTH / 2}" y="18" text-anchor="middle" '
                 f'font-size="14">{title}</text>')
    # frame
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" '
        f'width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="black"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_HEIGHT - _MARGIN_B}" '
                     f'x2="{px(tx):.1f}" y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py(ty):.1f}" '
                     f'x2="{_MARGIN_L}" y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py(ty) + 4:.1f}" '
                     f'text-anchor="end">{ty:g}</text>')
    if y_lo < 0 < y_hi:
        parts.append(f'<line x1="{_MARGIN_L}" y1="{py(0):.1f}" '
                     f'x2="{_WIDTH - _MARGIN_R}" y2="{py(0):.1f}" '
                     f'stroke="#bbbbbb" stroke-dasharray="4 3"/>')
    parts.append(f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" '
                 f'y="{_HEIGHT - 8}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2}" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2})">{ylabel}</text>')

    for i, (label, (xs, ys, errs)) in enumerate(data.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        for x, y, err in zip(xs, ys, errs):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5" '
                         f'fill="{color}"/>')
            if err > 0:
                parts.append(f'<line x1="{px(x):.1f}" y1="{py(y - err):.1f}" '
                             f'x2="{px(x):.1f}" y2="{py(y + err):.1f}" '
                             f'stroke="{color}"/>')
        ly = _MARGIN_T + 16 + 16 * i
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
