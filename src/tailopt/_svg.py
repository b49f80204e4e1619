"""Tiny static SVG line charts; keeps the harness free of plotting deps."""

from __future__ import annotations

import math

import numpy as np

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(n - 1, 1)))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    out = []
    t = math.ceil(lo / step) * step
    for _ in range(n + 1):  # span / step <= n, so at most n + 1 ticks fit
        if t > hi + step * 1e-9:
            break
        out.append(round(t, 12))
        t += step
    return out


def _extent(values) -> tuple[float, float]:
    """The range of ``values``; one narrower than 1024 ulps of its magnitude
    (a flat series among them) is widened upward to at least 1.0, so that
    the ticks, at least a fortieth of the range apart, advance."""
    lo, hi = float(values.min()), float(values.max())
    least = 1024.0 * math.ulp(max(abs(lo), abs(hi)))
    return (lo, hi) if hi - lo >= least else (lo, lo + max(least, 1.0))


def line_chart(path: str, series, title: str, x_label: str, y_label: str,
               log_x: bool = False, log_y: bool = False):
    """Write [(x, y, label), ...] to ``path`` as a standalone SVG chart."""
    prepared = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if log_x:
            keep &= x > 0
        if log_y:
            keep &= y > 0
        x, y = x[keep], y[keep]
        prepared.append((np.log10(x) if log_x else x,
                         np.log10(y) if log_y else y, label))
    xs = np.concatenate([p[0] for p in prepared]) if prepared else np.array([0.0, 1.0])
    ys = np.concatenate([p[1] for p in prepared]) if prepared else np.array([0.0, 1.0])
    (x_lo, x_hi), (y_lo, y_hi) = _extent(xs), _extent(ys)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W / 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>',
             f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
             f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>']
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        label = f"1e{t:g}" if log_x else f"{t:g}"
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                     f'y2="{_H - _MB + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{label}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        label = f"1e{t:g}" if log_y else f"{t:g}"
        parts.append(f'<line x1="{_ML - 4}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 3:.1f}" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 10}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H / 2})">{y_label}</text>')
    for i, (x, y, label) in enumerate(prepared):
        color = _COLORS[i % len(_COLORS)]
        stride = max(1, x.size // 2000)  # cap path size for long trajectories
        pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}"
                       for a, b in zip(x[::stride], y[::stride]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{_W - _MR - 5}" y="{_MT + 14 + 14 * i}" '
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
