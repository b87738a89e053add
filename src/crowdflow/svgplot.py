"""Self-contained SVG line charts: zero plotting dependencies."""

from __future__ import annotations

import math

# series colours, cycled
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 52


def _transform(vals, lo, hi, out_lo, out_hi, log):
    if log:
        vals = [math.log10(v) for v in vals]
        lo, hi = math.log10(lo), math.log10(hi)
    span = (hi - lo) or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _bounds(vals):
    lo, hi = min(vals), max(vals)
    if lo == hi:
        pad = abs(lo) * 0.1 + 1e-12
        lo, hi = lo - pad, hi + pad
    return lo, hi


def _ticks(lo, hi, log):
    if log:
        klo, khi = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** k for k in range(klo, khi + 1)]
    step = 10.0 ** math.floor(math.log10((hi - lo) / 4.0 + 1e-300))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(v)
        v += step
    return out


def line_chart(series, title, xlabel, ylabel, log):
    """The SVG text of a line chart of ``series``, a list of ``(label,
    points)`` pairs: one polyline of ``(x, y)`` points and one legend entry
    per series.  ``log`` puts both axes on a log scale, which needs every
    coordinate positive.
    """
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    xlo, xhi = _bounds(xs)
    ylo, yhi = _bounds(ys)
    px = lambda v: _transform(v, xlo, xhi, _ML, _W - _MR, log)
    py = lambda v: _transform(v, ylo, yhi, _H - _MB, _MT, log)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W/2:.0f}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>']
    # axes
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" '
                 f'height="{_H-_MT-_MB}" fill="none" stroke="#333"/>')
    for tx in _ticks(xlo, xhi, log):
        if not xlo <= tx <= xhi:
            continue
        (sx,) = px([tx])
        parts.append(f'<line x1="{sx:.1f}" y1="{_H-_MB}" x2="{sx:.1f}" '
                     f'y2="{_H-_MB+5}" stroke="#333"/>')
        parts.append(f'<text x="{sx:.1f}" y="{_H-_MB+18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(ylo, yhi, log):
        if not ylo <= ty <= yhi:
            continue
        (sy,) = py([ty])
        parts.append(f'<line x1="{_ML-5}" y1="{sy:.1f}" x2="{_ML}" '
                     f'y2="{sy:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML-8}" y="{sy+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
    parts.append(f'<text x="{_W/2:.0f}" y="{_H-10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {_H/2:.0f})">{ylabel}</text>')
    for k, (label, pts) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        d = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                     zip(px([p[0] for p in pts]), py([p[1] for p in pts])))
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = _MT + 16 + 14 * k  # the series' legend entry
        parts.append(f'<line x1="{_W-_MR-120}" y1="{ly-4}" '
                     f'x2="{_W-_MR-100}" y2="{ly-4}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{_W-_MR-95}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
