"""Minimal self-contained SVG polyline plots (no plotting stack)."""

from __future__ import annotations

_PALETTE = (
    "#1b6ca8", "#c0392b", "#27ae60", "#8e44ad",
    "#d68910", "#16a085", "#7f8c8d", "#2c3e50",
)

_W, _H = 900, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins


def _sx(t, t_max):
    return _ML + (_W - _ML - _MR) * (t / t_max if t_max > 0 else 0.0)


def _sy(v, v_max):
    return _H - _MB - (_H - _MT - _MB) * (v / v_max if v_max > 0 else 0.0)


def _floats(values) -> list:
    """Python floats from a sequence or a numpy array; an array's tolist()
    converts in one call, and formatting Python floats is faster than
    formatting numpy scalars."""
    return values.tolist() if hasattr(values, "tolist") else [float(v) for v in values]


def render_norm_paths(curves, boundary: float, title: str) -> str:
    """SVG of |y(t)| against t for each (t_values, norm_values) curve,
    with a dashed horizontal rule at the stopping radius.  The values may
    be sequences of floats or 1-d arrays; both render the same text."""
    curves = [(_floats(t), _floats(v)) for t, v in curves]
    t_max = max((c[0][-1] for c in curves if len(c[0])), default=1.0) or 1.0
    v_max = max(
        boundary, max((max(c[1]) for c in curves if len(c[1])), default=0.0)
    ) * 1.05

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        # axes
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t</text>',
        f'<text x="16" y="{_H / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_H / 2:.1f})" text-anchor="middle">|y(t)|</text>',
        # tick labels at the extremes
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">0</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{t_max:.4g}</text>',
        f'<text x="{_ML - 6}" y="{_sy(v_max, v_max) + 4:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{v_max:.4g}</text>',
    ]
    # stopping boundary
    by = _sy(boundary, v_max)
    parts.append(
        f'<line x1="{_ML}" y1="{by:.2f}" x2="{_W - _MR}" y2="{by:.2f}" '
        f'stroke="#888" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{_W - _MR - 4}" y="{by - 5:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#555">R = {boundary:.4g}</text>'
    )
    for k, (t, v) in enumerate(curves):
        if not len(t):
            continue
        points = " ".join(
            f"{_sx(ti, t_max):.2f},{_sy(vi, v_max):.2f}" for ti, vi in zip(t, v)
        )
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
