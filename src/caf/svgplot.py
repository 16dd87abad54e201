"""Minimal SVG line charts, no plotting dependency.

Callers plot the values as their CSV files print them, so a figure matches
its data file and can be rebuilt offline from it.
"""

from __future__ import annotations

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def svg_line_chart(series, title: str, xlabel: str, ylabel: str,
                   width: int = 720, height: int = 440) -> str:
    """Render labelled (xs, ys) series as an SVG document string."""
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, (xs, _) in series for x in xs]
    ys_all = [y for _, (_, ys) in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (1.0 - (y - y0) / (y1 - y0)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        gx = x0 + i * (x1 - x0) / 4
        gy = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<text x="{px(gx):.1f}" y="{height - mb + 16}" text-anchor="middle">{_fmt(gx)}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(gy):.1f}" text-anchor="end" dominant-baseline="middle">{_fmt(gy)}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>'
    )
    for i, (label, (xs, ys)) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * i}" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
