"""Minimal self-contained SVG rendering: normalised histograms with density
overlays.  No plotting dependencies; output is plain XML with inline styling.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

import numpy as np

__all__ = ["histogram_svg", "render_histogram_svg"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 40, 45
_OVERLAY_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]


def histogram_svg(
    values: np.ndarray,
    bins: int = 60,
    overlays: list[tuple[str, np.ndarray, np.ndarray]] | None = None,
    title: str = "",
    xlabel: str = "eigenvalue",
) -> str:
    """Render a density-normalised histogram (bin mass sums to one) with
    optional (label, x, y) curve overlays; returns the SVG document."""
    if bins < 5:
        raise ValueError(f"need at least 5 bins, got {bins}")
    values = np.asarray(values, dtype=float).ravel()
    counts, edges = np.histogram(values, bins=bins, density=True)
    overlays = overlays or []

    x_min, x_max = edges[0], edges[-1]
    for _, xs, _ in overlays:
        x_min = min(x_min, float(np.min(xs)))
        x_max = max(x_max, float(np.max(xs)))
    y_max = float(counts.max()) if counts.size else 1.0
    for _, _, ys in overlays:
        y_max = max(y_max, float(np.max(ys)))
    y_max *= 1.08
    if x_max <= x_min:
        x_max = x_min + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - y / y_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>'
        )
    # histogram bars
    for c, left, right in zip(counts, edges[:-1], edges[1:]):
        if c <= 0:
            continue
        x0, x1 = sx(left), sx(right)
        y0 = sy(c)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{sy(0) - y0:.2f}" fill="#bdd7ee" stroke="#5b9bd5" stroke-width="0.5"/>'
        )
    # axes
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{sy(0):.2f}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{sy(0):.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{sy(0):.2f}" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{sy(0) + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.2f}</text>'
        )
        yv = frac * y_max
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.2f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(xlabel, quote=False)}</text>'
    )
    # overlays
    for i, (label, xs, ys) in enumerate(overlays):
        color = _OVERLAY_COLORS[i % len(_OVERLAY_COLORS)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(max(float(y), 0.0)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        if label:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T + 16 + 16 * i}" '
                f'text-anchor="end" font-family="sans-serif" font-size="12" '
                f'fill="{color}">{escape(label, quote=False)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_histogram_svg(values, path: str | Path, **kwargs) -> None:
    Path(path).write_text(histogram_svg(values, **kwargs))
