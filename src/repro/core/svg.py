"""Dependency-free SVG rendering of figures.

The repository has no plotting dependency (matplotlib is not part of the
install footprint), so figures can be exported as hand-built SVG bar
charts: one bar per environment, paper values as tick markers, CI
whiskers when available.  `python -m repro figure fig1 --svg out/` uses
this; so can notebooks.
"""

from __future__ import annotations

import html
from typing import List

from repro.core.figdata import FigureData

_WIDTH = 760
_BAR_HEIGHT = 22
_BAR_GAP = 10
_MARGIN_LEFT = 190
_MARGIN_TOP = 56
_MARGIN_RIGHT = 120
_FONT = "font-family='Helvetica,Arial,sans-serif'"

_BAR_COLOR = "#4878a8"
_PAPER_COLOR = "#c44e52"
_CI_COLOR = "#2d2d2d"


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def figure_to_svg(fig: FigureData) -> str:
    """Render a figure as a standalone SVG document string."""
    rows = fig.rows()
    n = max(1, len(rows))
    chart_height = n * (_BAR_HEIGHT + _BAR_GAP)
    height = _MARGIN_TOP + chart_height + 40
    plot_width = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT

    peak = max(
        [abs(value) + ci for _, value, ci, _ in rows]
        + [abs(p) for _, _, _, p in rows if p is not None]
        + [1e-12]
    )
    scale = plot_width / peak

    parts: List[str] = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_WIDTH}' "
        f"height='{height}' viewBox='0 0 {_WIDTH} {height}'>",
        f"<rect width='{_WIDTH}' height='{height}' fill='white'/>",
        f"<text x='16' y='24' {_FONT} font-size='15' font-weight='bold'>"
        f"{_esc(fig.fig_id.upper())} — {_esc(fig.title)}</text>",
        f"<text x='16' y='42' {_FONT} font-size='11' fill='#555'>"
        f"{_esc(fig.unit)}</text>",
    ]

    for index, (label, value, ci, paper) in enumerate(rows):
        y = _MARGIN_TOP + index * (_BAR_HEIGHT + _BAR_GAP)
        bar_w = max(1.0, abs(value) * scale)
        mid = y + _BAR_HEIGHT / 2
        parts.append(
            f"<text x='{_MARGIN_LEFT - 8}' y='{mid + 4}' {_FONT} "
            f"font-size='11' text-anchor='end'>{_esc(label)}</text>"
        )
        parts.append(
            f"<rect x='{_MARGIN_LEFT}' y='{y}' width='{bar_w:.2f}' "
            f"height='{_BAR_HEIGHT}' fill='{_BAR_COLOR}'/>"
        )
        if ci:
            x0 = _MARGIN_LEFT + max(0.0, (abs(value) - ci)) * scale
            x1 = _MARGIN_LEFT + (abs(value) + ci) * scale
            parts.append(
                f"<line x1='{x0:.2f}' y1='{mid:.2f}' x2='{x1:.2f}' "
                f"y2='{mid:.2f}' stroke='{_CI_COLOR}' stroke-width='1.5'/>"
            )
        if paper is not None:
            px = _MARGIN_LEFT + abs(paper) * scale
            parts.append(
                f"<line x1='{px:.2f}' y1='{y - 2}' x2='{px:.2f}' "
                f"y2='{y + _BAR_HEIGHT + 2}' stroke='{_PAPER_COLOR}' "
                f"stroke-width='2' stroke-dasharray='3,2'/>"
            )
        parts.append(
            f"<text x='{_MARGIN_LEFT + bar_w + 6:.2f}' y='{mid + 4}' "
            f"{_FONT} font-size='11'>{value:.3g}</text>"
        )

    legend_y = _MARGIN_TOP + chart_height + 18
    parts.append(
        f"<rect x='{_MARGIN_LEFT}' y='{legend_y - 9}' width='14' "
        f"height='10' fill='{_BAR_COLOR}'/>"
        f"<text x='{_MARGIN_LEFT + 20}' y='{legend_y}' {_FONT} "
        f"font-size='11'>measured</text>"
    )
    if any(paper is not None for *_ignored, paper in rows):
        parts.append(
            f"<line x1='{_MARGIN_LEFT + 110}' y1='{legend_y - 4}' "
            f"x2='{_MARGIN_LEFT + 124}' y2='{legend_y - 4}' "
            f"stroke='{_PAPER_COLOR}' stroke-width='2' "
            f"stroke-dasharray='3,2'/>"
            f"<text x='{_MARGIN_LEFT + 130}' y='{legend_y}' {_FONT} "
            f"font-size='11'>paper</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(fig: FigureData, path: str) -> str:
    """Write the figure's SVG to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(figure_to_svg(fig))
    return path
