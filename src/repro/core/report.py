"""Report rendering: ASCII bar charts, markdown tables, EXPERIMENTS text."""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.core.figdata import FigureData

_BAR_WIDTH = 42


def ascii_bar_chart(fig: FigureData) -> str:
    """Render a figure as a labelled horizontal bar chart."""
    rows = fig.rows()
    if not rows:
        return f"{fig.fig_id}: (no data)"
    peak = max(abs(value) for _, value, _, _ in rows) or 1.0
    label_width = max(len(label) for label, *_ in rows)
    lines = [f"{fig.fig_id.upper()} — {fig.title}", f"  [{fig.unit}]"]
    for label, value, ci, paper in rows:
        bar = "#" * max(1, round(abs(value) / peak * _BAR_WIDTH))
        paper_txt = f"  paper={paper:g}" if paper is not None else ""
        ci_txt = f" ±{ci:.2g}" if ci else ""
        lines.append(
            f"  {label:<{label_width}}  {bar:<{_BAR_WIDTH}} "
            f"{value:8.3f}{ci_txt}{paper_txt}"
        )
    if fig.notes:
        lines.append(f"  note: {fig.notes}")
    return "\n".join(lines)


def markdown_table(fig: FigureData) -> str:
    """Render a figure as a paper-vs-measured markdown table."""
    lines = [
        f"### {fig.fig_id.upper()} — {fig.title}",
        "",
        f"Unit: {fig.unit}",
        "",
        "| environment | measured | 95% CI | paper | rel. error |",
        "|---|---|---|---|---|",
    ]
    for label, value, ci, paper in fig.rows():
        if paper is not None and paper != 0:
            err = f"{abs(value - paper) / abs(paper) * 100:.1f}%"
            paper_txt = f"{paper:g}"
        else:
            err = "—"
            paper_txt = "—"
        ci_txt = f"±{ci:.3g}" if ci else "—"
        lines.append(f"| {label} | {value:.3f} | {ci_txt} | {paper_txt} | {err} |")
    if fig.notes:
        lines.extend(["", f"*{fig.notes}*"])
    lines.append("")
    return "\n".join(lines)


def figure_to_json(fig: FigureData) -> str:
    payload = {
        "fig_id": fig.fig_id,
        "title": fig.title,
        "unit": fig.unit,
        "notes": fig.notes,
        "series": {
            label: {"value": point.value, "ci95": point.ci95}
            for label, point in fig.series.items()
        },
        "paper": fig.paper,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def experiments_markdown(figures: Iterable[FigureData],
                         header: Optional[str] = None) -> str:
    """A full EXPERIMENTS.md-style report for a set of figures."""
    lines: List[str] = []
    if header:
        lines.extend([header, ""])
    for fig in figures:
        lines.append(markdown_table(fig))
    return "\n".join(lines)
