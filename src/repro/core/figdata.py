"""Figure records: the measured series of one reproduced figure.

:class:`FigureData` is what every figure generator returns and what the
report renderers, the result cache, run manifests and fleet figures
read and write.  It lives apart from :mod:`repro.core.figures` so that
code which only handles finished figures (the CLI, the report and SVG
renderers, fleet figures) loads no experiment stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Every registered figure id, in :data:`repro.core.figures.FIGURES`
#: order (``repro list``, ``repro report``; a test keeps the two equal).
FIGURE_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig6b", "fig7", "fig8",
    "mem", "multivm_intrusiveness", "balloon_storm", "overcommit_sweep",
    "fleet", "fleet_makespan", "fleet_waste", "fleet_outage",
    "fleet_checkpoint",
)


@dataclass
class MeasuredPoint:
    value: float
    ci95: float = 0.0


@dataclass
class FigureData:
    """One reproduced figure."""

    fig_id: str
    title: str
    unit: str
    series: "Dict[str, MeasuredPoint]" = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def measured_values(self) -> Dict[str, float]:
        return {label: point.value for label, point in self.series.items()}

    def rows(self) -> List[Tuple[str, float, float, Optional[float]]]:
        """(label, measured, ci, paper-or-None) for rendering."""
        out = []
        for label, point in self.series.items():
            out.append((label, point.value, point.ci95,
                        self.paper.get(label)))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe, order-preserving encoding (exact float round-trip).

        The stable interchange format shared by the result cache, run
        manifests and :class:`repro.api.RunResult` — downstream tooling
        should consume this rather than reaching into dataclass fields.
        """
        return {
            "fig_id": self.fig_id,
            "title": self.title,
            "unit": self.unit,
            "notes": self.notes,
            "series": [[label, point.value, point.ci95]
                       for label, point in self.series.items()],
            "paper": [[label, value] for label, value in self.paper.items()],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FigureData":
        """Inverse of :meth:`to_dict`."""
        fig = cls(
            fig_id=payload["fig_id"], title=payload["title"],
            unit=payload["unit"], notes=payload["notes"],
            paper={label: value for label, value in payload["paper"]},
        )
        for label, value, ci95 in payload["series"]:
            fig.series[label] = MeasuredPoint(value, ci95)
        return fig
