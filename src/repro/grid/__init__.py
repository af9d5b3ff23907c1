"""Desktop-grid layer: volunteer fleets with churn over a switched LAN —
the scale-out scenario the paper's single-machine measurements inform.
(The analytical ``estimated_grid_efficiency`` lives in :mod:`repro.fleet`.)"""

from repro.grid.grid import DesktopGrid, GridReport
from repro.grid.volunteer import Volunteer, VolunteerConfig, VolunteerStats

__all__ = [
    "DesktopGrid",
    "GridReport",
    "Volunteer",
    "VolunteerConfig",
    "VolunteerStats",
]
