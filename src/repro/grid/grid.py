"""Desktop-grid assembly: a project server plus a fleet of volunteers.

The scale-out of the paper's single-machine study: many churning
volunteer desktops on a switched 100 Mbps LAN, all attached to one
Einstein@home-like project.  Used by the fleet example and the grid
tests to answer the question the paper motivates — how much science a
VM-based desktop grid actually delivers once churn, checkpoint loss and
VM overheads are accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ReproError
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.hardware.switch import Switch
from repro.osmodel.kernel import Kernel, ubuntu_params
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from repro.workloads.boinc import BoincServer
from repro.workloads.einstein import EinsteinWorkunit
from repro.grid.volunteer import Volunteer, VolunteerConfig


@dataclass
class GridReport:
    """What the fleet achieved over a run."""

    duration_s: float
    workunits_completed: int
    workunits_pending: int
    templates_done: int
    templates_lost: int
    crashes: int
    reassignments: int
    stale_results: int
    per_volunteer: dict = field(default_factory=dict)

    @property
    def loss_fraction(self) -> float:
        total = self.templates_done + self.templates_lost
        return self.templates_lost / total if total else 0.0

    def summary(self) -> str:
        lines = [
            f"grid run of {self.duration_s:.0f} simulated seconds",
            f"  workunits completed : {self.workunits_completed}"
            f" ({self.workunits_pending} still pending)",
            f"  templates computed  : {self.templates_done}"
            f" (+{self.templates_lost} lost to crashes,"
            f" {self.loss_fraction * 100:.1f}%)",
            f"  volunteer crashes   : {self.crashes}"
            f" ({self.reassignments} workunits reassigned,"
            f" {self.stale_results} stale results discarded)",
        ]
        for name, stats in sorted(self.per_volunteer.items()):
            lines.append(
                f"    {name:<14} wu={stats.workunits_done:<4}"
                f" crashes={stats.crashes:<3}"
                f" lost={stats.templates_lost}"
            )
        return "\n".join(lines)


class DesktopGrid:
    """One project server + N volunteers on a switched LAN."""

    def __init__(self, volunteer_configs: List[VolunteerConfig],
                 workunits: List[EinsteinWorkunit],
                 seed: int = 0,
                 reassign_timeout_s: Optional[float] = 1800.0):
        if not volunteer_configs:
            raise ReproError("a grid needs at least one volunteer")
        names = [c.name for c in volunteer_configs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate volunteer names: {names}")
        self.engine = Engine()
        self.rng = RngStreams(seed)
        self.switch = Switch(self.engine, "lab-lan")

        server_machine = Machine(self.engine, core2duo_e6600("project"),
                                 self.rng.fork("project-hw"))
        self.switch.attach(server_machine.nic)
        self.server_kernel = Kernel(self.engine, server_machine,
                                    ubuntu_params(), name="project")
        self.server = BoincServer(self.server_kernel,
                                  reassign_timeout_s=reassign_timeout_s)
        self.server.add_workunits(workunits)

        self.volunteers: List[Volunteer] = []
        for config in volunteer_configs:
            volunteer = Volunteer(self.engine, self.server, config, self.rng)
            self.switch.attach(volunteer.machine.nic)
            self.volunteers.append(volunteer)

    def run(self, duration_s: float) -> GridReport:
        """Run the whole grid for ``duration_s`` of simulated time."""
        for volunteer in self.volunteers:
            volunteer.start()
        self.engine.run(until=duration_s)
        for volunteer in self.volunteers:
            volunteer.stop()
        return self.report(duration_s)

    def report(self, duration_s: float) -> GridReport:
        return GridReport(
            duration_s=duration_s,
            workunits_completed=self.server.results_received,
            workunits_pending=len(self.server.pending)
            + len(self.server.in_flight),
            templates_done=sum(v.stats.templates_done
                               for v in self.volunteers),
            templates_lost=sum(v.stats.templates_lost
                               for v in self.volunteers),
            crashes=sum(v.stats.crashes for v in self.volunteers),
            reassignments=sum(r.reassignments
                              for r in list(self.server.completed)
                              + list(self.server.pending)
                              + list(self.server.in_flight.values())),
            stale_results=self.server.stale_results,
            per_volunteer={v.config.name: v.stats for v in self.volunteers},
        )
