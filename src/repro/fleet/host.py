"""Volunteer hosts at fleet scale: deterministic per-host sampling.

Each host is a small record — calibrated slowdown, native speed,
availability trace — not a full simulated machine: the per-machine
physics already ran once to calibrate the hypervisor profiles (Figures
1-8), so the fleet only needs their reduction
(:func:`repro.fleet.calibration.fleet_slowdown`).

Every host is a pure function of ``(fleet seed, host index)``: its
parameters come from ``RngStreams(seed).fork(f"host-{index}")``.
:func:`sample_host` is the object form of one host, and the definition
the columnar build (:mod:`repro.fleet.columns`) reproduces byte for
byte; simulations run on the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.fleet.calibration import fleet_slowdown
from repro.fleet.churn import ChurnModel, availability_trace
from repro.fleet.config import FleetConfig
from repro.fleet.recovery import checkpoint_cost_s
from repro.simcore.rng import RngStreams
from repro.virt.profiles import PROFILE_ORDER

#: Per-host availability is clamped into this band after sampling: a
#: volunteer that is literally never (or always) on is not a volunteer.
AVAILABILITY_FLOOR = 0.05
AVAILABILITY_CEIL = 0.98


@dataclass
class FleetHost:
    """One volunteer desktop as the fleet server sees it."""

    index: int
    name: str
    hypervisor: str              #: resolved profile name
    slowdown: float              #: calibrated cycles-per-science factor
    gflops: float                #: native speed
    availability: float          #: sampled long-run on fraction
    error_rate: float            #: per-result erroneous probability
    sessions: List[Tuple[float, float]]
    departure_s: float
    #: wall seconds one guest checkpoint write costs this host (the
    #: repro.virt.checkpoint image through the hypervisor's calibrated
    #: virtual-disk path; see repro.fleet.recovery.checkpoint_cost_s)
    checkpoint_cost_s: float = 0.0

    @property
    def rate_flops_per_s(self) -> float:
        """Science throughput while on: native speed over VM slowdown."""
        return self.gflops * 1e9 / self.slowdown

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "name": self.name,
            "hypervisor": self.hypervisor, "slowdown": self.slowdown,
            "gflops": self.gflops, "availability": self.availability,
            "error_rate": self.error_rate,
            "sessions": [[s, e] for s, e in self.sessions],
            "departure_s": self.departure_s,
            "checkpoint_cost_s": self.checkpoint_cost_s,
        }


def host_hypervisor(config: FleetConfig, index: int) -> str:
    """A mixed fleet stripes the four profiles by index; otherwise the
    configured profile (already alias-resolved)."""
    if config.mixed:
        return PROFILE_ORDER[index % len(PROFILE_ORDER)]
    return config.hypervisor


def sample_host(config: FleetConfig, index: int) -> FleetHost:
    """Deterministically sample host ``index`` of the fleet."""
    rng = RngStreams(config.seed).fork(f"host-{index}")
    hypervisor = host_hypervisor(config, index)
    gflops = config.host_gflops_median * rng.lognormal_factor(
        "speed", config.host_gflops_sigma)
    availability = rng.normal("avail", config.availability_mean,
                              config.availability_spread)
    availability = min(AVAILABILITY_CEIL,
                       max(AVAILABILITY_FLOOR, availability))
    model = ChurnModel(availability=availability,
                       session_mean_s=config.session_mean_s,
                       departure_mean_s=config.departure_mean_s)
    sessions, departure = availability_trace(model, rng.fork("trace"),
                                             config.duration_s)
    return FleetHost(
        index=index, name=f"host-{index:05d}", hypervisor=hypervisor,
        slowdown=fleet_slowdown(hypervisor) * config.memory_factor(),
        gflops=gflops,
        availability=availability, error_rate=config.error_rate,
        sessions=sessions, departure_s=departure,
        checkpoint_cost_s=checkpoint_cost_s(hypervisor, gflops),
    )


def build_fleet_hosts(config: FleetConfig) -> List[FleetHost]:
    """Sample the whole fleet as :class:`FleetHost` records, in index
    order."""
    return [sample_host(config, index) for index in range(config.hosts)]
