"""Fleet run configuration: one frozen dataclass, validated on build.

Mirrors the :class:`repro.api.RunConfig` philosophy — a single immutable
value object carries every parameter of a fleet simulation, validation
happens at construction with clean :class:`ExperimentError` messages
(the ``REPRO_REPS=abc`` convention), and :meth:`FleetConfig.to_dict` is
the canonical serialisation shared by the result cache and the run
manifest.  Everything downstream (host sampling, the server, figures)
is a pure function of this object, so two runs with equal configs are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Mapping

import numpy as np

from repro.errors import ExperimentError
from repro.fleet.calibration import (
    MIXED_FLEET,
    fleet_slowdown,
    fleet_slowdowns,
    memory_slowdown_factor,
    resolve_hypervisor,
)

#: Values per block of :func:`left_fold` (and of the fleet report's
#: blocked folds): big enough to amortise numpy's per-call cost, small
#: enough that a block's temporaries stay a few MB at any fleet size.
FOLD_BLOCK = 1 << 16


def left_fold(start: Any, values: Any) -> Any:
    """``start + values[0] + values[1] + …`` strictly left to right.

    ``np.cumsum`` (``add.accumulate``) is a sequential recurrence, never
    pairwise, so this equals the Python ``+=`` loop bit for bit on every
    Python version (the builtin ``sum`` compensates float rounding from
    CPython 3.12 on).  It runs :data:`FOLD_BLOCK` values at a time,
    carrying the running total, so its temporaries stay bounded; an
    empty ``values`` returns ``start`` itself.
    """
    total = start
    for lo in range(0, len(values), FOLD_BLOCK):
        total = float(np.cumsum(np.concatenate(
            ([total], values[lo:lo + FOLD_BLOCK])))[-1])
    return total


#: Fractions of a whole that must lie inside [0, 1].
_FRACTION_FIELDS = ("availability_mean", "error_rate")


@dataclass(frozen=True)
class FleetConfig:
    """Everything that shapes one fleet simulation."""

    hosts: int = 200                    #: volunteer desktops in the fleet
    hypervisor: str = "vmplayer"        #: profile name, alias, or "mixed"
    seed: int = 42                      #: root seed of every stream
    duration_s: float = 86400.0         #: simulated horizon (1 day)
    workunits: int = 0                  #: batch size; 0 = auto-sized
    wu_flops: float = 7.2e12            #: ~1 h native compute per work unit
    quorum: int = 2                     #: matching results needed to validate
    max_replicas: int = 8               #: reissue ceiling per work unit
    deadline_factor: float = 4.0        #: deadline vs expected wall time
    backoff_factor: float = 1.5         #: deadline stretch per reissue
    poll_interval_s: float = 900.0      #: host re-poll when the server is dry
    availability_mean: float = 0.70     #: mean fraction of time hosts are on
    availability_spread: float = 0.15   #: std-dev of per-host availability
    session_mean_s: float = 14400.0     #: mean powered-on session (4 h)
    departure_mean_s: float = 3888000.0  #: mean time to departure (45 d)
    error_rate: float = 0.02            #: per-result erroneous probability
    host_gflops_median: float = 2.0     #: median native host speed
    host_gflops_sigma: float = 0.25     #: lognormal speed spread
    vms_per_host: int = 1               #: co-located VMs per volunteer host
    overcommit_ratio: float = 1.0       #: configured guest RAM / physical RAM
    # recovery policy (see repro.fleet.recovery.RecoveryPolicy)
    checkpoint_interval_s: float = 0.0  #: guest checkpoint cadence; 0 = off
    upload_retries: int = 3             #: retry budget per buffered upload
    upload_backoff_s: float = 900.0     #: base upload backoff, doubled/retry
    degraded_threshold: int = 0         #: upload backlog that sheds quorum
    outage_scale_s: float = 3600.0      #: server.outage duration scale

    def __post_init__(self):
        if self.hosts < 1:
            raise ExperimentError(f"hosts must be >= 1, got {self.hosts!r}")
        if self.duration_s <= 0:
            raise ExperimentError(
                f"duration_s must be positive, got {self.duration_s!r}")
        if self.quorum < 1:
            raise ExperimentError(
                f"quorum must be >= 1, got {self.quorum!r}")
        if self.quorum > self.hosts:
            raise ExperimentError(
                f"quorum {self.quorum} exceeds the fleet size {self.hosts}; "
                "no work unit could ever validate")
        if self.max_replicas < self.quorum:
            raise ExperimentError(
                f"max_replicas ({self.max_replicas!r}) must be >= quorum "
                f"({self.quorum!r})")
        if self.workunits < 0:
            raise ExperimentError(
                f"workunits must be >= 0 (0 = auto), got {self.workunits!r}")
        for attr in _FRACTION_FIELDS:
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ExperimentError(
                    f"{attr} is a fraction and must lie in [0, 1], "
                    f"got {value!r}"
                )
        if self.availability_mean == 0.0:
            raise ExperimentError(
                "availability_mean must be positive, got 0.0")
        for attr in ("wu_flops", "deadline_factor", "poll_interval_s",
                     "session_mean_s", "departure_mean_s",
                     "host_gflops_median"):
            value = getattr(self, attr)
            if value <= 0:
                raise ExperimentError(
                    f"{attr} must be positive, got {value!r}")
        if self.backoff_factor < 1.0:
            raise ExperimentError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}")
        if self.availability_spread < 0 or self.host_gflops_sigma < 0:
            raise ExperimentError("spread parameters must be >= 0")
        if self.vms_per_host < 1:
            raise ExperimentError(
                f"vms_per_host must be >= 1, got {self.vms_per_host!r}")
        if not 0.0 < self.overcommit_ratio <= 3.0:
            # RAM + swap is 3x RAM on the paper's testbed; past that no
            # guest plan fits (see repro.virt.memory.plan_vm_memory).
            raise ExperimentError(
                f"overcommit_ratio must lie in (0, 3], "
                f"got {self.overcommit_ratio!r}")
        # Recovery knobs validate through the policy value object, so
        # one message catalogue covers both construction paths.
        self.recovery_policy()
        # canonicalise aliases ("vmware" -> "vmplayer") at the boundary
        object.__setattr__(
            self, "hypervisor", resolve_hypervisor(self.hypervisor))

    # -- derived policy --------------------------------------------------

    def recovery_policy(self) -> "Any":
        """The validated :class:`repro.fleet.recovery.RecoveryPolicy`
        view over this config's flat recovery fields."""
        from repro.fleet.recovery import RecoveryPolicy

        return RecoveryPolicy(
            checkpoint_interval_s=self.checkpoint_interval_s,
            upload_retries=self.upload_retries,
            upload_backoff_s=self.upload_backoff_s,
            degraded_threshold=self.degraded_threshold,
            outage_scale_s=self.outage_scale_s,
        )

    @property
    def mixed(self) -> bool:
        return self.hypervisor == MIXED_FLEET

    def memory_factor(self) -> float:
        """Extra per-VM slowdown from co-location and overcommit (1.0 at
        the single-VM defaults; see fleet.calibration)."""
        return memory_slowdown_factor(self.vms_per_host,
                                      self.overcommit_ratio)

    def mean_slowdown(self) -> float:
        """Fleet-average calibrated slowdown (see fleet.calibration)."""
        if self.mixed:
            values = list(fleet_slowdowns().values())
            base = left_fold(0.0, values) / len(values)
        else:
            base = fleet_slowdown(self.hypervisor)
        return base * self.memory_factor()

    def expected_wu_active_s(self) -> float:
        """Active compute seconds one work unit costs a median host."""
        rate = self.host_gflops_median * 1e9 / self.mean_slowdown()
        return self.wu_flops / rate

    def resolved_workunits(self) -> int:
        """The batch size: explicit, else sized to keep the fleet busy
        for the whole horizon (~15% headroom so the queue never runs
        dry early)."""
        if self.workunits:
            return self.workunits
        capacity = (self.hosts * self.duration_s * self.availability_mean
                    / (self.expected_wu_active_s() * self.quorum))
        return max(self.hosts, int(math.ceil(capacity * 1.15)))

    # -- serialisation ---------------------------------------------------

    def with_overrides(self, **changes: Any) -> "FleetConfig":
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe encoding (cache identity + manifest)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetConfig":
        return cls(**dict(payload))
