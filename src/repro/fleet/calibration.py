"""How Figures 1-8 feed the fleet: per-hypervisor slowdown factors.

The fleet simulator never re-runs the per-machine simulation.  Instead it
consumes the *calibrated* :class:`~repro.virt.profiles.HypervisorProfile`
constants — the same parameters that reproduce Figures 1-8 — and reduces
them to one scalar per hypervisor:

* **guest slowdown** (Figures 1-2): the class-weighted binary-translation
  multiplier for the Einstein@home instruction mix,
  :func:`repro.virt.profiles.user_multiplier` — how much longer one work unit
  takes inside the guest than natively;
* **host service share** (Figures 7-8): every VMM runs host-side service
  threads (timer/device emulation) at elevated priority, stealing
  ``total_service_frac`` of a core from the dual-core testbed even when
  the vCPU itself is at idle priority.

``fleet_slowdown`` combines both: host cycles per unit of science,
relative to a native volunteer.  This is the single point where the
paper's single-machine measurements parameterise the fleet model.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ExperimentError
from repro.hardware.cpu import MIX_EINSTEIN
from repro.virt.profiles import (ALL_PROFILES, PROFILE_ORDER, get_profile,
                                 user_multiplier)

#: Cores of the paper's testbed (Core 2 Duo E6600) — the denominator of
#: the host-service share.
TESTBED_CORES = 2

#: Accepted spellings for each studied VMM (the CLI and configs resolve
#: through this table; ``mixed`` builds a fleet striped over all four).
HYPERVISOR_ALIASES: Dict[str, str] = {
    "vmware": "vmplayer",
    "vmware-player": "vmplayer",
    "player": "vmplayer",
    "vbox": "virtualbox",
    "vpc": "virtualpc",
    "msvpc": "virtualpc",
}

#: Sentinel hypervisor name for a fleet striped over all four profiles.
MIXED_FLEET = "mixed"


def resolve_hypervisor(name: str) -> str:
    """Canonical profile name for ``name`` (alias-aware).

    Returns :data:`MIXED_FLEET` unchanged for mixed fleets; raises
    :class:`ExperimentError` for anything unknown.
    """
    key = name.strip().lower()
    if key == MIXED_FLEET:
        return MIXED_FLEET
    key = HYPERVISOR_ALIASES.get(key, key)
    if key not in ALL_PROFILES:
        known = sorted(ALL_PROFILES) + [MIXED_FLEET] \
            + sorted(HYPERVISOR_ALIASES)
        raise ExperimentError(
            f"unknown hypervisor {name!r}; accepted: {', '.join(known)}"
        )
    return key


def fleet_slowdown(hypervisor: str) -> float:
    """Host cycles per unit of Einstein science vs a native volunteer.

    ``guest`` is the Figures 1-2 calibration (binary-translation cost of
    the Einstein instruction mix); the divisor is the Figures 7-8
    calibration (the share of the dual-core host left after the VMM's
    elevated-priority service threads take theirs).  Always >= 1.
    """
    profile = get_profile(resolve_hypervisor(hypervisor))
    guest = user_multiplier(profile, MIX_EINSTEIN)
    host_share = 1.0 - min(0.9, profile.total_service_frac / TESTBED_CORES)
    return guest / host_share


def memory_slowdown_factor(vms_per_host: int = 1,
                           overcommit_ratio: float = 1.0,
                           cores: int = TESTBED_CORES) -> float:
    """Per-VM science slowdown of co-locating guests on one host.

    The fleet reduction of :mod:`repro.virt.memory`: each extra VM adds
    a small fixed memd/balloon service tax (~3%/VM, the figure-level
    ``multivm_intrusiveness`` trend), overcommit past 1.0x pays the
    hardware paging penalty (the ``1 + 4*overshoot`` law of
    :meth:`repro.hardware.memory.MemoryAccounting.paging_penalty_factor`),
    and the host's cores are shared by the co-located guests.  The
    defaults give exactly 1.0, so single-VM fleets are bit-identical to
    previous releases.  Always >= 1 for valid inputs.
    """
    vms = int(vms_per_host)
    if vms < 1:
        raise ExperimentError(
            f"vms_per_host must be >= 1, got {vms_per_host!r}")
    ratio = float(overcommit_ratio)
    if ratio <= 0:
        raise ExperimentError(
            f"overcommit_ratio must be positive, got {overcommit_ratio!r}")
    service_tax = 1.0 + 0.03 * (vms - 1)
    paging = 1.0 + 4.0 * max(0.0, ratio - 1.0)
    sharing = vms / min(vms, cores)
    return service_tax * paging * sharing


def fleet_slowdowns() -> Dict[str, float]:
    """``{profile name: fleet_slowdown}`` for every studied VMM."""
    return {name: fleet_slowdown(name) for name in PROFILE_ORDER}


def estimated_grid_efficiency(hypervisor: str) -> float:
    """Back-of-envelope science-per-cycle efficiency of volunteering
    through the given VMM for a CPU-bound FP workload (the paper's
    Einstein case): 1 / translation multiplier.
    """
    profile = get_profile(resolve_hypervisor(hypervisor))
    return 1.0 / user_multiplier(profile, MIX_EINSTEIN)
