"""Hypervisor profiles: mechanistic parameters for the four studied VMMs.

Every parameter feeds a *mechanism* (binary-translation multipliers, VM
exits, per-packet device emulation, timer policy); none of the paper's
figure values appear here directly.  Parameters were calibrated against
the paper's published aggregates — the fitting maths lives in
:mod:`repro.calibration.fitting` and a test asserts these constants agree
with a re-fit from the targets.

Parameter groups
----------------
CPU translation (Figures 1–2)
    ``m_int/m_fp/m_mem`` multiply user-mode cycles by instruction class;
    ``m_kernel`` multiplies guest kernel *control* paths (trap-heavy code
    that binary translation rewrites hardest); ``m_copy`` multiplies bulk
    kernel copy loops (string moves run near-native under BT).

Virtual disk (Figure 3)
    Each guest block request costs a VM exit plus device emulation on the
    VMM thread: ``disk_per_request_cycles + disk_per_kb_cycles * KB``.

Virtual NIC (Figure 4)
    Per-packet emulation cycles per network mode.  Bridged VMware taps
    the host bridge cheaply; NAT modes run a user-space translation proxy
    per packet (ruinously expensive in VirtualBox 1.6, per the paper).

Timer / service load (Figures 7–8, ablations)
    Every VMM runs host-side service work (timer & device emulation) at
    elevated priority — this, not the idle-priority vCPU, is what steals
    host CPU.  VMware additionally *catches up* lost timer ticks (its
    timekeeping whitepaper — the paper's reference [22]), burning
    ``catchup_cycles_per_tick`` per replayed tick; the others drop ticks
    beyond a backlog limit, so their guest clocks fall behind instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from repro.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cpu import InstructionMix


@dataclass(frozen=True)
class NetMode:
    """One virtual-NIC mode: a name plus per-packet emulation cycles."""

    name: str
    per_packet_cycles: float


@dataclass(frozen=True)
class ServiceLoadSpec:
    """One VMM host-service thread: steady demand as a core fraction."""

    name: str
    base_frac: float


@dataclass(frozen=True)
class HypervisorProfile:
    name: str
    display_name: str
    # CPU translation multipliers
    m_int: float
    m_fp: float
    m_mem: float
    m_kernel: float
    m_copy: float
    # virtual disk
    disk_per_request_cycles: float
    disk_per_kb_cycles: float
    # virtual NIC modes; first entry is the default
    net_modes: Tuple[NetMode, ...]
    # host-side service load
    service_loads: Tuple[ServiceLoadSpec, ...]
    service_interval_s: float = 0.010
    # guest timer policy
    guest_tick_hz: float = 250.0
    tick_catchup: bool = False
    catchup_cycles_per_tick: float = 0.0
    tick_backlog_limit_s: float = 0.25
    # memory
    vmm_overhead_bytes: int = 24 * MB

    def __post_init__(self):
        for attr in ("m_int", "m_fp", "m_mem", "m_kernel", "m_copy"):
            if getattr(self, attr) < 1.0:
                raise ValueError(
                    f"profile {self.name!r}: {attr} must be >= 1 "
                    f"(full virtualisation never beats native)"
                )
        if not self.net_modes:
            raise ValueError(f"profile {self.name!r}: needs >= 1 net mode")

    @property
    def default_net_mode(self) -> NetMode:
        return self.net_modes[0]

    def net_mode(self, name: str) -> NetMode:
        for mode in self.net_modes:
            if mode.name == name:
                return mode
        raise KeyError(
            f"profile {self.name!r} has no net mode {name!r}; "
            f"available: {[m.name for m in self.net_modes]}"
        )

    @property
    def total_service_frac(self) -> float:
        return sum(s.base_frac for s in self.service_loads)


# ---------------------------------------------------------------------------
# The four studied VMMs (versions as benchmarked in the paper).
# ---------------------------------------------------------------------------

VMPLAYER = HypervisorProfile(
    name="vmplayer", display_name="VMware Player 2.0.2",
    # fitted to Fig 1 (1.15x) / Fig 2 (~1.08x): fast BT, small FP gap
    m_int=1.0940, m_fp=1.0775, m_mem=1.0940, m_kernel=4.0, m_copy=1.0940,
    # Fig 3: ~1.3x on disk I/O — the cheapest virtual disk of the set
    disk_per_request_cycles=60_000.0, disk_per_kb_cycles=11_800.0,
    # Fig 4: bridged mode is near-native; NAT collapses to ~3.7 Mbps
    net_modes=(NetMode("bridged", 500.0), NetMode("nat", 7_320_000.0)),
    # Figs 7-8: aggressive timer catch-up makes VMware's service load the
    # heaviest of the set when the vCPU is starved (~0.55 of a core) on
    # top of a 0.10 steady load.
    service_loads=(ServiceLoadSpec("vmx-svc", 0.10),),
    tick_catchup=True, catchup_cycles_per_tick=6_200_000.0,
)

QEMU = HypervisorProfile(
    name="qemu", display_name="QEMU 0.9 + kqemu 1.3",
    # Fig 1: >2x on integer code (dynamic translation), Fig 2: 1.30x FP
    m_int=2.0257, m_fp=1.1719, m_mem=2.0257, m_kernel=12.0, m_copy=2.0257,
    # Fig 3: ~5x — fully emulated IDE device path
    disk_per_request_cycles=220_000.0, disk_per_kb_cycles=163_000.0,
    # Fig 4: user-mode networking, yet the fastest non-bridged stack
    net_modes=(NetMode("user", 104_400.0),),
    service_loads=(ServiceLoadSpec("qemu-timer", 0.20),
                   ServiceLoadSpec("qemu-io", 0.01)),
)

VIRTUALBOX = HypervisorProfile(
    name="virtualbox", display_name="VirtualBox 1.6.2 (OSE)",
    # Fig 1: 1.20x, Fig 2: ~1.12x
    m_int=1.1226, m_fp=1.1195, m_mem=1.1226, m_kernel=5.0, m_copy=1.1226,
    # Fig 3: ~2x
    disk_per_request_cycles=90_000.0, disk_per_kb_cycles=31_000.0,
    # Fig 4: the notorious 1.6-era NAT — ~75x slower than native
    net_modes=(NetMode("nat", 21_260_000.0),),
    service_loads=(ServiceLoadSpec("vbox-svc", 0.20),),
)

VIRTUALPC = HypervisorProfile(
    name="virtualpc", display_name="Microsoft Virtual PC 2007",
    # Fig 1: 1.36x (no Linux guest additions), Fig 2: ~1.18x
    m_int=1.2262, m_fp=1.1718, m_mem=1.2262, m_kernel=8.0, m_copy=1.2262,
    # Fig 3: ~2x with a pricier control path than VirtualBox
    disk_per_request_cycles=140_000.0, disk_per_kb_cycles=44_000.0,
    # Fig 4: shared (NAT-ish) networking at ~35 Mbps
    net_modes=(NetMode("shared", 478_600.0),),
    service_loads=(ServiceLoadSpec("vpc-svc", 0.21),),
)

ALL_PROFILES: Dict[str, HypervisorProfile] = {
    p.name: p for p in (VMPLAYER, QEMU, VIRTUALBOX, VIRTUALPC)
}

# Environment order used throughout figures (paper convention)
PROFILE_ORDER = ("vmplayer", "qemu", "virtualbox", "virtualpc")


def get_profile(name: str) -> HypervisorProfile:
    try:
        return ALL_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown hypervisor {name!r}; available: {sorted(ALL_PROFILES)}"
        ) from None


def user_multiplier(profile: HypervisorProfile,
                    mix: "InstructionMix") -> float:
    """Class-weighted translation multiplier for user-mode code of ``mix``."""
    return (
        mix.int_frac * profile.m_int
        + mix.fp_frac * profile.m_fp
        + mix.mem_frac * profile.m_mem
    )
