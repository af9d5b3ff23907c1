"""System-level virtualisation models: hypervisor profiles, vCPU
translation, virtual devices, guest clocks, checkpointing, time server."""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.virt.checkpoint": (
        "CheckpointImage", "restore_checkpoint", "save_checkpoint",
        "transfer_checkpoint",
    ),
    "repro.virt.guestclock": ("ClockStats", "GuestClock"),
    "repro.virt.memory": (
        "BalloonDriver", "GuestMemory", "MemoryModelParams",
        "MemoryPressureController", "MultiVmHost", "WorkingSetModel",
        "plan_vm_memory",
    ),
    "repro.virt.profiles": (
        "ALL_PROFILES", "PROFILE_ORDER", "QEMU", "VIRTUALBOX", "VIRTUALPC",
        "VMPLAYER", "HypervisorProfile", "NetMode", "ServiceLoadSpec",
        "get_profile", "user_multiplier",
    ),
    "repro.virt.timeserver": (
        "TIME_PORT", "GuestTimeClient", "UdpTimeServer",
    ),
    "repro.virt.vcpu": ("VCpu", "translate_cycles"),
    "repro.virt.vdisk": ("VirtualDisk",),
    "repro.virt.vm": (
        "GuestExecutionContext", "VirtualMachine", "VmConfig", "VmState",
    ),
    "repro.virt.vnic": ("VirtualNic",),
})

__all__ = [
    "ALL_PROFILES",
    "CheckpointImage",
    "ClockStats",
    "GuestClock",
    "BalloonDriver",
    "GuestExecutionContext",
    "GuestMemory",
    "GuestTimeClient",
    "HypervisorProfile",
    "MemoryModelParams",
    "MemoryPressureController",
    "MultiVmHost",
    "WorkingSetModel",
    "NetMode",
    "PROFILE_ORDER",
    "QEMU",
    "ServiceLoadSpec",
    "TIME_PORT",
    "UdpTimeServer",
    "VCpu",
    "VIRTUALBOX",
    "VIRTUALPC",
    "VMPLAYER",
    "VirtualDisk",
    "VirtualMachine",
    "VirtualNic",
    "VmConfig",
    "VmState",
    "get_profile",
    "plan_vm_memory",
    "restore_checkpoint",
    "save_checkpoint",
    "transfer_checkpoint",
]
