"""Physical-hardware models: CPU/instruction mixes, shared L2, disk, NIC,
memory accounting, and machine assembly."""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.hardware.cache": ("CacheStats", "SharedL2Model"),
    "repro.hardware.cpu": (
        "MIX_EINSTEIN", "MIX_IDLE", "MIX_KERNEL", "MIX_MATRIX", "MIX_SEVENZIP",
        "MIX_VMM_SERVICE", "InstructionMix", "blend",
    ),
    "repro.hardware.disk": ("Disk", "DiskStats"),
    "repro.hardware.machine": ("Machine",),
    "repro.hardware.memory": ("MemoryAccounting",),
    "repro.hardware.nic": ("Nic", "NicStats"),
    "repro.hardware.specs": (
        "CpuSpec", "DiskSpec", "MachineSpec", "MemorySpec", "NicSpec",
        "core2duo_e6600", "lan_peer", "uniprocessor",
    ),
})

__all__ = [
    "CacheStats",
    "CpuSpec",
    "Disk",
    "DiskSpec",
    "DiskStats",
    "InstructionMix",
    "Machine",
    "MachineSpec",
    "MemoryAccounting",
    "MemorySpec",
    "MIX_EINSTEIN",
    "MIX_IDLE",
    "MIX_KERNEL",
    "MIX_MATRIX",
    "MIX_SEVENZIP",
    "MIX_VMM_SERVICE",
    "Nic",
    "NicSpec",
    "NicStats",
    "SharedL2Model",
    "blend",
    "core2duo_e6600",
    "lan_peer",
    "uniprocessor",
]
