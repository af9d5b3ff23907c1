"""Operating-system models: scheduler, kernel, filesystem, network, clocks."""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.osmodel.filesystem": (
        "PAGE_BYTES", "FileNode", "FileSystem", "FsStats",
    ),
    "repro.osmodel.kernel": (
        "CostKind", "ExecutionContext", "Kernel", "KernelParams",
        "ubuntu_params", "windows_xp_params",
    ),
    "repro.osmodel.netstack": (
        "LoopbackDevice", "NetStack", "NetStats", "TcpSocket", "UdpSocket",
    ),
    "repro.osmodel.scheduler": ("BoostPolicy", "CoreState", "Scheduler"),
    "repro.osmodel.threads": (
        "PRIORITY_ABOVE_NORMAL", "PRIORITY_BELOW_NORMAL", "PRIORITY_HIGH",
        "PRIORITY_IDLE", "PRIORITY_NORMAL", "PRIORITY_REALTIME", "OsProcess",
        "SimThread", "ThreadState",
    ),
    "repro.osmodel.timekeeping": ("StopwatchClock", "SystemClock"),
})

__all__ = [
    "BoostPolicy",
    "CoreState",
    "CostKind",
    "ExecutionContext",
    "FileNode",
    "FileSystem",
    "FsStats",
    "Kernel",
    "KernelParams",
    "LoopbackDevice",
    "NetStack",
    "NetStats",
    "OsProcess",
    "PAGE_BYTES",
    "PRIORITY_ABOVE_NORMAL",
    "PRIORITY_BELOW_NORMAL",
    "PRIORITY_HIGH",
    "PRIORITY_IDLE",
    "PRIORITY_NORMAL",
    "PRIORITY_REALTIME",
    "Scheduler",
    "SimThread",
    "StopwatchClock",
    "SystemClock",
    "TcpSocket",
    "ThreadState",
    "UdpSocket",
    "ubuntu_params",
    "windows_xp_params",
]
