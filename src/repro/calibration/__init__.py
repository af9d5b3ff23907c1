"""Calibration: the paper's reported values (targets) and the maths that
turns them into the mechanistic profile parameters."""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.calibration.fitting": (
        "CpuFit", "expected_mbps", "fit_cpu_multipliers", "fit_vnic_cycles",
        "predicted_slowdown", "service_steal_fraction",
    ),
    "repro.calibration.targets": (
        "FIG1_SEVENZIP_RELATIVE", "FIG2_MATRIX_RELATIVE",
        "FIG3_IOBENCH_RELATIVE", "FIG4_NETBENCH_MBPS", "FIG5_MEM_OVERHEAD_MAX",
        "FIG6_INT_OVERHEAD_APPROX", "FIG6B_FP_OVERHEAD_MAX",
        "FIG7_HOST_CPU_PCT", "FIG8_MIPS_RATIO", "SHAPE_RTOL",
        "VM_CONFIGURED_MEMORY_MB", "check_relative_shape", "same_ordering",
    ),
})

__all__ = [
    "CpuFit",
    "FIG1_SEVENZIP_RELATIVE",
    "FIG2_MATRIX_RELATIVE",
    "FIG3_IOBENCH_RELATIVE",
    "FIG4_NETBENCH_MBPS",
    "FIG5_MEM_OVERHEAD_MAX",
    "FIG6_INT_OVERHEAD_APPROX",
    "FIG6B_FP_OVERHEAD_MAX",
    "FIG7_HOST_CPU_PCT",
    "FIG8_MIPS_RATIO",
    "SHAPE_RTOL",
    "VM_CONFIGURED_MEMORY_MB",
    "check_relative_shape",
    "expected_mbps",
    "fit_cpu_multipliers",
    "fit_vnic_cycles",
    "predicted_slowdown",
    "same_ordering",
    "service_steal_fraction",
]
