"""Benchmark workloads: the paper's four guest benchmarks (7z, Matrix,
IOBench, NetBench), NBench for the host, and the BOINC/Einstein volunteer
load.  Every workload runs unchanged on native, host, or guest contexts."""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    __name__: ("lzma_lite", "nbench"),
    "repro.workloads.base": ("WorkloadResult", "chunks"),
    "repro.workloads.boinc": (
        "BOINC_PORT", "BoincClient", "BoincServer", "WorkunitRecord",
    ),
    "repro.workloads.einstein": (
        "CHECKPOINT_BYTES", "EinsteinProgress", "EinsteinTask",
        "EinsteinWorkunit", "matched_filter_power", "synthesize_strain",
        "template_search",
    ),
    "repro.workloads.iobench": (
        "IoBench", "IoBenchConfig", "IoSizeResult", "size_ladder",
    ),
    "repro.workloads.matrix": (
        "MatrixBenchmark", "MatrixConfig", "blocked_matmul", "naive_matmul",
    ),
    "repro.workloads.netbench": (
        "IPERF_PORT", "IperfServer", "NetBench", "NetBenchConfig",
    ),
    "repro.workloads.sevenzip": (
        "SevenZipBenchmark", "SevenZipConfig", "SevenZipHostBenchmark",
    ),
})

__all__ = [
    "BOINC_PORT",
    "BoincClient",
    "BoincServer",
    "CHECKPOINT_BYTES",
    "EinsteinProgress",
    "EinsteinTask",
    "EinsteinWorkunit",
    "IPERF_PORT",
    "IoBench",
    "IoBenchConfig",
    "IoSizeResult",
    "IperfServer",
    "MatrixBenchmark",
    "MatrixConfig",
    "NetBench",
    "NetBenchConfig",
    "SevenZipBenchmark",
    "SevenZipConfig",
    "SevenZipHostBenchmark",
    "WorkloadResult",
    "WorkunitRecord",
    "blocked_matmul",
    "chunks",
    "lzma_lite",
    "matched_filter_power",
    "naive_matmul",
    "nbench",
    "size_ladder",
    "synthesize_strain",
    "template_search",
    "chunks",
]
