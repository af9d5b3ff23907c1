#!/usr/bin/env python3
"""VM selection study: which hypervisor for which desktop-grid workload?

The paper's practical upshot is that the answer depends on the workload
class: CPU-bound tasks virtualise cheaply everywhere (except QEMU), while
I/O-bound tasks "should not be considered on such environments".  This
example sweeps all four hypervisors across the four benchmark classes and
prints a decision matrix.

Run:  python examples/vm_selection_study.py        (takes a few minutes)
"""

from repro.core.guest_perf import (
    normalize_against_native,
    run_benchmark_in_environment,
)
from repro.core.stats import summarize
from repro.core.testbed import ENV_NATIVE
from repro.units import MB
from repro.virt.profiles import PROFILE_ORDER
from repro.workloads.iobench import IoBench, IoBenchConfig
from repro.workloads.matrix import MatrixBenchmark, MatrixConfig
from repro.workloads.netbench import IperfServer, NetBench, NetBenchConfig
from repro.workloads.sevenzip import SevenZipBenchmark, SevenZipConfig

_TRANSFER = 4 * MB

WORKLOADS = {
    "integer CPU (7z)": (
        lambda tb: SevenZipBenchmark(SevenZipConfig(n_blocks=6),
                                     rng=tb.rng.fork("7z")),
        "mips", False,
    ),
    "floating point (Matrix)": (
        lambda tb: MatrixBenchmark(MatrixConfig(size=512)),
        "seconds_per_multiply", True,
    ),
    "disk I/O (IOBench)": (
        lambda tb: IoBench(IoBenchConfig(max_bytes=8 * MB)),
        "aggregate_mbps", False,
    ),
    "network (NetBench)": (
        lambda tb: (IperfServer(tb.peer_kernel, expected_bytes=_TRANSFER)
                    and None)
        or NetBench(tb.peer_kernel, NetBenchConfig(transfer_bytes=_TRANSFER)),
        "mbps", False,
    ),
}

ENVIRONMENTS = (ENV_NATIVE,) + PROFILE_ORDER


def verdict(slowdown: float) -> str:
    if slowdown < 1.25:
        return "good"
    if slowdown < 2.0:
        return "usable"
    return "avoid"


def main() -> None:
    matrix = {}
    for workload_name, (factory, metric, invert) in WORKLOADS.items():
        results = {}
        for env in ENVIRONMENTS:
            run = run_benchmark_in_environment(env, factory, seed=7)
            results[env] = summarize([float(run.metric(metric))])
        matrix[workload_name] = normalize_against_native(results,
                                                         invert=invert)

    width = max(len(name) for name in WORKLOADS) + 2
    header = f"{'workload':<{width}}" + "".join(
        f"{env:>16}" for env in PROFILE_ORDER
    )
    print(header)
    print("-" * len(header))
    for workload_name, slowdowns in matrix.items():
        cells = "".join(
            f"{slowdowns[env]:>8.2f}x {verdict(slowdowns[env]):<6}"
            for env in PROFILE_ORDER
        )
        print(f"{workload_name:<{width}}{cells}")

    print()
    print("Conclusions (matching the paper's):")
    cpu = matrix["floating point (Matrix)"]
    io = matrix["disk I/O (IOBench)"]
    best_cpu = min(PROFILE_ORDER, key=lambda e: cpu[e])
    print(f"  * best for CPU-bound volunteer tasks: {best_cpu} "
          f"({cpu[best_cpu]:.2f}x)")
    print(f"  * disk-I/O-bound tasks degrade {min(io[e] for e in PROFILE_ORDER):.1f}x-"
          f"{max(io[e] for e in PROFILE_ORDER):.1f}x: "
          "'should not be considered on such environments'")


if __name__ == "__main__":
    main()
