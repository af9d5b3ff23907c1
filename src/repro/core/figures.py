"""Figure generators: one function per paper figure (and ablations).

Each returns a :class:`FigureData` holding the measured series, CIs, the
paper's reported values and a human-readable note — everything the report
renderer and the shape-checking tests need.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from repro.calibration import targets
from repro.core.figdata import FigureData, MeasuredPoint
from repro.core.guest_perf import (
    GUEST_ENVIRONMENTS,
    guest_perf_experiment,
    normalize_against_native,
)
from repro.core.host_impact import (
    ENV_NO_VM,
    HostImpactConfig,
    nbench_impact_experiment,
    run_sevenzip_impact,
    sevenzip_impact_experiment,
)
from repro.core.stats import Summary
from repro.core.testbed import ENV_NATIVE
from repro.virt.profiles import PROFILE_ORDER
from repro.workloads.iobench import IoBench
from repro.workloads.matrix import MatrixBenchmark, MatrixConfig
from repro.workloads.nbench import IndexGroup
from repro.workloads.netbench import NetBench
from repro.workloads.sevenzip import SevenZipBenchmark, SevenZipConfig

HOST_ENVIRONMENTS = (ENV_NO_VM,) + PROFILE_ORDER


# ---------------------------------------------------------------------------
# Experiment 1: guest performance (Figures 1-4)
# ---------------------------------------------------------------------------

def _sevenzip_guest_factory(tb):
    # Module-level (not a lambda) so repetitions can run in worker processes.
    return SevenZipBenchmark(SevenZipConfig(n_blocks=16),
                             rng=tb.rng.fork("7z"))


def _matrix_guest_factory(tb, size: int):
    return MatrixBenchmark(MatrixConfig(size=size))


def _iobench_guest_factory(tb):
    return IoBench()


def figure1_sevenzip(base_seed: int = 1, default_reps: int = 10) -> FigureData:
    """7z relative performance on virtual machines."""
    results = guest_perf_experiment(
        _sevenzip_guest_factory,
        metric="mips", environments=GUEST_ENVIRONMENTS,
        base_seed=base_seed, default_reps=default_reps,
    )
    relative = normalize_against_native(results)  # MIPS: lag = native/env
    fig = FigureData(
        fig_id="fig1", title="Relative performance of 7z on virtual machines",
        unit="slowdown vs native (1.0 = native)",
        paper=dict(targets.FIG1_SEVENZIP_RELATIVE),
        notes="Single-threaded `7z b`; guest runs timed via UDP time server.",
    )
    for env in GUEST_ENVIRONMENTS:
        _, rel_ci = _ratio_ci(results[env], results[ENV_NATIVE])
        fig.series[env] = MeasuredPoint(relative[env], rel_ci)
    return fig


def figure2_matrix(base_seed: int = 2, default_reps: int = 10,
                   size: int = 512) -> FigureData:
    """Matrix relative performance on virtual machines."""
    results = guest_perf_experiment(
        functools.partial(_matrix_guest_factory, size=size),
        metric="seconds_per_multiply", environments=GUEST_ENVIRONMENTS,
        base_seed=base_seed, default_reps=default_reps,
    )
    relative = normalize_against_native(results, invert=True)  # time metric
    fig = FigureData(
        fig_id="fig2",
        title="Relative performance of Matrix on virtual machines",
        unit="slowdown vs native (1.0 = native)",
        paper=dict(targets.FIG2_MATRIX_RELATIVE),
        notes=f"Naive {size}x{size} double matmul "
              f"(paper uses 512 and 1024; slowdowns are size-independent).",
    )
    for env in GUEST_ENVIRONMENTS:
        _, rel_ci = _ratio_ci(results[env], results[ENV_NATIVE])
        fig.series[env] = MeasuredPoint(relative[env], rel_ci)
    return fig


def figure3_iobench(base_seed: int = 3, default_reps: int = 5) -> FigureData:
    """IOBench relative performance on virtual machines."""
    results = guest_perf_experiment(
        _iobench_guest_factory,
        metric="aggregate_mbps", environments=GUEST_ENVIRONMENTS,
        base_seed=base_seed, default_reps=default_reps,
    )
    relative = normalize_against_native(results)
    fig = FigureData(
        fig_id="fig3",
        title="Relative performance of IOBench on virtual machines",
        unit="slowdown vs native (1.0 = native)",
        paper=dict(targets.FIG3_IOBENCH_RELATIVE),
        notes="Write+fsync+read ladder, 128 KB..32 MB doubling.",
    )
    for env in GUEST_ENVIRONMENTS:
        _, rel_ci = _ratio_ci(results[env], results[ENV_NATIVE])
        fig.series[env] = MeasuredPoint(relative[env], rel_ci)
    return fig


#: Figure 4 runs VMware twice (bridged and NAT), as the paper does.
FIG4_ENVIRONMENTS = (ENV_NATIVE, "vmplayer:bridged", "vmplayer:nat",
                     "qemu", "virtualbox", "virtualpc")


def _netbench_factory(tb):
    from repro.workloads.netbench import IperfServer

    IperfServer(tb.peer_kernel)  # arm the remote iperf server
    return NetBench(tb.peer_kernel)


def figure4_netbench(base_seed: int = 4, default_reps: int = 5) -> FigureData:
    """NetBench absolute throughput per environment."""
    results = guest_perf_experiment(
        _netbench_factory,
        metric="mbps", environments=FIG4_ENVIRONMENTS,
        base_seed=base_seed, default_reps=default_reps,
    )
    fig = FigureData(
        fig_id="fig4",
        title="Absolute performance for NetBench on virtual machines",
        unit="Mbps (higher is better)",
        paper=dict(targets.FIG4_NETBENCH_MBPS),
        notes="10 MB TCP stream to the LAN iperf server over 100 Mbps.",
    )
    for env in FIG4_ENVIRONMENTS:
        summary = results[env]
        fig.series[env] = MeasuredPoint(summary.mean, summary.ci95)
    return fig


# ---------------------------------------------------------------------------
# Experiment 2: impact on host (Figures 5-8)
# ---------------------------------------------------------------------------

def _nbench_overhead_figure(fig_id: str, group: IndexGroup, title: str,
                            base_seed: int, default_reps: int) -> FigureData:
    results = nbench_impact_experiment(
        HOST_ENVIRONMENTS, group, base_seed=base_seed,
        default_reps=default_reps,
    )
    metric = f"{group.value}_index"
    baseline = results[ENV_NO_VM][metric]
    fig = FigureData(
        fig_id=fig_id, title=title,
        unit="overhead vs no-VM host run (fraction; smaller is better)",
        notes=("Host NBench "
               f"{group.value.upper()} index while a guest computes "
               "Einstein@home; VM at normal and idle priority."),
    )
    for label, metrics in results.items():
        if label == ENV_NO_VM:
            continue
        overhead = 1.0 - metrics[metric].mean / baseline.mean
        _, ci = _ratio_ci(metrics[metric], baseline)
        fig.series[label] = MeasuredPoint(overhead, ci)
    return fig


def figure5_nbench_mem(base_seed: int = 5, default_reps: int = 3) -> FigureData:
    fig = _nbench_overhead_figure(
        "fig5", IndexGroup.MEM, "Relative performance (MEM index)",
        base_seed, default_reps,
    )
    fig.paper = {"(max over environments)": targets.FIG5_MEM_OVERHEAD_MAX}
    return fig


def figure6_nbench_int(base_seed: int = 6, default_reps: int = 3) -> FigureData:
    fig = _nbench_overhead_figure(
        "fig6", IndexGroup.INT, "Relative performance (INT index)",
        base_seed, default_reps,
    )
    fig.paper = {"(average over environments)": targets.FIG6_INT_OVERHEAD_APPROX}
    return fig


def figure6b_nbench_fp(base_seed: int = 66, default_reps: int = 3) -> FigureData:
    """The FP-index plot the paper describes but omits to save space."""
    fig = _nbench_overhead_figure(
        "fig6b", IndexGroup.FP,
        "Relative performance (FP index; plot omitted in the paper)",
        base_seed, default_reps,
    )
    fig.paper = {"(max over environments)": targets.FIG6B_FP_OVERHEAD_MAX}
    return fig


def figure7_host_cpu(base_seed: int = 7, default_reps: int = 3,
                     duration_s: float = 20.0) -> FigureData:
    """Available % CPU for the host OS while the guest runs at 100%."""
    fig = FigureData(
        fig_id="fig7",
        title="Available % CPU for host OS when guest OS is running at 100%",
        unit="% CPU (200% = both cores)",
        paper={f"{env}/{thr}t": value
               for (env, thr), value in targets.FIG7_HOST_CPU_PCT.items()},
        notes="7z on the host at -mmt 1 and -mmt 2; VM at idle priority.",
    )
    for threads in (1, 2):
        results = sevenzip_impact_experiment(
            HOST_ENVIRONMENTS, threads=threads, duration_s=duration_s,
            base_seed=base_seed + threads, default_reps=default_reps,
        )
        for env in HOST_ENVIRONMENTS:
            summary = results[env]["usage_pct"]
            fig.series[f"{env}/{threads}t"] = MeasuredPoint(
                summary.mean, summary.ci95
            )
    return fig


def figure8_host_mips(base_seed: int = 8, default_reps: int = 3,
                      duration_s: float = 20.0) -> FigureData:
    """Host 7z MIPS ratio (with VM / without VM)."""
    fig = FigureData(
        fig_id="fig8",
        title="MIPS for 7z when guest OS is running at 100%",
        unit="MIPS ratio vs no-VM (1.0 = unaffected)",
        paper={f"{env}/2t": value
               for env, value in targets.FIG8_MIPS_RATIO.items()},
        notes="Ratio of host 7z MIPS with an active VM to the no-VM run.",
    )
    for threads in (1, 2):
        results = sevenzip_impact_experiment(
            HOST_ENVIRONMENTS, threads=threads, duration_s=duration_s,
            base_seed=base_seed + threads, default_reps=default_reps,
        )
        baseline = results[ENV_NO_VM]["mips"]
        for env in HOST_ENVIRONMENTS:
            if env == ENV_NO_VM:
                continue
            ratio, ci = _ratio_ci(results[env]["mips"], baseline)
            fig.series[f"{env}/{threads}t"] = MeasuredPoint(ratio, ci)
    return fig


def memory_footprint_figure(base_seed: int = 9) -> FigureData:
    """§4.2.1: the VM's memory cost is configured, constant, known."""
    from repro.core.testbed import boot_vm, build_host_testbed
    from repro.units import MB

    testbed = build_host_testbed(base_seed, with_peer=False,
                                 with_timeserver=False)
    fig = FigureData(
        fig_id="mem",
        title="Host memory committed by the running VM (per §4.2.1)",
        unit="MB",
        paper={"configured guest RAM": float(targets.VM_CONFIGURED_MEMORY_MB)},
        notes="Commitment appears at boot and vanishes at shutdown; the "
              "VMM adds a fixed overhead on top of the configured 300 MB.",
    )
    before = testbed.machine.memory.committed_bytes

    def driver():
        vm = yield from boot_vm(testbed, "vmplayer")
        return vm

    vm = testbed.run_to_completion(testbed.engine.process(driver(), "boot"))
    during = testbed.machine.memory.committed_bytes
    vm.shutdown()
    after = testbed.machine.memory.committed_bytes
    fig.series["before boot"] = MeasuredPoint(before / MB)
    fig.series["while running"] = MeasuredPoint(during / MB)
    fig.series["configured guest RAM"] = MeasuredPoint(
        vm.config.memory_bytes / MB
    )
    fig.series["after shutdown"] = MeasuredPoint(after / MB)
    return fig


# ---------------------------------------------------------------------------
# Multi-VM host memory figures (repro.virt.memory) — the scenario family
# the paper's single-VM setup could not express.
# ---------------------------------------------------------------------------

def multivm_intrusiveness(base_seed: int = 21, default_reps: int = 3,
                          duration_s: float = 6.0,
                          vm_counts: Tuple[int, ...] = (2, 4, 8),
                          overcommit_ratio: float = 1.25,
                          host_threads: int = 1) -> FigureData:
    """Host intrusiveness of 2/4/8 co-located VMs under one memory arbiter.

    Same protocol as Figure 8 (host 7z MIPS while guests compute
    Einstein@home), generalised to N VMs sharing the configured
    overcommit budget.  Intrusiveness = 1 - MIPS ratio vs the no-VM
    control; more VMs mean more service threads, memory ticks and
    balloon traffic, so the series rises monotonically with N.
    """
    from repro.core.multivm import MultiVmConfig, multivm_impact_experiment

    counts = tuple(int(n) for n in vm_counts)
    configs = [MultiVmConfig(n_vms=0, overcommit_ratio=overcommit_ratio,
                             duration_s=duration_s,
                             host_threads=host_threads)]
    configs += [MultiVmConfig(n_vms=n, overcommit_ratio=overcommit_ratio,
                              duration_s=duration_s,
                              host_threads=host_threads)
                for n in counts]
    results = multivm_impact_experiment(configs, base_seed=base_seed,
                                        default_reps=default_reps)
    baseline = results[configs[0]]["mips"]
    fig = FigureData(
        fig_id="multivm_intrusiveness",
        title="Host intrusiveness of N co-located VMs "
              "(ballooned, shared memory budget)",
        unit="host MIPS overhead vs no-VM (fraction; higher = worse)",
        notes=f"Host 7z at {host_threads} thread(s) against N idle-priority "
              f"VMs; configured guest RAM totals {overcommit_ratio:g}x "
              "physical RAM, arbitrated by the balloon controller.",
    )
    for config in configs[1:]:
        overhead = 1.0 - results[config]["mips"].mean / baseline.mean
        _, ci = _ratio_ci(results[config]["mips"], baseline)
        fig.series[f"{config.n_vms} VMs"] = MeasuredPoint(overhead, ci)
    return fig


def balloon_storm(base_seed: int = 22, default_reps: int = 3,
                  duration_s: float = 8.0, vms_per_host: int = 4,
                  overcommit_ratio: float = 1.6) -> FigureData:
    """Balloon traffic and reclaim under deliberate overcommit.

    An idle host (no owner benchmark) whose guests' working sets churn
    through phases while the pressure controller arbitrates; the figure
    reads out the memory subsystem itself.
    """
    from repro.core.multivm import (MultiVmConfig, MultiVmImpactMeasure,
                                    repeat)

    config = MultiVmConfig(n_vms=vms_per_host,
                           overcommit_ratio=overcommit_ratio,
                           duration_s=duration_s, host_threads=0)
    repeated = repeat(MultiVmImpactMeasure(config), base_seed=base_seed,
                      default_reps=default_reps)
    fig = FigureData(
        fig_id="balloon_storm",
        title=f"Balloon storm: {vms_per_host} VMs at "
              f"{overcommit_ratio:g}x overcommit",
        unit="MB / pages / Ginstr (mixed; see labels)",
        notes="Working sets are phase-driven and seeded; the controller "
              "inflates balloons toward the host headroom limit and "
              "kswapd reclaims whatever still spills into swap.",
    )
    for label, metric in (("committed peak (MB)", "committed_peak_mb"),
                          ("balloon moved (MB)", "balloon_moved_mb"),
                          ("squeezed peak (MB)", "squeezed_peak_mb"),
                          ("reclaim (pages)", "reclaim_pages"),
                          ("guest throughput (Ginstr)", "guest_ginstr")):
        summary = repeated.metrics[metric]
        fig.series[label] = MeasuredPoint(summary.mean, summary.ci95)
    return fig


def overcommit_sweep(base_seed: int = 23, default_reps: int = 3,
                     duration_s: float = 6.0, vms_per_host: int = 4,
                     ratios: Tuple[float, ...] = (0.8, 1.2, 1.6, 2.0)
                     ) -> FigureData:
    """Guest throughput and reclaim across the overcommit ratio axis."""
    from repro.core.multivm import MultiVmConfig, multivm_impact_experiment

    configs = [MultiVmConfig(n_vms=vms_per_host, overcommit_ratio=float(r),
                             duration_s=duration_s, host_threads=0)
               for r in ratios]
    results = multivm_impact_experiment(configs, base_seed=base_seed,
                                        default_reps=default_reps)
    fig = FigureData(
        fig_id="overcommit_sweep",
        title=f"Overcommit sweep: {vms_per_host} VMs, idle host",
        unit="Ginstr / pages (mixed; see labels)",
        notes="Past 1.0x the paging penalty and reclaim/fault service "
              "eat into guest throughput; the sweep locates the knee.",
    )
    for config in configs:
        ratio = config.overcommit_ratio
        ginstr = results[config]["guest_ginstr"]
        reclaim = results[config]["reclaim_pages"]
        fig.series[f"ratio {ratio:g}: guest Ginstr"] = MeasuredPoint(
            ginstr.mean, ginstr.ci95)
        fig.series[f"ratio {ratio:g}: reclaim pages"] = MeasuredPoint(
            reclaim.mean, reclaim.ci95)
    return fig


# ---------------------------------------------------------------------------
# Fleet-scale figures (repro.fleet) — lazy wrappers, so a paper-figure run
# loads no fleet stack.
# ---------------------------------------------------------------------------

def fleet_figure(**kwargs) -> FigureData:
    """Validated throughput vs fleet size (see repro.fleet.figures)."""
    from repro.fleet.figures import fleet_scale_figure

    return fleet_scale_figure(**kwargs)


def fleet_makespan(**kwargs) -> FigureData:
    """Makespan percentiles per hypervisor fleet."""
    from repro.fleet.figures import fleet_makespan_figure

    return fleet_makespan_figure(**kwargs)


def fleet_waste(**kwargs) -> FigureData:
    """Wasted-CPU fraction per hypervisor in a mixed fleet."""
    from repro.fleet.figures import fleet_waste_figure

    return fleet_waste_figure(**kwargs)


def fleet_outage(**kwargs) -> FigureData:
    """Makespan/waste vs server outage duration (arms its own plan)."""
    from repro.fleet.figures import fleet_outage_figure

    return fleet_outage_figure(**kwargs)


def fleet_checkpoint(**kwargs) -> FigureData:
    """Wasted CPU vs checkpoint interval under a vm.crash storm."""
    from repro.fleet.figures import fleet_checkpoint_figure

    return fleet_checkpoint_figure(**kwargs)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FIGURES = {
    "fig1": figure1_sevenzip,
    "fig2": figure2_matrix,
    "fig3": figure3_iobench,
    "fig4": figure4_netbench,
    "fig5": figure5_nbench_mem,
    "fig6": figure6_nbench_int,
    "fig6b": figure6b_nbench_fp,
    "fig7": figure7_host_cpu,
    "fig8": figure8_host_mips,
    "mem": memory_footprint_figure,
    "multivm_intrusiveness": multivm_intrusiveness,
    "balloon_storm": balloon_storm,
    "overcommit_sweep": overcommit_sweep,
    "fleet": fleet_figure,
    "fleet_makespan": fleet_makespan,
    "fleet_waste": fleet_waste,
    "fleet_outage": fleet_outage,
    "fleet_checkpoint": fleet_checkpoint,
}

def generate_figure(fig_id: str, use_cache: Optional[bool] = None,
                    **kwargs) -> FigureData:
    """Generate (or fetch from the result cache) one figure.

    ``use_cache=None`` consults the run config's cache toggle (off by
    default for library callers; the CLI and benchmark suite turn it
    on).  Cache identity covers the figure id, every keyword argument,
    the resolved repetition policy, the package version and a source
    fingerprint — see :mod:`repro.core.cache` for the invalidation
    rules.  Prefer :func:`repro.api.run` with a ``figure`` request, which
    also times phases and can emit a run manifest.
    """
    from repro import api
    from repro.core.cache import ResultCache, cache_enabled

    try:
        factory = FIGURES[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {fig_id!r}; available: {sorted(FIGURES)}"
        ) from None
    cache_on = cache_enabled(default=False) if use_cache is None else use_cache
    if not cache_on:
        return factory(**kwargs)
    from repro.faults import FAULTS

    cache = ResultCache()
    params = {
        "kwargs": dict(sorted(kwargs.items())),
        "reps_policy": (api.active_config() or api.RunConfig()).reps_policy(),
    }
    # An active fault plan can legitimately change results (host.dropout,
    # checkpoint.lost survive recovery); keep those entries distinct.
    fault_token = FAULTS.cache_token()
    if fault_token is not None:
        params["faults"] = fault_token
    key = cache.key(f"figure:{fig_id}", params)
    payload = cache.get(key)
    if payload is not None:
        return FigureData.from_dict(payload)
    fig = factory(**kwargs)
    cache.put(key, fig.to_dict(), experiment=f"figure:{fig_id}",
              params=params)
    return fig


def _ratio_ci(numerator: Summary, denominator: Summary) -> Tuple[float, float]:
    from repro.core.stats import ratio_of_means

    return ratio_of_means(numerator, denominator)
