"""Fleet-level figures: what the calibrated VMs mean at project scale.

The paper's Figures 1-8 characterise one desktop; these figures answer
the question the paper poses in its motivation — what does hypervisor
choice cost a whole volunteer project?  Three figures, all registered in
:data:`repro.core.figures.FIGURES` (so ``repro figure fleet`` and the
result cache work unchanged):

* ``fleet`` — validated-work-unit throughput vs fleet size;
* ``fleet_makespan`` — work-unit makespan percentiles per hypervisor;
* ``fleet_waste`` — wasted-CPU fraction per hypervisor in a mixed fleet;
* ``fleet_outage`` — makespan and waste vs server-outage duration;
* ``fleet_checkpoint`` — wasted CPU vs guest checkpoint interval.

The two recovery figures arm their own :class:`repro.faults.FaultPlan`
internally (via :func:`repro.faults.injected`, restoring any outer
plan): the schedule is a pure function of the figure's own fault seed,
so the figure is deterministic and its cache identity — which folds in
the active fault token — is distinct per sweep point.

Small fleets and short horizons by default: these are figures, not the
acceptance-scale runs (``repro fleet --hosts 1000`` is the CLI's job).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.figdata import FigureData, MeasuredPoint
from repro.faults import injected, parse_fault_spec
from repro.fleet.config import FleetConfig
from repro.fleet.server import FleetReport, simulate_fleet
from repro.virt.profiles import PROFILE_ORDER


def fleet_scale_figure(base_seed: int = 42,
                       sizes: Tuple[int, ...] = (50, 100, 200, 400),
                       hypervisor: str = "vmplayer",
                       duration_s: float = 21600.0) -> FigureData:
    """Validated throughput as the fleet grows (one hypervisor)."""
    fig = FigureData(
        fig_id="fleet",
        title="Validated work-unit throughput vs fleet size",
        unit="validated work units / hour",
        notes=(f"{hypervisor} fleet over {duration_s / 3600:.0f} simulated "
               "hours; quorum-of-2 validation, churny hosts. Throughput "
               "should scale near-linearly with fleet size."),
    )
    for size in sizes:
        config = FleetConfig(hosts=size, hypervisor=hypervisor,
                             seed=base_seed, duration_s=duration_s)
        report = simulate_fleet(config)
        fig.series[f"{size} hosts"] = MeasuredPoint(
            report.throughput_per_hour)
    return fig


def fleet_makespan_figure(base_seed: int = 43, hosts: int = 80,
                          duration_s: float = 21600.0) -> FigureData:
    """Work-unit makespan percentiles per hypervisor fleet."""
    fig = FigureData(
        fig_id="fleet_makespan",
        title="Work-unit makespan by hypervisor fleet",
        unit="hours from batch release to quorum validation",
        notes=(f"{hosts}-host single-hypervisor fleets, "
               f"{duration_s / 3600:.0f} h horizon; slower guests "
               "(QEMU) stretch the whole distribution."),
    )
    for profile in PROFILE_ORDER:
        config = FleetConfig(hosts=hosts, hypervisor=profile,
                             seed=base_seed, duration_s=duration_s)
        report = simulate_fleet(config)
        for quantile in ("p50", "p90"):
            fig.series[f"{profile} {quantile}"] = MeasuredPoint(
                report.makespan_s[quantile] / 3600.0)
    return fig


def fleet_waste_figure(base_seed: int = 44, hosts: int = 120,
                       duration_s: float = 43200.0) -> FigureData:
    """Wasted-CPU fraction per hypervisor inside one mixed fleet."""
    config = FleetConfig(hosts=hosts, hypervisor="mixed",
                         seed=base_seed, duration_s=duration_s)
    report = simulate_fleet(config)
    fig = FigureData(
        fig_id="fleet_waste",
        title="Wasted CPU fraction by hypervisor (mixed fleet)",
        unit="fraction of contributed CPU not in a validating quorum",
        notes=(f"One mixed fleet of {hosts} hosts striped across all four "
               f"profiles, {duration_s / 3600:.0f} h horizon; waste = "
               "erroneous + stale + redundant + departed-lost CPU."),
    )
    for profile in PROFILE_ORDER:
        stats = report.per_hypervisor.get(profile)
        if stats is not None:
            fig.series[profile] = MeasuredPoint(stats["waste_fraction"])
    fig.series["fleet overall"] = MeasuredPoint(report.waste_fraction)
    return fig


def fleet_outage_figure(base_seed: int = 45, hosts: int = 80,
                        duration_s: float = 43200.0,
                        fault_seed: int = 9,
                        outage_scales_s: Tuple[float, ...] = (
                            0.0, 1800.0, 3600.0, 7200.0)) -> FigureData:
    """Makespan and waste as server outages lengthen.

    Scale 0 is the fault-free baseline (no plan armed); every other
    point arms ``server.outage`` plus a light ``net.partition`` drizzle
    and sweeps only the drawn window length, so the x-axis isolates how
    long the scheduler stays down once it goes down.
    """
    fig = FigureData(
        fig_id="fleet_outage",
        title="Fleet makespan and waste vs server outage duration",
        unit="mixed units (see labels)",
        notes=(f"{hosts}-host fleet, {duration_s / 3600:.0f} h horizon; "
               "outage windows drawn per hour-slot from the fault stream "
               f"(fault seed {fault_seed}), uploads buffered host-side "
               "on timeout/backoff retry."),
    )
    spec = (f"seed={fault_seed},server.outage=0.25,net.partition=0.1")
    for scale_s in outage_scales_s:
        config = FleetConfig(hosts=hosts, seed=base_seed,
                             duration_s=duration_s,
                             outage_scale_s=scale_s or 3600.0)
        if scale_s > 0:
            with injected(parse_fault_spec(spec)):
                report = simulate_fleet(config)
        else:
            report = simulate_fleet(config)
        label = f"{scale_s / 3600:.1f}h scale"
        fig.series[f"{label} makespan p90 (h)"] = MeasuredPoint(
            report.makespan_s["p90"] / 3600.0)
        fig.series[f"{label} waste fraction"] = MeasuredPoint(
            report.waste_fraction)
    return fig


def fleet_checkpoint_figure(base_seed: int = 46, hosts: int = 80,
                            duration_s: float = 43200.0,
                            fault_seed: int = 10,
                            intervals_s: Tuple[float, ...] = (
                                0.0, 300.0, 900.0, 3600.0, 10800.0)
                            ) -> FigureData:
    """Wasted CPU vs guest checkpoint interval under a crash storm.

    Interval 0 disables checkpointing, so every ``vm.crash`` restarts
    its unit from scratch; short intervals pay the per-checkpoint
    virtual-disk write on every cycle.  The sweep exposes the U-shape
    between the two costs — the paper's intrusiveness trade-off at
    fleet scale.
    """
    fig = FigureData(
        fig_id="fleet_checkpoint",
        title="Wasted CPU vs guest checkpoint interval (vm.crash storm)",
        unit="fraction of contributed CPU wasted",
        notes=(f"{hosts}-host fleet, {duration_s / 3600:.0f} h horizon, "
               f"vm.crash armed at 0.3 (fault seed {fault_seed}); "
               "waste balances checkpoint-write overhead against "
               "rollback loss."),
    )
    spec = f"seed={fault_seed},vm.crash=0.3"
    for interval_s in intervals_s:
        config = FleetConfig(hosts=hosts, seed=base_seed,
                             duration_s=duration_s,
                             checkpoint_interval_s=interval_s)
        with injected(parse_fault_spec(spec)):
            report = simulate_fleet(config)
        label = ("no checkpoints" if interval_s == 0
                 else f"every {interval_s / 60:.0f} min")
        fig.series[label] = MeasuredPoint(report.waste_fraction)
    return fig


def report_figure(report: FleetReport,
                  fig_id: Optional[str] = None) -> FigureData:
    """Render one finished fleet run as a figure (CLI ascii/SVG path)."""
    config = report.config
    fig = FigureData(
        fig_id=fig_id or "fleet",
        title=(f"Fleet run: {report.hosts} hosts, "
               f"{config.get('hypervisor', '?')}, seed "
               f"{config.get('seed', '?')}"),
        unit="mixed units (see labels)",
        notes=report.summary().splitlines()[0],
    )
    fig.series["throughput (WU/h)"] = MeasuredPoint(
        report.throughput_per_hour)
    fig.series["validated WUs"] = MeasuredPoint(float(report.valid))
    fig.series["makespan p50 (h)"] = MeasuredPoint(
        report.makespan_s["p50"] / 3600.0)
    fig.series["makespan p90 (h)"] = MeasuredPoint(
        report.makespan_s["p90"] / 3600.0)
    fig.series["waste fraction"] = MeasuredPoint(report.waste_fraction)
    fig.series["realized availability"] = MeasuredPoint(
        report.realized_availability)
    fig.series["departures"] = MeasuredPoint(float(report.departures))
    return fig
