"""Command-line interface: ``python -m repro`` / ``repro``.

Subcommands
-----------
* ``repro list``               — figures available for regeneration
* ``repro figure fig1 [...]``  — regenerate figures, print ASCII charts
  (``repro figures`` is an alias; with no ids, regenerates everything)
* ``repro report [--out F]``   — regenerate everything, emit markdown
* ``repro profiles``           — show the calibrated hypervisor profiles
* ``repro sweep l2|service|catchup|checkpoint`` — sensitivity sweeps
* ``repro fleet [--hosts N ...]`` — fleet-scale desktop-grid simulation
* ``repro campaign plan|run SPEC`` — declarative scenario campaigns
  (JSON/TOML grid specs; see :mod:`repro.campaign`)
* ``repro chaos [FIG]``        — run a figure under a seeded fault storm
  and verify it recovers byte-identically
* ``repro lint [PATH ...]``    — static determinism lint (wall-clock,
  global RNG, env reads, unordered iteration; see :mod:`repro.audit`)
* ``repro audit [FIG]``        — run a figure serial vs parallel vs
  seed-replay with trace hashing on and bisect any divergence
* ``repro cache stats|clear|sweep`` — inspect / empty the on-disk result
  cache, or sweep orphaned temp files
* ``repro metrics [RUN|last]`` — render a recorded run manifest

All run policy flows through one :class:`repro.api.RunConfig`: the CLI
interprets the ``REPRO_*`` environment exactly once per invocation, at
this boundary (``RunConfig.from_env`` in :func:`_build_config`), layers
flags such as ``--jobs`` and ``--metrics`` on top, and hands the result
to everything downstream.  Figure and report runs consult the seeded
result cache unless ``REPRO_CACHE=0``; cache hits are logged to stderr.
With ``--metrics`` each run also records counters/timers and writes a
JSON manifest under ``results/runs/`` (see :mod:`repro.obs`).

Resilience flags (``figure`` / ``report`` / ``sweep`` / ``fleet`` /
``campaign``): ``--retries`` / ``--task-timeout`` / ``--min-reps``
configure the retry/timeout/degradation policy of
:mod:`repro.core.parallel`, and ``--faults SPEC`` arms the
deterministic injection sites of :mod:`repro.faults`.  The flag groups
are shared ``argparse`` parent parsers, so every subcommand exposes the
identical knob set.

All multi-point subcommands are one-scenario campaigns over the
:mod:`repro.campaign` scheduler — a single-figure run is a one-point
campaign — so checkpointing, dedup, metrics and manifests flow through
one path: each run checkpoints per-point completion under
``results/runs/`` and a killed run rerun with ``--resume`` recomputes
only the unfinished points.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from typing import Any, List, Optional

from repro import api
from repro.core.figdata import FIGURE_IDS
from repro.core.report import ascii_bar_chart, experiments_markdown
from repro.errors import ExperimentError, NativeBuildError


def _build_config(args: argparse.Namespace) -> api.RunConfig:
    """One RunConfig per invocation: environment first, flags on top.

    Every subcommand that needs run policy calls this exactly once; it
    is the package's only environment read.  The CLI caches by default
    (``REPRO_CACHE=0`` opts out); library callers must opt in — hence
    the explicit ``cache`` override here.
    """
    config = api.RunConfig.from_env()
    overrides = {"cache": config.use_cache(default=True)}
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        if jobs < 1:
            raise SystemExit(f"--jobs must be >= 1, got {jobs}")
        overrides["jobs"] = jobs
    if getattr(args, "metrics", False):
        overrides["metrics"] = True
    retries = getattr(args, "retries", None)
    if retries is not None:
        if retries < 0:
            raise SystemExit(f"--retries must be >= 0, got {retries}")
        overrides["retries"] = retries
    task_timeout = getattr(args, "task_timeout", None)
    if task_timeout is not None:
        if task_timeout <= 0:
            raise SystemExit(
                f"--task-timeout must be > 0, got {task_timeout}")
        overrides["task_timeout_s"] = task_timeout
    min_reps = getattr(args, "min_reps", None)
    if min_reps is not None:
        if min_reps < 1:
            raise SystemExit(f"--min-reps must be >= 1, got {min_reps}")
        overrides["min_reps"] = min_reps
    faults = getattr(args, "faults", None)
    if faults:
        overrides["fault_spec"] = _validated_fault_spec(faults)
    return config.with_overrides(**overrides)


def _validated_fault_spec(spec: str) -> str:
    """Parse ``--faults`` eagerly so a bad spec is a clean usage error."""
    from repro.errors import ReproError
    from repro.faults import parse_fault_spec

    try:
        parse_fault_spec(spec)
    except ReproError as exc:
        raise SystemExit(f"--faults: {exc}") from None
    return spec


def _campaign_progress(spec: Any, config: api.RunConfig, command: str,
                       resume: bool, total: int):
    """A loaded-or-fresh campaign checkpoint, with ``--resume`` chatter."""
    from repro.campaign import prepare_progress

    progress, found = prepare_progress(spec, config, command=command,
                                       resume=resume)
    if resume:
        if found:
            print(f"--resume: {found} of {total} point(s) already "
                  f"complete, skipping them", file=sys.stderr)
        else:
            print("--resume: no matching progress checkpoint; computing "
                  "every point", file=sys.stderr)
    return progress


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Available figures (paper: Domingues et al., IPPS 2009):")
    for fig_id in FIGURE_IDS:
        print(f"  {fig_id}")
    return 0


def _write_figure_svg(figure: Any, fig_id: str, svg_dir: str) -> None:
    from repro.core.svg import write_svg

    os.makedirs(svg_dir, exist_ok=True)
    path = write_svg(figure, os.path.join(svg_dir, f"{fig_id}.svg"))
    print(f"  wrote {path}")


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.campaign import (CampaignSpec, Scenario, plan_campaign,
                                run_campaign)
    from repro.core.figdata import FigureData

    config = _build_config(args)
    figure_ids = args.figures or list(FIGURE_IDS)
    status = 0
    valid = []
    for fig_id in figure_ids:
        if fig_id not in FIGURE_IDS:
            print(f"unknown figure {fig_id!r}; try `repro list`",
                  file=sys.stderr)
            status = 2
            continue
        valid.append(fig_id)
    if not valid:
        return status
    spec = CampaignSpec(
        name="figure",
        scenarios=(Scenario(kind="figure", figures=tuple(valid)),))
    progress = _campaign_progress(spec, config, "figure",
                                  getattr(args, "resume", False),
                                  len(plan_campaign(spec)))
    current = {"id": valid[0]}

    def on_start(point) -> None:
        current["id"] = point.params_dict["figure"]

    def on_result(item) -> None:
        fig_id = item.point.params_dict["figure"]
        if item.result is not None:
            figure = item.result.figure
        else:
            figure = FigureData.from_dict(item.payload)
        print(ascii_bar_chart(figure))
        if item.result is not None:
            print(f"  ({item.result.wall_s:.1f}s wall)")
            if item.result.manifest_path:
                print(f"  metrics manifest: {item.result.manifest_path}")
        else:
            print("  (resumed from checkpoint)")
        if args.svg:
            _write_figure_svg(figure, fig_id, args.svg)
        print()

    try:
        run_campaign(spec, config, command="figure", progress=progress,
                     own_metrics=False, on_start=on_start,
                     on_result=on_result)
    except ExperimentError as exc:
        print(f"figure {current['id']} failed: {exc}", file=sys.stderr)
        print("completed figures are checkpointed; rerun with "
              "--resume to skip them", file=sys.stderr)
        return 1
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.campaign import (CampaignSpec, Scenario, plan_campaign,
                                run_campaign)
    from repro.core.figdata import FigureData

    config = _build_config(args)
    spec = CampaignSpec(
        name="report",
        scenarios=(Scenario(kind="figure", figures=FIGURE_IDS),))
    progress = _campaign_progress(spec, config, "report",
                                  getattr(args, "resume", False),
                                  len(plan_campaign(spec)))
    current = {"id": FIGURE_IDS[0]}
    figures: List[Any] = []

    def on_start(point) -> None:
        fig_id = point.params_dict["figure"]
        current["id"] = fig_id
        print(f"generating {fig_id} ...", file=sys.stderr)

    def on_result(item) -> None:
        fig_id = item.point.params_dict["figure"]
        if item.result is None:
            print(f"resuming {fig_id} from checkpoint", file=sys.stderr)
            figures.append(FigureData.from_dict(item.payload))
            return
        figures.append(item.result.figure)
        if item.result.manifest_path:
            print(f"  metrics manifest: {item.result.manifest_path}",
                  file=sys.stderr)

    try:
        run_campaign(spec, config, command="report", progress=progress,
                     own_metrics=False, on_start=on_start,
                     on_result=on_result)
    except ExperimentError as exc:
        print(f"figure {current['id']} failed: {exc}", file=sys.stderr)
        print("completed figures are checkpointed; rerun with "
              "--resume to skip them", file=sys.stderr)
        return 1
    header = (
        "# Reproduction report — 'Evaluating the Performance and "
        "Intrusiveness of Virtual Machines for Desktop Grid Computing'"
    )
    text = experiments_markdown(figures, header=header)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import SweepResult
    from repro.campaign import (SWEEPS, CampaignSpec, Scenario,
                                plan_campaign, run_campaign)

    config = _build_config(args)
    if args.sweep not in SWEEPS:
        print(f"unknown sweep {args.sweep!r}; available: {sorted(SWEEPS)}",
              file=sys.stderr)
        return 2
    # perf_counter, not time.time(): wall-clock can step backwards under
    # NTP adjustment and once printed a negative elapsed time here.
    started = time.perf_counter()
    spec = CampaignSpec(
        name=f"sweep-{args.sweep}",
        scenarios=(Scenario(kind="sweep", sweep=args.sweep),))
    progress = _campaign_progress(spec, config, f"sweep:{args.sweep}",
                                  getattr(args, "resume", False),
                                  len(plan_campaign(spec)))
    merged: Optional[SweepResult] = None

    def on_result(item) -> None:
        nonlocal merged
        part = (item.result if item.result is not None
                else SweepResult.from_dict(item.payload))
        if item.point.params_dict["value"] is None:
            merged = part  # whole-sweep point: fn() took no values kwarg
            return
        if merged is None:
            merged = SweepResult(part.parameter)
        merged.add(part.values[0],
                   **{key: series[0]
                      for key, series in part.outputs.items()})

    try:
        result = run_campaign(spec, config, command=f"sweep:{args.sweep}",
                              manifest_command=f"sweep:{args.sweep}",
                              progress=progress, on_result=on_result)
    except ExperimentError as exc:
        print(f"sweep {args.sweep} failed: {exc}", file=sys.stderr)
        print("completed points are checkpointed; rerun with "
              "--resume to skip them", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(merged.render())
    print(f"  ({elapsed:.1f}s wall)")
    if result.manifest_path:
        print(f"  metrics manifest: {result.manifest_path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.campaign import (CampaignSpec, NullProgress, Scenario,
                                run_campaign)
    from repro.fleet import FleetConfig, FleetReport, report_figure

    # Fleet runs record a manifest by default (they are the headline
    # artefact); --no-metrics opts out.
    args.metrics = not args.no_metrics
    config = _build_config(args)
    try:
        fleet_config = FleetConfig(
            hosts=args.hosts,
            hypervisor=args.hypervisor,
            seed=args.seed,
            duration_s=args.hours * 3600.0,
            workunits=args.workunits,
            quorum=args.quorum,
            error_rate=args.error_rate,
            vms_per_host=args.vms_per_host,
            overcommit_ratio=args.overcommit,
            checkpoint_interval_s=args.checkpoint_interval,
            upload_retries=args.upload_retries,
            upload_backoff_s=args.upload_backoff,
            degraded_threshold=args.degraded,
        )
    except ExperimentError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    spec = CampaignSpec(
        name="fleet",
        scenarios=(Scenario(
            kind="fleet",
            params=tuple(sorted(fleet_config.to_dict().items()))),))
    outcome = run_campaign(spec, config, command="fleet",
                           progress=NullProgress(), own_metrics=False)
    item = outcome.points[0]
    if item.result is not None:
        report = item.result.report
        figure = item.result.figure
        wall_line = (f"  ({item.result.wall_s:.1f}s wall, "
                     f"cache {item.result.cache_outcome})")
        manifest_path = item.result.manifest_path
    else:  # pragma: no cover — single fresh point is always computed
        report = FleetReport.from_dict(item.payload)
        figure = report_figure(report)
        wall_line = f"  ({item.wall_s:.1f}s wall, cache {item.cache})"
        manifest_path = None
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
        print(ascii_bar_chart(figure))
    # Status chatter goes to stderr unconditionally so stdout stays a
    # clean artefact (the JSON report or the summary+chart) either way.
    print(wall_line, file=sys.stderr)
    if manifest_path:
        print(f"  metrics manifest: {manifest_path}", file=sys.stderr)
    if args.svg:
        from repro.core.svg import write_svg

        os.makedirs(args.svg, exist_ok=True)
        path = write_svg(figure, os.path.join(args.svg, "fleet.svg"))
        print(f"  wrote {path}", file=sys.stderr)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import load_spec, plan_campaign, run_campaign

    # Campaigns are headline artefacts like fleet runs: manifest by
    # default, --no-metrics opts out.
    args.metrics = not args.no_metrics
    config = _build_config(args)
    try:
        spec = load_spec(args.spec)
        points = plan_campaign(spec)
    except ExperimentError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    if args.action == "plan":
        return _campaign_plan(spec, points, config)

    progress = _campaign_progress(spec, config, "campaign",
                                  getattr(args, "resume", False),
                                  len(points))

    def on_start(point) -> None:
        print(f"running {point.label} ...", file=sys.stderr)

    try:
        result = run_campaign(spec, config, command="campaign",
                              progress=progress, on_start=on_start)
    except ExperimentError as exc:
        print(f"campaign {spec.name} failed: {exc}", file=sys.stderr)
        print("completed points are checkpointed; rerun with "
              "--resume to skip them", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.payload(), sort_keys=True))
    else:
        section = result.campaign
        totals = section["totals"]
        print(f"campaign {spec.name}: {totals['points']} point(s) — "
              f"{totals['computed']} computed, "
              f"{totals['resumed']} resumed, "
              f"{totals['deduped']} deduped")
        for item in result.points:
            cache = f" cache={item.cache}" if item.cache else ""
            print(f"  [{item.status:>8}] {item.point.label}{cache} "
                  f"({item.wall_s:.1f}s)")
        rate = section["cache"]["hit_rate"]
        rate_text = f"{rate:.0%}" if rate is not None else "n/a"
        print(f"  cache hit-rate: {rate_text} "
              f"({section['cache']['hits']} hit(s), "
              f"{section['cache']['misses']} miss(es))")
        latency = section["queue_latency_s"]
        print(f"  queue latency: mean {latency['mean']:.2f}s, "
              f"max {latency['max']:.2f}s")
    # Same stream contract as fleet: chatter to stderr, artefact stdout.
    print(f"  ({result.wall_s:.1f}s wall)", file=sys.stderr)
    if result.manifest_path:
        print(f"  metrics manifest: {result.manifest_path}",
              file=sys.stderr)
    return 0


def _campaign_plan(spec: Any, points: List[Any],
                   config: api.RunConfig) -> int:
    """``repro campaign plan``: dry-run listing with expected outcomes."""
    from repro.campaign import point_cache_key, prepare_progress
    from repro.core.cache import ResultCache

    cache = ResultCache(config.cache_dir)
    use_cache = config.use_cache(default=True)
    progress, _found = prepare_progress(spec, config, command="campaign",
                                        resume=True)
    seen: set = set()
    counts = {"compute": 0, "cache-hit": 0, "resumed": 0, "dedup": 0}
    print(f"campaign {spec.name}: {len(points)} point(s)")
    with api.activated(config):
        for point in points:
            if point.key in seen:
                expected = "dedup"
            elif progress.done(point.key):
                expected = "resumed"
            else:
                key = point_cache_key(point, config)
                if use_cache and key is not None and cache.has(key):
                    expected = "cache-hit"
                else:
                    expected = "compute"
            seen.add(point.key)
            counts[expected] += 1
            print(f"  [{expected:>9}] {point.key} {point.label}")
    print(f"  {counts['compute']} to compute, "
          f"{counts['cache-hit']} expected cache hit(s), "
          f"{counts['resumed']} resumable, "
          f"{counts['dedup']} duplicate(s)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.manifest import load_manifest, render_manifest

    runs_dir = args.runs_dir or _build_config(args).runs_dir
    manifest = load_manifest(args.run, runs_dir=runs_dir)
    print(render_manifest(manifest))
    return 0


def _cmd_profiles(_args: argparse.Namespace) -> int:
    from repro.virt.profiles import ALL_PROFILES

    for name, profile in ALL_PROFILES.items():
        print(f"{name}  ({profile.display_name})")
        print(f"  cpu multipliers: int={profile.m_int:.3f} "
              f"fp={profile.m_fp:.3f} mem={profile.m_mem:.3f} "
              f"kernel={profile.m_kernel:.0f}")
        print(f"  vdisk: {profile.disk_per_request_cycles:.0f} cyc/req + "
              f"{profile.disk_per_kb_cycles:.0f} cyc/KB")
        modes = ", ".join(
            f"{m.name}={m.per_packet_cycles:.0f}cyc/pkt"
            for m in profile.net_modes
        )
        print(f"  vnic: {modes}")
        service = ", ".join(
            f"{s.name}={s.base_frac:.2f}" for s in profile.service_loads
        )
        catchup = (f", tick catch-up "
                   f"{profile.catchup_cycles_per_tick:.0f} cyc/tick"
                   if profile.tick_catchup else "")
        print(f"  service: {service}{catchup}")
        print()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.cache import ResultCache

    config = _build_config(args)
    cache = ResultCache(config.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries:    {stats['entries']}")
        print(f"size:       {stats['bytes']} bytes")
        print(f"quarantined:{stats['corrupt_files']:>2} corrupt file(s), "
              f"{stats['tmp_files']} orphaned temp file(s)")
        print(f"enabled:    {config.cache}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    if args.action == "sweep":
        removed = cache.sweep()
        print(f"removed {removed} orphaned temp file(s) from {cache.root}")
        return 0
    print(f"unknown cache action {args.action!r}; use stats, clear or sweep",
          file=sys.stderr)
    return 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-storm drill: baseline run, then two runs under an armed
    plan (fresh then cached), asserting byte-identical recovery."""
    import shutil
    import tempfile

    fig_id = args.figure
    if fig_id not in FIGURE_IDS:
        print(f"unknown figure {fig_id!r}; try `repro list`",
              file=sys.stderr)
        return 2
    config = _build_config(args)
    fault_spec = config.fault_spec or (
        f"seed={args.fault_seed},worker.crash=0.2,"
        f"measure.transient=0.35,cache.corrupt=0.6")
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-cache-")
    try:
        baseline_config = config.with_overrides(
            cache=False, metrics=False, fault_spec=None, retries=None,
            task_timeout_s=None)
        print(f"chaos: fault-free baseline of {fig_id} ...",
              file=sys.stderr)
        baseline = api.run(api.RunRequest(
            kind="figure", target=fig_id, config=baseline_config))
        storm_config = config.with_overrides(
            cache=True, cache_dir=cache_dir, metrics=True,
            fault_spec=fault_spec)
        print(f"chaos: storm 1/2 under '{fault_spec}' ...", file=sys.stderr)
        storm1 = api.run(api.RunRequest(
            kind="figure", target=fig_id, config=storm_config))
        print("chaos: storm 2/2 (cache re-read) ...", file=sys.stderr)
        storm2 = api.run(api.RunRequest(
            kind="figure", target=fig_id, config=storm_config))
    except ExperimentError as exc:
        print(f"chaos: {fig_id} did NOT survive the storm: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    def canonical(figure: Any) -> str:
        return json.dumps(figure.to_dict(), sort_keys=True)

    recovered = (canonical(baseline.figure) == canonical(storm1.figure)
                 == canonical(storm2.figure))
    injected = 0
    per_site: dict = {}
    retried = timeouts = dropped = corrupt = 0
    for run in (storm1, storm2):
        counters = (run.metrics or {}).get("counters", {})
        injected += int(counters.get("faults.injected", 0))
        retried += int(counters.get("parallel.retries", 0))
        timeouts += int(counters.get("parallel.timeouts", 0))
        dropped += int(counters.get("parallel.dropped", 0))
        corrupt += int(counters.get("cache.corrupt", 0))
        prefix = "faults.injected."
        for name, value in counters.items():
            if name.startswith(prefix):
                site = name[len(prefix):]
                per_site[site] = per_site.get(site, 0) + int(value)
    sites = ", ".join(f"{site}={count}"
                      for site, count in sorted(per_site.items()))
    print(f"chaos report: {fig_id} under '{fault_spec}'")
    print(f"  injected : {injected} fault(s)"
          + (f" ({sites})" if sites else ""))
    print(f"  retried  : {retried} repetition attempt(s), "
          f"{timeouts} timeout(s)")
    print(f"  cache    : {corrupt} corrupt entr(ies) quarantined")
    print(f"  dropped  : {dropped} repetition(s)")
    verdict = ("yes — output byte-identical to the fault-free baseline"
               if recovered else "NO — output diverged")
    print(f"  recovered: {verdict}")
    if storm2.manifest_path:
        print(f"  manifest : {storm2.manifest_path}")
    return 0 if recovered else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism lint over the source tree."""
    from repro.audit import (format_report, lint_paths, list_rules,
                             load_baseline, write_baseline)

    if args.rules:
        print(list_rules())
        return 0
    paths = args.paths or ["src"]
    baseline = load_baseline(args.baseline) if args.baseline else None
    report, sources = lint_paths(paths, baseline=baseline)
    if args.write_baseline:
        count = write_baseline(args.write_baseline, report.violations,
                               sources)
        print(f"wrote {count} baseline entr(ies) to {args.write_baseline}")
        return 0
    output = format_report(report)
    if output:
        print(output)
    return report.exit_code()


def _cmd_audit(args: argparse.Namespace) -> int:
    """Determinism drill: serial vs --jobs N vs seed-replay trace hashes."""
    from repro.audit import audit_figure

    fig_id = args.figure
    if fig_id not in FIGURE_IDS:
        print(f"unknown figure {fig_id!r}; try `repro list`",
              file=sys.stderr)
        return 2
    jobs = args.jobs
    if jobs < 2:
        raise SystemExit(f"--jobs must be >= 2 to compare, got {jobs}")
    window = args.window
    if window is not None and window <= 0:
        raise SystemExit(f"--window must be > 0, got {window}")
    try:
        report = audit_figure(fig_id, jobs=jobs, config=_build_config(args),
                              window_s=window)
    except ExperimentError as exc:
        print(f"audit: {fig_id} failed to run: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return report.exit_code()


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, metavar="N",
        help="worker processes for repetitions (default: REPRO_JOBS "
             "or all schedulable cores per CPU affinity)")


def _add_metrics_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect run metrics and write a JSON manifest under "
             "results/runs/ (view with `repro metrics last`)")


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, metavar="N",
        help="retry rounds for failed/crashed/timed-out repetitions "
             "(default: 0 = fail fast)")
    parser.add_argument(
        "--task-timeout", type=float, metavar="S", dest="task_timeout",
        help="per-repetition timeout in seconds (default: unbounded)")
    parser.add_argument(
        "--min-reps", type=int, metavar="N", dest="min_reps",
        help="complete with >= N successful repetitions, recording "
             "dropped seeds in the manifest instead of aborting")
    parser.add_argument(
        "--faults", metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
             "'seed=7,worker.crash=0.2,measure.transient=0.35' "
             "(sites: see repro.faults.SITES)")


def _add_resume_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resume", action="store_true",
        help="skip points already completed by a previous (killed) run "
             "of the same command (per-point checkpoints under "
             "results/runs/)")


def _flag_parent(*adders) -> argparse.ArgumentParser:
    """A shared ``parents=`` parser carrying one reusable flag group —
    the single definition every subcommand inherits, so the knob set
    (and its help text) cannot drift between subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    for add in adders:
        add(parent)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPPS'09 VM desktop-grid study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs_p = _flag_parent(_add_jobs_flag)
    metrics_p = _flag_parent(_add_metrics_flag)
    resilience_p = _flag_parent(_add_resilience_flags)
    resume_p = _flag_parent(_add_resume_flag)

    sub.add_parser("list", help="list reproducible figures").set_defaults(
        fn=_cmd_list
    )

    figure = sub.add_parser(
        "figure", aliases=["figures"],
        parents=[jobs_p, metrics_p, resilience_p, resume_p],
        help="regenerate figures (all when none given)")
    figure.add_argument("figures", nargs="*", metavar="FIG",
                        help="figure ids (see `repro list`); "
                             "default: every figure")
    figure.add_argument("--svg", metavar="DIR",
                        help="also write an SVG chart per figure into DIR")
    figure.set_defaults(fn=_cmd_figure)

    report = sub.add_parser(
        "report", parents=[jobs_p, metrics_p, resilience_p, resume_p],
        help="regenerate every figure")
    report.add_argument("--out", help="write markdown to a file")
    report.set_defaults(fn=_cmd_report)

    sub.add_parser("profiles",
                   help="show calibrated hypervisor profiles").set_defaults(
        fn=_cmd_profiles
    )

    from repro.campaign import SWEEPS

    sweep = sub.add_parser(
        "sweep", parents=[jobs_p, metrics_p, resilience_p, resume_p],
        help="run a mechanism-sensitivity sweep")
    sweep.add_argument("sweep", metavar="NAME",
                       help=f"one of {sorted(SWEEPS)}")
    sweep.set_defaults(fn=_cmd_sweep)

    fleet = sub.add_parser(
        "fleet", parents=[jobs_p, resilience_p],
        help="simulate a whole volunteer fleet (repro.fleet)")
    fleet.add_argument("--hosts", type=int, default=200, metavar="N",
                       help="volunteer hosts in the fleet (default: 200)")
    fleet.add_argument("--hypervisor", default="vmplayer", metavar="NAME",
                       help="profile name, alias (vmware, vbox, vpc) or "
                            "'mixed' (default: vmplayer)")
    fleet.add_argument("--seed", type=int, default=42,
                       help="root seed for every stream (default: 42)")
    fleet.add_argument("--hours", type=float, default=24.0, metavar="H",
                       help="simulated horizon in hours (default: 24)")
    fleet.add_argument("--workunits", type=int, default=0, metavar="N",
                       help="batch size (default: 0 = auto-sized to keep "
                            "the fleet busy)")
    fleet.add_argument("--quorum", type=int, default=2, metavar="Q",
                       help="matching results to validate (default: 2)")
    fleet.add_argument("--error-rate", type=float, default=0.02,
                       metavar="P", dest="error_rate",
                       help="per-result erroneous probability "
                            "(default: 0.02)")
    fleet.add_argument("--vms-per-host", type=int, default=1, metavar="N",
                       dest="vms_per_host",
                       help="co-located VMs per volunteer host "
                            "(default: 1; see repro.virt.memory)")
    fleet.add_argument("--overcommit", type=float, default=1.0,
                       metavar="RATIO", dest="overcommit",
                       help="configured guest RAM / physical RAM "
                            "(default: 1.0)")
    fleet.add_argument("--checkpoint-interval", type=float, default=0.0,
                       metavar="S", dest="checkpoint_interval",
                       help="guest checkpoint cadence in seconds; a "
                            "vm.crash rolls work back to the last "
                            "checkpoint (default: 0 = no checkpoints, "
                            "crashes lose the whole result)")
    fleet.add_argument("--upload-retries", type=int, default=3,
                       metavar="N", dest="upload_retries",
                       help="upload attempts before a blocked result is "
                            "dropped (default: 3)")
    fleet.add_argument("--upload-backoff", type=float, default=900.0,
                       metavar="S", dest="upload_backoff",
                       help="base upload retry backoff in seconds, "
                            "doubling per attempt (default: 900)")
    fleet.add_argument("--degraded", type=int, default=0, metavar="N",
                       help="upload backlog that trips degraded mode "
                            "(quorum-of-1 validation, counted in the "
                            "report; default: 0 = never degrade)")
    fleet.add_argument("--json", action="store_true",
                       help="print the canonical JSON report instead of "
                            "the summary (CI equivalence checks)")
    fleet.add_argument("--svg", metavar="DIR",
                       help="also write an SVG chart of the run into DIR")
    fleet.add_argument("--no-metrics", action="store_true",
                       dest="no_metrics",
                       help="skip metrics collection and the run manifest")
    fleet.set_defaults(fn=_cmd_fleet)

    campaign = sub.add_parser(
        "campaign", parents=[jobs_p, resilience_p, resume_p],
        help="plan or run a declarative scenario campaign "
             "(JSON/TOML spec; see repro.campaign)")
    campaign.add_argument("action", choices=("plan", "run"),
                          metavar="ACTION",
                          help="'plan' lists the expanded points with "
                               "expected cache outcomes; 'run' drains "
                               "them through the scheduler")
    campaign.add_argument("spec", metavar="SPEC",
                          help="campaign spec file (.toml parsed as TOML, "
                               "anything else as JSON)")
    campaign.add_argument("--json", action="store_true",
                          help="print the canonical campaign payload "
                               "instead of the summary (byte-identical "
                               "across --jobs and --resume)")
    campaign.add_argument("--no-metrics", action="store_true",
                          dest="no_metrics",
                          help="skip metrics collection and the run "
                               "manifest")
    campaign.set_defaults(fn=_cmd_campaign)

    chaos = sub.add_parser(
        "chaos", parents=[jobs_p],
        help="run a figure under a seeded fault storm and verify "
             "byte-identical recovery")
    chaos.add_argument("figure", nargs="?", default="fig2", metavar="FIG",
                       help="figure id to stress (default: fig2)")
    chaos.add_argument("--fault-seed", type=int, default=1337,
                       dest="fault_seed", metavar="N",
                       help="seed of the fault plan (default: 1337)")
    chaos.add_argument("--faults", metavar="SPEC",
                       help="override the default storm spec "
                            "(worker crashes + transient measure failures "
                            "+ corrupted cache entries)")
    chaos.add_argument("--retries", type=int, default=3, metavar="N",
                       help="retry rounds while recovering (default: 3)")
    chaos.add_argument("--task-timeout", type=float, metavar="S",
                       dest="task_timeout",
                       help="per-repetition timeout in seconds")
    chaos.set_defaults(fn=_cmd_chaos)

    lint = sub.add_parser(
        "lint",
        help="static determinism lint (wall-clock, global RNG, env "
             "reads, unordered iteration)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress known violations recorded in FILE")
    lint.add_argument("--write-baseline", metavar="FILE",
                      dest="write_baseline",
                      help="record current violations into FILE and exit 0")
    lint.add_argument("--rules", action="store_true",
                      help="list the lint rules and exit")
    lint.set_defaults(fn=_cmd_lint)

    audit = sub.add_parser(
        "audit",
        help="run a figure serial vs parallel vs seed-replay with "
             "trace hashing and bisect any divergence")
    audit.add_argument("figure", nargs="?", default="fig1", metavar="FIG",
                       help="figure id to audit (default: fig1)")
    audit.add_argument("--jobs", type=int, default=4, metavar="N",
                       help="worker processes for the parallel leg "
                            "(default: 4)")
    audit.add_argument("--window", type=float, metavar="S",
                       help="trace-hash window in simulated seconds "
                            "(default: 1.0)")
    audit.set_defaults(fn=_cmd_audit)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", metavar="ACTION",
                       help="one of: stats, clear, sweep")
    cache.set_defaults(fn=_cmd_cache)

    metrics = sub.add_parser(
        "metrics", help="render a recorded run manifest"
    )
    metrics.add_argument("run", nargs="?", default="last", metavar="RUN",
                        help="run id (or prefix), or 'last' (default)")
    metrics.add_argument("--runs-dir", metavar="DIR",
                        help="manifest directory (default: results/runs)")
    metrics.set_defaults(fn=_cmd_metrics)
    return parser


class _LiveStderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is *now* (capture/redirect safe)."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def _configure_cache_logging() -> None:
    """Surface cache hit/store lines on stderr without touching root logging."""
    log = logging.getLogger("repro.cache")
    if not log.handlers:
        handler = _LiveStderrHandler()
        handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
        log.propagate = False


def main(argv: Optional[List[str]] = None) -> int:
    _configure_cache_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NativeBuildError as exc:
        # no compiler or Python.h: one clear line, not a traceback
        raise SystemExit(str(exc)) from None
    finally:
        # Release persistent pool workers (no-op when none were built).
        from repro.api import shutdown_parallel_pools

        shutdown_parallel_pools()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
