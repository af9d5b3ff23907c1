"""Campaign scheduler: drain planned points through one run path.

:func:`run_campaign` owns everything the per-subcommand loops in
``cli.py`` used to duplicate: per-point resume checkpoints
(``repro-progress/1``), cache-aware dedup of repeated points, metrics
and the run manifest.  The drain is **sequential in plan order** — the
parallelism lives *inside* each point (a figure's repetitions fan out
across the persistent :mod:`repro.core.workerpool`; a fleet point runs
serially), which is what keeps a campaign at ``--jobs N``
byte-identical to serial.

Every point executes through :func:`repro.api.run` with a
``campaign-point`` request, which routes back to :func:`run_point` here;
``run_point`` in turn dispatches ``figure`` / ``fleet`` requests through
the same :func:`repro.api.run` front door, so a single-figure CLI run
really is a one-point campaign over the unified API.

Campaign-level observability (``own_metrics=True``, the ``repro
campaign`` / ``repro sweep`` mode): the scheduler enables the metrics
registry once, runs every point with ``metrics=False`` so per-point
cache outcomes accumulate in one registry, holds the fault
:data:`~repro.faults.RUNLOG` open across points, and emits a single
manifest with a ``campaign`` section reporting per-point status, the
cache hit-rate and queue-latency aggregates.  With
``own_metrics=False`` (the legacy ``figure`` / ``report`` / ``fleet``
mode) each point keeps its historical behaviour: its own registry
window, its own manifest, its own RUNLOG.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign.plan import SWEEPS, CampaignPoint, plan_campaign
from repro.campaign.spec import CampaignSpec
from repro.errors import ExperimentError

#: Schema identifier for the manifest's ``campaign`` section and the
#: ``repro campaign --json`` payload.
CAMPAIGN_SCHEMA = "repro-campaign/1"

#: Point statuses a drain can assign.
COMPUTED = "computed"
RESUMED = "resumed"
DEDUPED = "deduped"


@dataclass
class PointResult:
    """Outcome of one campaign point.

    ``payload`` is the JSON-safe result dict (``FigureData.to_dict`` /
    ``FleetReport.to_dict`` / ``SweepResult.to_dict``) — identical
    whether the point was computed, resumed from a checkpoint or deduped
    against an earlier occurrence, which is what makes an interrupted+
    resumed campaign byte-identical to an uninterrupted one.  ``result``
    holds the live inner result object (``RunResult`` /
    ``FleetRunResult`` / ``SweepResult``) only when the point was
    actually computed this run.
    """

    point: CampaignPoint
    payload: Any
    status: str = COMPUTED            # computed | resumed | deduped
    cache: Optional[str] = None       # "hit" | "miss" | "disabled" | None
    wall_s: float = 0.0
    queue_latency_s: float = 0.0
    result: Any = None


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` call."""

    spec: CampaignSpec
    points: List[PointResult] = field(default_factory=list)
    wall_s: float = 0.0
    run_id: Optional[str] = None
    manifest_path: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None
    #: the manifest's ``campaign`` section (also built without metrics)
    campaign: Optional[Dict[str, Any]] = None

    def payload(self) -> Dict[str, Any]:
        """Deterministic machine-readable result (``campaign --json``).

        Carries no timings or statuses, so serial and ``--jobs N`` runs
        — and interrupted+resumed runs — serialise byte-identically.
        """
        return {
            "schema": CAMPAIGN_SCHEMA,
            "name": self.spec.name,
            "points": [
                {
                    "key": item.point.key,
                    "kind": item.point.kind,
                    "params": item.point.params_dict,
                    "result": item.payload,
                }
                for item in self.points
            ],
        }


def campaign_run_key(spec: CampaignSpec, config: Any,
                     command: str = "campaign") -> str:
    """Identity of one campaign for progress checkpointing.

    Deliberately excludes ``jobs`` / ``metrics`` / ``cache`` — those
    change *how* points compute, never *what* they produce — so an
    interrupted ``--jobs 4`` run resumes cleanly into a serial rerun.
    """
    from repro.core.cache import source_fingerprint

    fingerprint = json.dumps({
        "command": command,
        "spec": spec.to_dict(),
        "reps_policy": config.reps_policy(),
        "base_seed": config.base_seed,
        "fault_spec": config.fault_spec,
        "source": source_fingerprint(),
    }, sort_keys=True, default=repr)
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]


def prepare_progress(spec: CampaignSpec, config: Any,
                     command: str = "campaign", resume: bool = False):
    """A loaded-or-fresh checkpoint for this campaign.

    Returns ``(progress, found)`` where ``found`` is how many completed
    points the checkpoint carried (0 unless ``resume``).
    """
    from repro.obs.manifest import ProgressCheckpoint

    progress = ProgressCheckpoint(campaign_run_key(spec, config, command),
                                  runs_dir=config.runs_dir)
    found = progress.load() if resume else 0
    return progress, found


class NullProgress:
    """Checkpoint stand-in for runs that must leave no progress file
    behind (``repro fleet``: one point, never resumable — creating
    ``results/runs/`` as a side effect would break its ``--no-metrics``
    contract of writing nothing)."""

    def load(self) -> int:
        return 0

    def done(self, key: str) -> bool:
        return False

    def payload(self, key: str) -> Any:
        raise KeyError(key)

    def mark(self, key: str, payload: Any) -> None:
        pass

    def finish(self) -> None:
        pass


def point_cache_key(point: CampaignPoint, config: Any) -> Optional[str]:
    """The result-cache key this point will consult, or None (sweeps
    bypass the result cache).

    Mirrors the key derivation of ``generate_figure`` / the fleet executor
    exactly — including the ``base_seed`` default and the fault-plan
    token — so ``repro campaign plan`` can predict cache outcomes with
    :meth:`repro.core.cache.ResultCache.has`.
    """
    from repro.core.cache import ResultCache

    if point.kind == "sweep":
        return None
    point_params = dict(point.params_dict)
    # A point's own faults-axis token overrides the campaign-level
    # --faults spec for that point (exactly as run_point applies it).
    fault_token = point_params.pop("faults", None)
    if fault_token is None and config.fault_spec:
        from repro.faults import parse_fault_spec

        plan = parse_fault_spec(config.fault_spec)
        if plan.arms:
            fault_token = plan.canonical_spec()
    cache = ResultCache()
    if point.kind == "figure":
        kwargs = {name: value for name, value in point_params.items()
                  if name != "figure"}
        if config.base_seed is not None:
            kwargs.setdefault("base_seed", config.base_seed)
        params: Dict[str, Any] = {
            "kwargs": dict(sorted(kwargs.items())),
            "reps_policy": config.reps_policy(),
        }
        if fault_token is not None:
            params["faults"] = fault_token
        return cache.key(f"figure:{point_params['figure']}", params)
    if point.kind == "fleet":
        params = {"config": point_params}
        if fault_token is not None:
            params["faults"] = fault_token
        return cache.key("fleet", params)
    raise ExperimentError(f"unknown campaign point kind {point.kind!r}")


def _cache_counters() -> Tuple[float, float]:
    from repro.obs.metrics import METRICS

    counters = METRICS.snapshot().get("counters", {})
    return (counters.get("cache.hits", 0), counters.get("cache.misses", 0))


def _run_sweep_point(params: Dict[str, Any], config: Any):
    """One sensitivity-sweep x value (or the whole sweep for None)."""
    import repro.analysis as analysis
    from repro import api

    fn = getattr(analysis, SWEEPS[params["sweep"]])
    value = params["value"]
    with api.activated(config):
        if value is None:
            return fn()
        return fn(values=[value])


def run_point(point: CampaignPoint, config: Any = None) -> PointResult:
    """Execute one campaign point under ``config``.

    Figure and fleet points dispatch back through :func:`repro.api.run`
    (the unified front door); sweep points call the registered analysis
    function directly under the activated config, exactly as the legacy
    ``repro sweep`` loop did.
    """
    from repro import api
    from repro.obs.metrics import METRICS

    config = config if config is not None else api.RunConfig()
    params = dict(point.params_dict)
    # The faults-axis token rides in the point params (it is part of
    # the point's identity) but executes as the run's fault spec; a
    # point-level token overrides any campaign-level --faults for the
    # duration of that point.
    fault_token = params.pop("faults", None)
    if fault_token is not None:
        config = config.with_overrides(fault_spec=fault_token)
    started = time.perf_counter()
    before = _cache_counters() if METRICS.enabled else None
    if point.kind == "figure":
        kwargs = {name: value for name, value in params.items()
                  if name != "figure"}
        inner = api.run(api.RunRequest(
            kind="figure", target=params["figure"], config=config,
            options=kwargs))
        payload = inner.figure.to_dict()
        outcome = inner.cache_outcome
    elif point.kind == "fleet":
        from repro.fleet import FleetConfig

        inner = api.run(api.RunRequest(
            kind="fleet", target=FleetConfig(**params), config=config))
        payload = inner.report.to_dict()
        outcome = inner.cache_outcome
    elif point.kind == "sweep":
        inner = _run_sweep_point(params, config)
        payload = inner.to_dict()
        outcome = None
    else:
        raise ExperimentError(
            f"unknown campaign point kind {point.kind!r}")
    if outcome is None and point.kind != "sweep" and before is not None:
        # Cache on, inner metrics off (campaign mode): the point's cache
        # outcome is the hit/miss counter delta in the shared registry.
        hits, misses = _cache_counters()
        if hits > before[0]:
            outcome = "hit"
        elif misses > before[1]:
            outcome = "miss"
    return PointResult(
        point=point, payload=payload, status=COMPUTED, cache=outcome,
        wall_s=time.perf_counter() - started, result=inner,
    )


def _recovery_totals(results: List[PointResult]
                     ) -> Optional[Dict[str, float]]:
    """Campaign-wide recovery tallies, summed over unique points.

    Deduped points share their payload with an earlier occurrence, so
    only computed/resumed points contribute — each unique point exactly
    once.  Returns None when no point saw recovery activity, keeping
    recovery-free campaign manifests in their previous shape.
    """
    keys = ("outages", "outage_s", "uploads_retried", "uploads_lost",
            "vm_crashes", "rolled_back_s", "degraded_windows",
            "degraded_s", "degraded_validated")
    totals: Dict[str, float] = {key: 0 for key in keys}
    active = False
    for item in results:
        if item.status == DEDUPED:
            continue
        payload = item.payload
        recovery = payload.get("recovery") \
            if isinstance(payload, dict) else None
        if not recovery or not any(recovery.values()):
            continue
        active = True
        for key in keys:
            totals[key] += recovery.get(key, 0)
    return totals if active else None


def _campaign_section(spec: CampaignSpec,
                      results: List[PointResult]) -> Dict[str, Any]:
    """The manifest's ``campaign`` block: per-point record + aggregates."""
    hits = sum(1 for item in results if item.cache == "hit")
    misses = sum(1 for item in results if item.cache == "miss")
    lookups = hits + misses
    latencies = [item.queue_latency_s for item in results]
    return {
        "schema": CAMPAIGN_SCHEMA,
        "spec": spec.to_dict(),
        "points": [
            {
                "key": item.point.key,
                "kind": item.point.kind,
                "label": item.point.label,
                "status": item.status,
                "cache": item.cache,
                "wall_s": item.wall_s,
                "queue_latency_s": item.queue_latency_s,
            }
            for item in results
        ],
        "totals": {
            "points": len(results),
            "computed": sum(1 for item in results
                            if item.status == COMPUTED),
            "resumed": sum(1 for item in results if item.status == RESUMED),
            "deduped": sum(1 for item in results if item.status == DEDUPED),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        },
        "queue_latency_s": {
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": max(latencies) if latencies else 0.0,
        },
    }


def run_campaign(spec: CampaignSpec, config: Any = None, *,
                 command: str = "campaign",
                 manifest_command: Optional[str] = None,
                 resume: bool = False,
                 progress: Any = None,
                 own_metrics: bool = True,
                 on_start: Optional[Callable[[CampaignPoint], None]] = None,
                 on_result: Optional[Callable[[PointResult], None]] = None,
                 ) -> CampaignResult:
    """Plan ``spec`` and drain every point; the one scheduling path.

    ``progress`` accepts a checkpoint from :func:`prepare_progress` (the
    CLI preloads one to report the resume count); by default a fresh one
    is derived from ``campaign_run_key`` and loaded when ``resume``.  On
    an :class:`ExperimentError` the checkpoint is left on disk (computed
    points are already marked) and the error propagates; a clean run
    deletes it.  ``on_start`` fires before a point is computed (never
    for resumed/deduped points), ``on_result`` after every point.
    """
    from repro import api
    from repro.faults import RUNLOG, parse_fault_spec
    from repro.obs.metrics import METRICS

    config = config if config is not None else api.RunConfig()
    points = plan_campaign(spec)
    if progress is None:
        progress, _ = prepare_progress(spec, config, command=command,
                                       resume=resume)
    plan = parse_fault_spec(config.fault_spec) if config.fault_spec else None
    inner_config = config
    was_enabled = METRICS.enabled
    snapshot: Optional[Dict[str, Any]] = None
    results: List[PointResult] = []
    seen: Dict[str, PointResult] = {}
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if own_metrics:
            inner_config = config.with_overrides(metrics=False)
            if config.metrics and not was_enabled:
                METRICS.enable(reset=True)
                stack.callback(METRICS.disable)
            # One RUNLOG window for the whole campaign: the per-point
            # clear inside the figure/fleet executors becomes a no-op so fault
            # incidents aggregate across points.
            RUNLOG.clear()
            stack.enter_context(RUNLOG.held())
        if config.jobs and config.jobs > 1 and any(
                point.kind != "fleet" and not progress.done(point.key)
                for point in points):
            from repro.core.workerpool import warm_pool

            # Fork the persistent pool before the first point so every
            # point (not just the first) sees warm workers.  Fleet
            # points run serially, so a fleet-only campaign forks none.
            warm_pool(config.jobs)
        for point in points:
            queued_s = time.perf_counter() - started
            if point.key in seen:
                item = PointResult(
                    point=point, payload=seen[point.key].payload,
                    status=DEDUPED, queue_latency_s=queued_s)
            elif progress.done(point.key):
                item = PointResult(
                    point=point, payload=progress.payload(point.key),
                    status=RESUMED, queue_latency_s=queued_s)
            else:
                if on_start is not None:
                    on_start(point)
                item = api.run(api.RunRequest(
                    kind="campaign-point", target=point,
                    config=inner_config))
                item.queue_latency_s = queued_s
                progress.mark(point.key, item.payload)
            seen.setdefault(point.key, item)
            if own_metrics and METRICS.enabled:
                METRICS.inc("campaign.points")
                METRICS.inc(f"campaign.{item.status}")
                METRICS.observe("campaign.queue_latency_s", queued_s)
            results.append(item)
            if on_result is not None:
                on_result(item)
        if own_metrics and config.metrics:
            snapshot = METRICS.snapshot()
    progress.finish()
    wall_s = time.perf_counter() - started

    section = _campaign_section(spec, results)
    run_id = None
    manifest_path = None
    if own_metrics and config.metrics and snapshot is not None:
        from repro.obs.manifest import new_run_id, write_manifest

        counters = snapshot.get("counters", {})
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        if not config.use_cache(default=False) or hits + misses == 0:
            outcome = "disabled"  # cache off, or no point consulted it
        elif misses == 0:
            outcome = "hit"
        else:
            outcome = "miss"
        run_id = new_run_id(spec.name)
        manifest = api.build_manifest(
            command=manifest_command or f"{command}:{spec.name}",
            config=config,
            phases=[{"name": "campaign", "wall_s": wall_s}],
            snapshot=snapshot, cache_outcome=outcome,
            seeds={"base_seed": config.base_seed},
            run_id=run_id,
            faults=api._faults_section(plan, snapshot)
            if plan is not None else None,
            recovery=_recovery_totals(results),
        )
        manifest["campaign"] = section
        manifest_path = str(write_manifest(manifest, config.runs_dir))

    return CampaignResult(
        spec=spec, points=results, wall_s=wall_s, run_id=run_id,
        manifest_path=manifest_path, metrics=snapshot, campaign=section,
    )
