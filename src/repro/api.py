"""repro.api — the unified run-configuration front door.

Run policy (repetitions, workers, cache, metrics, faults, audit) lives
in one frozen :class:`RunConfig`:

* a :class:`RunConfig` reaches library code only as an explicit
  argument or through :func:`activated`; nothing in the library reads
  ``os.environ`` for run policy;
* :meth:`RunConfig.from_env` interprets the ``REPRO_*`` environment and
  is called by the CLI, once per invocation, at its boundary;
* :func:`run` is the one typed entry point the CLI, benchmarks, the
  campaign scheduler and library callers use — a :class:`RunRequest`
  (kind = ``figure`` | ``fleet`` | ``campaign-point``) dispatches to
  the matching executor, which activates the config for everything
  downstream, optionally enables the metrics registry, and emits a
  per-run manifest (see :mod:`repro.obs`).

Typical use::

    from repro.api import RunConfig, RunRequest, run

    result = run(RunRequest(kind="figure", target="fig1",
                            config=RunConfig(reps=50, jobs=4,
                                             metrics=True)))
    print(result.figure.measured_values(), result.manifest_path)
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ExperimentError

_FALSEY = {"0", "false", "no", "off", ""}


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ExperimentError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes one experiment run.

    ``None`` fields mean "use the caller's default" — so a default
    ``RunConfig()`` reproduces the historical no-environment behaviour
    exactly.
    """

    reps: Optional[int] = None        #: explicit repetition count
    full: bool = False                #: the paper's 50 repetitions
    fast: bool = False                #: CI smoke mode (3 reps, capped)
    jobs: Optional[int] = None        #: worker processes (None = all cores)
    cache: Optional[bool] = None      #: result cache (None = caller default)
    base_seed: Optional[int] = None   #: override the figure's base seed
    metrics: bool = False             #: enable the metrics registry + manifest
    runs_dir: Optional[str] = None    #: manifest dir (None = results/runs)
    cache_dir: Optional[str] = None   #: result-cache dir (None = ~/.cache)
    retries: Optional[int] = None     #: retry rounds for failed repetitions
    task_timeout_s: Optional[float] = None  #: per-repetition timeout
    min_reps: Optional[int] = None    #: graceful-degradation success floor
    fault_spec: Optional[str] = None  #: fault plan, e.g. "seed=7,worker.crash=0.2"
    trace_hash: bool = False          #: rolling trace-hash checkpoints (audit)
    #: Which REPRO_* variables this config was built from (set by
    #: :meth:`from_env`; provenance only, never part of equality).
    env_sources: Tuple[str, ...] = field(default=(), compare=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "RunConfig":
        """Interpret the ``REPRO_*`` environment (``env`` defaults to
        ``os.environ``); within the package only the CLI calls this."""
        env = env if env is not None else os.environ
        sources = []

        reps = None
        raw = env.get("REPRO_REPS")
        if raw:
            reps = _parse_int("REPRO_REPS", raw)
            sources.append("REPRO_REPS")
        full = env.get("REPRO_FULL") == "1"
        if full:
            sources.append("REPRO_FULL")
        fast = env.get("REPRO_FAST") == "1"
        if fast:
            sources.append("REPRO_FAST")

        jobs = None
        raw = env.get("REPRO_JOBS")
        if raw:
            jobs = _parse_int("REPRO_JOBS", raw)
            sources.append("REPRO_JOBS")

        cache = None
        raw = env.get("REPRO_CACHE")
        if raw is not None:
            cache = raw.strip().lower() not in _FALSEY
            sources.append("REPRO_CACHE")

        metrics = False
        raw = env.get("REPRO_METRICS")
        if raw is not None and raw.strip().lower() not in _FALSEY:
            metrics = True
            sources.append("REPRO_METRICS")

        trace_hash = False
        raw = env.get("REPRO_TRACE_HASH")
        if raw is not None and raw.strip().lower() not in _FALSEY:
            trace_hash = True
            sources.append("REPRO_TRACE_HASH")

        runs_dir = env.get("REPRO_RUNS_DIR") or None
        cache_dir = env.get("REPRO_CACHE_DIR") or None

        return cls(reps=reps, full=full, fast=fast, jobs=jobs, cache=cache,
                   metrics=metrics, runs_dir=runs_dir, cache_dir=cache_dir,
                   trace_hash=trace_hash, env_sources=tuple(sources))

    def with_overrides(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (CLI flag layering)."""
        return replace(self, **changes)

    # -- policy resolution ----------------------------------------------

    def resolve_reps(self, default: int) -> int:
        """Repetition policy: explicit ``reps``, else full, else fast
        (capped at ``default``), else the caller's ``default``."""
        if self.reps is not None:
            if self.reps < 1:
                raise ExperimentError(
                    f"reps must be >= 1, got {self.reps}")
            return self.reps
        if self.full:
            from repro.core.experiment import PAPER_REPS
            return PAPER_REPS
        if self.fast:
            from repro.core.experiment import FAST_REPS
            return min(FAST_REPS, default)
        return default

    def resolve_jobs(self, jobs: Optional[int] = None) -> int:
        """Worker-count policy: explicit argument, else ``self.jobs``,
        else every *schedulable* core (CPU affinity, not
        ``os.cpu_count()`` — containers and batch schedulers routinely
        pin processes to a subset of the machine)."""
        if jobs is None:
            jobs = self.jobs
        if jobs is None:
            from repro.core.parallel import available_cpus
            jobs = available_cpus()
        jobs = int(jobs)
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        return jobs

    def use_cache(self, default: bool = False) -> bool:
        return default if self.cache is None else self.cache

    def resolve_retries(self, retries: Optional[int] = None) -> int:
        """Retry-round policy: explicit argument, else the config, else 0
        (the historical fail-fast behaviour)."""
        if retries is None:
            retries = self.retries
        retries = 0 if retries is None else int(retries)
        if retries < 0:
            raise ExperimentError(f"retries must be >= 0, got {retries}")
        return retries

    def resolve_task_timeout_s(self, timeout: Optional[float] = None
                               ) -> Optional[float]:
        """Per-task timeout (seconds); ``None`` means unbounded."""
        if timeout is None:
            timeout = self.task_timeout_s
        if timeout is None:
            return None
        timeout = float(timeout)
        if timeout <= 0:
            raise ExperimentError(
                f"task_timeout_s must be > 0, got {timeout}")
        return timeout

    def resolve_min_reps(self, min_reps: Optional[int] = None
                         ) -> Optional[int]:
        """Graceful-degradation floor; ``None`` means all reps must
        succeed."""
        if min_reps is None:
            min_reps = self.min_reps
        if min_reps is None:
            return None
        min_reps = int(min_reps)
        if min_reps < 1:
            raise ExperimentError(f"min_reps must be >= 1, got {min_reps}")
        return min_reps

    def reps_policy(self) -> Dict[str, Any]:
        """The repetition-policy triple (cache fingerprints fold this in
        so explicit/full/fast runs never share entries)."""
        return {"reps": self.reps, "full": self.full, "fast": self.fast}

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reps": self.reps,
            "full": self.full,
            "fast": self.fast,
            "jobs": self.jobs,
            "cache": self.cache,
            "base_seed": self.base_seed,
            "metrics": self.metrics,
            "runs_dir": self.runs_dir,
            "cache_dir": self.cache_dir,
            "retries": self.retries,
            "task_timeout_s": self.task_timeout_s,
            "min_reps": self.min_reps,
            "fault_spec": self.fault_spec,
            "trace_hash": self.trace_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunConfig":
        known = {name: payload.get(name) for name in (
            "reps", "jobs", "cache", "base_seed", "runs_dir", "cache_dir",
            "retries", "task_timeout_s", "min_reps", "fault_spec")}
        return cls(full=bool(payload.get("full", False)),
                   fast=bool(payload.get("fast", False)),
                   metrics=bool(payload.get("metrics", False)),
                   trace_hash=bool(payload.get("trace_hash", False)),
                   **known)


# ---------------------------------------------------------------------------
# Config activation (experiment-scoped parameter passing)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[RunConfig] = None


def active_config() -> Optional[RunConfig]:
    """The :class:`RunConfig` activated for the current run, if any."""
    return _ACTIVE


@contextlib.contextmanager
def activated(config: RunConfig):
    """Make ``config`` the policy source for everything downstream.

    Forked parallel workers inherit the activation, so per-repetition
    code resolves the same policy as the parent.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = config
    try:
        yield config
    finally:
        _ACTIVE = previous


def shutdown_parallel_pools() -> None:
    """Tear down the persistent worker pools (see
    :mod:`repro.core.workerpool`).

    Pool lifecycle: pools are created **lazily** on the first parallel
    dispatch at a given worker count, reused across repetitions, retry
    rounds and figures in a sweep, invalidated (and lazily rebuilt)
    only when a worker crash or a timed-out hung task breaks them, and
    torn down at interpreter exit via ``atexit``.  The
    CLI calls this in a ``finally`` around command dispatch; long-lived
    library embedders can call it to release worker processes early.
    """
    from repro.core.workerpool import shutdown_pools

    shutdown_pools()


# ---------------------------------------------------------------------------
# RunResult + the figure executor
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Outcome of one ``figure`` :class:`RunRequest`."""

    fig_id: str
    figure: Any                      # FigureData (typed loosely: no cycle)
    wall_s: float
    cache_outcome: Optional[str] = None   # "hit" | "miss" | "disabled"
    run_id: Optional[str] = None
    manifest_path: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None
    #: repro-trace-hash/1 snapshot when the config's ``trace_hash`` knob
    #: was set (the ``repro audit`` bisector compares these).
    trace_hash: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Stable round-trip encoding (shared with the manifest)."""
        return {
            "fig_id": self.fig_id,
            "figure": self.figure.to_dict() if self.figure is not None
            else None,
            "wall_s": self.wall_s,
            "cache_outcome": self.cache_outcome,
            "run_id": self.run_id,
            "manifest_path": self.manifest_path,
            "metrics": self.metrics,
            "trace_hash": self.trace_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        from repro.core.figdata import FigureData

        raw_fig = payload.get("figure")
        figure = FigureData.from_dict(raw_fig) if raw_fig is not None else None
        return cls(
            fig_id=payload["fig_id"],
            figure=figure,
            wall_s=float(payload.get("wall_s", 0.0)),
            cache_outcome=payload.get("cache_outcome"),
            run_id=payload.get("run_id"),
            manifest_path=payload.get("manifest_path"),
            metrics=payload.get("metrics"),
            trace_hash=payload.get("trace_hash"),
        )


def _cache_outcome(use_cache: bool, snapshot: Optional[Dict[str, Any]]
                   ) -> Optional[str]:
    if not use_cache:
        return "disabled"
    if snapshot is None:
        return None  # cache on but metrics off: outcome not observable
    counters = snapshot.get("counters", {})
    return "hit" if counters.get("cache.hits", 0) > 0 else "miss"


def _faults_section(plan: Optional[Any],
                    snapshot: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The manifest's ``faults`` block: plan identity + what happened.

    Injection tallies come from the merged metrics snapshot when the
    registry was on (workers ship their counters back), else from the
    parent-side :data:`repro.faults.RUNLOG` — whose per-site tallies
    also travel home in each ``WorkerResult``, so the counts
    survive ``--no-metrics`` runs.  Retry/timeout/drop incidents always
    come from the RUNLOG.
    """
    from repro.faults import RUNLOG

    counters = (snapshot or {}).get("counters", {})
    prefix = "faults.injected."
    section: Dict[str, Any] = RUNLOG.snapshot()
    observed = section.pop("injected", {})
    from_counters = {
        name[len(prefix):]: int(value)
        for name, value in sorted(counters.items())
        if name.startswith(prefix)
    }
    section["injected"] = from_counters or dict(sorted(observed.items()))
    section["total_injected"] = int(counters.get(
        "faults.injected", sum(observed.values())))
    if plan is not None:
        section["spec"] = plan.canonical_spec()
        section["seed"] = plan.seed
        section["arms"] = dict(sorted(plan.arms.items()))
    return section


def _mem_section(snapshot: Optional[Dict[str, Any]]
                 ) -> Optional[Dict[str, Any]]:
    """The manifest's ``mem`` block: host memory-subsystem observables.

    Collects every ``mem.*``-prefixed counter and gauge out of the merged
    metrics snapshot (balloon traffic, fault/reclaim pages, commitment
    peaks — see :mod:`repro.virt.memory`).  Returns ``None`` when the run
    never touched the memory subsystem, so single-VM manifests stay
    byte-identical to previous releases.
    """
    prefix = "mem."
    counters = {
        name: int(value)
        for name, value in sorted((snapshot or {}).get(
            "counters", {}).items())
        if name.startswith(prefix)
    }
    gauges = {
        name: value
        for name, value in sorted((snapshot or {}).get("gauges", {}).items())
        if name.startswith(prefix)
    }
    if not counters and not gauges:
        return None
    return {"counters": counters, "gauges": gauges}


def _recovery_section(report: Any) -> Optional[Dict[str, Any]]:
    """The manifest's ``recovery`` block: fleet failure-&-recovery tallies.

    Passes through :attr:`repro.fleet.FleetReport.recovery` (outages
    injected, uploads retried/lost, rollback seconds, degraded-mode
    windows).  Returns ``None`` when the run saw no recovery activity,
    so fault-free fleet manifests keep their previous shape.
    """
    recovery = getattr(report, "recovery", None)
    if not recovery or not any(recovery.values()):
        return None
    return dict(recovery)


def _audit_section(thash_snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The manifest's ``audit`` block: a per-stream trace-hash summary.

    Full checkpoint lists stay in-memory on the :class:`RunResult` (a
    long fleet run has tens of thousands of windows per stream); the
    manifest keeps only the chained final digest, which — because every
    window hashes on top of its predecessor — still commits to the
    whole dispatch history.
    """
    streams = {}
    for key, checkpoints in thash_snapshot.get("streams", {}).items():
        streams[key] = {
            "windows": len(checkpoints),
            "events": int(sum(item[2] for item in checkpoints)),
            "digest": checkpoints[-1][1] if checkpoints else None,
        }
    return {"trace_hash": {
        "schema": thash_snapshot.get("schema"),
        "window_s": thash_snapshot.get("window_s"),
        "streams": streams,
    }}


def build_manifest(command: str, config: RunConfig,
                   phases: List[Dict[str, Any]],
                   snapshot: Dict[str, Any],
                   cache_outcome: str,
                   seeds: Optional[Dict[str, Any]] = None,
                   figure: Optional[Any] = None,
                   run_id: Optional[str] = None,
                   faults: Optional[Dict[str, Any]] = None,
                   audit: Optional[Dict[str, Any]] = None,
                   mem: Optional[Dict[str, Any]] = None,
                   recovery: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Assemble a schema-valid run manifest (shared by figures/sweeps)."""
    import platform

    from repro import __version__
    from repro.core.cache import source_fingerprint
    from repro.obs.manifest import MANIFEST_SCHEMA, new_run_id

    counters = snapshot.get("counters", {})
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id or new_run_id(command.split(":", 1)[-1]),
        "command": command,
        "created_unix": time.time(),  # repro: allow-wall-clock (manifest stamp)
        "config": config.to_dict(),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "source_fingerprint": source_fingerprint(),
        },
        "seeds": dict(seeds or {}),
        "phases": list(phases),
        "metrics": snapshot,
        "cache": {
            "outcome": cache_outcome,
            "hits": counters.get("cache.hits", 0),
            "misses": counters.get("cache.misses", 0),
        },
    }
    if figure is not None:
        manifest["figure"] = figure.to_dict()
    if faults is not None:
        manifest["faults"] = faults
    if audit is not None:
        manifest["audit"] = audit
    if mem is not None:
        manifest["mem"] = mem
    if recovery is not None:
        manifest["recovery"] = recovery
    return manifest


def _run_figure(fig_id: str, config: Optional[RunConfig] = None,
                **kwargs: Any) -> RunResult:
    """Regenerate one figure under ``config`` (the ``figure`` executor
    behind :func:`run`).

    Resolves repetition/jobs/cache policy from ``config`` for everything
    downstream (no environment reads), optionally collects metrics, and
    — when ``config.metrics`` — writes a run manifest under
    ``config.runs_dir`` (default ``results/runs/``).  Figure numbers are
    bit-identical with metrics on or off: instrumentation only observes.
    """
    from repro.audit.tracehash import TRACE_HASH
    from repro.core.figures import FIGURES, generate_figure
    from repro.faults import RUNLOG, injected, parse_fault_spec
    from repro.obs.manifest import new_run_id, write_manifest
    from repro.obs.metrics import METRICS

    config = config if config is not None else RunConfig()
    if fig_id not in FIGURES:
        raise ExperimentError(
            f"unknown figure {fig_id!r}; available: {sorted(FIGURES)}"
        )
    if config.base_seed is not None:
        kwargs.setdefault("base_seed", config.base_seed)
    use_cache = config.use_cache(default=False)
    plan = parse_fault_spec(config.fault_spec) if config.fault_spec else None

    started = time.perf_counter()
    phases: List[Dict[str, Any]] = []
    was_enabled = METRICS.enabled
    was_hashing = TRACE_HASH.enabled
    snapshot: Optional[Dict[str, Any]] = None
    thash_snapshot: Optional[Dict[str, Any]] = None
    RUNLOG.clear()
    with contextlib.ExitStack() as stack:
        stack.enter_context(activated(config))
        if plan is not None:
            stack.enter_context(injected(plan))
        if config.metrics and not was_enabled:
            METRICS.enable(reset=True)
        if config.trace_hash and not was_hashing:
            TRACE_HASH.enable(reset=True)
        try:
            t0 = time.perf_counter()
            figure = generate_figure(fig_id, use_cache=use_cache, **kwargs)
            phases.append({"name": "generate",
                           "wall_s": time.perf_counter() - t0})
            if config.metrics:
                snapshot = METRICS.snapshot()
            if config.trace_hash:
                thash_snapshot = TRACE_HASH.snapshot()
        finally:
            if config.metrics and not was_enabled:
                METRICS.disable()
            if config.trace_hash and not was_hashing:
                TRACE_HASH.disable()

    outcome = _cache_outcome(use_cache, snapshot)
    run_id = None
    manifest_path = None
    if config.metrics and snapshot is not None:
        run_id = new_run_id(fig_id)
        t0 = time.perf_counter()
        manifest = build_manifest(
            command=f"figure:{fig_id}", config=config, phases=phases,
            snapshot=snapshot, cache_outcome=outcome or "disabled",
            seeds={"base_seed": kwargs.get("base_seed")},
            figure=figure, run_id=run_id,
            faults=_faults_section(plan, snapshot),
            audit=_audit_section(thash_snapshot)
            if thash_snapshot is not None else None,
            mem=_mem_section(snapshot),
        )
        manifest_path = str(write_manifest(manifest, config.runs_dir))
        phases.append({"name": "emit-manifest",
                       "wall_s": time.perf_counter() - t0})

    return RunResult(
        fig_id=fig_id, figure=figure,
        wall_s=time.perf_counter() - started,
        cache_outcome=outcome, run_id=run_id,
        manifest_path=manifest_path, metrics=snapshot,
        trace_hash=thash_snapshot,
    )


# ---------------------------------------------------------------------------
# FleetRunResult + the fleet executor
# ---------------------------------------------------------------------------

@dataclass
class FleetRunResult:
    """Outcome of one ``fleet`` :class:`RunRequest`."""

    report: Any                      # repro.fleet.FleetReport
    figure: Any                      # FigureData rendering of the report
    wall_s: float
    cache_outcome: str = "disabled"  # "hit" | "miss" | "disabled"
    run_id: Optional[str] = None
    manifest_path: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "report": self.report.to_dict(),
            "figure": self.figure.to_dict() if self.figure is not None
            else None,
            "wall_s": self.wall_s,
            "cache_outcome": self.cache_outcome,
            "run_id": self.run_id,
            "manifest_path": self.manifest_path,
            "metrics": self.metrics,
        }


def _run_fleet(fleet_config: Any,
               config: Optional[RunConfig] = None) -> FleetRunResult:
    """Run one fleet simulation under ``config`` (the ``fleet`` executor
    behind :func:`run`).

    Mirrors the figure executor: activates ``config``, consults the
    result cache (identity = the :class:`repro.fleet.FleetConfig` alone,
    never the worker count, so hits are bit-identical to cold runs at
    any ``--jobs``; the fleet itself runs serially and never touches the
    worker pool), optionally collects metrics, and — when
    ``config.metrics`` — writes a run manifest carrying the full fleet
    configuration and the report.
    """
    from repro.core.cache import ResultCache
    from repro.faults import FAULTS, RUNLOG, injected, parse_fault_spec
    from repro.fleet.figures import report_figure
    from repro.fleet.server import FleetReport, simulate_fleet
    from repro.obs.manifest import new_run_id, write_manifest
    from repro.obs.metrics import METRICS

    config = config if config is not None else RunConfig()
    use_cache = config.use_cache(default=False)
    plan = parse_fault_spec(config.fault_spec) if config.fault_spec else None
    started = time.perf_counter()
    phases: List[Dict[str, Any]] = []
    was_enabled = METRICS.enabled
    snapshot: Optional[Dict[str, Any]] = None
    outcome = "disabled"
    RUNLOG.clear()
    with contextlib.ExitStack() as stack:
        stack.enter_context(activated(config))
        if plan is not None:
            stack.enter_context(injected(plan))
        if config.metrics and not was_enabled:
            METRICS.enable(reset=True)
        try:
            params = {"config": fleet_config.to_dict()}
            # host.dropout changes results by design; keep those cache
            # entries distinct from fault-free ones.
            fault_token = FAULTS.cache_token()
            if fault_token is not None:
                params["faults"] = fault_token
            cache = ResultCache() if use_cache else None
            key = cache.key("fleet", params) if cache is not None else None
            report = None
            if cache is not None:
                payload = cache.get(key)
                if payload is not None:
                    t0 = time.perf_counter()
                    report = FleetReport.from_dict(payload)
                    outcome = "hit"
                    phases.append({"name": "cache-load",
                                   "wall_s": time.perf_counter() - t0})
            if report is None:
                t0 = time.perf_counter()
                report = simulate_fleet(fleet_config)
                phases.append({"name": "simulate",
                               "wall_s": time.perf_counter() - t0})
                if cache is not None:
                    outcome = "miss"
                    cache.put(key, report.to_dict(), experiment="fleet",
                              params=params)
            if config.metrics:
                snapshot = METRICS.snapshot()
        finally:
            if config.metrics and not was_enabled:
                METRICS.disable()

    figure = report_figure(report)
    run_id = None
    manifest_path = None
    if config.metrics and snapshot is not None:
        run_id = new_run_id("fleet")
        t0 = time.perf_counter()
        manifest = build_manifest(
            command=f"fleet:{fleet_config.hypervisor}", config=config,
            phases=phases, snapshot=snapshot, cache_outcome=outcome,
            seeds={"seed": fleet_config.seed}, figure=figure, run_id=run_id,
            faults=_faults_section(plan, snapshot),
            recovery=_recovery_section(report),
        )
        manifest["fleet"] = fleet_config.to_dict()
        manifest_path = str(write_manifest(manifest, config.runs_dir))
        phases.append({"name": "emit-manifest",
                       "wall_s": time.perf_counter() - t0})

    return FleetRunResult(
        report=report, figure=figure,
        wall_s=time.perf_counter() - started,
        cache_outcome=outcome, run_id=run_id,
        manifest_path=manifest_path, metrics=snapshot,
    )


# ---------------------------------------------------------------------------
# The unified typed dispatcher: run(RunRequest)
# ---------------------------------------------------------------------------

#: Request kinds :func:`run` dispatches on.
RUN_KINDS = ("figure", "fleet", "campaign-point")


@dataclass(frozen=True)
class RunRequest:
    """One typed request for the unified :func:`run` entry point.

    ``kind`` selects the executor and fixes what ``target`` is:

    * ``"figure"`` — ``target`` is a figure id (see
      :data:`repro.core.figures.FIGURES`); ``options`` are the figure's
      keyword arguments (``base_seed``, ``size``, ...);
    * ``"fleet"`` — ``target`` is a :class:`repro.fleet.FleetConfig`;
    * ``"campaign-point"`` — ``target`` is a
      :class:`repro.campaign.CampaignPoint` (the campaign scheduler's
      unit of work; figure/fleet points dispatch back through
      :func:`run` with the kinds above).

    ``config`` defaults to a plain :class:`RunConfig` (historical
    no-environment behaviour).
    """

    kind: str
    target: Any
    config: Optional[RunConfig] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in RUN_KINDS:
            raise ExperimentError(
                f"unknown run kind {self.kind!r}; "
                f"expected one of {list(RUN_KINDS)}")


def run(request: RunRequest) -> Any:
    """Execute one :class:`RunRequest`; the single typed entry point.

    Returns the executor's result type: :class:`RunResult` for
    ``figure``, :class:`FleetRunResult` for ``fleet``, and
    :class:`repro.campaign.PointResult` for ``campaign-point``.
    """
    if request.kind == "figure":
        return _run_figure(request.target, request.config,
                           **dict(request.options))
    if request.kind == "fleet":
        return _run_fleet(request.target, request.config)
    if request.kind == "campaign-point":
        from repro.campaign.scheduler import run_point

        return run_point(request.target, request.config)
    raise ExperimentError(f"unknown run kind {request.kind!r}")
