"""Parallel repetition execution: fan independent seeded runs over cores.

The paper's methodology repeats every test >= 50 times; repetitions are
independent by construction (each builds a fresh simulated world from its
own :func:`derive_rep_seed` seed), which makes them the natural unit of
scale-out.  :class:`ParallelRepeater` submits one compact task spec per
repetition to the **persistent** worker pool
(:mod:`repro.core.workerpool`) and folds the results back **in
repetition order**, so the resulting :class:`RepeatedResult` is
bit-identical to the serial :class:`repro.core.experiment.Repeater` —
same seeds, same raw value ordering, same ``summarize`` inputs.

The pool is created once per worker count and reused across
repetitions, retry rounds, figures in a sweep and fleet shards; workers
pre-import the tree at fork time and re-arm per task from the spec's
explicit context (metrics/trace-hash enablement, fault plan, activated
run config), so a dispatch costs a pickle round-trip instead of fork +
import + warm-up.  Results come back as versioned
:class:`repro.core.workerpool.WorkerResult` records whose bulk payloads
travel via shared memory above a size threshold.

Worker-count policy (first match wins):

* explicit ``jobs=`` argument;
* the activated :class:`repro.api.RunConfig` (the ``--jobs`` CLI flag
  lands here; the legacy ``REPRO_JOBS`` variable still works through
  ``RunConfig.from_env`` with a ``DeprecationWarning`` for library
  callers);
* every *schedulable* core
  (:func:`repro.core.workerpool.available_cpus` — CPU affinity, not
  ``os.cpu_count()``).

When the metrics registry is enabled each worker ships a snapshot of its
per-subsystem counters back with its result, and the parent merges them
— so engine/scheduler/hardware counters survive process fan-out — plus
per-worker wall time and queue wait observed from the parent side.
Fault RUNLOG tallies ship the same way, so injection counts no longer
depend on the metrics registry being enabled.

Resilience
----------
Desktop grids assume workers die; so does this layer.  Repetitions and
shards share one round engine (:func:`_run_rounds`): submit a round,
wait on each future (with the task timeout, if any), classify the
outcome, fold it, and resubmit the failed/timed-out/crashed ones after
a capped exponential backoff, the pool invalidated and lazily rebuilt
if broken.  Every retried repetition re-derives the **same** seed — so a
fault-injected run that recovers is byte-identical to a fault-free one.
Fail-fast is simply that engine with ``retries=0`` and no timeout.
With ``min_reps`` the run degrades gracefully: it completes with at
least that many successes and records the dropped seeds plus remote
tracebacks (in ``RepeatedResult.dropped`` and the parent-side
:data:`repro.faults.RUNLOG`, which run manifests pick up).

Fault-injection sites hosted here: ``worker.crash`` (hard ``os._exit``
in the worker body — breaks the pool), ``worker.hang`` (bounded sleep,
to trip task timeouts) and ``measure.transient`` (raise-once
:class:`repro.faults.InjectedFault` around the measurement).  Each
disabled site costs one attribute read and a branch.

Fallbacks: ``jobs=1`` or a function the pickle module cannot serialise
(e.g. a test-local closure) run in-process — through the plain serial
:class:`repro.core.experiment.Repeater` (or ``[fn(t) for t in tasks]``)
when no retries, timeout, ``min_reps`` or fault plan is in force, else
through the engine's in-process round.  With none of those in force,
repetitions below the pool-dispatch threshold (``reps`` <=
:data:`SERIAL_FALLBACK_REPS`) also run serially, recording
``parallel.fallback_serial`` in METRICS; dispatch overhead only buys
wall-clock when there is enough work to amortise it.  Worker failures
are re-raised as :class:`ExperimentError` naming the lowest failing
index (and, for repetitions, its derived seed) plus the remote
traceback, so any failing repetition can be reproduced standalone with
``measure(seed)``.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.audit.tracehash import TRACE_HASH
from repro.core.experiment import (
    MeasureFn,
    Repeater,
    RepeatedResult,
    collect_repetitions,
)
from repro.core.workerpool import (
    WorkerPool,
    WorkerResult,
    WorkerResultError,
    build_task_context,
    get_pool,
    next_run_token,
)
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG
from repro.obs.metrics import METRICS
from repro.simcore.rng import derive_rep_seed

#: Backoff before retry round ``n`` is ``RETRY_BACKOFF_S * 2**(n-1)``,
#: capped at :data:`RETRY_BACKOFF_CAP_S`.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: Fail-fast runs with this many repetitions or fewer skip the pool and
#: run serially in the parent (``parallel.fallback_serial`` in METRICS):
#: two tasks cannot amortise even a warm dispatch.
SERIAL_FALLBACK_REPS = 2


def resolve_jobs(jobs: Optional[int] = None,
                 env: Optional[Mapping[str, str]] = None) -> int:
    """Worker-count policy: explicit arg, then run config, then cores.

    With ``env=None`` the policy comes from the activated
    :class:`repro.api.RunConfig` when one is in force, else from the
    legacy ``REPRO_JOBS`` variable (with a ``DeprecationWarning``).  An
    explicit ``env`` mapping is interpreted directly — the testing hook.
    """
    from repro import api

    if jobs is not None:
        return api.RunConfig().resolve_jobs(jobs)
    if env is not None:
        config = api.RunConfig.from_env(env)
    else:
        config = api.fallback_config("jobs")
    return config.resolve_jobs()


def warm_pool(jobs: Optional[int] = None) -> None:
    """Pre-fork the persistent pool a run at ``jobs`` would use.

    A no-op for ``jobs`` ≤ 1 (serial runs never touch the pool).  Batch
    drivers call this once up front so the fork cost is paid before the
    first point rather than inside it.
    """
    jobs = resolve_jobs(jobs)
    if jobs > 1:
        from repro.core.workerpool import warm_pool as _warm

        _warm(jobs)


def _encode_fn(fn) -> Optional[bytes]:
    """``fn`` pickled once parent-side for every task spec of a run;
    ``None`` when it cannot cross a process boundary."""
    try:
        return pickle.dumps(fn)
    except Exception:
        return None


def measure_is_picklable(measure: MeasureFn) -> bool:
    """Whether ``measure`` can cross a process boundary."""
    return _encode_fn(measure) is not None


def _backoff_s(round_no: int) -> float:
    """Capped exponential backoff before retry round ``round_no`` (>= 1)."""
    return min(RETRY_BACKOFF_S * 2.0 ** (round_no - 1), RETRY_BACKOFF_CAP_S)


def _run_repetition(measure: MeasureFn, repetition: int, seed: int,
                    submitted_at: float = 0.0, attempt: int = 0,
                    in_worker: bool = True, snapshot_registry: bool = True,
                    hash_group: int = 0
                    ) -> Tuple[int, int, Optional[Dict[str, float]],
                               Optional[str], float, float,
                               Optional[Dict[str, Any]],
                               Optional[Dict[str, Any]]]:
    """Worker body: one repetition, exceptions captured as text.

    Returns ``(repetition, seed, metrics, error, queue_wait_s, wall_s,
    counter_snapshot, trace_hash_snapshot)``.  A pool worker has its
    registries re-armed per task from the spec context
    (:func:`repro.core.workerpool._apply_task_context`); it resets its
    (process-private) metrics copy so the snapshot holds only this
    repetition's counters, which the parent merges back — and likewise
    for the audit trace-hash recorder, whose streams are labelled
    ``g<hash_group>/rep<n>`` (the group id is allocated parent-side) so
    they line up key-for-key with a serial run.  The engine's in-process
    round runs this in the parent with ``snapshot_registry=False``
    (never reset the parent registries, parent recorders accumulate
    directly) and ``in_worker=False`` (process-level sites stay quiet).
    """
    # Cross-process queue wait: spans two clocks, so the wall clock is
    # the only option.  # repro: allow-wall-clock
    queue_wait = max(0.0, time.time() - submitted_at) if submitted_at else 0.0
    metrics_on = METRICS.enabled and snapshot_registry
    if metrics_on:
        METRICS.reset()
    thash_on = TRACE_HASH.enabled
    if thash_on:
        if snapshot_registry:
            TRACE_HASH.reset()
        TRACE_HASH.set_context(f"g{hash_group}/rep{repetition}")
    started = time.perf_counter()
    try:
        if FAULTS.enabled:
            if in_worker and FAULTS.would_fire("worker.crash",
                                               key=repetition,
                                               attempt=attempt):
                os._exit(17)  # injected hard crash; the parent accounts it
            if in_worker and FAULTS.fires("worker.hang", key=repetition,
                                          attempt=attempt):
                time.sleep(FAULTS.hang_s)
            FAULTS.raise_if("measure.transient", key=seed, attempt=attempt)
        metrics = measure(seed)
        # dict() preserves insertion order across the pickle boundary, so
        # the parent rebuilds `raw` exactly as the serial path would.
        result: Optional[Dict[str, float]] = dict(metrics)
        error = None
    except Exception:
        result, error = None, traceback.format_exc()
    wall = time.perf_counter() - started
    snapshot = METRICS.snapshot() if metrics_on else None
    thash = TRACE_HASH.snapshot() if thash_on and snapshot_registry else None
    return repetition, seed, result, error, queue_wait, wall, snapshot, thash


def _run_shard(fn, index: int, task: Any, attempt: int = 0,
               in_worker: bool = True
               ) -> Tuple[int, Any, Optional[str],
                          Optional[Dict[str, Any]]]:
    """Worker body for :func:`map_shards`: one shard, errors as text.

    Returns ``(index, result, error, counter_snapshot)``; same metrics
    snapshot/reset and fault-site protocol as :func:`_run_repetition`
    (shard keys are ``"shard:<index>"``).  In the parent
    (``in_worker=False``) the registry is neither reset nor snapshotted
    and the process-level sites stay quiet.
    """
    metrics_on = METRICS.enabled and in_worker
    if metrics_on:
        METRICS.reset()
    try:
        if FAULTS.enabled and in_worker:
            key = f"shard:{index}"
            if FAULTS.would_fire("worker.crash", key=key, attempt=attempt):
                os._exit(17)
            if FAULTS.fires("worker.hang", key=key, attempt=attempt):
                time.sleep(FAULTS.hang_s)
        result, error = fn(task), None
    except Exception:
        result, error = None, traceback.format_exc()
    snapshot = METRICS.snapshot() if metrics_on else None
    return index, result, error, snapshot


def _resilience_settings(retries: Optional[int],
                         task_timeout_s: Optional[float],
                         min_reps: Optional[int]
                         ) -> Tuple[int, Optional[float], Optional[int]]:
    """Fill unset resilience knobs from the activated run config."""
    from repro import api

    config = api.active_config()
    if config is not None:
        if retries is None:
            retries = config.resolve_retries()
        if task_timeout_s is None:
            task_timeout_s = config.resolve_task_timeout_s()
        if min_reps is None:
            min_reps = config.resolve_min_reps()
    retries = 0 if retries is None else int(retries)
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if task_timeout_s is not None and task_timeout_s <= 0:
        raise ExperimentError(
            f"task_timeout_s must be > 0, got {task_timeout_s}")
    if min_reps is not None and min_reps < 1:
        raise ExperimentError(f"min_reps must be >= 1, got {min_reps}")
    return retries, task_timeout_s, min_reps


# ---------------------------------------------------------------------------
# Spec construction and the round engine
# ---------------------------------------------------------------------------

def _rep_spec(fn_blob: bytes, repetition: int, seed: int, attempt: int,
              hash_group: int, context: Dict[str, Any],
              run_token: int) -> Dict[str, Any]:
    """Compact TaskSpec for one repetition."""
    return {
        "kind": "rep", "fn_blob": fn_blob, "task_blob": None,
        "index": repetition, "seed": seed, "attempt": attempt,
        # Queue wait spans two processes' clocks; the wall clock is the
        # only shared reference.
        "submitted_at": time.time(),  # repro: allow-wall-clock
        "hash_group": hash_group, "context": context,
        "run_token": run_token,
    }


def _shard_spec(fn_blob: bytes, index: int, task: Any, attempt: int,
                context: Dict[str, Any], run_token: int) -> Dict[str, Any]:
    """Compact TaskSpec for one :func:`map_shards` shard."""
    return {
        "kind": "shard", "fn_blob": fn_blob,
        "task_blob": pickle.dumps(task),
        "index": index, "seed": None, "attempt": attempt,
        "submitted_at": 0.0, "hash_group": 0, "context": context,
        "run_token": run_token,
    }


def _resolved(result: WorkerResult) -> Future:
    """An in-process result dressed as an already-finished future."""
    future: Future = Future()
    future.set_result(result)
    return future


def _fold_observability(result: WorkerResult, metrics_on: bool,
                        timers: bool = True) -> None:
    """Merge one decoded result's snapshots into the parent registries."""
    if metrics_on:
        if timers:
            METRICS.observe("parallel.queue_wait_s", result.queue_wait_s)
            METRICS.observe("parallel.worker_wall_s", result.wall_s)
        if result.metrics is not None:
            METRICS.merge(result.metrics)
    if result.trace_hash is not None:
        TRACE_HASH.merge(result.trace_hash)
    if result.runlog is not None:
        RUNLOG.merge(result.runlog)


#: A failure as the engine classifies it: ``(broke_pool, text)``.
_Failure = Tuple[bool, str]


def _run_rounds(count: int, submit: Callable[[int, int], Future],
                pool: Optional[WorkerPool], crash_key: Callable[[int], Any],
                retries: int, timeout: Optional[float], timers: bool
                ) -> Tuple[Dict[int, WorkerResult], Dict[int, _Failure]]:
    """The one dispatch engine behind repetitions and shards.

    Each round submits every pending index (``submit(index, attempt)``
    — a pool dispatch, or with ``pool=None`` an in-process run returned
    as a finished future), waits on the futures in index order,
    classifies each outcome (success, worker error, untrusted payload,
    timeout, broken pool), folds the observability of every returned
    attempt, and leaves the failures pending for the next round after a
    capped exponential backoff.  Returns the successes and the last
    failure of every index that never succeeded.
    """
    metrics_on = METRICS.enabled
    done: Dict[int, WorkerResult] = {}
    failures: Dict[int, _Failure] = {}
    pending = list(range(count))
    for attempt in range(retries + 1):
        if not pending:
            break
        if attempt:
            time.sleep(_backoff_s(attempt))
            RUNLOG.retries += len(pending)
            if metrics_on:
                METRICS.inc("parallel.retries", len(pending))
        try:
            futures = [submit(index, attempt) for index in pending]
        except Exception:
            # A worker died idle since the last dispatch: rebuild and
            # resubmit once, without spending an attempt.  (In-process
            # submits capture every exception, so ``pool`` is set here.)
            pool.invalidate()
            futures = [submit(index, attempt) for index in pending]
        broken = False
        for index, future in zip(pending, futures):
            try:
                outcome = future.result(timeout=timeout)
            except FutureTimeoutError:
                future.cancel()
                pool.abandon(future)
                RUNLOG.timeouts += 1
                if metrics_on:
                    METRICS.inc("parallel.timeouts")
                failures[index] = (False, f"timed out after {timeout}s")
                broken = True  # the hung worker occupies a slot
                continue
            except Exception as exc:
                # A crashed worker takes its fault tally with it; the
                # decision is deterministic, so account it parent-side.
                if FAULTS.enabled and FAULTS.would_fire(
                        "worker.crash", key=crash_key(index),
                        attempt=attempt):
                    FAULTS.record("worker.crash")
                failures[index] = (True, str(exc))
                broken = True
                continue
            try:
                result = outcome if pool is None \
                    else WorkerResult.from_wire(outcome)
            except WorkerResultError as exc:
                if metrics_on:
                    METRICS.inc("parallel.payload_quarantined")
                failures[index] = (False, f"untrusted worker result: {exc}")
                continue
            _fold_observability(result, metrics_on, timers)
            if result.error is None:
                done[index] = result
                failures.pop(index, None)
            else:
                failures[index] = (False, result.error)
        pending = sorted(failures)
        if broken:
            pool.invalidate()
    return done, failures


def _failure_error(label: str, noun: str, count: int, completed: int,
                   attempts: int, failure: _Failure,
                   hint: str = "") -> ExperimentError:
    """The run's error, worded after its lowest failing index's last
    failure: a broken pool, or a failure after every attempt."""
    broke_pool, text = failure
    if broke_pool:
        return ExperimentError(
            f"{label} broke the worker pool after {completed} of {count} "
            f"{noun} had completed: {text}")
    return ExperimentError(
        f"{label} failed after {attempts} attempt(s) ({completed} of "
        f"{count} {noun} completed){hint}.\nWorker traceback:\n{text}")


def map_shards(fn, tasks, jobs: Optional[int] = None,
               retries: Optional[int] = None,
               task_timeout_s: Optional[float] = None) -> list:
    """Map ``fn`` over ``tasks`` across workers, results in task order.

    The generic fan-out primitive behind fleet host building (and any
    future shard-shaped work): tasks must be picklable and independent,
    and because results come back in submission order the caller's merge
    is bit-identical to ``[fn(t) for t in tasks]`` at any worker count.
    One worker, one task or an unpicklable ``fn`` run in-process; worker
    failures re-raise as :class:`ExperimentError` naming the lowest
    failing shard index with the remote traceback attached.

    Dispatch goes through the persistent pool keyed by the resolved job
    count, so consecutive ``map_shards`` calls (every fleet size in a
    scaling sweep, every figure in a report) reuse warm workers.

    With ``retries``/``task_timeout_s`` (explicit or from the activated
    run config) failed, crashed or timed-out shards are resubmitted —
    in-process too — and every shard must ultimately succeed (there is
    no ``min_reps`` analogue for shards, since a missing shard would
    skew the merge).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    workers = min(jobs, len(tasks)) if tasks else 0
    retries, task_timeout_s, _ = _resilience_settings(
        retries, task_timeout_s, None)
    fn_blob = _encode_fn(fn) if workers > 1 else None
    pool = None
    if fn_blob is not None:
        pool = get_pool(jobs)
        context = build_task_context()
        run_token = next_run_token()

        def submit(index: int, attempt: int) -> Future:
            return pool.submit(_shard_spec(fn_blob, index, tasks[index],
                                           attempt, context, run_token))
    elif retries:
        def submit(index: int, attempt: int) -> Future:
            _index, values, error, _snap = _run_shard(
                fn, index, tasks[index], attempt, in_worker=False)
            return _resolved(WorkerResult("shard", index, error=error,
                                          values=values))
    else:
        return [fn(task) for task in tasks]
    done, failures = _run_rounds(
        len(tasks), submit, pool, lambda index: f"shard:{index}",
        retries, task_timeout_s, timers=False)
    if METRICS.enabled:
        METRICS.inc("parallel.shards", len(done))
        if pool is not None:
            METRICS.gauge_max("parallel.workers", workers)
    if failures:
        first = min(failures)
        raise _failure_error(f"shard {first}", "shards", len(tasks),
                             len(done), retries + 1, failures[first])
    return [done[index].values for index in range(len(tasks))]


class ParallelRepeater:
    """Drop-in :class:`Repeater` that spreads repetitions over processes.

    ``retries`` / ``task_timeout_s`` / ``min_reps`` default from the
    activated :class:`repro.api.RunConfig`.  Every pooled or in-process
    run goes through the one round engine (:func:`_run_rounds`);
    fail-fast is that engine with ``retries=0`` and no timeout.
    """

    def __init__(self, base_seed: int = 0, reps: int = 5,
                 jobs: Optional[int] = None,
                 retries: Optional[int] = None,
                 task_timeout_s: Optional[float] = None,
                 min_reps: Optional[int] = None):
        if reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {reps}")
        self.base_seed = base_seed
        self.reps = reps
        self.jobs = resolve_jobs(jobs)
        self.retries, self.task_timeout_s, self.min_reps = \
            _resilience_settings(retries, task_timeout_s, min_reps)
        if self.min_reps is not None and self.min_reps > reps:
            raise ExperimentError(
                f"min_reps ({self.min_reps}) cannot exceed reps ({reps})")

    def run(self, measure: MeasureFn) -> RepeatedResult:
        """Run every repetition; retried ones re-derive the **same**
        seed, so a recovered result is byte-identical to a fault-free
        one.

        With no retries, timeout, ``min_reps`` or fault plan in force,
        one worker, an unpicklable ``measure`` and runs of at most
        :data:`SERIAL_FALLBACK_REPS` repetitions take the plain serial
        :class:`Repeater`; otherwise one worker or an unpicklable
        ``measure`` take the engine's in-process round, where the parent
        registries accumulate directly and ``task_timeout_s`` cannot
        interrupt the work.
        """
        workers = min(self.jobs, self.reps)
        plain = not (self.retries or self.task_timeout_s is not None
                     or self.min_reps is not None or FAULTS.enabled)
        if plain and workers > 1 and self.reps <= SERIAL_FALLBACK_REPS:
            # Adaptive fallback: too little work to amortise dispatch.
            if METRICS.enabled:
                METRICS.inc("parallel.fallback_serial")
            return Repeater(self.base_seed, self.reps).run(measure)
        fn_blob = _encode_fn(measure) if workers > 1 else None
        if plain and fn_blob is None:
            return Repeater(self.base_seed, self.reps).run(measure)
        seeds = [derive_rep_seed(self.base_seed, repetition)
                 for repetition in range(self.reps)]
        metrics_on = METRICS.enabled
        thash_on = TRACE_HASH.enabled
        hash_group = TRACE_HASH.begin_group() if thash_on else 0
        pool = None
        if fn_blob is not None:
            pool = get_pool(self.jobs)
            context = build_task_context()
            run_token = next_run_token()

            def submit(repetition: int, attempt: int) -> Future:
                return pool.submit(_rep_spec(
                    fn_blob, repetition, seeds[repetition], attempt,
                    hash_group, context, run_token))
        else:
            def submit(repetition: int, attempt: int) -> Future:
                _rep, seed, values, error, _qw, wall, _snap, _thash = \
                    _run_repetition(measure, repetition, seeds[repetition],
                                    0.0, attempt, in_worker=False,
                                    snapshot_registry=False,
                                    hash_group=hash_group)
                if metrics_on:
                    METRICS.observe("parallel.worker_wall_s", wall)
                return _resolved(WorkerResult("rep", repetition, seed,
                                              error=error, values=values))
        try:
            done, failures = _run_rounds(
                self.reps, submit, pool, lambda repetition: repetition,
                self.retries, self.task_timeout_s,
                timers=pool is not None)
        finally:
            if thash_on:
                TRACE_HASH.clear_context()
        if metrics_on:
            METRICS.inc("parallel.repetitions", len(done))
            if pool is not None:
                METRICS.gauge_max("parallel.workers", workers)
        return self._fold(seeds, done, failures, metrics_on)

    def _fold(self, seeds, done, failures, metrics_on) -> RepeatedResult:
        """Collect successes; degrade via ``min_reps`` or raise."""
        dropped: List[Dict[str, Any]] = []
        if failures:
            if self.min_reps is None or len(done) < self.min_reps:
                first = min(failures)
                raise _failure_error(
                    f"repetition {first} (seed {seeds[first]})",
                    "repetitions", self.reps, len(done), self.retries + 1,
                    failures[first],
                    f"; reproduce with measure({seeds[first]})")
            for r in sorted(failures):
                broke_pool, text = failures[r]
                if broke_pool:
                    text = f"worker pool broke: {text}"
                dropped.append({
                    "repetition": r, "seed": seeds[r],
                    "error": text.strip().splitlines()[-1]
                    if text.strip() else "unknown",
                    "traceback": text})
            RUNLOG.dropped.extend(dropped)
            if metrics_on:
                METRICS.inc("parallel.dropped", len(dropped))
        result = collect_repetitions(
            (repetition, seeds[repetition], done[repetition].values)
            for repetition in sorted(done)
        )
        result.dropped = dropped
        return result
