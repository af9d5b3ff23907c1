"""The repetition round engine: seeded runs in-process or over cores.

The paper's methodology repeats every test >= 50 times; repetitions are
independent by construction (each builds a fresh simulated world from its
own :func:`derive_rep_seed` seed), which makes them the natural unit of
scale-out.  :class:`repro.core.experiment.Repeater` drives every run
through the one round engine here (:func:`_run_rounds`): with more than
one job it submits one compact task spec per repetition to the
**persistent** worker pool (:mod:`repro.core.workerpool`), otherwise it
runs each repetition in the parent as a finished result.  Either way
the results fold back **in repetition order**, so a ``--jobs N`` run
is bit-identical to ``--jobs 1`` — same seeds, same raw value ordering,
same ``summarize`` inputs, same trace-hash stream labels.

The pool is created once per worker count and reused across
repetitions, retry rounds and figures in a sweep; workers
pre-import the tree at fork time and re-arm per task from the spec's
explicit context (metrics/trace-hash enablement, fault plan, activated
run config), so a dispatch costs a pickle round-trip instead of fork +
import + warm-up.  Each task returns one :class:`WorkerResult` through
the executor's own result pipe.  This module never imports the pool
(and with it ``multiprocessing``) at import time: a serial run loads
none of it.

Worker-count policy (first match wins):

* explicit ``jobs=`` argument;
* the activated :class:`repro.api.RunConfig` (the CLI's ``--jobs``
  flag and ``REPRO_JOBS`` land here);
* every *schedulable* core (:func:`available_cpus` — CPU affinity, not
  ``os.cpu_count()``).

When the metrics registry is enabled each worker ships a snapshot of its
per-subsystem counters back with its result, and the parent merges them
— so engine/scheduler/hardware counters survive process fan-out — plus
per-worker wall time and queue wait observed from the parent side.
Fault RUNLOG tallies ship the same way, so injection counts no longer
depend on the metrics registry being enabled.

Resilience
----------
Desktop grids assume workers die; so does this layer.  Each round of
:func:`_run_rounds` submits the pending repetitions, waits on each
future (with the task timeout, if any), classifies the outcome, folds
it, and resubmits the failed/timed-out/crashed ones after a capped
exponential backoff, the pool invalidated and lazily rebuilt if broken.
Every retried repetition re-derives the **same** seed — so a
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

In-process runs: one job, a function the pickle module cannot
serialise (e.g. a test-local closure), or — with no retries, timeout,
``min_reps`` or fault plan in force — at most
:data:`SERIAL_FALLBACK_REPS` repetitions (recorded as
``parallel.fallback_serial`` in METRICS: dispatch overhead only buys
wall-clock when there is enough work to amortise it).  Failures are
raised as :class:`ExperimentError` naming the lowest failing repetition
and its derived seed plus its traceback, after every other repetition
has run, at any job count; any failing repetition can be reproduced
standalone with ``measure(seed)``.

A fleet never dispatches here: its column build is one serial call
(:func:`repro.fleet.columns.build_fleet_columns`) and its event loop
is serial.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.audit.tracehash import TRACE_HASH
from repro.core.experiment import MeasureFn
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG
from repro.obs.metrics import METRICS

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.core.workerpool import WorkerPool

#: Backoff before retry round ``n`` is ``RETRY_BACKOFF_S * 2**(n-1)``,
#: capped at :data:`RETRY_BACKOFF_CAP_S`.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: Fail-fast runs with this many repetitions or fewer skip the pool and
#: run in the parent (``parallel.fallback_serial`` in METRICS): two
#: tasks cannot amortise even a warm dispatch.
SERIAL_FALLBACK_REPS = 2


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; in affinity-limited
    containers (CI runners, cgroup-pinned jobs) the schedulable set is
    smaller, and sizing a pool past it only adds contention — this is
    the worker-count policy's default, with ``cpu_count`` as the
    fallback on platforms without ``sched_getaffinity``.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count policy: explicit arg, then the activated
    :class:`repro.api.RunConfig`, then every schedulable core."""
    from repro import api

    return (api.active_config() or api.RunConfig()).resolve_jobs(jobs)


# ---------------------------------------------------------------------------
# WorkerResult: the record one repetition returns
# ---------------------------------------------------------------------------

class WorkerResultError(ExperimentError):
    """A pool outcome that is not a :class:`WorkerResult`; the task is
    quarantined (treated as a failure, retried when retries are in
    force), never folded in."""


class WorkerResult:
    """One task's outcome plus its folded-back observability snapshots.

    ``values`` is the measure's metric dict; ``metrics``/``trace_hash``/
    ``runlog`` are the worker-side registry snapshots the parent merges.
    """

    __slots__ = ("index", "seed", "error", "queue_wait_s", "wall_s",
                 "pid", "values", "metrics", "trace_hash", "runlog")

    def __init__(self, index: int, seed: Optional[int] = None,
                 error: Optional[str] = None, queue_wait_s: float = 0.0,
                 wall_s: float = 0.0, pid: int = 0, values: Any = None,
                 metrics: Optional[Dict[str, Any]] = None,
                 trace_hash: Optional[Dict[str, Any]] = None,
                 runlog: Optional[Dict[str, Any]] = None):
        self.index = index
        self.seed = seed
        self.error = error
        self.queue_wait_s = queue_wait_s
        self.wall_s = wall_s
        self.pid = pid
        self.values = values
        self.metrics = metrics
        self.trace_hash = trace_hash
        self.runlog = runlog


def _encode_fn(fn) -> Optional[bytes]:
    """``fn`` pickled once parent-side for every task spec of a run;
    ``None`` when it cannot cross a process boundary."""
    try:
        return pickle.dumps(fn)
    except Exception:
        return None


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


# ---------------------------------------------------------------------------
# Spec construction and the round engine
# ---------------------------------------------------------------------------

def _rep_spec(fn_blob: bytes, repetition: int, seed: int, attempt: int,
              hash_group: int, context: Dict[str, Any],
              run_token: int) -> Dict[str, Any]:
    """Compact TaskSpec for one repetition."""
    return {
        "fn_blob": fn_blob, "index": repetition, "seed": seed,
        "attempt": attempt,
        # Queue wait spans two processes' clocks; the wall clock is the
        # only shared reference.
        "submitted_at": time.time(),  # repro: allow-wall-clock
        "hash_group": hash_group, "context": context,
        "run_token": run_token,
    }


class _Finished:
    """An in-process result with the ``result`` method :func:`_run_rounds`
    calls on a pool future, so a serial run never loads
    ``concurrent.futures``."""

    __slots__ = ("_result",)

    def __init__(self, result: WorkerResult):
        self._result = result

    def result(self, timeout: Optional[float] = None) -> WorkerResult:
        return self._result


def _fold_observability(result: WorkerResult, metrics_on: bool,
                        timers: bool) -> None:
    """Merge one returned result's snapshots into the parent registries."""
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


def _run_rounds(count: int,
                submit: Callable[[int, int], "Future | _Finished"],
                pool: Optional[WorkerPool], retries: int,
                timeout: Optional[float]
                ) -> Tuple[Dict[int, WorkerResult], Dict[int, _Failure]]:
    """The one dispatch engine behind every repetition run.

    Each round submits every pending repetition (``submit(index,
    attempt)`` — a pool dispatch, or with ``pool=None`` an in-process
    run returned as a finished result), waits on the results in index
    order, classifies each outcome (success, worker error, untrusted
    result, timeout, broken pool), folds the observability of every
    returned attempt (the pool-side timers only for pool dispatches),
    and leaves the failures pending for the next round after a capped
    exponential backoff.  Attempts are counted per repetition, which
    gets ``retries + 1`` of its own.

    A broken pool fails every repetition still in flight.  When the
    fault plan explains the breakage (some of them drew an injected
    ``worker.crash`` at their attempt), only those spend an attempt;
    the rest are collateral and run again at the same attempt, so they
    meet the same fault decisions.  An unexplained breakage charges
    every repetition it failed.  Returns the successes and the last
    failure of every index that never succeeded.
    """
    metrics_on = METRICS.enabled
    timers = pool is not None
    if pool is not None:
        # not the builtin TimeoutError before Python 3.11
        from concurrent.futures import TimeoutError as timeout_error
    else:
        timeout_error = ()  # in-process results never time out
    done: Dict[int, WorkerResult] = {}
    failures: Dict[int, _Failure] = {}
    attempts = [0] * count
    pending = list(range(count))
    round_no = 0
    while pending:
        if round_no:
            time.sleep(_backoff_s(round_no))
        round_no += 1
        try:
            futures = [submit(index, attempts[index]) for index in pending]
        except Exception:
            # A worker died idle since the last dispatch: rebuild and
            # resubmit once, without spending an attempt.  (In-process
            # submits capture every exception, so ``pool`` is set here.)
            pool.invalidate()
            futures = [submit(index, attempts[index]) for index in pending]
        broken = False
        charged: List[int] = []
        lost: Dict[int, str] = {}  # failed with the pool, by index
        for index, future in zip(pending, futures):
            try:
                result = future.result(timeout=timeout)
            except timeout_error:
                # A late result is simply dropped: it holds nothing that
                # needs releasing.
                future.cancel()
                RUNLOG.timeouts += 1
                if metrics_on:
                    METRICS.inc("parallel.timeouts")
                failures[index] = (False, f"timed out after {timeout}s")
                charged.append(index)
                broken = True  # the hung worker occupies a slot
                continue
            except Exception as exc:
                lost[index] = str(exc)
                broken = True
                continue
            if not isinstance(result, WorkerResult):
                error = WorkerResultError(
                    f"expected a WorkerResult, got {type(result).__name__}")
                if metrics_on:
                    METRICS.inc("parallel.payload_quarantined")
                failures[index] = (False, f"untrusted worker result: {error}")
                charged.append(index)
                continue
            _fold_observability(result, metrics_on, timers)
            if result.error is None:
                done[index] = result
                failures.pop(index, None)
            else:
                failures[index] = (False, result.error)
                charged.append(index)
        # The worker body's own crash decisions.  A crashed worker takes
        # its fault tally with it; the decision is deterministic, so
        # account it parent-side.
        crashed = [index for index in lost if FAULTS.enabled
                   and FAULTS.would_fire("worker.crash", key=index,
                                         attempt=attempts[index])]
        for index in crashed:
            FAULTS.record("worker.crash")
        collateral = []
        for index, text in lost.items():
            if crashed and index not in crashed:
                collateral.append(index)
            else:
                failures[index] = (True, text)
                charged.append(index)
        retried = []
        for index in charged:
            attempts[index] += 1
            if attempts[index] <= retries:
                retried.append(index)
        if retried:
            RUNLOG.retries += len(retried)
            if metrics_on:
                METRICS.inc("parallel.retries", len(retried))
        pending = sorted(retried + collateral)
        if broken:
            pool.invalidate()
    return done, failures


def _submitter(measure: MeasureFn, seeds: List[int],
               fn_blob: Optional[bytes], jobs: int, hash_group: int
               ) -> Tuple[Callable[[int, int], "Future | _Finished"],
                          Optional["WorkerPool"]]:
    """``(submit, pool)`` for :func:`_run_rounds`.

    With ``fn_blob`` set, ``submit`` dispatches to the persistent pool
    for ``jobs`` (imported here, so a run that never builds a pool never
    loads it).  Otherwise it is the engine's in-process round: the
    repetition runs in the parent, whose registries accumulate directly
    (``task_timeout_s`` cannot interrupt it), labelled
    ``g<hash_group>/rep<n>`` exactly as a worker labels it.
    """
    if fn_blob is not None:
        from repro.core.workerpool import (build_task_context, get_pool,
                                           next_run_token)

        pool = get_pool(jobs)
        context = build_task_context()
        run_token = next_run_token()

        def submit(repetition: int, attempt: int) -> Future:
            return pool.submit(_rep_spec(
                fn_blob, repetition, seeds[repetition], attempt,
                hash_group, context, run_token))
        return submit, pool

    def submit(repetition: int, attempt: int) -> _Finished:
        _rep, seed, values, error, _qw, wall, _snap, _thash = \
            _run_repetition(measure, repetition, seeds[repetition], 0.0,
                            attempt, in_worker=False,
                            snapshot_registry=False, hash_group=hash_group)
        if METRICS.enabled:
            METRICS.observe("parallel.worker_wall_s", wall)
        return _Finished(WorkerResult(repetition, seed, error=error,
                                      values=values))
    return submit, None
