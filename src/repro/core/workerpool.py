"""Persistent worker pools and the task a worker runs.

Before this module existed every repeater run built a fresh
``ProcessPoolExecutor`` and tore it down again, so ``--jobs N`` paid
fork + interpreter warm-up + measure pickling on *every* round of
*every* run — which is why the recorded scaling trajectory showed
parallel runs at 0.63–0.97x of serial.  The two halves here fix that:

:class:`WorkerPool` (and the module-level :func:`get_pool` registry)
    One long-lived ``ProcessPoolExecutor`` per worker count, created
    lazily on first dispatch and **reused** across repetitions, retry
    rounds and figures in a sweep.  Forked workers pre-import the whole
    tree (fork inherits the parent's warm interpreter), so a task
    dispatch costs one pickle round-trip, not a process start.  A
    broken or hung pool is :meth:`~WorkerPool.invalidate`-d — shut down
    without waiting — and rebuilt lazily on the next dispatch,
    preserving the resilient round semantics.

``TaskSpec`` / :class:`repro.core.parallel.WorkerResult`
    Because workers now outlive the run that forked them, they can no
    longer rely on *inherited* process-global state (metrics registry,
    trace-hash recorder, fault plan, activated run config).  Every task
    therefore carries a compact spec with an explicit context
    (:func:`build_task_context`), which the worker re-arms from before
    running the repetition body (:func:`_execute_task`).  The worker
    returns one ``WorkerResult`` — raw metric values, METRICS
    snapshot, TRACE_HASH snapshot, fault RUNLOG entries — through the
    executor's own pickled result pipe.  A repetition's result is a few
    KB; even a tiny audit window keeps it well under a megabyte, so
    nothing travels out-of-band and nothing needs releasing when a
    timed-out round drops a late result.

Nothing here touches experiment RNG streams; the spec/result plumbing
is observability-and-transport only, which is what keeps ``--jobs N``
byte-identical to serial.  Only a run that builds or warms a pool
imports this module (and with it ``multiprocessing``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, Mapping, Optional

from repro.audit.tracehash import TRACE_HASH
from repro.core.parallel import WorkerResult, _run_repetition
from repro.faults import FAULTS, RUNLOG, FaultPlan
from repro.obs.metrics import METRICS


def _pool_context():
    """Prefer fork (cheap, inherits the warm interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Task context: the state a persistent worker must re-arm per task
# ---------------------------------------------------------------------------

def build_task_context() -> Dict[str, Any]:
    """Capture the parent's task-relevant process globals.

    A freshly-forked worker used to inherit all of this implicitly; a
    persistent worker forked once and reused forever must be told per
    task.  Everything here is tiny and deterministic: enablement flags,
    the trace-hash window/capture target, the fault plan's wire form
    and the activated run config.
    """
    from repro import api

    config = api.active_config()
    plan = FAULTS.plan if FAULTS.enabled else None
    capture = TRACE_HASH.capture
    return {
        "metrics": METRICS.enabled,
        "trace_hash": TRACE_HASH.enabled,
        "window_s": TRACE_HASH.window_s,
        "capture": list(capture) if capture is not None else None,
        "fault": plan.to_dict() if plan is not None else None,
        "config": config.to_dict() if config is not None else None,
    }


#: Fault-plan continuity: the run token of the plan currently armed in
#: *this worker*, so per-(site, key) attempt counters persist across
#: rounds of one run (as they did when workers lived exactly one run)
#: but reset between runs.
_ARMED_RUN_TOKEN: Optional[int] = None


def _apply_task_context(context: Mapping[str, Any],
                        run_token: int) -> None:
    """Re-arm this worker's process globals from a task's context."""
    global _ARMED_RUN_TOKEN
    from repro import api

    if context.get("metrics"):
        METRICS.enable(reset=True)
    else:
        METRICS.disable()
    if context.get("trace_hash"):
        TRACE_HASH.enable(window_s=context.get("window_s"), reset=True)
        capture = context.get("capture")
        TRACE_HASH.capture = tuple(capture) if capture else None
    else:
        TRACE_HASH.disable()
    RUNLOG.clear()
    fault = context.get("fault")
    if fault is None:
        FAULTS.deactivate()
        _ARMED_RUN_TOKEN = None
    elif _ARMED_RUN_TOKEN != run_token or FAULTS.plan is None:
        FAULTS.activate(FaultPlan.from_dict(fault))
        _ARMED_RUN_TOKEN = run_token
    raw_config = context.get("config")
    api._ACTIVE = (api.RunConfig.from_dict(raw_config)
                   if raw_config is not None else None)


def _runlog_snapshot() -> Optional[Dict[str, Any]]:
    """This worker's RUNLOG snapshot, or ``None`` when nothing happened
    (the common case — keeps the result minimal)."""
    snap = RUNLOG.snapshot()
    if (snap.get("retries") or snap.get("timeouts") or snap.get("dropped")
            or snap.get("injected")):
        return snap
    return None


def _execute_task(spec: Mapping[str, Any]) -> WorkerResult:
    """Worker entry point: re-arm from the spec, run one repetition.

    ``spec`` fields: ``index``, ``seed``, ``fn_blob`` (the pickled
    measure — unpickled fresh per task so a stateful measure never leaks
    state between repetitions), ``attempt``, ``submitted_at``,
    ``hash_group``, ``run_token`` and ``context``.
    """
    _apply_task_context(spec["context"], spec["run_token"])
    fn = pickle.loads(spec["fn_blob"])
    (repetition, seed, values, error, queue_wait, wall, snapshot,
     thash) = _run_repetition(
        fn, spec["index"], spec["seed"], spec["submitted_at"],
        spec["attempt"], hash_group=spec["hash_group"])
    return WorkerResult(
        index=repetition, seed=seed, error=error,
        queue_wait_s=queue_wait, wall_s=wall, pid=os.getpid(),
        values=values, metrics=snapshot, trace_hash=thash,
        runlog=_runlog_snapshot())


# ---------------------------------------------------------------------------
# The pools themselves
# ---------------------------------------------------------------------------

class WorkerPool:
    """A lazily-built, invalidate-and-rebuild ``ProcessPoolExecutor``.

    The executor is created on first :meth:`submit` and then *reused*
    by every dispatch at this worker count until something breaks it —
    a crashed worker or a tripped task timeout — at which point
    :meth:`invalidate` shuts it down without waiting and the next
    dispatch forks a fresh one.  ``generation`` counts executor builds
    (benchmarks and tests read it to prove reuse).
    """

    __slots__ = ("workers", "generation", "_executor")

    def __init__(self, workers: int):
        self.workers = int(workers)
        self.generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_pool_context())
            self.generation += 1
            if METRICS.enabled:
                METRICS.inc("parallel.pool_created")
        elif METRICS.enabled:
            METRICS.inc("parallel.pool_reused")
        return self._executor

    def submit(self, spec: Mapping[str, Any]) -> Future:
        return self.executor().submit(_execute_task, spec)

    def shutdown(self) -> bool:
        """Tear the executor down (non-blocking); rebuilt lazily.
        Returns whether there was one to tear down."""
        if self._executor is None:
            return False
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        return True

    def invalidate(self) -> None:
        """:meth:`shutdown` a broken or hung pool, counted as a rebuild."""
        if self.shutdown() and METRICS.enabled:
            METRICS.inc("parallel.pool_rebuilt")


#: Long-lived pools keyed by worker count.  Distinct ``--jobs`` values
#: get distinct pools so a 2-job dispatch can never run 4 wide.
_POOLS: Dict[int, WorkerPool] = {}

#: Monotone per-dispatch token (fault-plan continuity across rounds).
_RUN_TOKEN = 0


def next_run_token() -> int:
    """A fresh token identifying one repeater run."""
    global _RUN_TOKEN
    _RUN_TOKEN += 1
    return _RUN_TOKEN


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool for ``workers``, created on first use."""
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
    return pool


def warm_pool(workers: int) -> WorkerPool:
    """Fork the persistent pool for ``workers`` now instead of lazily.

    Batch drivers (the campaign scheduler) call this once before their
    first point so every point — not just the ones after the first
    parallel dispatch — sees warm workers.  Idempotent: an already-built
    pool is simply returned.
    """
    pool = get_pool(workers)
    pool.executor()
    return pool


def pool_generations() -> Dict[int, int]:
    """Worker count -> executor builds so far (reuse diagnostics)."""
    return {workers: pool.generation
            for workers, pool in sorted(_POOLS.items())}


def shutdown_pools() -> None:
    """Shut every persistent pool down (CLI exit, benchmarks, atexit).

    Safe to call repeatedly; the next dispatch after a shutdown simply
    rebuilds its pool.
    """
    for pool in _POOLS.values():
        pool.shutdown()


atexit.register(shutdown_pools)
