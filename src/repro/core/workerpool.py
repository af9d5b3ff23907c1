"""Persistent worker pools and the versioned worker-result wire format.

Before this module existed every ``ParallelRepeater.run`` /
``map_shards`` call built a fresh ``ProcessPoolExecutor`` and tore it
down again, so ``--jobs N`` paid fork + interpreter warm-up + measure
pickling on *every* round of *every* run — which is why the recorded
scaling trajectory showed parallel runs at 0.63–0.97x of serial.  The
two halves here fix that:

:class:`WorkerPool` (and the module-level :func:`get_pool` registry)
    One long-lived ``ProcessPoolExecutor`` per worker count, created
    lazily on first dispatch and **reused** across repetitions, retry
    rounds, figures in a sweep and fleet shards.  Forked workers
    pre-import the whole tree (fork inherits the parent's warm
    interpreter), so a task dispatch costs one pickle round-trip, not a
    process start.  A broken or hung pool is :meth:`~WorkerPool.
    invalidate`-d — shut down without waiting — and rebuilt lazily on
    the next dispatch, preserving the resilient round semantics.

``TaskSpec`` / :class:`WorkerResult`
    Because workers now outlive the run that forked them, they can no
    longer rely on *inherited* process-global state (metrics registry,
    trace-hash recorder, fault plan, activated run config).  Every task
    therefore carries a compact spec with an explicit context
    (:func:`build_task_context`), which the worker re-arms from before
    running the repetition/shard body (:func:`_execute_task`).  Results
    come back as a versioned :data:`WORKER_RESULT_SCHEMA` record whose
    bulk payload — raw metric values, METRICS snapshot, TRACE_HASH
    snapshot, fault RUNLOG entries — travels out-of-band through
    ``multiprocessing.shared_memory`` (or a spill file above
    :data:`SPILL_MIN_BYTES`) instead of the result pipe; only payloads
    under :data:`INLINE_MAX_BYTES` ride inline.

Shared-memory ownership and cleanup rules
-----------------------------------------
* the **worker** creates a segment, copies the pickled payload in,
  closes its mapping and ships only the segment *name* plus a size and
  SHA-256 digest;
* the **parent** attaches on receipt, copies the bytes out, then closes
  **and unlinks** the segment in a ``finally`` — decode always consumes
  the transport, even when verification fails;
* a size or digest mismatch (truncated/corrupt payload) raises
  :class:`WorkerResultError` — the task is *quarantined*: treated as a
  task failure (and therefore retried when retries are in force), never
  silently folded in;
* results abandoned mid-flight (timed-out round, broken pool) are
  tracked via :meth:`WorkerPool.abandon` and their transports released
  on the next sweep (dispatch, invalidation or interpreter exit), so
  hung workers cannot leak ``/dev/shm`` segments indefinitely.

Nothing here touches experiment RNG streams; the spec/result plumbing
is observability-and-transport only, which is what keeps ``--jobs N``
byte-identical to serial.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, Mapping, Optional

from repro.audit.tracehash import TRACE_HASH
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG, FaultPlan
from repro.obs.metrics import METRICS

#: Versioned wire-format identifier for one worker task's result.
WORKER_RESULT_SCHEMA = "repro-worker-result/1"

#: Payloads at or under this many pickled bytes ride inline in the
#: result pipe; larger ones go out-of-band (shared memory or spill).
INLINE_MAX_BYTES = 64 * 1024

#: Payloads at or over this many bytes prefer a spill file outright —
#: ``/dev/shm`` is typically RAM-backed and half of physical memory, so
#: very large snapshots must not camp there.
SPILL_MIN_BYTES = 32 * 1024 * 1024


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


def _pool_context():
    """Prefer fork (cheap, inherits the warm interpreter) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------------------
# Payload transport (inline / shared memory / spill file)
# ---------------------------------------------------------------------------

class WorkerResultError(ExperimentError):
    """A worker result that cannot be trusted: unknown schema version,
    vanished transport, or a truncated/corrupt (quarantined) payload."""


def encode_payload(obj: Any, inline_max: Optional[int] = None,
                   transport: Optional[str] = None) -> Dict[str, Any]:
    """Pickle ``obj`` and pick a transport for the bytes.

    Returns the payload descriptor shipped inside the wire record:
    always ``format``/``size``/``sha256`` plus transport-specific
    fields.  ``transport`` forces a specific channel (tests exercise
    each path explicitly); shared-memory failure falls back to a spill
    file so a full ``/dev/shm`` degrades instead of crashing the run.
    """
    data = pickle.dumps(obj)
    meta: Dict[str, Any] = {
        "format": "pickle",
        "size": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    limit = INLINE_MAX_BYTES if inline_max is None else inline_max
    mode = transport
    if mode is None:
        if len(data) <= limit:
            mode = "inline"
        elif len(data) >= SPILL_MIN_BYTES:
            mode = "spill"
        else:
            mode = "shm"
    if mode == "inline":
        meta["transport"] = "inline"
        meta["data"] = data
        return meta
    if mode == "shm":
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True,
                                                 size=max(1, len(data)))
            try:
                segment.buf[:len(data)] = data
            finally:
                segment.close()
            # Ownership transfers to the parent (decode/discard unlink
            # the segment); drop it from *this* process's resource
            # tracker or every worker would report "leaked" segments the
            # parent already consumed when the pool shuts down.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    getattr(segment, "_name", segment.name),
                    "shared_memory")
            except Exception:
                pass
            meta["transport"] = "shm"
            meta["name"] = segment.name
            return meta
        except (ImportError, OSError, ValueError):
            mode = "spill"  # degrade to a file rather than fail the task
    if mode != "spill":
        raise WorkerResultError(f"unknown payload transport {mode!r}")
    fd, path = tempfile.mkstemp(prefix="repro-worker-", suffix=".bin")
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)
    meta["transport"] = "spill"
    meta["path"] = path
    return meta


def discard_payload(meta: Mapping[str, Any]) -> None:
    """Release a payload's transport without decoding it (best effort).

    Used when a result is abandoned — a salvage pass after a broken
    pool, or a timed-out round whose stragglers finish later — so
    shared-memory segments and spill files never outlive their run.
    """
    transport = meta.get("transport")
    if transport == "shm":
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=meta["name"])
            segment.close()
            segment.unlink()
        except (ImportError, OSError, FileNotFoundError):
            pass
    elif transport == "spill":
        try:
            os.unlink(meta["path"])
        except OSError:
            pass


def decode_payload(meta: Mapping[str, Any]) -> Any:
    """Read, verify and unpickle one payload; always consumes the
    transport (shared memory unlinked, spill file deleted) even when
    verification fails and the result is quarantined."""
    transport = meta.get("transport")
    if transport == "inline":
        data = meta.get("data", b"")
    elif transport == "shm":
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=meta["name"])
        except (OSError, FileNotFoundError) as exc:
            raise WorkerResultError(
                f"worker result payload segment {meta.get('name')!r} "
                f"vanished before the parent could read it: {exc}"
            ) from exc
        try:
            data = bytes(segment.buf[:int(meta.get("size", 0))])
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
    elif transport == "spill":
        path = meta.get("path", "")
        try:
            with open(path, "rb") as handle:
                data = handle.read(int(meta.get("size", 0)))
        except OSError as exc:
            raise WorkerResultError(
                f"worker result spill file {path!r} vanished before the "
                f"parent could read it: {exc}"
            ) from exc
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
    else:
        raise WorkerResultError(
            f"unknown worker result payload transport {transport!r}")
    size = int(meta.get("size", -1))
    if len(data) != size:
        raise WorkerResultError(
            f"quarantined truncated worker result payload: expected "
            f"{size} bytes via {transport}, read {len(data)}")
    if hashlib.sha256(data).hexdigest() != meta.get("sha256"):
        raise WorkerResultError(
            "quarantined corrupt worker result payload: SHA-256 digest "
            f"mismatch over {size} bytes via {transport}")
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise WorkerResultError(
            f"quarantined undecodable worker result payload: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# WorkerResult: the versioned record one task returns
# ---------------------------------------------------------------------------

class WorkerResult:
    """One task's outcome plus its folded-back observability payloads.

    ``values`` is the measure's metric dict (repetitions) or the shard
    function's return value; ``metrics``/``trace_hash``/``runlog`` are
    the worker-side registry snapshots the parent merges, exactly as
    the old positional 8-tuple carried them.
    """

    __slots__ = ("kind", "index", "seed", "error", "queue_wait_s",
                 "wall_s", "pid", "values", "metrics", "trace_hash",
                 "runlog")

    def __init__(self, kind: str, index: int, seed: Optional[int] = None,
                 error: Optional[str] = None, queue_wait_s: float = 0.0,
                 wall_s: float = 0.0, pid: int = 0, values: Any = None,
                 metrics: Optional[Dict[str, Any]] = None,
                 trace_hash: Optional[Dict[str, Any]] = None,
                 runlog: Optional[Dict[str, Any]] = None):
        self.kind = kind
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

    def to_wire(self, inline_max: Optional[int] = None,
                transport: Optional[str] = None) -> Dict[str, Any]:
        """Encode for the result pipe; bulk fields go via the payload
        transport, scalars stay inline."""
        payload = {"values": self.values, "metrics": self.metrics,
                   "trace_hash": self.trace_hash, "runlog": self.runlog}
        return {
            "schema": WORKER_RESULT_SCHEMA,
            "kind": self.kind,
            "index": self.index,
            "seed": self.seed,
            "error": self.error,
            "queue_wait_s": self.queue_wait_s,
            "wall_s": self.wall_s,
            "pid": self.pid,
            "payload": encode_payload(payload, inline_max, transport),
        }

    @classmethod
    def from_wire(cls, wire: Any) -> "WorkerResult":
        """Decode and verify one wire record.

        Raises :class:`WorkerResultError` on an unknown schema version
        or a quarantined payload; the payload transport is consumed
        either way.
        """
        if not isinstance(wire, Mapping):
            raise WorkerResultError(
                f"malformed worker result: expected a mapping, got "
                f"{type(wire).__name__}")
        schema = wire.get("schema")
        if schema != WORKER_RESULT_SCHEMA:
            discard_payload(wire.get("payload") or {})
            raise WorkerResultError(
                f"unsupported worker result schema {schema!r}; this "
                f"parent speaks {WORKER_RESULT_SCHEMA!r}")
        payload = decode_payload(wire.get("payload") or {})
        if not isinstance(payload, Mapping):
            raise WorkerResultError(
                "quarantined worker result payload: decoded to "
                f"{type(payload).__name__}, expected a mapping")
        return cls(
            kind=wire.get("kind", ""),
            index=int(wire.get("index", -1)),
            seed=wire.get("seed"),
            error=wire.get("error"),
            queue_wait_s=float(wire.get("queue_wait_s", 0.0)),
            wall_s=float(wire.get("wall_s", 0.0)),
            pid=int(wire.get("pid", 0)),
            values=payload.get("values"),
            metrics=payload.get("metrics"),
            trace_hash=payload.get("trace_hash"),
            runlog=payload.get("runlog"),
        )


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


def _runlog_wire() -> Optional[Dict[str, Any]]:
    """This worker's RUNLOG snapshot, or ``None`` when nothing happened
    (the common case — keeps the payload minimal)."""
    snap = RUNLOG.snapshot()
    if (snap.get("retries") or snap.get("timeouts") or snap.get("dropped")
            or snap.get("injected")):
        return snap
    return None


def _execute_task(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Worker entry point: re-arm from the spec, run the body, encode.

    ``spec`` fields: ``kind`` ("rep" | "shard"), ``index``, ``seed``
    (reps), ``fn_blob`` (the pickled measure/shard function — unpickled
    fresh per task so a stateful measure never leaks state between
    repetitions), ``task_blob`` (shards), ``attempt``, ``submitted_at``,
    ``hash_group``, ``run_token`` and ``context``.
    """
    # Imported lazily: repro.core.parallel imports this module at top
    # level, so the reverse edge must stay out of import time.
    from repro.core import parallel as _parallel

    _apply_task_context(spec["context"], spec["run_token"])
    fn = pickle.loads(spec["fn_blob"])
    if spec["kind"] == "rep":
        (repetition, seed, values, error, queue_wait, wall, snapshot,
         thash) = _parallel._run_repetition(
            fn, spec["index"], spec["seed"], spec["submitted_at"],
            spec["attempt"], hash_group=spec["hash_group"])
        result = WorkerResult(
            kind="rep", index=repetition, seed=seed, error=error,
            queue_wait_s=queue_wait, wall_s=wall, pid=os.getpid(),
            values=values, metrics=snapshot, trace_hash=thash,
            runlog=_runlog_wire())
    else:
        task = pickle.loads(spec["task_blob"])
        index, values, error, snapshot = _parallel._run_shard(
            fn, spec["index"], task, spec["attempt"])
        result = WorkerResult(
            kind="shard", index=index, error=error, pid=os.getpid(),
            values=values, metrics=snapshot, runlog=_runlog_wire())
    return result.to_wire()


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

    __slots__ = ("workers", "generation", "_executor", "_abandoned")

    def __init__(self, workers: int):
        self.workers = int(workers)
        self.generation = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Futures whose results nobody will read (timed-out rounds);
        #: swept for transport cleanup once they complete.
        self._abandoned: List[Future] = []

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
        self._sweep_abandoned()
        return self.executor().submit(_execute_task, spec)

    def abandon(self, future: Future) -> None:
        """Mark a future whose result will never be consumed, so its
        payload transport is released when it eventually completes."""
        self._abandoned.append(future)

    def _sweep_abandoned(self) -> None:
        remaining: List[Future] = []
        for future in self._abandoned:
            if future.done():
                if not future.cancelled() and future.exception() is None:
                    wire = future.result()
                    if isinstance(wire, Mapping):
                        discard_payload(wire.get("payload") or {})
            else:
                remaining.append(future)
        self._abandoned = remaining

    def invalidate(self) -> None:
        """Tear the executor down (non-blocking); rebuilt lazily."""
        self._sweep_abandoned()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            if METRICS.enabled:
                METRICS.inc("parallel.pool_rebuilt")

    def shutdown(self) -> None:
        self._sweep_abandoned()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


#: Long-lived pools keyed by worker count.  Distinct ``--jobs`` values
#: get distinct pools so a 2-job dispatch can never run 4 wide.
_POOLS: Dict[int, WorkerPool] = {}

#: Monotone per-dispatch token (fault-plan continuity across rounds).
_RUN_TOKEN = 0


def next_run_token() -> int:
    """A fresh token identifying one repeater/map_shards invocation."""
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
