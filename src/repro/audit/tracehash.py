"""Rolling trace-hash checkpoints: the runtime half of the audit layer.

The determinism contract says a figure run is byte-identical serial vs
``--jobs N`` vs seed-replay.  The figures themselves prove the *end*
state; the trace hash proves the *path*: every engine dispatch is folded
into a rolling SHA-256, checkpointed once per simulated-time window, so
two runs can be compared window by window and a divergence localised to
the first window (and, with capture, the first event) that differs.

Guard contract (same as :class:`repro.simcore.trace.Tracer` and
:data:`repro.obs.metrics.METRICS`): the recorder is **disabled by
default** and a disabled recorder costs one attribute read at engine
construction plus one ``is None`` branch per dispatched event on the
``step()`` path — the inlined ``Engine.run`` drain loop stays entirely
untouched when hashing is off.

Stream identity
---------------
Each :class:`~repro.simcore.engine.Engine` opens one **stream** when the
recorder is enabled, keyed ``<context>/engine<ordinal>``.  The context
is set by the repetition harness (``g<group>/rep<n>``, where ``group``
is a monotone per-run counter allocated once per repeater run and
``rep`` the repetition index), so the serial path and every ``--jobs N``
fan-out produce the *same* stream keys for the same logical work —
which is what makes the snapshots comparable at all.  Persistent pool
workers (:mod:`repro.core.workerpool`) re-arm their process-private
recorder per task from the spec's shipped context — enablement, window
and capture target all travel with the task, so a recorder enabled
*after* the pool was forked still records — then reset it and ship a
snapshot back in their ``WorkerResult``; the parent folds it in.

Checkpoint format (``repro-trace-hash/1``)::

    {"schema": "repro-trace-hash/1",
     "window_s": 1.0,
     "streams": {"g0/rep0/engine0": [[0, "9f86d081884c7d65", 412],
                                     [1, "60303ae22b998861", 388], ...]},
     "captured": {"g0/rep0/engine0": {"window": 1,
                                      "events": [[when, seq, name], ...]}}}

Each stream entry is ``[window_index, digest, events_in_window]`` for
every *non-empty* window, in order.  Digests chain: window ``n`` hashes
its events on top of window ``n-1``'s digest, so any prefix mismatch
propagates — the first differing checkpoint IS the first diverging
window (see :mod:`repro.audit.bisect`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

#: Snapshot schema identifier.
TRACE_HASH_SCHEMA = "repro-trace-hash/1"

#: Default simulated-time window per checkpoint, in seconds.
DEFAULT_WINDOW_S = 1.0

#: Context used for engines created outside any repetition harness.
DEFAULT_CONTEXT = "main"


#: Module of the compiled event core's types (``simcore/_ccore.c``).
_CCORE_MODULE = "repro.simcore._ccore"

_BUILTIN_METHOD = type(len)


def _event_name(fn: Any) -> str:
    """Deterministic label for a dispatched callback.

    ``__qualname__`` for functions and bound methods; the type name for
    callables without one (e.g. ``functools.partial``).  Never uses
    ``repr`` — default reprs embed addresses, which differ across
    processes.

    A method of the compiled event core is named after the core class
    that defines it, as the pure-Python twin's function would be: a C
    method's bound ``__qualname__`` takes the instance's type
    (``Timeout(...).succeed`` reads ``Timeout.succeed``), where the twin
    reads ``SimEvent.succeed``.
    """
    name = getattr(fn, "__qualname__", None)
    if name is None:
        return type(fn).__name__
    if type(fn) is _BUILTIN_METHOD:
        method = fn.__name__
        for cls in type(fn.__self__).__mro__:
            if method in cls.__dict__:
                if cls.__module__ == _CCORE_MODULE:
                    return f"{cls.__name__}.{method}"
                break
    return name


class StreamHash:
    """Rolling windowed hash of one engine's dispatch sequence."""

    __slots__ = ("key", "window_s", "checkpoints", "_digest", "_hash",
                 "_window", "_count", "_capture_window", "captured")

    def __init__(self, key: str, window_s: float,
                 capture_window: Optional[int] = None):
        self.key = key
        self.window_s = window_s
        #: Finalised ``[window_index, digest, count]`` checkpoints.
        self.checkpoints: List[List[Any]] = []
        self._digest = ""            # previous window's digest (chain seed)
        self._hash: Optional[Any] = None
        self._window: Optional[int] = None
        self._count = 0
        self._capture_window = capture_window
        #: Raw ``(when, seq, name)`` events of the captured window.
        self.captured: List[Tuple[float, int, str]] = []

    def _open_window(self, window: int) -> None:
        h = hashlib.sha256()
        h.update(self._digest.encode("ascii"))
        h.update(str(window).encode("ascii"))
        self._hash = h
        self._window = window
        self._count = 0

    def _flush(self) -> None:
        if self._hash is None or self._count == 0:
            return
        self._digest = self._hash.hexdigest()[:16]
        self.checkpoints.append([self._window, self._digest, self._count])

    def update(self, when: float, seq: int, fn: Any) -> None:
        """Fold one dispatched event into the current window."""
        window = int(when // self.window_s)
        if window != self._window:
            self._flush()
            self._open_window(window)
        self._hash.update(f"{when!r}|{seq}|{_event_name(fn)}\n"
                          .encode("utf-8"))
        self._count += 1
        if window == self._capture_window:
            self.captured.append((when, seq, _event_name(fn)))

    def snapshot_checkpoints(self) -> List[List[Any]]:
        """Checkpoints including the still-open window (non-destructive)."""
        out = [list(item) for item in self.checkpoints]
        if self._hash is not None and self._count > 0:
            out.append([self._window, self._hash.hexdigest()[:16],
                        self._count])
        return out


class TraceHashRecorder:
    """Process-global registry of per-engine :class:`StreamHash` streams.

    Disabled by default; :func:`repro.api.run` enables it when
    the run config's ``trace_hash`` knob is set.  ``capture`` names one
    ``(stream_key, window_index)`` whose raw events should be retained —
    the bisector's second pass uses it to print an event-level diff.
    """

    __slots__ = ("enabled", "window_s", "capture", "_streams", "_imported",
                 "_captured", "_context", "_ordinals", "_groups")

    def __init__(self, enabled: bool = False,
                 window_s: float = DEFAULT_WINDOW_S):
        self.enabled = enabled
        self.window_s = window_s
        self.capture: Optional[Tuple[str, int]] = None
        self._streams: Dict[str, StreamHash] = {}
        #: Checkpoint lists merged from worker snapshots.
        self._imported: Dict[str, List[List[Any]]] = {}
        self._captured: Dict[str, Dict[str, Any]] = {}
        self._context = DEFAULT_CONTEXT
        self._ordinals: Dict[str, int] = {}
        self._groups = 0

    # -- lifecycle -------------------------------------------------------

    def enable(self, window_s: Optional[float] = None,
               reset: bool = True) -> None:
        if window_s is not None:
            self.window_s = window_s
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all streams and context state (``capture`` persists)."""
        self._streams.clear()
        self._imported.clear()
        self._captured.clear()
        self._context = DEFAULT_CONTEXT
        self._ordinals.clear()
        self._groups = 0

    # -- context (set by the repetition harness) -------------------------

    def begin_group(self) -> int:
        """Allocate the next repeater-run group id (monotone per run).

        Every repeater run allocates exactly one group, in the same
        deterministic order at any worker count, so stream keys line up
        across worker counts.
        """
        group = self._groups
        self._groups += 1
        return group

    def set_context(self, label: str) -> None:
        """Label streams opened from now on (e.g. ``g0/rep2``)."""
        self._context = label

    def clear_context(self) -> None:
        self._context = DEFAULT_CONTEXT

    # -- stream registration (called by Engine.__init__) -----------------

    def open_stream(self) -> Optional[StreamHash]:
        """A new stream for one engine; ``None`` when disabled."""
        if not self.enabled:
            return None
        ordinal = self._ordinals.get(self._context, 0)
        self._ordinals[self._context] = ordinal + 1
        key = f"{self._context}/engine{ordinal}"
        capture_window = None
        if self.capture is not None and self.capture[0] == key:
            capture_window = self.capture[1]
        stream = StreamHash(key, self.window_s, capture_window)
        self._streams[key] = stream
        return stream

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of every stream's checkpoints, sorted by key."""
        streams: Dict[str, List[List[Any]]] = dict(self._imported)
        for key, stream in self._streams.items():
            streams[key] = stream.snapshot_checkpoints()
        captured: Dict[str, Dict[str, Any]] = {
            key: {"window": value["window"],
                  "events": [list(event) for event in value["events"]]}
            for key, value in self._captured.items()
        }
        for key, stream in self._streams.items():
            if stream.captured:
                captured[key] = {
                    "window": stream._capture_window,
                    "events": [list(event) for event in stream.captured],
                }
        return {
            "schema": TRACE_HASH_SCHEMA,
            "window_s": self.window_s,
            "streams": {key: streams[key] for key in sorted(streams)},
            "captured": {key: captured[key] for key in sorted(captured)},
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder.

        Worker stream keys are unique per repetition context, so a merge
        is a plain union; a retried repetition re-runs identically and
        simply overwrites its earlier (possibly partial) streams.
        """
        if not self.enabled or not snap:
            return
        for key, checkpoints in snap.get("streams", {}).items():
            self._imported[key] = [list(item) for item in checkpoints]
            self._streams.pop(key, None)
        for key, value in snap.get("captured", {}).items():
            self._captured[key] = {
                "window": value["window"],
                "events": [list(event) for event in value["events"]],
            }


#: The process-global recorder every engine consults at construction.
TRACE_HASH = TraceHashRecorder(enabled=False)
