"""Outside-in layer trace for the traced benchmark run.

The trace wraps public functions of each layer from the benchmark's own
files; nothing inside ``src/`` changes.  A :class:`Tracer` keeps spans
(name, start, end, parent) and counters in memory; :func:`installed`
swaps the wrappers in and puts every original back on exit.

Timed wrappers open a span around the call.  Calls that return a
generator (``TcpSocket.send``, ``FileSystem.*``) do their work later, as
the engine resumes them, so they are counted, not timed.  Nothing here
touches :data:`repro.obs.METRICS`: arming it would move fault-free fleet
runs off the compiled kernel.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Module-level functions timed as spans: (module, attribute, span).
TIMED_FUNCTIONS = (
    ("repro.campaign.plan", "plan_campaign", "campaign.plan"),
    ("repro.core.testbed", "build_native_testbed", "core.testbed.build"),
    ("repro.core.testbed", "build_host_testbed", "core.testbed.build"),
    ("repro.fleet.columns", "build_fleet_columns", "fleet.columns.build"),
    ("repro.fleet.host", "build_fleet_hosts", "fleet.host.build"),
    ("repro.fleet.cloop", "run_event_loop", "fleet.cloop.loop"),
    ("repro.obs.manifest", "write_manifest", "obs.manifest.write"),
)

#: Methods timed as spans: (module, class, method, span).
TIMED_METHODS = (
    ("repro.fleet.server", "FleetServer", "run", "fleet.server.run"),
    ("repro.core.guest_perf", "EnvironmentMeasure", "__call__",
     "core.experiment.rep"),
    ("repro.core.host_impact", "SevenZipImpactMeasure", "__call__",
     "core.experiment.rep"),
    ("repro.core.host_impact", "NBenchImpactMeasure", "__call__",
     "core.experiment.rep"),
)

#: Modules imported before wrapping, so every ``from x import f`` alias
#: of a wrapped function already exists when the aliases are rebound.
PRELOAD = ("repro.api", "repro.campaign", "repro.campaign.scheduler",
           "repro.core.figures", "repro.core.guest_perf",
           "repro.core.host_impact", "repro.fleet.server",
           "repro.fleet.figures")

#: Engine entry points: timed, plus the events each one dispatched.
ENGINE_METHODS = ("run", "run_until_event")

#: Counted methods: (module, class, method, counter, amount(args)).
COUNTED_METHODS = (
    ("repro.osmodel.netstack", "TcpSocket", "send",
     "osmodel.netstack.tcp_bytes", lambda args, kwargs: int(
         kwargs["nbytes"] if "nbytes" in kwargs else args[2])),
    ("repro.osmodel.filesystem", "FileSystem", "read",
     "osmodel.filesystem.ops", None),
    ("repro.osmodel.filesystem", "FileSystem", "write",
     "osmodel.filesystem.ops", None),
    ("repro.osmodel.filesystem", "FileSystem", "fsync",
     "osmodel.filesystem.ops", None),
    ("repro.osmodel.scheduler", "Scheduler", "submit",
     "osmodel.scheduler.submits", None),
)


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]`` per span
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        # Close the span and anything left open inside it.
        while self._stack and self._stack.pop() != index:
            pass

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total_s(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name and end is not None)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": [list(span) for span in self.spans],
                "counts": dict(sorted(self.counts.items()))}


class Patcher:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_function(self, original: Callable, wrapped: Callable) -> None:
        """Rebind every module-level alias of ``original`` in loaded
        ``repro`` modules (``from x import f`` copies the binding, as
        ``repro.fleet.server._c_event_loop`` does)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _engine(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.events_processed
        try:
            with tracer.span("simcore.engine.run"):
                return fn(self, *args, **kwargs)
        finally:
            tracer.count("simcore.engine.events",
                         self.events_processed - before)
    return wrapper


def _counted(tracer: Tracer, name: str, amount: Optional[Callable],
             fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name, 1 if amount is None else amount(args, kwargs))
        return fn(*args, **kwargs)
    return wrapper


def _class(module: str, name: str) -> Any:
    return getattr(importlib.import_module(module), name)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Patcher]:
    """Wrap every traced layer for the block; restore on exit."""
    for module in PRELOAD:
        importlib.import_module(module)
    patcher = Patcher()
    try:
        for module, attr, span in TIMED_FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            patcher.replace_function(original,
                                     _timed(tracer, span, original))
        for module, cls_name, method, span in TIMED_METHODS:
            cls = _class(module, cls_name)
            patcher.set(cls, method,
                        _timed(tracer, span, cls.__dict__[method]))
        engine = _class("repro.simcore.engine", "Engine")
        for method in ENGINE_METHODS:
            patcher.set(engine, method,
                        _engine(tracer, engine.__dict__[method]))
        for module, cls_name, method, counter, amount in COUNTED_METHODS:
            cls = _class(module, cls_name)
            patcher.set(cls, method, _counted(
                tracer, counter, amount, cls.__dict__[method]))
        yield patcher
    finally:
        patcher.restore()


#: Figure ids with a per-figure span metric.
FIGURE_IDS = tuple(f"fig{k}" for k in range(1, 9))

#: Every per-layer metric, with its unit, in report order.
LAYER_METRICS = (
    ("simcore.engine.events", "count"),
    ("simcore.engine.run_s", "s"),
    ("simcore.engine.events_per_s", "1/s"),
    ("osmodel.netstack.tcp_bytes", "bytes"),
    ("osmodel.filesystem.ops", "count"),
    ("osmodel.scheduler.submits", "count"),
    ("core.experiment.reps", "count"),
    ("core.experiment.rep_s", "s"),
    ("core.testbed.build_s", "s"),
) + tuple((f"core.figures.{fig}_s", "s") for fig in FIGURE_IDS) + (
    ("campaign.plan_s", "s"),
    ("campaign.overhead_s", "s"),
    ("fleet.columns.build_s", "s"),
    ("fleet.cloop.loop_s", "s"),
    ("fleet.server.run_s", "s"),
    ("fleet.server.prep_report_s", "s"),
    ("fleet.cloop.available", "bool"),
    ("fleet.host.build_s", "s"),
    ("obs.manifest.write_s", "s"),
    ("fleet.server.workunits", "count"),
    ("fleet.server.replicas", "count"),
    ("fleet.server.validated", "count"),
    ("fleet.recovery.uploads_retried", "count"),
    ("fleet.recovery.uploads_lost", "count"),
    ("fleet.recovery.vm_crashes", "count"),
    ("fleet.recovery.degraded_validated", "count"),
    ("faults.injected", "count"),
    ("trace.overhead_s", "s"),
)


def layer_values(tracer: Tracer, campaign_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced campaign run.

    ``campaign_s`` is the host time of the traced ``run_campaign`` call;
    the campaign's own overhead is that minus the point spans.  Fleet
    report counts, ``faults.injected``, ``fleet.cloop.available`` and
    ``trace.overhead_s`` come from outside the trace and are filled in
    by the caller.
    """
    run_s = tracer.total_s("simcore.engine.run")
    events = tracer.counts.get("simcore.engine.events", 0)
    loop_s = tracer.total_s("fleet.cloop.loop")
    server_s = tracer.total_s("fleet.server.run")
    points_s = sum(tracer.total_s(name) for name in
                   {span[0] for span in tracer.spans
                    if span[0].startswith("campaign.point.")})
    values = {
        "simcore.engine.events": events,
        "simcore.engine.run_s": run_s,
        "simcore.engine.events_per_s": events / run_s if run_s > 0 else 0.0,
        "osmodel.netstack.tcp_bytes":
            tracer.counts.get("osmodel.netstack.tcp_bytes", 0),
        "osmodel.filesystem.ops":
            tracer.counts.get("osmodel.filesystem.ops", 0),
        "osmodel.scheduler.submits":
            tracer.counts.get("osmodel.scheduler.submits", 0),
        "core.experiment.reps": tracer.calls("core.experiment.rep"),
        "core.experiment.rep_s": tracer.total_s("core.experiment.rep"),
        "core.testbed.build_s": tracer.total_s("core.testbed.build"),
        "campaign.plan_s": tracer.total_s("campaign.plan"),
        "campaign.overhead_s": campaign_s - points_s,
        "fleet.columns.build_s": tracer.total_s("fleet.columns.build"),
        "fleet.cloop.loop_s": loop_s,
        "fleet.server.run_s": server_s,
        "fleet.server.prep_report_s": server_s - loop_s,
        "fleet.host.build_s": tracer.total_s("fleet.host.build"),
        "obs.manifest.write_s": tracer.total_s("obs.manifest.write"),
    }
    for fig in FIGURE_IDS:
        values[f"core.figures.{fig}_s"] = \
            tracer.total_s(f"campaign.point.{fig}")
    return values
