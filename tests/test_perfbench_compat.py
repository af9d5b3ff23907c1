"""The benchmark's layer trace still sees the methods it wraps.

``perfbench/tracing.py`` wraps methods through the defining class's own
``__dict__`` (``Scheduler.__dict__["submit"]``, ``Engine.__dict__["run"]``
and ``["run_until_event"]``) and counts or times every call that goes
through the class attribute.  A method moved into a compiled base class
would drop out of that namespace, and the traced benchmark point would
break or silently count nothing.  These checks keep the wrapped names
where the trace finds them, and hold the traced submit count to the
scheduler's own ``submits`` counter on a Fig 5 run.
"""

import importlib.util
from pathlib import Path

from repro.api import RunConfig, RunRequest, run
from repro.osmodel.scheduler import Scheduler
from repro.simcore.engine import Engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_scheduler_method_is_in_the_class_namespace():
    assert "submit" in Scheduler.__dict__


def test_wrapped_engine_methods_are_in_the_class_namespace():
    for name in ("run", "run_until_event", "step"):
        assert name in Engine.__dict__, name


def test_traced_fig5_counts_every_submit(monkeypatch):
    schedulers = []
    init = Scheduler.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        schedulers.append(self)

    monkeypatch.setattr(Scheduler, "__init__", recording_init)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run(RunRequest(kind="figure", target="fig5",
                       config=RunConfig(reps=1, jobs=1, cache=False,
                                        metrics=False)))
    made = sum(scheduler.submits for scheduler in schedulers)
    assert made > 1000
    assert tracer.counts["osmodel.scheduler.submits"] == made
    assert tracer.counts["simcore.engine.events"] > 0
