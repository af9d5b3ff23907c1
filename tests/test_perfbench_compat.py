"""The benchmark's layer trace still sees the methods it wraps.

``perfbench/tracing.py`` wraps methods through the defining class's own
``__dict__`` (``Scheduler.__dict__["submit"]``, ``Engine.__dict__["run"]``
and ``["run_until_event"]``, ``TcpSocket.__dict__["send"]``, and
``FileSystem.__dict__["read"]``/``["write"]``/``["fsync"]``) and counts
or times every call that goes through the class attribute.  A method
moved into a compiled base class would drop out of that namespace, and
the traced benchmark point would break or silently count nothing.
These checks keep the wrapped names where the trace finds them, and
hold the traced counts to the simulated ones: submits to the
schedulers' own ``submits`` counters on a Fig 5 and a Fig 4 run, and
Fig 4's traced TCP bytes to the bytes its sockets sent (the compiled
frame loop runs behind ``TcpSocket.send``).
"""

import importlib.util
from pathlib import Path

from repro.api import RunConfig, RunRequest, run
from repro.osmodel.filesystem import FileSystem
from repro.osmodel.netstack import NetStack, TcpSocket, UdpSocket
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


def test_wrapped_netstack_and_filesystem_methods_are_in_the_class_namespace():
    assert "send" in TcpSocket.__dict__
    for name in ("read", "write", "fsync"):
        assert name in FileSystem.__dict__, name


def _recording(monkeypatch, cls):
    """Every instance of ``cls`` built while the test runs."""
    made = []
    init = cls.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", recording_init)
    return made


def _traced_figure(target):
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run(RunRequest(kind="figure", target=target,
                       config=RunConfig(reps=1, jobs=1, cache=False,
                                        metrics=False)))
    return tracer


def test_traced_fig5_counts_every_submit(monkeypatch):
    schedulers = _recording(monkeypatch, Scheduler)
    tracer = _traced_figure("fig5")
    made = sum(scheduler.submits for scheduler in schedulers)
    assert made > 1000
    assert tracer.counts["osmodel.scheduler.submits"] == made
    assert tracer.counts["simcore.engine.events"] > 0


def test_traced_fig4_counts_every_tcp_byte_and_submit(monkeypatch):
    schedulers = _recording(monkeypatch, Scheduler)
    stacks = _recording(monkeypatch, NetStack)
    udp_bytes = [0]
    sendto = UdpSocket.sendto

    def counting_sendto(self, thread, remote, port, payload, nbytes=64):
        udp_bytes[0] += nbytes
        return sendto(self, thread, remote, port, payload, nbytes)

    monkeypatch.setattr(UdpSocket, "sendto", counting_sendto)
    tracer = _traced_figure("fig4")
    # a stack's bytes_sent counts its stream frames and its datagrams
    sent = sum(stack.stats.bytes_sent for stack in stacks)
    assert sent - udp_bytes[0] == 6 * 10 * 2 ** 20
    assert tracer.counts["osmodel.netstack.tcp_bytes"] == sent - udp_bytes[0]
    made = sum(scheduler.submits for scheduler in schedulers)
    assert made > 10000
    assert tracer.counts["osmodel.scheduler.submits"] == made
