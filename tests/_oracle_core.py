"""The event core in pure Python: the test oracle of the compiled one.

The compiled event core (``simcore/_ccore.c``, with the scheduler's
crossings and pass of ``osmodel/_sched.c`` and the network frame path of
``osmodel/_frames.c``, built by :mod:`repro.ckernel` as
``repro.simcore._ccore``, the module that also holds the fleet kernels,
whose oracles are the fleet's own) has one Python counterpart, this
module and :mod:`tests._oracle_pass`.  It exports the same event core
entry points:

* :class:`EventHandle`, the one-shot :class:`SimEvent`, the
  generator-process resume core (:class:`SimProcess`) and the engine's
  clock, ``schedule``/``schedule_at`` and the drains of ``run`` and
  ``run_until_event`` (:class:`EngineCore`);
* ``Scheduler``: the scheduler's crossings and decision pass, and the
  stand-ins of its record types ``ThreadRecord``, ``CoreRecord`` and
  ``L2Record`` (:mod:`tests._oracle_pass`);
* ``SendFrames``/``RecvFrames``: the frame loops behind
  ``TcpSocket.send``/``recv``; ``nic_transmit``/``vnic_transmit``: the
  bodies of ``Nic.transmit`` and ``VirtualNic.transmit`` with the
  vNIC's per-frame service.

:func:`tests._python_core.install_oracle_core` makes it the event core
of a fresh interpreter before :mod:`repro.simcore.events` is imported,
so the public classes build on it: ``events.Timeout``/``AllOf``/
``AnyOf`` and ``resources.Request`` subclass its ``SimEvent``,
``process.SimProcess`` its ``SimProcess``, ``engine.Engine`` its
``EngineCore``, ``scheduler.Scheduler`` its ``Scheduler``, and
``threads.SimThread``, ``scheduler.CoreState`` and ``cache.CacheStats``
its record stand-ins.  Both
cores must dispatch the same ``(when, seq, callback)`` sequence, raise
the same errors and give dispatched callbacks the same trace-hash names;
the classes keep the names the trace hash sees (``SimEvent.succeed``,
``SimProcess._first_resume``, ``TcpSocket.send.<locals>.<lambda>``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import NetworkError, SimulationError
from repro.hardware.cpu import MIX_VMM_SERVICE
from repro.obs.metrics import METRICS
from tests._oracle_pass import (  # noqa: F401  (entry points)
    CoreRecord,
    L2Record,
    Scheduler,
    ThreadRecord,
)


class EventHandle:
    """A cancellable callback scheduled on the engine heap.

    Instances are created by :meth:`EngineCore.schedule` /
    ``schedule_at`` and should be treated as opaque apart from
    :meth:`cancel` and :attr:`active`.  Heap ordering lives in the
    engine's ``(time, seq)`` tuple keys, not here — handles are payload,
    never compared.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "daemon",
                 "_on_cancel")

    def __init__(self, time: float, seq: int, fn: Callable[..., None],
                 args: tuple, daemon: bool = False,
                 on_cancel: Optional[Callable[[], None]] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        # Daemon events (periodic housekeeping like the scheduler's
        # balance-set scan) do not keep Engine.run() alive on their own.
        self.daemon = daemon
        self._on_cancel = on_cancel

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after fire."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()
            self._on_cancel = None
        # Drop references so cancelled-but-still-heaped handles don't pin
        # large object graphs alive until their timestamp is reached.
        self.fn = _noop
        self.args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def active(self) -> bool:
        return not self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "active"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


#: Callback list of a fired event that had waiters (never appended to).
_FIRED: tuple = ()


class SimEvent:
    """A one-shot condition: untriggered until ``succeed()`` or ``fail()``.

    Waiters register callbacks with :meth:`add_callback`; process objects
    use this under the hood when a generator yields the event.  Triggering
    is immediate (same simulation instant): callbacks run synchronously in
    registration order, which keeps causality obvious in traces.
    """

    __slots__ = ("engine", "_triggered", "_ok", "_value", "_callbacks")

    def __init__(self, engine):
        self.engine = engine
        self._triggered = False
        self._ok: Optional[bool] = None
        self._value: Any = None
        self._callbacks: List[Callable[["SimEvent"], None]] = []

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when triggered via ``succeed``.  Raises if untriggered."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """Payload passed to ``succeed``, or the exception given to ``fail``."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger successfully with an optional payload."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Trigger as failed; waiters receive ``exc`` (processes re-raise it)."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            # Detach the waiters (no fresh list: a fired event never
            # appends again, add_callback calls straight through).
            self._callbacks = _FIRED
            for fn in callbacks:
                fn(self)

    # -- waiting ---------------------------------------------------------

    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Register ``fn(event)``; fires immediately if already triggered."""
        if self._triggered:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state}>"


class SimProcess(SimEvent):
    """The resume core of a generator process.

    A yield on a pending event appends the resume callback to the
    event's waiters directly, and a yield on an event that has already
    fired resumes the generator at once in the same frame — the
    synchronous resume ``add_callback`` would make, without a nested call
    per step.  The bound callback is built per wait, not cached on the
    process: a cached one would put every process in a reference cycle
    that only the cyclic collector frees.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_started", "_resume_scheduled")

    def _first_resume(self) -> None:
        self._resume_scheduled = None
        self._started = True
        self._advance(None, None)

    def _on_wait_complete(self, event: SimEvent) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        if event._ok:
            self._advance(event._value, None)
        else:
            self._advance(None, event._value)

    def _advance(self, value: Any, exc: Optional[BaseException]) -> None:
        """Resume the generator with a value or throw, then re-suspend."""
        gen = self.gen
        while True:
            try:
                if exc is not None:
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Exception as error:
                # Interrupted included: an uncaught interrupt terminates
                # the process as failed, so waiters notice.
                self.fail(error)
                return

            if not isinstance(target, SimEvent):
                gen.close()
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; expected a SimEvent"
                    )
                )
                return
            if not target._triggered:
                self._waiting_on = target
                target._callbacks.append(self._on_wait_complete)
                return
            # Already fired: resume at once, as add_callback would.
            if self._triggered:
                return
            self._waiting_on = None
            if target._ok:
                value, exc = target._value, None
            else:
                value, exc = None, target._value


class EngineCore:
    """The engine's clock, pending-event heap and dispatch core."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._processed = 0
        self._non_daemon_pending = 0
        # Bound once: building a bound method per schedule() is measurable
        # on the hot path.
        self._decrement_non_daemon = self._make_decrement()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any,
                    daemon: bool = False) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        ``daemon=True`` marks housekeeping events that should not keep
        ``run`` alive once all real work has drained (e.g. the
        scheduler's periodic balance-set scan).
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self._now}"
            )
        on_cancel = None
        if not daemon:
            self._non_daemon_pending += 1
            on_cancel = self._decrement_non_daemon
        when = time if time > self._now else self._now
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, fn, args, daemon, on_cancel)
        heappush(self._heap, (when, seq, handle))
        return handle

    def _make_decrement(self) -> Callable[[], None]:
        def decrement() -> None:
            self._non_daemon_pending -= 1

        return decrement

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any,
                 daemon: bool = False) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        # Inlined schedule_at: relative delays cannot land in the past, so
        # the past-check and the when/now clamp are statically satisfied.
        # This is the simulator's single most-called function.
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        on_cancel = None
        if not daemon:
            self._non_daemon_pending += 1
            on_cancel = self._decrement_non_daemon
        when = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, fn, args, daemon, on_cancel)
        heappush(self._heap, (when, seq, handle))
        return handle

    def _drain_until(self, event: SimEvent, limit: Optional[float]) -> None:
        """Dispatch events until ``event`` triggers; raise
        :class:`SimulationError` on ``limit`` or a drained queue.

        One frame for the whole drain; the limit and the non-daemon
        count are checked before every dispatch, as one ``step()`` per
        iteration would.
        """
        heap = self._heap
        thash = self._thash
        while not event._triggered:
            if limit is not None and self._now >= limit:
                raise SimulationError(f"time limit {limit}s reached before event")
            if self._non_daemon_pending <= 0:
                raise SimulationError(
                    "event queue drained (only daemon housekeeping left) "
                    "before event triggered"
                )
            while heap:
                when, seq, handle = heappop(heap)
                if handle._cancelled:
                    continue
                if when < self._now - 1e-12:
                    raise SimulationError("heap yielded an event from the past")
                if not handle.daemon:
                    self._non_daemon_pending -= 1
                    handle._on_cancel = None  # fired: a late cancel() is a no-op
                self._now = when
                self._processed += 1
                if thash is not None:
                    thash.update(when, seq, handle.fn)
                handle.fn(*handle.args)
                break
            else:
                raise SimulationError("event queue drained before event triggered")

    def _drain(self, until: Optional[float]) -> Tuple[int, int, int]:
        """``Engine.run``'s loop; returns the same-instant batch tally
        ``(batches, events, largest)`` (zeros with a horizon).

        Without ``until``: while a non-daemon event is pending (daemon
        housekeeping must not keep the world spinning), fire the next
        instant's first event, then everything else already due at that
        instant without touching the clock again.  With ``until``: fire
        every event at or before it, daemons included, then advance the
        clock to it.
        """
        heap = self._heap
        thash = self._thash
        if until is not None:
            while heap:
                when, seq, handle = heap[0]
                if handle._cancelled:
                    heappop(heap)
                    continue
                if when > until:
                    break
                heappop(heap)
                if not handle.daemon:
                    self._non_daemon_pending -= 1
                    handle._on_cancel = None
                self._now = when
                self._processed += 1
                if thash is not None:
                    thash.update(when, seq, handle.fn)
                handle.fn(*handle.args)
            self._now = max(self._now, until)
            return 0, 0, 0
        batches = batch_events = batch_max = 0
        while self._non_daemon_pending > 0 and heap:
            when, seq, handle = heappop(heap)
            if handle._cancelled:
                continue
            if when < self._now - 1e-12:
                raise SimulationError("heap yielded an event from the past")
            if not handle.daemon:
                self._non_daemon_pending -= 1
                handle._on_cancel = None
            self._now = when
            self._processed += 1
            if thash is not None:
                thash.update(when, seq, handle.fn)
            handle.fn(*handle.args)
            in_batch = 1
            while (heap and heap[0][0] == when
                   and self._non_daemon_pending > 0):
                same, seq, handle = heappop(heap)
                if handle._cancelled:
                    continue
                if not handle.daemon:
                    self._non_daemon_pending -= 1
                    handle._on_cancel = None
                self._processed += 1
                if thash is not None:
                    thash.update(same, seq, handle.fn)
                handle.fn(*handle.args)
                in_batch += 1
            batches += 1
            batch_events += in_batch
            if in_batch > batch_max:
                batch_max = in_batch
        return batches, batch_events, batch_max


# -- the network frame path (osmodel/_frames.c) ---------------------------


class TcpSocket:
    """The frame loops of ``TcpSocket.send``/``recv``, as a namespace whose
    name gives the per-frame delivery lambda the qualname the trace hash
    sees (``TcpSocket.send.<locals>.<lambda>``).  The methods in
    :mod:`repro.osmodel.netstack` check their arguments and read the
    stream's constants, then return one of these loops."""

    @staticmethod
    def send(thread, nbytes, charge, send_cycles, mix, kind, transmit, mtu,
             serialize, peer, stats):
        """Send ``nbytes``; returns when the last byte has left the wire."""
        remote = peer.stack
        remaining = nbytes
        last_ev = None
        while remaining > 0:
            payload = min(mtu, remaining)
            remaining -= payload
            yield charge(thread, send_cycles, mix, kind)
            ev = transmit(
                payload, remote=remote,
                on_delivered=lambda p=payload, pr=peer: pr._deliver(p),
            )
            stats.packets_sent += 1
            stats.bytes_sent += payload
            if serialize:
                yield ev
            last_ev = ev
        if last_ev is not None and not last_ev._triggered:
            yield last_ev

    @staticmethod
    def recv(thread, nbytes, rx, charge, recv_cycles, mix, kind):
        """Receive until ``nbytes`` have arrived; returns the byte count."""
        get = rx.get
        received = 0
        while received < nbytes:
            payload = yield get()
            yield charge(thread, recv_cycles, mix, kind)
            received += payload
        return received


SendFrames = TcpSocket.send
RecvFrames = TcpSocket.recv


def nic_transmit(self, payload_bytes, remote=None, on_delivered=None):
    """``Nic.transmit``: queue one frame; the event succeeds when it has
    left the wire, ``on_delivered`` fires one link latency later."""
    del remote
    if self.peer is None:
        raise NetworkError(f"NIC {self.name!r} has no link")
    wire = self.frame_time(payload_bytes)
    start = max(self.engine.now, self._tx_busy_until)
    finish = start + wire
    self._tx_busy_until = finish
    self.stats.frames_sent += 1
    self.stats.payload_bytes_sent += payload_bytes
    self.stats.busy_seconds += wire
    peer = self.peer
    peer.stats.frames_received += 1
    peer.stats.payload_bytes_received += payload_bytes
    if METRICS.enabled:
        METRICS.inc("hw.nic.frames")
        METRICS.inc("hw.nic.payload_bytes", payload_bytes)
        METRICS.observe("hw.nic.frame_wire_s", wire)
    done = self.engine.event()
    self.engine.schedule_at(finish, done.succeed, wire)
    if on_delivered is not None:
        self.engine.schedule_at(finish + self.spec.link_latency_s,
                                on_delivered)
    return done


def vnic_transmit(self, payload_bytes, remote=None, on_delivered=None):
    """``VirtualNic.transmit``: emulate and forward one frame in its own
    process; the event succeeds at transmit-complete."""
    if payload_bytes <= 0:
        raise NetworkError(f"vnic frame of {payload_bytes} bytes")
    vm = self.vm
    engine = vm.engine
    done = SimEvent(engine)
    internal = remote is vm.host_kernel.net or (
        remote is not None and remote is vm.guest_net)
    engine.process(
        _vnic_service(self, payload_bytes, internal, on_delivered, done),
        self._process_name,
    )
    return done


def _vnic_service(vnic, payload_bytes, internal, on_delivered, done):
    """One frame through the VMM; failures go to the guest-side waiter."""
    vm = vnic.vm
    stats = vnic.stats
    cycles = vnic.mode.per_packet_cycles
    try:
        stats.frames += 1
        stats.payload_bytes += payload_bytes
        stats.emulation_cycles += cycles
        # device emulation / NAT proxy on the vCPU host thread
        yield vm.vcpu.charge_host_native(cycles, MIX_VMM_SERVICE)
        if internal:
            # the VMM injects the frame into the host/guest stack directly
            yield vm.engine.timeout(20e-6)
            if on_delivered is not None:
                on_delivered()
        else:
            yield vm.host_machine.nic.transmit(
                payload_bytes, on_delivered=on_delivered
            )
    except Exception as error:  # propagate to the guest-side waiter
        done.fail(error)
        return
    done.succeed(None)
