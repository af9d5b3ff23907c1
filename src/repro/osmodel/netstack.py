"""Network stack model: TCP-ish streams and UDP datagrams over NIC devices.

Fidelity choices (documented, deliberate):

* A stream transfer is segmented at the device MTU.  The sender charges
  per-packet kernel cycles, then hands the frame to the device.
* Real NICs have deep rings, so the host stack *pipelines*: CPU cost
  overlaps wire time and throughput is wire-limited (native iperf hits
  97.6 Mbps).  Emulated virtual NICs copy each frame through the VMM, so
  a device can declare ``serialize_tx = True`` and the sender then waits
  out each frame before the next — making per-packet CPU *additive* with
  wire time.  This additive-vs-pipelined distinction is the entire story
  of the paper's Figure 4.
* No loss, congestion or retransmission: the testbed is an idle switched
  100 Mbps LAN where none of those occur at measurable rates.

The per-frame loops of :meth:`TcpSocket.send` and :meth:`TcpSocket.recv`
run in the event core extension (``osmodel/_frames.c``): both methods
check their arguments, read the stream's constants and return the
compiled loop, which ``yield from`` drives as it drives a generator.
Each frame charges the stack's ``charge`` callable, hands the frame to
``device.transmit`` and, one delivery later, calls the peer's
:meth:`TcpSocket._deliver` (or does its work in place).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.errors import NetworkError
from repro.hardware.cpu import MIX_KERNEL
from repro.osmodel.kernel import ChargeFn, CostKind, KernelParams
from repro.osmodel.threads import SimThread
from repro.simcore.engine import Engine
from repro.simcore.events import CORE, SimEvent
from repro.simcore.resources import Store


class LoopbackDevice:
    """Intra-machine transfers: no wire, tiny latency, never serialises."""

    serialize_tx = False
    mtu_payload_bytes = 16 * 1024

    def __init__(self, engine: Engine, latency_s: float = 10e-6):
        self.engine = engine
        self.latency_s = latency_s

    def transmit(self, payload_bytes: int, remote=None,
                 on_delivered=None) -> SimEvent:
        del payload_bytes, remote
        done = self.engine.event()
        self.engine.schedule(self.latency_s, done.succeed, None)
        if on_delivered is not None:
            self.engine.schedule(self.latency_s, on_delivered)
        return done


@dataclass
class NetStats:
    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    connections: int = 0


class TcpSocket:
    """One end of an established stream."""

    def __init__(self, stack: "NetStack", device, name: str):
        self.stack = stack
        self.device = device
        self.name = name
        self.peer: Optional["TcpSocket"] = None
        self.rx = Store(stack.engine, name=f"{name}.rx")
        self.closed = False

    # -- data path -----------------------------------------------------------

    def send(self, thread: SimThread, nbytes: int):
        """Send ``nbytes``; returns when the last byte has left the wire."""
        if self.closed or self.peer is None:
            raise NetworkError(f"send on closed socket {self.name!r}")
        if nbytes <= 0:
            raise NetworkError(f"send size must be positive, got {nbytes}")
        # The device, its flags and the destination are fixed for the
        # stream: read them once, not once per frame.
        stack = self.stack
        device = self.device
        return CORE.SendFrames(
            thread, nbytes, stack.charge,
            stack.params.net_send_per_packet_cycles, MIX_KERNEL,
            CostKind.KERNEL_CONTROL, device.transmit,
            device.mtu_payload_bytes,
            getattr(device, "serialize_tx", False), self.peer,
            stack.stats)

    def _deliver(self, payload: int) -> None:
        self.rx.put(payload)
        self.stack.stats.packets_received += 1
        self.stack.stats.bytes_received += payload

    def recv(self, thread: SimThread, nbytes: int):
        """Receive until ``nbytes`` have arrived; returns the byte count."""
        if nbytes <= 0:
            raise NetworkError(f"recv size must be positive, got {nbytes}")
        stack = self.stack
        return CORE.RecvFrames(
            thread, nbytes, self.rx, stack.charge,
            stack.params.net_recv_per_packet_cycles, MIX_KERNEL,
            CostKind.KERNEL_CONTROL)

    def close(self) -> None:
        self.closed = True
        if self.peer is not None:
            self.peer.closed = True


class UdpSocket:
    """Datagram socket; payloads are opaque Python objects plus a size."""

    def __init__(self, stack: "NetStack", port: int):
        self.stack = stack
        self.port = port
        self.rx = Store(stack.engine, name=f"udp:{port}.rx")

    def sendto(self, thread: SimThread, remote: "NetStack", port: int,
               payload: Any, nbytes: int = 64) -> Generator:
        device = self.stack.device_for(remote)
        yield self.stack.charge(
            thread, self.stack.params.net_send_per_packet_cycles,
            MIX_KERNEL, CostKind.KERNEL_CONTROL,
        )
        source = self.stack
        ev = device.transmit(
            min(nbytes, device.mtu_payload_bytes), remote=remote,
            on_delivered=lambda: remote._udp_deliver(port, payload, source),
        )
        if getattr(device, "serialize_tx", False):
            yield ev
        self.stack.stats.packets_sent += 1
        self.stack.stats.bytes_sent += nbytes

    def recvfrom(self, thread: SimThread) -> Generator:
        """Blocks for one datagram; returns ``(payload, source_stack)``."""
        message = yield self.rx.get()
        yield self.stack.charge(
            thread, self.stack.params.net_recv_per_packet_cycles,
            MIX_KERNEL, CostKind.KERNEL_CONTROL,
        )
        self.stack.stats.packets_received += 1
        return message


class NetStack:
    """One machine's (or one guest's) network stack."""

    def __init__(self, engine: Engine, params: KernelParams, nic,
                 charge: ChargeFn, hostname: str = "host"):
        self.engine = engine
        self.params = params
        self.nic = nic
        self.charge = charge
        self.hostname = hostname
        self.loopback = LoopbackDevice(engine)
        self.stats = NetStats()
        self._listeners: Dict[int, Store] = {}
        self._udp_ports: Dict[int, UdpSocket] = {}
        self._socket_seq = 0
        # Keyed by the remote stack object (identity hash), which the
        # route keeps alive, so no later stack can inherit its route.
        self._routes: Dict["NetStack", Any] = {}

    # -- device selection ------------------------------------------------

    def register_route(self, remote: "NetStack", device) -> None:
        """Route traffic for ``remote`` through ``device`` instead of the
        NIC.  Used by VMs: a guest stack is reached *through the VMM*,
        not over the physical wire."""
        self._routes[remote] = device

    def device_for(self, remote: "NetStack"):
        if remote is self:
            return self.loopback
        return self._routes.get(remote, self.nic)

    # -- TCP ---------------------------------------------------------------

    def listen(self, port: int) -> Store:
        """Returns the accept queue; ``yield queue.get()`` accepts a socket."""
        if port in self._listeners:
            raise NetworkError(f"port {port} already listening on {self.hostname}")
        queue = Store(self.engine, name=f"{self.hostname}:listen:{port}")
        self._listeners[port] = queue
        return queue

    def connect(self, thread: SimThread, remote: "NetStack",
                port: int) -> Generator:
        """Three-way-handshake-shaped connect; returns the client socket."""
        accept_queue = remote._listeners.get(port)
        if accept_queue is None:
            raise NetworkError(
                f"connection refused: {remote.hostname}:{port} not listening"
            )
        yield self.charge(thread, self.params.syscall_cycles, MIX_KERNEL,
                          CostKind.KERNEL_CONTROL)
        device = self.device_for(remote)
        # SYN / SYN-ACK: two small frames end to end.
        for _ in range(2):
            yield device.transmit(64, remote=remote)
        self._socket_seq += 1
        name = f"{self.hostname}:conn{self._socket_seq}"
        client = TcpSocket(self, device, name + ".client")
        server = TcpSocket(remote, remote.device_for(self), name + ".server")
        client.peer = server
        server.peer = client
        self.stats.connections += 1
        accept_queue.put(server)
        return client

    # -- UDP ---------------------------------------------------------------

    def udp_socket(self, port: int) -> UdpSocket:
        if port in self._udp_ports:
            raise NetworkError(f"UDP port {port} in use on {self.hostname}")
        sock = UdpSocket(self, port)
        self._udp_ports[port] = sock
        return sock

    def _udp_deliver(self, port: int, payload: Any, source: "NetStack") -> None:
        sock = self._udp_ports.get(port)
        if sock is not None:  # silently drop to closed ports, like real UDP
            sock.rx.put((payload, source))
