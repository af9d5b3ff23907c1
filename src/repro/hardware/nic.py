"""Ethernet NIC model: a serialising transmit path at line rate.

Frames are transmitted back-to-back at the wire rate; each frame carries
``mtu_payload_bytes`` of payload plus fixed overhead.  The NIC exposes
``transmit`` (queue a payload, get a completion event) and accounting for
achieved payload throughput — which is what iperf/NetBench report.

Receive-side processing costs live in the OS network stack, not here; the
wire itself is full duplex so two NICs connected by a :class:`Link` do not
contend with each other's traffic.

:meth:`Nic.transmit` is the event core extension's (``osmodel/_frames.c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NetworkError
from repro.hardware.specs import NicSpec
from repro.simcore.engine import Engine
from repro.simcore.events import CORE


@dataclass
class NicStats:
    frames_sent: int = 0
    frames_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    busy_seconds: float = 0.0


class Nic:
    """One NIC port.  Transmission serialises on the wire.

    ``serialize_tx`` is False: a real NIC has deep descriptor rings, so
    the host stack pipelines CPU work with wire time (virtual NICs say
    True — see :mod:`repro.osmodel.netstack`).
    """

    serialize_tx = False

    def __init__(self, engine: Engine, spec: NicSpec, name: Optional[str] = None):
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.stats = NicStats()
        self._tx_busy_until = 0.0
        self.peer: Optional["Nic"] = None

    @property
    def mtu_payload_bytes(self) -> int:
        return self.spec.mtu_payload_bytes

    def connect(self, peer: "Nic") -> None:
        """Point-to-point link (the 100 Mbps LAN segment of the paper)."""
        self.peer = peer
        peer.peer = self

    def frame_time(self, payload_bytes: int) -> float:
        """Wire time for one frame carrying ``payload_bytes``."""
        if payload_bytes <= 0:
            raise NetworkError(f"frame payload must be positive, got {payload_bytes}")
        if payload_bytes > self.spec.mtu_payload_bytes:
            raise NetworkError(
                f"payload {payload_bytes} exceeds MTU {self.spec.mtu_payload_bytes}"
            )
        return (payload_bytes + self.spec.frame_overhead_bytes) / self.spec.line_rate_bps

    #: ``transmit(payload_bytes, remote=None, on_delivered=None)``:
    #: queue one frame.  The returned event succeeds when the frame has
    #: fully *left the wire* (transmit-complete — what gates the sender's
    #: next frame); ``on_delivered`` fires one link latency later, when
    #: the frame reaches the peer.  ``remote`` is a routing hint used by
    #: virtual NICs; a physical NIC ignores it.  Compiled in the event
    #: core (``osmodel/_frames.c``): the frame arithmetic of
    #: :meth:`frame_time`, the stats, the ``hw.nic.*`` metrics and both
    #: schedules.
    transmit = CORE.nic_transmit

    def achieved_mbps(self, elapsed: float) -> float:
        """Payload throughput in Mbps over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.stats.payload_bytes_sent * 8.0 / 1e6 / elapsed
