"""Virtual NIC: per-packet device emulation in front of the host NIC.

Unlike a physical NIC's deep DMA rings, 2008-era emulated NICs copy every
frame through the VMM (and, in NAT modes, through a user-space address
translation proxy).  Consequences modelled here:

* ``serialize_tx = True`` — the guest's send path waits out each frame
  (emulation cost is *additive* with wire time), which is exactly why the
  paper's Figure 4 shows per-VMM throughputs far below wire rate;
* per-packet emulation cycles (mode-dependent) are charged on the vCPU
  host thread before the frame reaches the host NIC.

With the compiled event core, :meth:`VirtualNic.transmit` and the
per-frame service are the extension's (``osmodel/_frames.c``): the same
one process per frame, named as here, with the same events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import NetworkError
from repro.hardware.cpu import MIX_VMM_SERVICE
from repro.simcore.events import CORE, EVENT_CORE, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.profiles import NetMode
    from repro.virt.vm import VirtualMachine


@dataclass
class VNicStats:
    frames: int = 0
    payload_bytes: int = 0
    emulation_cycles: float = 0.0


class VirtualNic:
    """NIC-like device for the guest network stack."""

    serialize_tx = True

    def __init__(self, vm: "VirtualMachine", mode: "NetMode"):
        self.vm = vm
        self.mode = mode
        self.stats = VNicStats()
        self._process_name = f"{vm.name}.vnic"

    @property
    def mtu_payload_bytes(self) -> int:
        return self.vm.host_machine.nic.mtu_payload_bytes

    def transmit(self, payload_bytes: int, remote=None,
                 on_delivered=None) -> SimEvent:
        """Emulate + forward one frame; event succeeds at tx-complete.

        ``remote`` (the destination NetStack) decides routing: traffic to
        the *host itself* (e.g. the UDP time-server queries the paper
        uses) — or into this guest — is injected through the VMM without
        touching the wire; everything else exits the physical NIC.
        """
        if payload_bytes <= 0:
            raise NetworkError(f"vnic frame of {payload_bytes} bytes")
        vm = self.vm
        engine = vm.engine
        done = SimEvent(engine)
        internal = remote is vm.host_kernel.net or (
            remote is not None and remote is vm.guest_net)
        engine.process(
            self._service(payload_bytes, internal, on_delivered, done),
            self._process_name,
        )
        return done

    def _service(self, payload_bytes: int, internal: bool, on_delivered,
                 done: SimEvent):
        """One frame through the VMM; failures go to the guest-side waiter."""
        vm = self.vm
        stats = self.stats
        cycles = self.mode.per_packet_cycles
        try:
            stats.frames += 1
            stats.payload_bytes += payload_bytes
            stats.emulation_cycles += cycles
            # device emulation / NAT proxy on the vCPU host thread
            yield vm.vcpu.charge_host_native(cycles, MIX_VMM_SERVICE)
            if internal:
                # VMM injects the frame into the host/guest stack directly
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

    if EVENT_CORE == "compiled":
        # transmit and a compiled twin of _service (osmodel/_frames.c)
        transmit = CORE.vnic_transmit  # noqa: F811
