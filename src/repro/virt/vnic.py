"""Virtual NIC: per-packet device emulation in front of the host NIC.

Unlike a physical NIC's deep DMA rings, 2008-era emulated NICs copy every
frame through the VMM (and, in NAT modes, through a user-space address
translation proxy).  Consequences modelled here:

* ``serialize_tx = True`` — the guest's send path waits out each frame
  (emulation cost is *additive* with wire time), which is exactly why the
  paper's Figure 4 shows per-VMM throughputs far below wire rate;
* per-packet emulation cycles (mode-dependent) are charged on the vCPU
  host thread before the frame reaches the host NIC.

:meth:`VirtualNic.transmit` and the per-frame service are the event core
extension's (``osmodel/_frames.c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.simcore.events import CORE

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

    #: ``transmit(payload_bytes, remote=None, on_delivered=None)``:
    #: emulate and forward one frame; the returned event succeeds at
    #: transmit-complete.  ``remote`` (the destination NetStack) decides
    #: routing: traffic to the *host itself* (e.g. the UDP time-server
    #: queries the paper uses) — or into this guest — is injected
    #: through the VMM without touching the wire; everything else exits
    #: the physical NIC.  Each frame runs in its own process named
    #: ``<vm>.vnic``, which charges the mode's emulation cycles on the
    #: vCPU host thread (``vcpu.charge_host_native``); a failure fails
    #: the returned event.  Compiled in the event core
    #: (``osmodel/_frames.c``).
    transmit = CORE.vnic_transmit
