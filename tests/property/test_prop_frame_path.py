"""Property test: the compiled frame path is a pure re-encoding of its Python oracle.

Each example draws one stream world: a device (loopback, the physical
NIC, a bridged or a NAT vNIC, or a vNIC's internal path from the guest
to the host stack or from the host into the guest), a hypervisor
profile for the vNIC worlds, a few message sizes (often not a multiple
of the MTU), optional UDP time queries through the vNIC, an optional
failing charge inside the vNIC's per-frame service (raised by the
charge, or as a failed completion thrown into the service), and
metrics on or off.  The world runs on the compiled event core in this
process and on the oracle core (``tests/_oracle_core.py``) in a worker
interpreter (:class:`tests._python_core.PythonCoreWorker`).  The dispatch list
(time, seq and trace-hash name of every fired callback), the outcome,
the clock, every ``NicStats``/``VNicStats``/``NetStats`` field and the
deterministic metrics must be identical (``==``).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit.tracehash import _event_name
from repro.core.testbed import (
    boot_vm,
    build_host_testbed,
    build_native_testbed,
    guest_time_client,
)
from repro.errors import VirtualizationError
from repro.obs.metrics import METRICS
from repro.osmodel.threads import PRIORITY_NORMAL
from repro.simcore.events import SimEvent
from repro.virt.vm import VmConfig
from tests._python_core import PythonCoreWorker

DEVICES = ("loopback", "nic", "bridged", "nat", "vnic_host", "vnic_guest")
VNIC_DEVICES = DEVICES[2:]
#: (profile, net mode) of the NAT-style modes, one per hypervisor
NAT_MODES = (("vmplayer", "nat"), ("qemu", "user"), ("virtualbox", "nat"),
             ("virtualpc", "shared"))
PROFILES = ("vmplayer", "qemu", "virtualbox", "virtualpc")
PORT = 5001

sizes = st.lists(st.one_of(st.integers(1, 6000),
                           st.sampled_from([1460, 2920, 16384, 16385])),
                 min_size=1, max_size=3)

scenarios = st.fixed_dictionaries({
    "device": st.sampled_from(DEVICES),
    "seed": st.integers(0, 50),
    "sizes": sizes,
    "nat": st.sampled_from(NAT_MODES),
    "profile": st.sampled_from(PROFILES),
    "udp": st.booleans(),
    "fail": st.one_of(st.none(), st.tuples(st.sampled_from(["raise", "event"]),
                                           st.integers(1, 12))),
    "metrics": st.booleans(),
})


class _Dispatches:
    """An engine's trace-hash stream that keeps every dispatch."""

    def __init__(self):
        self.events = []

    def update(self, when, seq, fn):
        self.events.append([when, seq, _event_name(fn)])


def _inject_failure(vm, engine, how, at):
    """Make the ``at``-th emulation charge of the vNIC's service fail."""
    real = vm.vcpu.charge_host_native
    calls = [0]

    def charge_host_native(cycles, mix):
        calls[0] += 1
        if calls[0] != at:
            return real(cycles, mix)
        error = VirtualizationError(f"injected charge failure #{at}")
        if how == "raise":
            raise error
        failed = SimEvent(engine)
        engine.schedule(1e-6, failed.fail, error)
        return failed

    vm.vcpu.charge_host_native = charge_host_native


def _stats(obj):
    return dataclasses.asdict(obj.stats)


def run_world(scenario):
    """Run one stream world; its dispatches, outcome and counters."""
    device = scenario["device"]
    native = device in ("loopback", "nic")
    build = build_native_testbed if native else build_host_testbed
    testbed = build(scenario["seed"])
    engine = testbed.engine
    dispatches = _Dispatches()
    engine._thash = dispatches
    if scenario["metrics"]:
        METRICS.enable()
    kernel, peer = testbed.kernel, testbed.peer_kernel
    world = {}

    def receiver(queue, thread, total):
        sock = yield queue.get()
        got = yield from sock.recv(thread, total)
        return got

    def main():
        client = None
        if native:
            src = (kernel.net, kernel.spawn_thread("sender", PRIORITY_NORMAL))
            dst_kernel = kernel if device == "loopback" else peer
            dst = (dst_kernel.net,
                   dst_kernel.spawn_thread("receiver", PRIORITY_NORMAL))
        else:
            profile, mode = {"bridged": ("vmplayer", "bridged"),
                             "nat": tuple(scenario["nat"])}.get(
                                 device, (scenario["profile"], None))
            vm = yield from boot_vm(testbed, profile, VmConfig(
                priority=PRIORITY_NORMAL, net_mode=mode))
            world["vm"] = vm
            if scenario["fail"] is not None:
                _inject_failure(vm, engine, *scenario["fail"])
            guest = (vm.guest_net, vm.vcpu.thread)
            host = (kernel.net, kernel.spawn_thread("host", PRIORITY_NORMAL))
            src, dst = {"vnic_guest": (host, guest),
                        "vnic_host": (guest, host)}.get(
                            device, (guest, (peer.net, peer.spawn_thread(
                                "receiver", PRIORITY_NORMAL))))
            if scenario["udp"]:
                client = guest_time_client(testbed, vm)
        # the guest is one vCPU thread: its UDP queries go before and
        # after the stream, never beside a guest-side receiver
        if client is not None:
            yield from client.query()
        total = sum(scenario["sizes"])
        done = engine.process(
            receiver(dst[0].listen(PORT), dst[1], total), "receiver")
        sock = yield from src[0].connect(src[1], dst[0], PORT)
        for size in scenario["sizes"]:
            yield from sock.send(src[1], size)
        sock.close()
        got = yield done
        if client is not None:
            yield from client.query()
        return got

    proc = engine.process(main(), "main")
    try:
        outcome = ["ok", engine.run_until_event(proc, limit=120.0)]
    except Exception as error:  # the failure is part of what is compared
        outcome = ["error", type(error).__name__, str(error)]
    finally:
        METRICS.disable()
    stats = {"nic": _stats(testbed.machine.nic),
             "net": dataclasses.asdict(kernel.net.stats)}
    if peer is not None:
        stats["peer_nic"] = _stats(testbed.peer_machine.nic)
        stats["peer_net"] = dataclasses.asdict(peer.net.stats)
    if "vm" in world:
        stats["vnic"] = _stats(world["vm"].vnic)
        stats["guest_net"] = dataclasses.asdict(world["vm"].guest_net.stats)
    metrics = {}
    if scenario["metrics"]:
        # wall-clock instruments differ run to run; the rest must not
        metrics = {
            "counters": {k: v for k, v in METRICS.counters.items()
                         if not k.startswith("engine.")},
            "timers": {k: v for k, v in METRICS.timers.items()
                       if not k.startswith("engine.")},
        }
    METRICS.reset()
    # through JSON: plain lists and dicts, whichever core ran
    return json.loads(json.dumps({
        "outcome": outcome, "now": engine.now,
        "processed": engine.events_processed,
        "dispatches": dispatches.events, "stats": stats,
        "metrics": metrics}))


@pytest.fixture(scope="module")
def python_core():
    worker = PythonCoreWorker("tests.property.test_prop_frame_path",
                              "run_world")
    yield worker
    worker.close()


@settings(max_examples=30, deadline=None)
@given(scenarios)
def test_compiled_frame_path_matches_the_python_core(python_core, scenario):
    compiled = run_world(scenario)
    assert compiled["processed"] > 0
    assert compiled == python_core.call(scenario)


@pytest.mark.parametrize("device", DEVICES)
def test_every_device_streams_through_the_compiled_path(python_core,
                                                         device):
    """One fixed stream per device (MTU remainder, UDP, metrics on), so
    each path is covered whatever the draws.  Into the guest, the
    guest's receive charges and the vNIC's emulation charges share the
    one vCPU thread and take turns on it."""
    sizes = [4000, 1460]
    scenario = {"device": device, "seed": 7, "sizes": sizes,
                "nat": ["vmplayer", "nat"], "profile": "qemu",
                "udp": device in VNIC_DEVICES, "fail": None,
                "metrics": True}
    compiled = run_world(scenario)
    assert compiled["outcome"] == ["ok", sum(sizes)]
    assert compiled == python_core.call(scenario)


@pytest.mark.parametrize("how", ["raise", "event"])
def test_a_failing_service_charge_fails_the_sender(python_core, how):
    scenario = {"device": "bridged", "seed": 3, "sizes": [9000],
                "nat": ["vmplayer", "nat"], "profile": "vmplayer",
                "udp": False, "fail": [how, 4], "metrics": False}
    compiled = run_world(scenario)
    assert compiled["outcome"] == [
        "error", "VirtualizationError", "injected charge failure #4"]
    assert compiled == python_core.call(scenario)
