"""The event core leaks nothing: repeated figure repetitions stay flat.

A reference the compiled core (``simcore/_ccore.c``) forgets to drop
(a missed ``Py_DECREF``) or a cycle it hides from the collector (a
missing ``tp_traverse`` slot) leaves objects behind every repetition:
Fig 4's NetBench dispatches ~44k events and starts thousands of
processes per repetition, so even one lost object per event or process
shows as thousands of blocks.  Each Fig 4 environment takes its own
packet path through the compiled frame path (``osmodel/_frames.c``):
native sends over the physical NIC, the guests through the bridged or
NAT vNIC, whose per-frame service runs in a process of its own; every
frame makes a sender step, a delivery and a receiver step.  A Fig 7
repetition (host 7z beside a VM) makes ~2.6k submits and ~5.6k decision
passes, whose completions and tick handles the compiled scheduler
(``osmodel/_sched.c``) holds.
"""

import gc
import sys

import pytest

from repro.core.figures import _netbench_factory
from repro.core.guest_perf import EnvironmentMeasure
from repro.core.host_impact import HostImpactConfig, SevenZipImpactMeasure

#: Blocks a repetition may leave behind: interpreter caches settle to a
#: few blocks; a leak per event or per process is thousands.
TOLERANCE_BLOCKS = 64


def _grown_blocks(measure) -> int:
    """Blocks left behind by four repetitions after a warm-up one."""
    measure(1)  # warm-up: imports, interned names, first-use caches
    gc.collect()
    before = sys.getallocatedblocks()
    for seed in range(2, 6):
        measure(seed)
    gc.collect()
    return sys.getallocatedblocks() - before


def test_fig4_repetitions_leave_allocated_blocks_flat():
    grown = _grown_blocks(EnvironmentMeasure("qemu", _netbench_factory,
                                             "mbps"))
    assert grown < TOLERANCE_BLOCKS, f"{grown} blocks left by 4 repetitions"


@pytest.mark.parametrize("env", ["native", "vmplayer:bridged",
                                 "vmplayer:nat"])
def test_fig4_packet_paths_leave_allocated_blocks_flat(env):
    """The physical NIC, and the bridged and NAT vNIC services."""
    grown = _grown_blocks(EnvironmentMeasure(env, _netbench_factory, "mbps"))
    assert grown < TOLERANCE_BLOCKS, f"{grown} blocks left by 4 repetitions"


def test_fig7_repetitions_leave_allocated_blocks_flat():
    grown = _grown_blocks(SevenZipImpactMeasure(
        HostImpactConfig(environment="vmplayer"), threads=2))
    assert grown < TOLERANCE_BLOCKS, f"{grown} blocks left by 4 repetitions"


def test_cancelled_and_fired_handles_release_their_callbacks():
    """A handle's callback and arguments are freed once it fires or is
    cancelled, while the engine (and the heap entry) lives on."""
    from repro.simcore.engine import Engine

    class Payload:
        pass

    engine = Engine()
    fired = Payload()
    cancelled = Payload()
    refs_fired = sys.getrefcount(fired)
    refs_cancelled = sys.getrefcount(cancelled)
    engine.schedule(1.0, lambda p: None, fired)
    handle = engine.schedule(2.0, lambda p: None, cancelled)
    engine.schedule(3.0, lambda: None)
    handle.cancel()
    assert sys.getrefcount(cancelled) == refs_cancelled
    event = engine.timeout(1.5)
    engine.run_until_event(event)
    assert sys.getrefcount(fired) == refs_fired
