"""Memory budget of a clean fleet run, in multiples of its own state.

A 20k-host clean fleet runs under :mod:`tracemalloc`.  The kernel loop's
traced peak and the report's traced peak above what it starts with are
held to fixed multiples of the state the loop returns (the ``nbytes`` of
its arrays).  Every term grows linearly with the fleet, so the ratios
hold at any size: a buffer the loop allocates without reading, or a
report temporary that lives past its block, shows here first.

The budgets are the measured ratios plus 10% headroom: 1.80x for the
loop (the kernel's working set beside the state: host records, heap,
the replica chain, copy-on-grow slack) and 0.59x for the report (one
sort key per ok return, one fold block, a few per-host arrays).
"""

import tracemalloc

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetServer, build_fleet_columns
from repro.fleet.cloop import run_event_loop

LOOP_BUDGET = 2.0
REPORT_BUDGET = 0.66


@pytest.fixture(scope="module")
def traced_run():
    """``(state bytes, loop peak, report extra peak)`` of one run."""
    config = FleetConfig(hosts=20_000, hypervisor="vmplayer",
                         duration_s=86400.0)
    server = FleetServer(config, build_fleet_columns(config))
    prep = server._fast_prep()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state = run_event_loop(prep)
        loop_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        server._fast_report(prep, state)
        report_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = sum(value.nbytes for value in state.values()
               if isinstance(value, np.ndarray))
    return size, loop_peak, report_peak


def test_kernel_loop_peak_within_budget(traced_run):
    size, loop_peak, _ = traced_run
    assert loop_peak <= LOOP_BUDGET * size, (
        f"loop peak {loop_peak / size:.2f}x the state")


def test_report_extra_peak_within_budget(traced_run):
    size, _, report_peak = traced_run
    assert report_peak <= REPORT_BUDGET * size, (
        f"report peak {report_peak / size:.2f}x the state")
