"""Pinned event schedules of both paper experiments.

``tests/data/trace_hash_fig{1,5}_fast.json`` hold the trace-hash
snapshot and the figure digest of ``fig1`` (guest performance) and
``fig5`` (host intrusiveness) at fast fidelity, run serially — the same
runs ``REPRO_FAST=1 repro audit FIG`` makes.  The snapshot folds every
dispatched event's ``(time, seq, callback)``, so it catches a change in
event order or timing that leaves the figure bytes alone.  A
deliberate model change re-pins both files (see ``_pin`` below).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import RunConfig, RunRequest, run
from repro.audit import TRACE_HASH, compare_snapshots
from repro.audit.bisect import _figure_bytes

DATA = Path(__file__).resolve().parent / "data"
CONFIG = RunConfig(fast=True, jobs=1, cache=False, metrics=False,
                   trace_hash=True)


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    yield
    TRACE_HASH.disable()
    TRACE_HASH.reset()


def _pin(fig_id):
    """The pinned record of ``fig_id`` as the current code produces it."""
    result = run(RunRequest(kind="figure", target=fig_id, config=CONFIG))
    return {
        "figure": fig_id,
        "figure_sha256": hashlib.sha256(_figure_bytes(result)).hexdigest(),
        "trace_hash": result.trace_hash,
    }


@pytest.mark.parametrize("fig_id", ["fig1", "fig5"])
def test_event_schedule_matches_pin(fig_id):
    pinned = json.loads((DATA / f"trace_hash_{fig_id}_fast.json").read_text())
    current = _pin(fig_id)
    assert compare_snapshots(pinned["trace_hash"],
                             current["trace_hash"]) == []
    assert current == pinned
