"""Pinned event schedules of both paper experiments.

``tests/data/trace_hash_{fig}_{fidelity}.json`` hold the trace-hash
snapshot and the figure digest of one figure, run serially:

* ``fig1`` (guest CPU) and ``fig5`` (host intrusiveness, NBench MEM) at
  fast fidelity — the same runs ``REPRO_FAST=1 repro audit FIG`` makes;
* ``fig4`` (NetBench through each virtual NIC) and ``fig7`` (host CPU
  under a background VM) at ``reps=1``.  These are the packet- and
  quantum-heavy figures; with the trace hash on, fig4 takes ~6 s at one
  repetition against ~20 s at fast fidelity's three, so one repetition
  keeps the suite short while still folding every dispatched event of
  every environment.

The snapshot folds every dispatched event's ``(time, seq, callback)``,
so it catches a change in event order or timing that leaves the figure
bytes alone.  The pins hold on the compiled event core and on its Python
oracle (``tests/_oracle_core.py``): ``fig4`` and ``fig7`` are also re-run
here in a fresh interpreter on the oracle, ``fig1`` and ``fig5`` in
``tests/property/test_prop_scheduler_passes.py``.  A deliberate model
change re-pins the files (see ``_pin`` below); a performance change must
leave them alone.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import RunConfig, RunRequest, run
from repro.audit import TRACE_HASH, compare_snapshots
from repro.audit.bisect import _figure_bytes
from tests._python_core import run_on_python_core

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = {
    "fast": RunConfig(fast=True, jobs=1, cache=False, metrics=False,
                      trace_hash=True),
    "reps1": RunConfig(reps=1, jobs=1, cache=False, metrics=False,
                       trace_hash=True),
}


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    yield
    TRACE_HASH.disable()
    TRACE_HASH.reset()


def _pin(fig_id, fidelity):
    """The pinned record of ``fig_id`` as the current code produces it."""
    result = run(RunRequest(kind="figure", target=fig_id,
                            config=CONFIGS[fidelity]))
    return {
        "figure": fig_id,
        "figure_sha256": hashlib.sha256(_figure_bytes(result)).hexdigest(),
        "trace_hash": result.trace_hash,
    }


#: Figure -> the fidelity it is pinned at.
PINNED = {"fig1": "fast", "fig4": "reps1", "fig5": "fast", "fig7": "reps1"}


@pytest.mark.parametrize("fig_id", sorted(PINNED))
def test_event_schedule_matches_pin(fig_id):
    fidelity = PINNED[fig_id]
    pinned = json.loads(
        (DATA / f"trace_hash_{fig_id}_{fidelity}.json").read_text())
    current = _pin(fig_id, fidelity)
    assert compare_snapshots(pinned["trace_hash"],
                             current["trace_hash"]) == []
    assert current == pinned


def test_python_core_matches_the_pins():
    """The packet- and quantum-heavy pins, on the Python oracle: the same
    figure bytes and trace-hash snapshots as the compiled core."""
    figures = ("fig4", "fig7")
    done = run_on_python_core(
        "import json\n"
        "from tests._python_core import on_oracle_core\n"
        "from tests.test_trace_hash_pins import _pin\n"
        "assert on_oracle_core()\n"
        f"print(json.dumps({{fig: _pin(fig, 'reps1') for fig in {figures!r}}}))\n")
    assert done.returncode == 0, done.stderr[-4000:]
    twin = json.loads(done.stdout.strip().splitlines()[-1])
    for fig_id in figures:
        pinned = json.loads(
            (DATA / f"trace_hash_{fig_id}_reps1.json").read_text())
        assert compare_snapshots(pinned["trace_hash"],
                                 twin[fig_id]["trace_hash"]) == []
        assert twin[fig_id] == pinned
