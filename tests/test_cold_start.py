"""Cold start: each command loads only the stack it runs.

Every check runs in a fresh interpreter, so what it sees is the import
graph a ``repro`` process pays for before (and while) doing its work.
The fleet entry points must not load the paper-figure stack (figure
generators, workloads, VM and OS models) or the audit linter; a fleet
run must not load them either, so the saving is not moved into the run.
A serial figure run must not load the process-pool stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules (or packages, with everything under them) a fleet-only
#: process has no use for.
HEAVY = ("repro.core.figures", "repro.workloads", "repro.virt.vm",
         "repro.osmodel", "repro.audit.linter")


#: What only a worker pool needs: ``multiprocessing`` and the executor
#: with its futures (``socket``, ``subprocess`` come with them).
POOL_STACK = ("multiprocessing", "concurrent.futures", "socket",
              "subprocess", "repro.core.workerpool")


def _loaded_after(code: str, tmp_path, prefix: str = "repro") -> list:
    """The modules under ``prefix`` (all with ``""``) loaded once
    ``code`` has run."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(name for name in sys.modules\n"
              f"                        if name.startswith({prefix!r}))))\n")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _heavy(modules: list) -> list:
    return [name for name in modules
            if any(name == heavy or name.startswith(heavy + ".")
                   for heavy in HEAVY)]


@pytest.mark.parametrize("module", ["repro.cli", "repro.fleet.server",
                                    "repro.fleet.cloop"])
def test_entry_point_imports_no_heavy_stack(module, tmp_path):
    loaded = _loaded_after(f"import {module}", tmp_path)
    assert module in loaded
    assert _heavy(loaded) == []


def test_fleet_run_imports_no_heavy_stack(tmp_path):
    code = (
        "from repro.api import RunConfig, RunRequest, run\n"
        "from repro.fleet.config import FleetConfig\n"
        "config = RunConfig(cache=False, metrics=False,\n"
        "                   runs_dir='runs', cache_dir='cache')\n"
        "result = run(RunRequest(kind='fleet', config=config,\n"
        "    target=FleetConfig(hosts=200, duration_s=21600.0)))\n"
        "assert result.report.valid > 0\n"
    )
    loaded = _loaded_after(code, tmp_path)
    assert "repro.fleet.server" in loaded
    assert _heavy(loaded) == []


def test_serial_figure_run_loads_no_process_pool(tmp_path):
    from repro import ckernel

    # The compiled module is built once per machine (through
    # ``subprocess``); every later process finds it cached, as here.
    ckernel.compile_extension()
    code = (
        "from repro.core.experiment import repeat\n"
        "from repro.core.host_impact import (HostImpactConfig,\n"
        "                                    NBenchImpactMeasure)\n"
        "from repro.workloads.nbench import IndexGroup\n"
        "measure = NBenchImpactMeasure(HostImpactConfig(environment='qemu'),\n"
        "                              IndexGroup.MEM)\n"
        "result = repeat(measure, reps=1, jobs=1)\n"
        "assert result.raw\n"
    )
    loaded = _loaded_after(code, tmp_path, prefix="")
    assert "repro.core.parallel" in loaded
    assert [name for name in loaded
            if any(name == pool or name.startswith(pool + ".")
                   for pool in POOL_STACK)] == []
    assert "repro.simcore._ccore" in loaded
