"""Cold start: each command loads only the stack it runs.

Every check runs in a fresh interpreter, so what it sees is the import
graph a ``repro`` process pays for before (and while) doing its work.
The fleet entry points must not load the paper-figure stack (figure
generators, workloads, VM and OS models) or the audit linter; a fleet
run must not load them either, so the saving is not moved into the run.
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


def _loaded_after(code: str, tmp_path) -> list:
    """The ``repro`` modules loaded once ``code`` has run."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(name for name in sys.modules\n"
              "                        if name.startswith('repro'))))\n")
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
