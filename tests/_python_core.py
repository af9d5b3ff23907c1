"""Run code or a test suite on the pure-Python event core.

The engine's event core is chosen once, when ``repro.simcore.events``
is imported: the compiled extension when it builds and loads, else the
Python twin (``repro.simcore._pycore``).  A test process therefore runs
the default core only; these helpers run the twin in a fresh
interpreter under ``REPRO_NO_CLOOP=1`` (which also selects the OS
scheduler's Python decision pass), so a suite can hold both cores to
the same checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(repro.__file__).resolve().parents[1])


def _env() -> dict:
    return dict(os.environ, REPRO_NO_CLOOP="1", PYTHONPATH=SRC)


def run_on_python_core(code: str, timeout: float = 900
                       ) -> subprocess.CompletedProcess:
    """Run ``python -c code`` from the repo root on the Python core."""
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)


class PythonCoreWorker:
    """A function of a test module, served by one interpreter on the
    Python core: each :meth:`call` sends one JSON argument and returns
    the function's JSON result, so a property test can hold many
    examples to the twin without starting an interpreter per example."""

    def __init__(self, module: str, function: str):
        code = ("import json, sys\n"
                "from repro.simcore.events import EVENT_CORE\n"
                "assert EVENT_CORE == 'python', EVENT_CORE\n"
                f"from {module} import {function} as fn\n"
                "for line in sys.stdin:\n"
                "    print(json.dumps(fn(json.loads(line))), flush=True)\n")
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, argument):
        self._proc.stdin.write(json.dumps(argument) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        assert line, "the Python-core worker exited"
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def pytest_on_python_core(*targets: str) -> None:
    """Run the pytest ``targets`` on the Python core; fail on a failure."""
    code = ("import sys\n"
            "import pytest\n"
            "from repro.simcore.events import EVENT_CORE\n"
            "assert EVENT_CORE == 'python', EVENT_CORE\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
            f"*{targets!r}]))\n")
    done = run_on_python_core(code)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
