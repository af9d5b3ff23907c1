"""Run code or a test suite on the Python oracle of the event core.

The engine's event core is chosen once, when ``repro.simcore.events``
is imported: :func:`repro.ckernel.event_core` builds and loads the
compiled extension.  A test process therefore runs the compiled core
only; these helpers run the oracle (:mod:`tests._oracle_core`, with the
scheduler's Python pass of :mod:`tests._oracle_pass` and the Python
frame path) in a fresh interpreter, installed by
:func:`install_oracle_core` before anything imports the core, so a suite
can hold both cores to the same checks.
"""

import base64
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(repro.__file__).resolve().parents[1])

#: The first lines of every oracle interpreter's program.
PREAMBLE = ("from tests._python_core import install_oracle_core\n"
            "install_oracle_core()\n")


def install_oracle_core() -> None:
    """Make :mod:`tests._oracle_core` this interpreter's event core.

    Must run before ``repro.simcore.events`` is imported: the engine,
    process, scheduler and device classes subclass or bind the core at
    import time.
    """
    from repro import ckernel

    assert "repro.simcore.events" not in sys.modules, \
        "the event core is already chosen"
    from tests import _oracle_core

    ckernel._ext = _oracle_core


def on_oracle_core() -> bool:
    """Whether this interpreter runs the oracle core."""
    from repro.simcore.events import CORE

    return CORE.__name__ == "tests._oracle_core"


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def run_on_python_core(code: str, timeout: float = 900
                       ) -> subprocess.CompletedProcess:
    """Run ``python -c code`` from the repo root on the oracle core."""
    return subprocess.run([sys.executable, "-c", PREAMBLE + code], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=timeout)


class PythonCoreWorker:
    """A function of a test module, served by one interpreter on the
    oracle core: each :meth:`call` sends the arguments and returns the
    function's result (pickled both ways, so tuples, enums and floats
    come back as they left), so a property test can hold many examples
    to the oracle without starting an interpreter per example."""

    def __init__(self, module: str, function: str):
        code = (PREAMBLE
                + "import base64, pickle, sys\n"
                "from tests._python_core import on_oracle_core\n"
                "assert on_oracle_core()\n"
                f"from {module} import {function} as fn\n"
                "for line in sys.stdin:\n"
                "    args = pickle.loads(base64.b64decode(line))\n"
                "    out = pickle.dumps(fn(*args))\n"
                "    print(base64.b64encode(out).decode(), flush=True)\n")
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def call(self, *args):
        self._proc.stdin.write(base64.b64encode(pickle.dumps(args)).decode()
                               + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        assert line, "the oracle-core worker exited"
        return pickle.loads(base64.b64decode(line))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def pytest_on_python_core(*targets: str) -> None:
    """Run the pytest ``targets`` on the oracle core, bar the tests that
    re-run their own module there; fail on a failure."""
    code = ("import sys\n"
            "import pytest\n"
            "from tests._python_core import on_oracle_core\n"
            "assert on_oracle_core()\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-k', "
            "'not test_suite_passes_on_the_python_core', "
            f"*{targets!r}]))\n")
    done = run_on_python_core(code)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
