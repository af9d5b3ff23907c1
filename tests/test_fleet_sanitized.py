"""The sanitised kernel check runs, and catches nothing on this tree.

``benchmarks/check_sanitized_kernel.py`` builds the one compiled module
(``simcore/_ccore.c`` with the scheduler's records, pass and crossings,
the network frame path and the fleet kernels ``fleet/_cloop.c``) with
AddressSanitizer and UndefinedBehaviorSanitizer and runs kernel tests
against it in a subprocess with the sanitiser runtimes preloaded.  CI
runs every kernel suite that way; this tier-1 test runs the fleet event
loop's buffer checks, the SHA-256 check, the engine suite, the
scheduler's fixed 4-core world (compiled crossings against the Python
pass) and one fixed stream per network device (compiled frame path
against the Python bodies), so a build or preload breakage shows up
here first.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_sanitized_kernel.py"


def _has_runtimes() -> bool:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return False
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run([cc, f"-print-file-name={name}"],
                              capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(path):
            return False
    return True


@pytest.mark.skipif(not _has_runtimes(),
                    reason="no compiler with ASan/UBSan runtimes")
def test_kernel_checks_pass_under_asan_and_ubsan():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(SCRIPT),
         "tests/test_fleet_fastloop.py::TestKernelBuild::"
         "test_event_loop_refuses_a_bad_buffer",
         "tests/property/test_prop_fleet_sampler.py::"
         "test_kernel_sha256_matches_hashlib",
         "tests/test_simcore_engine.py",
         "tests/property/test_prop_scheduler_passes.py::"
         "test_four_cores_contend_and_preempt",
         "tests/property/test_prop_frame_path.py::"
         "test_every_device_streams_through_the_compiled_path"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    # pytest exits non-zero when a selected test is missing or fails
    assert result.returncode == 0, result.stdout + result.stderr
    assert "sanitised kernel:" in result.stdout
    assert "sanitised event core:" in result.stdout
    assert "sanitised scheduler pass: Scheduler" in result.stdout
