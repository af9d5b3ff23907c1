"""Run the kernel suites against sanitised builds of the compiled code.

Compiles repro's one compiled module (``simcore/_ccore.c``, which
includes the OS scheduler's records, decision pass and crossings,
``osmodel/_sched.c``, the network frame path, ``osmodel/_frames.c``, and
the fleet kernels, ``fleet/_cloop.c``) with AddressSanitizer and
UndefinedBehaviorSanitizer (``-O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=undefined``) through the ``flags`` argument of
:func:`repro.ckernel.compile_extension`, then runs the fleet kernel,
event core and scheduler suites in a subprocess that preloads the
compiler's ``libasan`` and ``libubsan`` and loads that build instead of
the production one (the bootstrap asserts that the loaded module is the
sanitised build, that the fleet entry points and the event core come
from it, and that schedulers build on its crossings).  An out-of-bounds
access, a use after free or undefined behaviour in any entry point
(event loop, column sampler, fault-draw batch, whose over-long payloads
must be refused before they reach its fixed stack buffer, the buffer
checks of each, the scheduler's records, crossings and decision pass,
the frame path's TCP loops, deliveries, vNIC service and NIC transmit,
or the event core's handles, events, process resume and engine drains)
aborts the run.

Exit status 0 when every suite passes on the sanitised build, non-zero
otherwise (also when no compiler or sanitiser runtime is found: this is
a check, not a best effort).  Usage::

    PYTHONPATH=src python benchmarks/check_sanitized_kernel.py
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro import ckernel
from repro.errors import NativeBuildError

ROOT = Path(__file__).resolve().parent.parent

SANITIZE_FLAGS = ("-O1", "-g", "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=undefined")

SUITES = ("tests/test_fleet_fastloop.py",
          "tests/property/test_prop_fleet_equiv.py",
          "tests/property/test_prop_fleet_sampler.py",
          "tests/property/test_prop_fault_draws.py",
          "tests/property/test_prop_scheduler_equiv.py",
          "tests/property/test_prop_scheduler_passes.py",
          *sorted(os.path.relpath(path, ROOT) for path in glob.glob(
              str(ROOT / "tests" / "test_simcore_*.py"))),
          "tests/property/test_prop_process_equiv.py",
          "tests/property/test_prop_engine.py",
          "tests/property/test_prop_frame_path.py",
          "tests/test_os_netstack.py",
          "tests/test_virt_devices.py",
          "tests/test_hardware_nic.py")

# Runs inside the sanitised subprocess: every later compile made without
# explicit flags (the one load() makes) returns the sanitised build, then
# pytest runs the suites against it.
BOOTSTRAP = """
import sys

import pytest

from repro import ckernel

ckernel.OPT_FLAGS = {flags!r}
assert ckernel.available(), "the sanitised module failed to load"
module = ckernel.load()
assert module.__file__ == ckernel.compile_extension(), module.__file__
assert ckernel.event_core() is module
from repro.fleet import cloop
fleet = cloop.ckernel.load()   # where cloop takes its entry points
for name in ("fleet_init_hosts", "fleet_draw_uniforms", "fleet_sha256"):
    assert getattr(fleet, name).__self__ is module, name
assert fleet.FleetRun is module.FleetRun
assert fleet.FleetSample is module.FleetSample
from repro.osmodel.scheduler import Scheduler
assert module.Scheduler in Scheduler.__mro__
print("sanitised kernel:", module.__file__, flush=True)
print("sanitised event core:", ckernel.event_core().__file__, flush=True)
print("sanitised scheduler pass:", module.Scheduler.__name__, flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys",
                      *{suites!r}]))
"""


def runtime(cc: str, name: str) -> str:
    """Absolute path of the compiler's sanitiser runtime ``name``."""
    path = subprocess.run([cc, f"-print-file-name={name}"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(path) or not os.path.exists(path):
        raise SystemExit(f"{cc} has no {name} (got {path!r})")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suites", nargs="*", default=list(SUITES),
                        help="pytest targets (default: the kernel suites)")
    args = parser.parse_args(argv)
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise SystemExit("no C compiler on PATH")
    try:
        ckernel.compile_extension(flags=SANITIZE_FLAGS)
    except NativeBuildError as error:
        raise SystemExit(f"the sanitised build failed: {error}")
    env = dict(os.environ)
    env["LD_PRELOAD"] = ":".join(
        [runtime(cc, "libasan.so"), runtime(cc, "libubsan.so")])
    # CPython keeps its interned objects to exit: leak reports are noise
    env["ASAN_OPTIONS"] = "detect_leaks=0:abort_on_error=1"
    env["UBSAN_OPTIONS"] = "print_stacktrace=1:halt_on_error=1"
    code = BOOTSTRAP.format(flags=SANITIZE_FLAGS, suites=tuple(args.suites))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
