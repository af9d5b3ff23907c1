"""Compile-on-first-use driver of the kernel library.

One shared library holds every compiled kernel of the package: the fleet
kernels of ``fleet/_cloop.c`` (column sampler, fault-free event loop,
fault-draw batch; driven by :mod:`repro.fleet.cloop`) and the OS
scheduler's decision pass of ``osmodel/_sched.c`` (driven by
:mod:`repro.osmodel.scheduler`).  This module builds it with the system
C compiler on first use, caches the ``.so`` in the temp directory (keyed
by a hash of the sources and the compiler flags) and loads it once per
process, so a figure run that also touches the fleet pays one compile
and one load.  It imports nothing of ``repro``: the fleet and the OS
model both import it, and neither imports the other.

No compiler, a failed compile, a failed load, or ``REPRO_NO_CLOOP=1``
make :func:`load` return ``None``; every caller then takes its
pure-Python twin, which produces the same bytes.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["available", "compile_library", "load", "open_library"]

_ROOT = Path(__file__).parent
#: The library's translation units, compiled together into one ``.so``.
SOURCES = (_ROOT / "fleet" / "_cloop.c", _ROOT / "osmodel" / "_sched.c")

#: Optimisation flags of the production build.
OPT_FLAGS: Sequence[str] = ("-O2",)

_lib: Optional[ctypes.CDLL] = None
_tried = False


def compile_library(flags: Optional[Sequence[str]] = None) -> Optional[str]:
    """Build (or reuse) the kernel library; its path, or ``None``.

    ``flags`` replaces the optimisation flags (default
    :data:`OPT_FLAGS`), for test builds such as a sanitised one; the
    ``.so`` name hashes them with the sources, so each flag set gets its
    own cached library.
    """
    import hashlib
    import shutil
    import tempfile

    flags = tuple(OPT_FLAGS if flags is None else flags)
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    hasher = hashlib.sha256()
    for source in SOURCES:
        hasher.update(source.read_bytes())
    hasher.update("\0".join(flags).encode())
    digest = hasher.hexdigest()[:16]
    tag = getattr(os, "getuid", lambda: 0)()
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro_cloop_{digest}_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    import subprocess  # only a cache miss runs the compiler

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=tempfile.gettempdir())
    os.close(fd)
    try:
        # -ffp-contract=off: no FMA contraction, so every double op
        # rounds exactly as CPython's interpreter does (SSE2 doubles)
        result = subprocess.run(
            [cc, *flags, "-fPIC", "-shared", "-ffp-contract=off",
             "-o", tmp, *map(str, SOURCES), "-lm"],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, so_path)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return so_path


def open_library(so_path: str) -> ctypes.CDLL:
    """Load a kernel library build (``OSError`` if it cannot be)."""
    return ctypes.CDLL(so_path)


def load() -> Optional[ctypes.CDLL]:
    """The process's kernel library, compiled and loaded on first call;
    ``None`` when it is unavailable (see the module docstring)."""
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    # a kill switch, not run policy: every fallback is byte-identical,
    # so this only ever changes speed
    if os.environ.get("REPRO_NO_CLOOP"):  # repro: allow-env-read
        return None
    so_path = compile_library()
    if so_path is None:
        return None
    try:
        _lib = open_library(so_path)
    except OSError:
        return None
    return _lib


def available() -> bool:
    """Whether the kernel library can be used in this process."""
    return load() is not None
