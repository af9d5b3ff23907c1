"""Compile-on-first-use driver of repro's one compiled module.

The compiled code is one CPython extension, ``repro.simcore._ccore``,
built from ``simcore/_ccore.c`` and the files it includes: the
discrete-event engine's hot path, the OS scheduler's records, decision
pass and crossings (``osmodel/_sched.c``), the network frame path
(``osmodel/_frames.c``: the TCP frame loops, the vNIC's per-frame
service and the NIC transmit) and the fleet kernels (``fleet/_cloop.c``:
the fault-free event loop, the host-column sampler and the fault-draw
batch, driven by :mod:`repro.fleet.cloop`).  This module builds it with
the system C compiler on first use, caches the ``.so`` in the temp
directory (keyed by a hash of the sources, the compiler flags, the
interpreter's extension suffix and its include directory) and imports it
once per process.  It imports nothing of ``repro`` but its exception:
the fleet, the OS model and the event core all import it, and none
imports another through it.

``repro`` requires a C compiler (``gcc`` or ``cc`` on ``PATH``) and the
interpreter's ``Python.h``; a cached build needs neither.  Without them,
or when a build or a load fails, :func:`load` and :func:`event_core`
raise :class:`~repro.errors.NativeBuildError`, which names what is
missing and carries the tail of the compiler's error output.  The check
is lazy: nothing is built or loaded until the fleet kernels or the
event core are first used.  The pure-Python counterparts of the
compiled code are test oracles in ``tests/``, not fallbacks: the test
suite may install its oracle as the event core (:data:`_ext`), while
:func:`load` always returns the compiled module.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Optional, Sequence

from repro.errors import NativeBuildError

__all__ = ["available", "compile_extension", "event_core", "load"]

_ROOT = Path(__file__).parent
#: The extension's source, the files it includes (hashed into the cache
#: key with it) and its module name.
EXT_SOURCE = _ROOT / "simcore" / "_ccore.c"
EXT_INCLUDES = (_ROOT / "osmodel" / "_sched.c",
                _ROOT / "osmodel" / "_frames.c",
                _ROOT / "fleet" / "_cloop.c")
EXT_NAME = "repro.simcore._ccore"

#: Optimisation flags of the production build.
OPT_FLAGS: Sequence[str] = ("-O2",)

#: What every :class:`~repro.errors.NativeBuildError` message starts with.
REQUIREMENT = "repro needs a C compiler and Python.h"

#: Characters of the compiler's error output a failed build reports.
STDERR_TAIL = 2000

#: The compiled module, once imported.
_native: Optional[ModuleType] = None
#: The event core: the compiled module, or an oracle a test installed.
_ext: Optional[ModuleType] = None


def _include_dir() -> Optional[str]:
    """The directory holding this interpreter's ``Python.h``."""
    guess = os.path.join(
        sys.base_prefix, "include",
        f"python{sys.version_info[0]}.{sys.version_info[1]}"
        f"{getattr(sys, 'abiflags', '')}")
    if os.path.exists(os.path.join(guess, "Python.h")):
        return guess
    import sysconfig  # only an unusual layout pays for the config

    found = sysconfig.get_paths().get("include")
    if found and os.path.exists(os.path.join(found, "Python.h")):
        return found
    return None


def compile_extension(flags: Optional[Sequence[str]] = None) -> str:
    """Build (or reuse) the extension; its path.

    ``flags`` replaces the optimisation flags (default :data:`OPT_FLAGS`),
    for test builds such as a sanitised one.  The cache name hashes the
    source, the files it includes, the flags, the interpreter's extension
    suffix and its include directory, so each flag set and each
    interpreter gets its own build.  A cached build is reused without a
    compiler; a cold one raises :class:`~repro.errors.NativeBuildError`
    when no compiler or ``Python.h`` is found or the build fails.
    """
    import hashlib
    import tempfile
    from importlib.machinery import EXTENSION_SUFFIXES

    include = _include_dir()
    if include is None:
        raise NativeBuildError(
            f"{REQUIREMENT}: no Python.h for Python "
            f"{sys.version_info[0]}.{sys.version_info[1]} under "
            f"{sys.base_prefix} (install its development headers)")
    flags = tuple(OPT_FLAGS if flags is None else flags)
    suffix = EXTENSION_SUFFIXES[0] if EXTENSION_SUFFIXES else ""
    hasher = hashlib.sha256()
    for source in (EXT_SOURCE, *EXT_INCLUDES):
        hasher.update(source.read_bytes())
    hasher.update("\0".join((*flags, suffix, include)).encode())
    digest = hasher.hexdigest()[:16]
    tag = getattr(os, "getuid", lambda: 0)()
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro_ccore_{digest}_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    import shutil
    import subprocess  # only a cache miss runs the compiler

    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise NativeBuildError(
            f"{REQUIREMENT}: no gcc or cc on PATH to build "
            f"{os.path.basename(so_path)}")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=tempfile.gettempdir())
    os.close(fd)
    try:
        # -ffp-contract=off: no FMA contraction, so every double op
        # rounds exactly as CPython's interpreter does (SSE2 doubles)
        result = subprocess.run(
            [cc, *flags, "-fPIC", "-shared", "-ffp-contract=off",
             "-I" + include, "-o", tmp, str(EXT_SOURCE), "-lm"],
            capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as error:
        os.unlink(tmp)
        raise NativeBuildError(
            f"{REQUIREMENT}: running {cc} failed: {error}") from None
    if result.returncode != 0:
        os.unlink(tmp)
        tail = result.stderr.decode(errors="replace")[-STDERR_TAIL:]
        raise NativeBuildError(
            f"{REQUIREMENT}: {cc} failed to build {EXT_SOURCE.name} "
            f"(exit {result.returncode}):\n{tail}")
    os.replace(tmp, so_path)
    return so_path


def _import_extension(so_path: str, name: str = EXT_NAME) -> ModuleType:
    """Import the extension build at ``so_path`` as module ``name`` (its
    last component must be ``_ccore``); raises
    :class:`~repro.errors.NativeBuildError` when it cannot be loaded."""
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_loader

    loader = ExtensionFileLoader(name, so_path)
    spec = spec_from_loader(name, loader)
    try:
        module = module_from_spec(spec)
        loader.exec_module(module)
    except ImportError as error:
        raise NativeBuildError(
            f"{REQUIREMENT}: cannot load {so_path}: {error}") from None
    return module


def load() -> ModuleType:
    """The compiled module (``repro.simcore._ccore``), built and imported
    on first call (see the module docstring for the error it raises)."""
    global _native
    if _native is None:
        _native = _import_extension(compile_extension())
        sys.modules[EXT_NAME] = _native
    return _native


def available() -> bool:
    """``True`` once the compiled module is loaded in this process;
    raises :class:`~repro.errors.NativeBuildError` when it cannot be."""
    return load() is not None


def event_core() -> ModuleType:
    """The event core: the compiled module, unless a test made its
    oracle the core (:data:`_ext`) first."""
    global _ext
    if _ext is None:
        _ext = load()
    return _ext
