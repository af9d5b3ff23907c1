"""Compile-on-first-use driver of the kernel library and the event core.

One shared library holds the fleet's ctypes kernels, ``fleet/_cloop.c``
(column sampler, fault-free event loop, fault-draw batch; driven by
:mod:`repro.fleet.cloop`).  Next to it sits the event core,
``simcore/_ccore.c``: a CPython extension (``repro.simcore._ccore``)
holding the discrete-event engine's hot path and, through the files it
includes, the OS scheduler's decision pass and crossings
(``osmodel/_sched.c``) and the network frame path
(``osmodel/_frames.c``: the TCP frame loops, the vNIC's per-frame
service and the NIC transmit).  This module builds both with the system
C compiler on first use, caches each ``.so`` in the temp directory
(keyed by a hash of the sources and the compiler flags; the extension's
key also takes the interpreter's extension suffix and include
directory) and loads each once per process, so a figure run that also
touches the fleet pays one compile and one load of each.  The first
:func:`load` fills a cold cache for both.  It imports nothing of
``repro`` but its exception: the fleet, the OS model and the event core
all import it, and none imports another through it.

``repro`` requires a C compiler (``gcc`` or ``cc`` on ``PATH``) and the
interpreter's ``Python.h``; a cached build needs neither.  Without them,
or when a build or a load fails, :func:`load` and :func:`event_core`
raise :class:`~repro.errors.NativeBuildError`, which names what is
missing and carries the tail of the compiler's error output.  The check
is lazy: nothing is built or loaded until the fleet kernels or the
event core are first used.  The pure-Python counterparts of the
compiled code are test oracles in ``tests/``, not fallbacks.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Optional, Sequence

from repro.errors import NativeBuildError

__all__ = ["available", "compile_extension", "compile_library",
           "event_core", "load", "open_library"]

_ROOT = Path(__file__).parent
#: The library's translation units, compiled together into one ``.so``.
SOURCES = (_ROOT / "fleet" / "_cloop.c",)

#: The event core extension's source, the files it includes (hashed into
#: the cache key with it) and its module name.
EXT_SOURCE = _ROOT / "simcore" / "_ccore.c"
EXT_INCLUDES = (_ROOT / "osmodel" / "_sched.c",
                _ROOT / "osmodel" / "_frames.c")
EXT_NAME = "repro.simcore._ccore"

#: Optimisation flags of the production build.
OPT_FLAGS: Sequence[str] = ("-O2",)

#: What every :class:`~repro.errors.NativeBuildError` message starts with.
REQUIREMENT = "repro needs a C compiler and Python.h"

#: Characters of the compiler's error output a failed build reports.
STDERR_TAIL = 2000

_lib: Optional[ctypes.CDLL] = None
_ext: Optional[ModuleType] = None


def _build(prefix: str, sources: Sequence[Path], flags: Sequence[str],
           extra: Sequence[str], key: Sequence[str],
           includes: Sequence[Path] = ()) -> str:
    """Compile ``sources`` into a cached ``.so`` and return its path.

    The cache name hashes the sources, the files they ``#include``
    (``includes``), the flags and ``key``.  A cached build is reused
    without a compiler; a cold one raises
    :class:`~repro.errors.NativeBuildError` when no compiler is found or
    the build fails.
    """
    import hashlib
    import tempfile

    hasher = hashlib.sha256()
    for source in (*sources, *includes):
        hasher.update(source.read_bytes())
    hasher.update("\0".join((*flags, *key)).encode())
    digest = hasher.hexdigest()[:16]
    tag = getattr(os, "getuid", lambda: 0)()
    so_path = os.path.join(
        tempfile.gettempdir(), f"{prefix}_{digest}_{tag}.so")
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
            [cc, *flags, "-fPIC", "-shared", "-ffp-contract=off", *extra,
             "-o", tmp, *map(str, sources), "-lm"],
            capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as error:
        os.unlink(tmp)
        raise NativeBuildError(
            f"{REQUIREMENT}: running {cc} failed: {error}") from None
    if result.returncode != 0:
        os.unlink(tmp)
        tail = result.stderr.decode(errors="replace")[-STDERR_TAIL:]
        raise NativeBuildError(
            f"{REQUIREMENT}: {cc} failed to build "
            f"{', '.join(source.name for source in sources)} "
            f"(exit {result.returncode}):\n{tail}")
    os.replace(tmp, so_path)
    return so_path


def compile_library(flags: Optional[Sequence[str]] = None) -> str:
    """Build (or reuse) the kernel library; its path.

    ``flags`` replaces the optimisation flags (default
    :data:`OPT_FLAGS`), for test builds such as a sanitised one; the
    ``.so`` name hashes them with the sources, so each flag set gets its
    own cached library.
    """
    flags = tuple(OPT_FLAGS if flags is None else flags)
    return _build("repro_cloop", SOURCES, flags, (), ())


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
    """Build (or reuse) the event core extension; its path.

    ``flags`` as for :func:`compile_library`.  The cache key also takes
    the interpreter's extension suffix and include directory, so two
    interpreters never share a build.
    """
    from importlib.machinery import EXTENSION_SUFFIXES

    include = _include_dir()
    if include is None:
        raise NativeBuildError(
            f"{REQUIREMENT}: no Python.h for Python "
            f"{sys.version_info[0]}.{sys.version_info[1]} under "
            f"{sys.base_prefix} (install its development headers)")
    flags = tuple(OPT_FLAGS if flags is None else flags)
    suffix = EXTENSION_SUFFIXES[0] if EXTENSION_SUFFIXES else ""
    return _build("repro_ccore", (EXT_SOURCE,), flags, ("-I" + include,),
                  (suffix, include), EXT_INCLUDES)


def open_library(so_path: str) -> ctypes.CDLL:
    """Load a kernel library build (``OSError`` if it cannot be)."""
    return ctypes.CDLL(so_path)


def load() -> ctypes.CDLL:
    """The process's kernel library, compiled and loaded on first call
    (see the module docstring for the error it raises).  A cold call
    also builds the event core extension, so no later import of
    :mod:`repro.simcore` pays for the compiler."""
    global _lib
    if _lib is None:
        so_path = compile_library()
        if _ext is None:
            compile_extension()
        try:
            _lib = open_library(so_path)
        except OSError as error:
            raise NativeBuildError(
                f"{REQUIREMENT}: cannot load {so_path}: {error}") from None
    return _lib


def available() -> bool:
    """``True`` once the kernel library is loaded in this process; raises
    :class:`~repro.errors.NativeBuildError` when it cannot be."""
    return load() is not None


def event_core() -> ModuleType:
    """The event core module (``repro.simcore._ccore``), built and
    imported on first call (see the module docstring for the error it
    raises)."""
    global _ext
    if _ext is None:
        so_path = compile_extension()
        from importlib.machinery import ExtensionFileLoader
        from importlib.util import module_from_spec, spec_from_loader

        loader = ExtensionFileLoader(EXT_NAME, so_path)
        spec = spec_from_loader(EXT_NAME, loader)
        try:
            module = module_from_spec(spec)
            loader.exec_module(module)
        except ImportError as error:
            raise NativeBuildError(
                f"{REQUIREMENT}: cannot load {so_path}: {error}") from None
        sys.modules[EXT_NAME] = module
        _ext = module
    return _ext
