"""The compiler contract: ``repro`` builds its compiled code or refuses.

Without a C compiler, without the interpreter's ``Python.h``, or when a
build fails, loading the compiled module (the fleet kernels and the
event core) raises :class:`~repro.errors.NativeBuildError` naming what
is missing (a failed build carries the tail of the compiler's error
output); a cached build needs no compiler.
"""

import shutil
import tempfile

import pytest

from repro import ckernel
from repro.errors import NativeBuildError, ReproError

NO_COMPILER = "repro needs a C compiler and Python.h: no gcc or cc on PATH"


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """A fresh temp dir (no cached build) and nothing loaded yet."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(ckernel, "_native", None)
    return tmp_path


def test_load_without_a_compiler_refuses_cleanly(cold_cache, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(NativeBuildError, match=NO_COMPILER) as error:
        ckernel.load()
    assert isinstance(error.value, ReproError)
    assert "repro_ccore_" in str(error.value)
    with pytest.raises(NativeBuildError, match=NO_COMPILER):
        ckernel.available()
    assert list(cold_cache.iterdir()) == []


def test_event_core_without_a_compiler_refuses_cleanly(cold_cache,
                                                       monkeypatch):
    monkeypatch.setattr(ckernel, "_ext", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(NativeBuildError, match=NO_COMPILER) as error:
        ckernel.event_core()
    assert "repro_ccore_" in str(error.value)


def test_missing_python_h_is_named(cold_cache, monkeypatch):
    monkeypatch.setattr(ckernel, "_ext", None)
    monkeypatch.setattr(ckernel, "_include_dir", lambda: None)
    with pytest.raises(NativeBuildError, match="no Python.h for Python"):
        ckernel.event_core()


def test_a_failed_build_carries_the_compiler_stderr(cold_cache,
                                                    monkeypatch):
    compiler = cold_cache / "fake-cc"
    compiler.write_text("#!/bin/sh\n"
                        "echo 'early noise' >&2\n"
                        "echo '_ccore.c:1: error: boom' >&2\n"
                        "exit 3\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(shutil, "which", lambda name: str(compiler))
    with pytest.raises(NativeBuildError) as error:
        ckernel.compile_extension()
    message = str(error.value)
    assert message.startswith("repro needs a C compiler and Python.h: ")
    assert "failed to build _ccore.c (exit 3)" in message
    assert message.endswith("_ccore.c:1: error: boom\n")
    # the failed build leaves nothing behind that a later run could load
    assert [path.name for path in cold_cache.iterdir()] == ["fake-cc"]


def test_a_cached_build_needs_no_compiler(monkeypatch):
    built = ckernel.compile_extension()
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert ckernel.compile_extension() == built
