"""Compile-on-first-use ctypes driver for the fleet event kernel.

The hot event loop of fault-free fleet runs lives in ``_cloop.c``, a
straight transliteration of the fault-free branches of
``FleetServer._fast_loop_python`` (storm runs always take the Python
loop, which alone carries the recovery machine).  This
module compiles it with the system C compiler on first use (cached in
the temp directory, keyed by a hash of the source), loads it through
:mod:`ctypes`, and drives the pause/resume protocol: the kernel returns
to Python whenever a growable buffer would overflow or the pre-drawn
serve uniforms run dry, the driver grows/refills the numpy buffer and
resumes.  Everything the kernel touches is a numpy array owned here, so
the canonical flat state comes back with zero copying.

No compiler, a failed compile, or ``REPRO_NO_CLOOP=1`` all degrade to
``run_event_loop`` returning ``None``; the server then runs the
pure-Python fallback loop, which produces byte-identical state.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.fleet.fastrng import VecPcg

__all__ = ["available", "run_event_loop"]

_SRC = Path(__file__).with_name("_cloop.c")

_ST_DONE = 0
_ST_NEED_DRAWS = 1
_ST_GROW_HEAP = 2
_ST_GROW_NEED = 3
_ST_GROW_REP = 4
_ST_GROW_RET = 5

_K_REQUEST = 0

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


class _FleetCtx(ctypes.Structure):
    """Mirror of the C ``FleetCtx`` — every field is 8 bytes, so the
    layouts agree with no padding on any LP64 platform."""

    _fields_ = [
        ("n", _I), ("nwu", _I), ("quorum", _I), ("max_replicas", _I),
        ("horizon", _D), ("err_rate", _D),
        ("n_delays", _I),
        ("fs", _P), ("fe", _P), ("soff", _P),
        ("departure", _P), ("an", _P), ("base", _P),
        ("stretch", _P), ("delays", _P),
        ("draws", _P), ("rounds_avail", _I),
        ("wu_state", _P), ("wu_validated", _P),
        ("wu_issued", _P), ("wu_out", _P), ("wu_tmo", _P),
        ("wu_holders", _P), ("wu_nhold", _P), ("wu_hosts", _P),
        ("r_wid", _P), ("r_host", _P), ("r_dead", _P), ("r_disp", _P),
        ("r_flag", _P), ("rep_cap", _I),
        ("ret_wid", _P), ("ret_host", _P), ("ret_cpu", _P),
        ("ret_cap", _I),
        ("need", _P), ("need_head", _I), ("need_count", _I),
        ("need_cap", _I), ("stash", _P),
        ("h_t", _P), ("h_seq", _P), ("h_pay", _P),
        ("heap_len", _I), ("heap_cap", _I),
        ("waste", _P), ("ucur", _P), ("poll_fail", _P), ("cur", _P),
        ("seq", _I), ("n_valid", _I), ("n_rep", _I), ("ret_count", _I),
        ("ok_n", _I), ("err_n", _I), ("stale_n", _I), ("tmo_n", _I),
        ("red_n", _I),
        ("err_cpu", _D), ("stale_cpu", _D), ("red_cpu", _D),
        ("need_peak", _I),
    ]


_lib: Optional[ctypes.CDLL] = None
_tried = False


def _compile() -> Optional[str]:
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        return None
    source = _SRC.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    tag = getattr(os, "getuid", lambda: 0)()
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro_cloop_{digest}_{tag}.so")
    if os.path.exists(so_path):
        return so_path
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=tempfile.gettempdir())
    os.close(fd)
    try:
        # -ffp-contract=off: no FMA contraction, so every double op
        # rounds exactly as CPython's interpreter does (SSE2 doubles)
        result = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
             "-o", tmp, str(_SRC)],
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


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    # a kill switch, not run policy: the fallback loop is byte-identical,
    # so this only ever changes speed
    if os.environ.get("REPRO_NO_CLOOP"):  # repro: allow-env-read
        return None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        lib.fleet_run.argtypes = [ctypes.POINTER(_FleetCtx)]
        lib.fleet_run.restype = ctypes.c_int
    except OSError:
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be used on this machine."""
    return _load() is not None


def _addr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def run_event_loop(prep: Any) -> Optional[Dict[str, Any]]:
    """Run the fleet event loop in C; ``None`` if the kernel is absent.

    ``prep`` is the server's ``_FastPrep``.  Returns the canonical flat
    state dict consumed by ``FleetServer._fast_report`` — identical,
    value for value, to what ``_fast_loop_python`` produces.
    """
    lib = _load()
    if lib is None:
        return None
    n = prep.n
    nwu = prep.nwu
    quorum = prep.quorum
    max_replicas = prep.max_replicas
    if quorum > 255 or n >= 2 ** 32 or nwu >= 2 ** 31:
        return None  # outside the kernel's packing assumptions

    soff = np.ascontiguousarray(prep.soff, dtype=np.int64)
    fs = np.ascontiguousarray(prep.fs, dtype=np.float64)
    fe = np.ascontiguousarray(prep.fe, dtype=np.float64)
    departure = np.ascontiguousarray(prep.departure, dtype=np.float64)
    an = np.ascontiguousarray(prep.an, dtype=np.float64)
    base = np.ascontiguousarray(prep.base, dtype=np.float64)
    stretch = np.ascontiguousarray(prep.stretch, dtype=np.float64)
    delays = np.ascontiguousarray(prep.delays, dtype=np.float64)

    wu_state = np.zeros(nwu, dtype=np.uint8)
    wu_validated = np.zeros(nwu, dtype=np.float64)
    wu_issued = np.zeros(nwu, dtype=np.int32)
    wu_out = np.zeros(nwu, dtype=np.int32)
    wu_tmo = np.zeros(nwu, dtype=np.int32)
    wu_holders = np.full(nwu * quorum, -1, dtype=np.int32)
    wu_nhold = np.zeros(nwu, dtype=np.uint8)
    wu_hosts = np.full(nwu * max_replicas, -1, dtype=np.int32)

    rep_cap = max(4096, 2 * n)
    r_wid = np.empty(rep_cap, dtype=np.int32)
    r_host = np.empty(rep_cap, dtype=np.int32)
    r_dead = np.empty(rep_cap, dtype=np.float64)
    r_disp = np.empty(rep_cap, dtype=np.float64)
    r_flag = np.empty(rep_cap, dtype=np.uint8)

    ret_cap = max(4096, 2 * n)
    ret_wid = np.empty(ret_cap, dtype=np.int32)
    ret_host = np.empty(ret_cap, dtype=np.int32)
    ret_cpu = np.empty(ret_cap, dtype=np.float64)

    need_cap = nwu * quorum + n + 1024
    need = np.empty(need_cap, dtype=np.int32)
    initial_need = np.repeat(
        np.arange(nwu, dtype=np.int32), quorum)
    need[:len(initial_need)] = initial_need
    stash = np.empty(need_cap, dtype=np.int32)

    heap_cap = max(1024, 2 * n)
    h_t = np.empty(heap_cap, dtype=np.float64)
    h_seq = np.empty(heap_cap, dtype=np.int64)
    h_pay = np.empty(heap_cap, dtype=np.uint64)
    # initial REQUEST events: one per host with sessions, seq assigned
    # in host order; a (t, seq)-sorted array is a valid binary min-heap
    has_sessions = np.flatnonzero(soff[1:] > soff[:-1])
    first_start = fs[soff[:-1][has_sessions]]
    seqs = np.arange(len(has_sessions), dtype=np.int64)
    order = np.lexsort((seqs, first_start))
    k = len(has_sessions)
    h_t[:k] = first_start[order]
    h_seq[:k] = seqs[order]
    h_pay[:k] = has_sessions[order].astype(np.uint64)  # K_REQUEST == 0

    waste = np.zeros(n, dtype=np.float64)
    ucur = np.zeros(n, dtype=np.int32)
    poll_fail = np.zeros(n, dtype=np.int32)
    cur = soff[:n].copy()

    serve_vec = VecPcg.seeded(prep.serve_seed, "error")
    draw_rounds = 0
    draws = np.empty((8, n), dtype=np.float64)

    ctx = _FleetCtx()
    ctx.n = n
    ctx.nwu = nwu
    ctx.quorum = quorum
    ctx.max_replicas = max_replicas
    ctx.horizon = prep.horizon
    ctx.err_rate = prep.err_rate
    ctx.n_delays = len(delays)
    for name, arr in (
            ("fs", fs), ("fe", fe), ("soff", soff),
            ("departure", departure), ("an", an), ("base", base),
            ("stretch", stretch), ("delays", delays),
            ("wu_state", wu_state), ("wu_validated", wu_validated),
            ("wu_issued", wu_issued), ("wu_out", wu_out),
            ("wu_tmo", wu_tmo), ("wu_holders", wu_holders),
            ("wu_nhold", wu_nhold), ("wu_hosts", wu_hosts),
            ("waste", waste), ("ucur", ucur),
            ("poll_fail", poll_fail), ("cur", cur)):
        setattr(ctx, name, _addr(arr))
    ctx.draws = _addr(draws)
    ctx.rounds_avail = draw_rounds
    ctx.r_wid = _addr(r_wid)
    ctx.r_host = _addr(r_host)
    ctx.r_dead = _addr(r_dead)
    ctx.r_disp = _addr(r_disp)
    ctx.r_flag = _addr(r_flag)
    ctx.rep_cap = rep_cap
    ctx.ret_wid = _addr(ret_wid)
    ctx.ret_host = _addr(ret_host)
    ctx.ret_cpu = _addr(ret_cpu)
    ctx.ret_cap = ret_cap
    ctx.need = _addr(need)
    ctx.need_head = 0
    ctx.need_count = len(initial_need)
    ctx.need_cap = need_cap
    ctx.stash = _addr(stash)
    ctx.h_t = _addr(h_t)
    ctx.h_seq = _addr(h_seq)
    ctx.h_pay = _addr(h_pay)
    ctx.heap_len = k
    ctx.heap_cap = heap_cap
    ctx.seq = k
    ctx.n_valid = 0
    ctx.n_rep = 0
    ctx.ret_count = 0
    ctx.ok_n = ctx.err_n = ctx.stale_n = ctx.tmo_n = ctx.red_n = 0
    ctx.err_cpu = ctx.stale_cpu = ctx.red_cpu = 0.0
    ctx.need_peak = 0

    while True:
        status = lib.fleet_run(ctypes.byref(ctx))
        if status == _ST_DONE:
            break
        if status == _ST_NEED_DRAWS:
            if draw_rounds == draws.shape[0]:
                grown = np.empty((2 * draw_rounds, n), dtype=np.float64)
                grown[:draw_rounds] = draws
                draws = grown
                ctx.draws = _addr(draws)
            draws[draw_rounds] = serve_vec.doubles()
            draw_rounds += 1
            ctx.rounds_avail = draw_rounds
        elif status == _ST_GROW_REP:
            rep_cap *= 2
            r_wid, r_host, r_dead, r_disp, r_flag = (
                _grow(r_wid, rep_cap), _grow(r_host, rep_cap),
                _grow(r_dead, rep_cap), _grow(r_disp, rep_cap),
                _grow(r_flag, rep_cap))
            ctx.r_wid = _addr(r_wid)
            ctx.r_host = _addr(r_host)
            ctx.r_dead = _addr(r_dead)
            ctx.r_disp = _addr(r_disp)
            ctx.r_flag = _addr(r_flag)
            ctx.rep_cap = rep_cap
        elif status == _ST_GROW_RET:
            ret_cap *= 2
            ret_wid, ret_host, ret_cpu = (
                _grow(ret_wid, ret_cap), _grow(ret_host, ret_cap),
                _grow(ret_cpu, ret_cap))
            ctx.ret_wid = _addr(ret_wid)
            ctx.ret_host = _addr(ret_host)
            ctx.ret_cpu = _addr(ret_cpu)
            ctx.ret_cap = ret_cap
        elif status == _ST_GROW_HEAP:
            heap_cap *= 2
            h_t, h_seq, h_pay = (
                _grow(h_t, heap_cap), _grow(h_seq, heap_cap),
                _grow(h_pay, heap_cap))
            ctx.h_t = _addr(h_t)
            ctx.h_seq = _addr(h_seq)
            ctx.h_pay = _addr(h_pay)
            ctx.heap_cap = heap_cap
        elif status == _ST_GROW_NEED:
            # linearize the ring into a doubled buffer
            count = ctx.need_count
            idx = (ctx.need_head + np.arange(count)) % need_cap
            need_cap *= 2
            grown = np.empty(need_cap, dtype=np.int32)
            grown[:count] = need[idx]
            need = grown
            stash = np.empty(need_cap, dtype=np.int32)
            ctx.need = _addr(need)
            ctx.stash = _addr(stash)
            ctx.need_head = 0
            ctx.need_cap = need_cap
        else:  # pragma: no cover - unknown status means a kernel bug
            raise RuntimeError(f"fleet kernel returned status {status}")

    n_rep = int(ctx.n_rep)
    ret_count = int(ctx.ret_count)
    return {
        "n_valid": int(ctx.n_valid),
        "n_rep": n_rep,
        "need_peak": int(ctx.need_peak),
        "ok_n": int(ctx.ok_n),
        "err_n": int(ctx.err_n),
        "stale_n": int(ctx.stale_n),
        "tmo_n": int(ctx.tmo_n),
        "red_n": int(ctx.red_n),
        "err_cpu": float(ctx.err_cpu),
        "stale_cpu": float(ctx.stale_cpu),
        "red_cpu": float(ctx.red_cpu),
        "wu_state": wu_state,
        "wu_validated": wu_validated,
        "wu_issued": wu_issued,
        "wu_out": wu_out,
        "hold_flat": wu_holders,
        "nhold": wu_nhold,
        "ret_wid": ret_wid[:ret_count],
        "ret_host": ret_host[:ret_count],
        "ret_cpu": ret_cpu[:ret_count],
        "r_host": r_host[:n_rep],
        "r_disp": r_disp[:n_rep],
        "r_flag": r_flag[:n_rep],
        "waste": waste,
    }


def _grow(arr: np.ndarray, new_cap: int) -> np.ndarray:
    grown = np.empty(new_cap, dtype=arr.dtype)
    grown[:len(arr)] = arr
    return grown
