"""ctypes driver for the compiled fleet kernels.

The fleet's kernels live in ``_cloop.c``, the kernel library that
:mod:`repro.ckernel` compiles and loads once per process.  It holds the
fleet's three entry points:

* the **host-column sampler** (:func:`sample_columns`), which
  :mod:`repro.fleet.columns` calls: per host, in host order, the
  ``RngStreams`` forks (SHA-256), SeedSequence mixing, PCG64 streams,
  ziggurat draws and on/off renewal loop of the object build, written
  straight into a CSR session buffer (its oracle, a vectorised numpy
  build, is ``tests/_oracle_columns.py``);
* the **event loop** of fault-free fleet runs (:func:`run_event_loop`),
  a straight transliteration of the fault-free branches of
  ``FleetServer._fast_loop_python`` (storm runs always take the Python
  loop, which alone carries the recovery machine, and so does a run the
  kernel's int32 ids cannot index or with ``quorum > 255``).  Its state is laid
  out for memory latency: one 128-byte, 128-byte-aligned record per
  host (:data:`_HOST_DTYPE`), a 4-ary heap of event times with parallel
  24-byte nodes that carry the host (:data:`_NODE_DTYPE`), and a
  prefetch of the next event's record after every pop.  It keeps only
  what it reads: no per-replica deadline (a late completion's own
  deadline event always pops first and flags it), a unit's hosts found
  by walking its replicas (``wu_last`` then ``r_prev``, reading
  ``r_host``) instead of a ``nwu × max_replicas`` table, and the
  initial need queue, every unit ``quorum`` times, as one ``FRESH``
  ring entry standing for that range;
* the **fault-draw batch** (:func:`draw_uniforms`): the uniforms of
  :func:`repro.faults.plan._draw` for a run of consecutive integer keys,
  through the same C SHA-256.  Storms pre-draw their ``vm.crash``,
  ``net.partition`` and ``host.dropout`` fire masks with it.  It is not
  the event loop: it decides nothing, tallies nothing, and the storm
  loop that consults the masks stays in Python.

This module declares the fleet entry points on the shared library
(:func:`repro.ckernel.load`: built with the system C compiler on first
use, cached in the temp directory under a hash of the sources and the
compiler flags) and drives the pause/resume protocol: a kernel returns to Python whenever a growable
buffer would overflow, the driver grows the numpy buffer and resumes.
It grows by copying into a fresh ``np.empty`` (:func:`_grow`), never
with ``ndarray.resize``, which zero-fills the new tail and so makes the
whole capacity resident; an untouched tail costs address space only.
The serve-stream error uniforms never cross the boundary: the kernel
seeds each host's PCG64 lane into its record (``fleet_init_hosts``)
and steps it on demand.  Everything the kernels touch is a numpy array
owned here, so their outputs come back without copying, bar the
per-host waste column gathered out of the host records.

The library is required: with no compiler, or a failed compile
(including a compiler without ``unsigned __int128``), the first call
raises :class:`~repro.errors.NativeBuildError` (see
:mod:`repro.ckernel`).  ``run_event_loop`` returns ``None`` for a run
its int32 ids cannot index (the caller runs the Python loop) and
``draw_uniforms`` for keys or payloads it cannot format (the caller
draws key by key), both byte-identical.
"""

from __future__ import annotations

import ctypes
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import ckernel
from repro.fleet._zigdata import (
    EXP_R,
    FE_EXP,
    FI_NOR,
    KE_EXP,
    KI_NOR,
    NOR_INV_R,
    NOR_R,
    WE_EXP,
    WI_NOR,
)
from repro.fleet.config import FleetConfig
from repro.fleet.host import AVAILABILITY_CEIL, AVAILABILITY_FLOOR
from repro.simcore.pcg import spawn_key_words

__all__ = ["available", "draw_uniforms", "run_event_loop", "sample_columns"]

_ST_DONE = 0
_ST_GROW_HEAP = 1
_ST_GROW_NEED = 2
_ST_GROW_REP = 3
_ST_GROW_RET = 4
_ST_GROW_SESS = 5

_K_REQUEST = 0
_FRESH = -1  # the need-ring entry standing for the rest of the fresh range

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
        ("fs", _P), ("fe", _P),
        ("stretch", _P), ("delays", _P),
        ("hosts", _P),
        ("wu_state", _P), ("wu_validated", _P),
        ("wu_issued", _P), ("wu_out", _P), ("wu_tmo", _P),
        ("wu_holders", _P), ("wu_nhold", _P), ("wu_last", _P),
        ("r_host", _P), ("r_prev", _P), ("r_disp", _P),
        ("r_flag", _P), ("rep_cap", _I),
        ("ret_wid", _P), ("ret_host", _P), ("ret_cpu", _P),
        ("ret_cap", _I),
        ("need", _P), ("need_head", _I), ("need_count", _I),
        ("need_cap", _I), ("stash", _P),
        ("fresh_next", _I), ("fresh_end", _I),
        ("heap_t", _P), ("heap", _P), ("heap_len", _I), ("heap_cap", _I),
        ("seq", _I), ("n_valid", _I), ("n_rep", _I), ("ret_count", _I),
        ("ok_n", _I), ("err_n", _I), ("stale_n", _I), ("tmo_n", _I),
        ("red_n", _I),
        ("err_cpu", _D), ("stale_cpu", _D), ("red_cpu", _D),
        ("need_peak", _I),
    ]


#: The C ``HostRec``: one host's kernel state, 128 bytes on a 128-byte
#: boundary (an adjacent pair of cache lines), in C declaration order.
_HOST_DTYPE = np.dtype([
    ("pcg_lo", np.uint64), ("pcg_hi", np.uint64),
    ("inc_lo", np.uint64), ("inc_hi", np.uint64),
    ("an", np.float64), ("waste", np.float64),
    ("cur", np.int64), ("send", np.int64),
    ("base", np.float64), ("departure", np.float64),
    ("poll_fail", np.int32), ("ucur", np.int32),
    ("cur_start", np.float64), ("cur_end", np.float64),
    ("next_start", np.float64),
    ("pad", np.int64, (2,)),
])
#: The C ``HeapNode``: one event of the 4-ary heap bar its time, which
#: sits at the same index of a parallel float64 array.
_NODE_DTYPE = np.dtype([
    ("seq", np.int64),
    ("host", np.int32), ("kind", np.int32),
    ("rid", np.uint32), ("wid", np.int32),
])
_LINE = 64  # cache-line bytes

#: Initial capacities of the event kernel's growable buffers as (floor,
#: entries per host): replicas, ok returns and heap nodes start at
#: ``max(floor, per_host * n)`` (the heap at least at its initial
#: events), the need ring at its one initial ``FRESH`` entry plus that.
#: Each one doubles through a pause when the kernel would overflow it.
_REP_CAP = (4096, 2)
_RET_CAP = (4096, 2)
_HEAP_CAP = (1024, 2)
_NEED_CAP = (1024, 1)


class _SampleCtx(ctypes.Structure):
    """Mirror of the C ``SampleCtx`` (all fields 8 bytes, as above)."""

    _fields_ = [
        ("start", _I), ("stop", _I), ("next", _I),
        ("root", _P), ("root_len", _I),
        ("draw_speed", _I),
        ("avail_mean", _D), ("avail_spread", _D),
        ("avail_floor", _D), ("avail_ceil", _D),
        ("horizon", _D), ("departure_mean", _D), ("session_mean", _D),
        ("spawn", _P),
        ("ki_nor", _P), ("ke_exp", _P),
        ("wi_nor", _P), ("fi_nor", _P), ("we_exp", _P), ("fe_exp", _P),
        ("nor_r", _D), ("nor_inv_r", _D), ("exp_r", _D),
        ("speed_z", _P), ("avail", _P), ("departure", _P),
        ("serve", _P), ("count", _P),
        ("s_starts", _P), ("s_ends", _P),
        ("s_len", _I), ("s_cap", _I),
    ]


#: The sampler's named streams, in the C ``S_*`` row order.
_STREAMS = ("speed", "avail", "churn.departure", "churn.phase",
            "churn.on", "churn.off")
_SPAWN = np.array([spawn_key_words(name) for name in _STREAMS],
                  dtype=np.uint32).ravel()
#: Spawn-key words of the event kernel's serve-stream lanes.
_ERROR_SPAWN = np.array(spawn_key_words("error"), dtype=np.uint32)
#: numpy's ziggurat tables, handed to the sampler as pointers.
_ZIG = {"ki_nor": np.array(KI_NOR, dtype=np.uint64),
        "ke_exp": np.array(KE_EXP, dtype=np.uint64),
        "wi_nor": np.array(WI_NOR, dtype=np.float64),
        "fi_nor": np.array(FI_NOR, dtype=np.float64),
        "we_exp": np.array(WE_EXP, dtype=np.float64),
        "fe_exp": np.array(FE_EXP, dtype=np.float64)}

_lib: Optional[ctypes.CDLL] = None


def _compile(flags: Optional[Sequence[str]] = None) -> str:
    """Build (or reuse) the kernel library; its path.

    The shared driver's :func:`repro.ckernel.compile_library`: ``flags``
    replaces the optimisation flags for test builds, and each flag set
    gets its own cached library.
    """
    return ckernel.compile_library(flags)


def _load() -> ctypes.CDLL:
    """The process's kernel library with the fleet entry points
    declared (the shared driver loads it once)."""
    global _lib
    if _lib is None:
        _lib = _declare(ckernel.load())
    return _lib


def _open(so_path: str) -> ctypes.CDLL:
    """Load a kernel library build and declare its fleet entry points."""
    return _declare(ckernel.open_library(so_path))


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the fleet entry points of a loaded kernel library."""
    lib.fleet_run.argtypes = [ctypes.POINTER(_FleetCtx)]
    lib.fleet_run.restype = ctypes.c_int
    lib.fleet_sample.argtypes = [ctypes.POINTER(_SampleCtx)]
    lib.fleet_sample.restype = ctypes.c_int
    for name in ("fleet_ctx_layout", "host_rec_layout", "heap_node_layout",
                 "sample_ctx_layout"):
        getattr(lib, name).argtypes = [ctypes.POINTER(_I)]
        getattr(lib, name).restype = _I
    lib.fleet_sha256.argtypes = [ctypes.c_char_p, _I, ctypes.c_char_p]
    lib.fleet_sha256.restype = None
    lib.fleet_draw_uniforms.argtypes = [ctypes.c_char_p, _I, ctypes.c_char_p,
                                        _I, _I, _I, _P]
    lib.fleet_draw_uniforms.restype = ctypes.c_int
    lib.fleet_init_hosts.argtypes = [_P, _I] + [_P] * 8
    lib.fleet_init_hosts.restype = None
    return lib


def available() -> bool:
    """``True`` once the compiled kernel is loaded; raises
    :class:`~repro.errors.NativeBuildError` when it cannot be built."""
    return _load() is not None


def _addr(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _capacity(spec: Tuple[int, int], n: int) -> int:
    floor, per_host = spec
    return max(floor, per_host * n)


def _aligned(count: int, dtype: np.dtype, align: int,
             lead: int = 0) -> np.ndarray:
    """``count`` uninitialised records of ``dtype`` whose record ``lead``
    starts on an ``align``-byte boundary."""
    size = count * dtype.itemsize
    raw = np.empty(size + align, dtype=np.uint8)
    skip = -(raw.ctypes.data + lead * dtype.itemsize) % align
    return raw[skip:skip + size].view(dtype)


def _heap(cap: int, old: Optional[Tuple[np.ndarray, np.ndarray]] = None,
          ) -> Tuple[np.ndarray, np.ndarray]:
    """Heap times and nodes for ``cap`` events, holding ``old``'s.  Time
    1 starts a cache line, so the four child times of any event share
    one line."""
    times = _aligned(cap, np.dtype(np.float64), _LINE, lead=1)
    nodes = np.zeros(cap, dtype=_NODE_DTYPE)
    if old is not None:
        times[:len(old[0])] = old[0]
        nodes[:len(old[1])] = old[1]
    return times, nodes


def _host_records(lib: ctypes.CDLL, prep: Any, soff: np.ndarray,
                  fs: np.ndarray, fe: np.ndarray) -> np.ndarray:
    """One :data:`_HOST_DTYPE` record per host, on 128-byte boundaries,
    filled by the kernel library from the prep's host columns."""
    n = prep.n
    columns = [np.ascontiguousarray(col, dtype=np.float64)
               for col in (prep.an, prep.base, prep.departure)]
    seeds = np.ascontiguousarray(prep.serve_seed, dtype=np.uint64)
    if len(soff) != n + 1 or soff[-1] > min(len(fs), len(fe)) or any(
            len(col) != n for col in (*columns, seeds)):
        raise ValueError(f"host columns do not describe {n} hosts")
    hosts = _aligned(n, _HOST_DTYPE, 2 * _LINE)
    lib.fleet_init_hosts(_addr(hosts), n, _addr(soff), _addr(fs), _addr(fe),
                         *map(_addr, columns), _addr(seeds),
                         _addr(_ERROR_SPAWN))
    return hosts


def run_event_loop(prep: Any) -> Optional[Dict[str, Any]]:
    """Run the fleet event loop in C; ``None`` if its int32 ids or its
    quorum field cannot hold the run.

    ``prep`` is the server's ``_FastPrep``.  Returns the canonical flat
    state dict consumed by ``FleetServer._fast_report`` — identical,
    value for value, to what ``_fast_loop_python`` produces.
    """
    lib = _load()
    n = prep.n
    nwu = prep.nwu
    quorum = prep.quorum
    max_replicas = prep.max_replicas
    if quorum > 255 or n >= 2 ** 31 or nwu * max_replicas >= 2 ** 31:
        return None  # host, unit and replica ids are int32 in the kernel

    soff = np.ascontiguousarray(prep.soff, dtype=np.int64)
    fs = np.ascontiguousarray(prep.fs, dtype=np.float64)
    fe = np.ascontiguousarray(prep.fe, dtype=np.float64)
    stretch = np.ascontiguousarray(prep.stretch, dtype=np.float64)
    delays = np.ascontiguousarray(prep.delays, dtype=np.float64)

    wu_state = np.zeros(nwu, dtype=np.uint8)
    wu_validated = np.zeros(nwu, dtype=np.float64)
    wu_issued = np.zeros(nwu, dtype=np.int32)
    wu_out = np.zeros(nwu, dtype=np.int32)
    wu_tmo = np.zeros(nwu, dtype=np.int32)
    wu_holders = np.full(nwu * quorum, -1, dtype=np.int32)
    wu_nhold = np.zeros(nwu, dtype=np.uint8)
    # a unit's hosts are its replicas' r_host, chained newest first
    wu_last = np.full(nwu, -1, dtype=np.int32)

    rep_cap = _capacity(_REP_CAP, n)
    r_host = np.empty(rep_cap, dtype=np.int32)
    r_prev = np.empty(rep_cap, dtype=np.int32)
    r_disp = np.empty(rep_cap, dtype=np.float64)
    r_flag = np.empty(rep_cap, dtype=np.uint8)

    ret_cap = _capacity(_RET_CAP, n)
    ret_wid = np.empty(ret_cap, dtype=np.int32)
    ret_host = np.empty(ret_cap, dtype=np.int32)
    ret_cpu = np.empty(ret_cap, dtype=np.float64)

    # the need queue starts as every unit quorum times: one FRESH entry
    # standing for that range as a cursor
    need_cap = 1 + _capacity(_NEED_CAP, n)
    need = np.empty(need_cap, dtype=np.int32)
    need_count = 1 if nwu else 0
    need[0] = _FRESH
    stash = np.empty(need_cap, dtype=np.int32)

    # initial REQUEST events: one per host with sessions, seq assigned
    # in host order; a (t, seq)-sorted array is a valid 4-ary min-heap
    has_sessions = np.flatnonzero(soff[1:] > soff[:-1])
    first_start = fs[soff[:-1][has_sessions]]
    seqs = np.arange(len(has_sessions), dtype=np.int64)
    order = np.lexsort((seqs, first_start))
    k = len(has_sessions)
    heap_cap = max(_capacity(_HEAP_CAP, n), k)
    heap_t, heap = _heap(heap_cap)
    heap_t[:k] = first_start[order]
    heap["seq"][:k] = seqs[order]
    heap["host"][:k] = has_sessions[order]  # kind K_REQUEST == 0

    hosts = _host_records(lib, prep, soff, fs, fe)

    ctx = _FleetCtx()
    ctx.n = n
    ctx.nwu = nwu
    ctx.quorum = quorum
    ctx.max_replicas = max_replicas
    ctx.horizon = prep.horizon
    ctx.err_rate = prep.err_rate
    ctx.n_delays = len(delays)
    for name, arr in (
            ("fs", fs), ("fe", fe),
            ("stretch", stretch), ("delays", delays), ("hosts", hosts),
            ("wu_state", wu_state), ("wu_validated", wu_validated),
            ("wu_issued", wu_issued), ("wu_out", wu_out),
            ("wu_tmo", wu_tmo), ("wu_holders", wu_holders),
            ("wu_nhold", wu_nhold), ("wu_last", wu_last)):
        setattr(ctx, name, _addr(arr))
    ctx.r_host = _addr(r_host)
    ctx.r_prev = _addr(r_prev)
    ctx.r_disp = _addr(r_disp)
    ctx.r_flag = _addr(r_flag)
    ctx.rep_cap = rep_cap
    ctx.ret_wid = _addr(ret_wid)
    ctx.ret_host = _addr(ret_host)
    ctx.ret_cpu = _addr(ret_cpu)
    ctx.ret_cap = ret_cap
    ctx.need = _addr(need)
    ctx.need_head = 0
    ctx.need_count = need_count
    ctx.need_cap = need_cap
    ctx.stash = _addr(stash)
    ctx.fresh_next = 0
    ctx.fresh_end = nwu * quorum
    ctx.heap_t = _addr(heap_t)
    ctx.heap = _addr(heap)
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
        if status == _ST_GROW_REP:
            rep_cap *= 2
            r_host, r_prev, r_disp, r_flag = (
                _grow(r_host, rep_cap), _grow(r_prev, rep_cap),
                _grow(r_disp, rep_cap), _grow(r_flag, rep_cap))
            ctx.r_host = _addr(r_host)
            ctx.r_prev = _addr(r_prev)
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
            heap_t, heap = _heap(heap_cap, (heap_t, heap))
            ctx.heap_t = _addr(heap_t)
            ctx.heap = _addr(heap)
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
        "waste": np.ascontiguousarray(hosts["waste"]),
    }


def sample_columns(config: FleetConfig, start: int,
                   stop: int) -> Dict[str, Any]:
    """Sample hosts ``[start, stop)`` in C.

    Returns the columns of :func:`repro.fleet.columns._sample_shard_columns`
    before the speed factor: ``speed_z`` holds the raw normal draws of
    the ``"speed"`` stream (``None`` at ``host_gflops_sigma == 0``, where
    the object path draws nothing), the rest are final.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"bad host range [{start}, {stop})")
    lib = _load()
    n = stop - start
    draw_speed = config.host_gflops_sigma != 0.0
    root = np.frombuffer(f"{config.seed}/host-".encode(), dtype=np.uint8)
    speed_z = np.empty(n if draw_speed else 0, dtype=np.float64)
    avail = np.empty(n, dtype=np.float64)
    departure = np.empty(n, dtype=np.float64)
    serve = np.empty(n, dtype=np.uint64)
    count = np.empty(n, dtype=np.int64)
    # room for horizon / session_mean + 2 sessions per host (the mean
    # count is lower: ~5 a day at the default churn), capped at 64; the
    # buffer doubles whenever a host would overflow it
    per_host = min(64, int(config.duration_s / config.session_mean_s) + 2)
    s_cap = max(1024, n * per_host)
    s_starts = np.empty(s_cap, dtype=np.float64)
    s_ends = np.empty(s_cap, dtype=np.float64)

    ctx = _SampleCtx()
    ctx.start = ctx.next = start
    ctx.stop = stop
    ctx.root = _addr(root)
    ctx.root_len = len(root)
    ctx.draw_speed = int(draw_speed)
    ctx.avail_mean = config.availability_mean
    ctx.avail_spread = config.availability_spread
    ctx.avail_floor = AVAILABILITY_FLOOR
    ctx.avail_ceil = AVAILABILITY_CEIL
    ctx.horizon = config.duration_s
    ctx.departure_mean = config.departure_mean_s
    ctx.session_mean = config.session_mean_s
    ctx.spawn = _addr(_SPAWN)
    for name, table in _ZIG.items():
        setattr(ctx, name, _addr(table))
    ctx.nor_r = NOR_R
    ctx.nor_inv_r = NOR_INV_R
    ctx.exp_r = EXP_R
    for name, arr in (("speed_z", speed_z), ("avail", avail),
                      ("departure", departure), ("serve", serve),
                      ("count", count), ("s_starts", s_starts),
                      ("s_ends", s_ends)):
        setattr(ctx, name, _addr(arr))
    ctx.s_len = 0
    ctx.s_cap = s_cap

    while True:
        status = lib.fleet_sample(ctypes.byref(ctx))
        if status == _ST_DONE:
            break
        if status != _ST_GROW_SESS:  # pragma: no cover - a kernel bug
            raise RuntimeError(f"column sampler returned status {status}")
        s_cap *= 2
        s_starts, s_ends = _grow(s_starts, s_cap), _grow(s_ends, s_cap)
        ctx.s_starts = _addr(s_starts)
        ctx.s_ends = _addr(s_ends)
        ctx.s_cap = s_cap

    # Trim the session buffers to what was written, in place (no copy):
    # the fleet's columns keep these arrays for the whole run.
    s_len = int(ctx.s_len)
    s_starts.resize(s_len, refcheck=False)
    s_ends.resize(s_len, refcheck=False)
    return {"speed_z": speed_z if draw_speed else None,
            "availability": avail, "departure_s": departure,
            "serve_seed": serve, "s_starts": s_starts,
            "s_ends": s_ends, "s_cnt": count}


def draw_uniforms(prefix: bytes, suffix: bytes, first: int,
                  count: int) -> Optional[np.ndarray]:
    """``_draw``'s uniforms for keys ``first .. first + count - 1`` in C.

    ``prefix`` and ``suffix`` are the payload bytes around the key, from
    :func:`repro.faults.plan.draw_affixes`.  ``None`` when a key is
    negative or past int64, or a payload would overflow the kernel's
    fixed formatting buffer; callers then draw key by key.
    """
    lib = _load()
    if first < 0 or count < 0 or first + count > 2 ** 63 - 1:
        return None
    out = np.empty(count, dtype=np.float64)
    if lib.fleet_draw_uniforms(prefix, len(prefix), suffix, len(suffix),
                               first, count, _addr(out)) != 0:
        return None
    return out


def _grow(arr: np.ndarray, new_cap: int) -> np.ndarray:
    grown = np.empty(new_cap, dtype=arr.dtype)
    grown[:len(arr)] = arr
    return grown
