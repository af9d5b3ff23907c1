"""Driver of the compiled fleet kernels.

The fleet's kernels live in ``_cloop.c``, part of the extension that
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

The kernels are part of the one compiled module (:func:`repro.ckernel.load`:
built with the system C compiler on first use, cached in the temp
directory under a hash of the sources and the compiler flags).  The
event loop and the sampler are context types of that module,
``FleetRun`` and ``FleetSample``: each takes its scalars and its numpy
arrays by keyword, holds a buffer view of every array it points into,
and checks each view's item size, kind and contiguity when it is bound
and its length against the run's sizes before every ``run()``.  This
module fills them and drives the pause/resume protocol: a kernel returns
to Python whenever a growable buffer would overflow, the driver grows
the numpy array and rebinds it (``grow``), then resumes.  It grows by
copying into a fresh ``np.empty`` (:func:`_grow`), never with
``ndarray.resize``, which zero-fills the new tail and so makes the
whole capacity resident; an untouched tail costs address space only.
The serve-stream error uniforms never cross the boundary: the kernel
seeds each host's PCG64 lane into its record (``fleet_init_hosts``)
and steps it on demand.  Everything the kernels touch is a numpy array
owned here, so their outputs come back without copying, bar the
per-host waste column gathered out of the host records.

The module is required: with no compiler, or a failed compile
(including a compiler without ``unsigned __int128``), the first call
raises :class:`~repro.errors.NativeBuildError` (see
:mod:`repro.ckernel`).  ``run_event_loop`` returns ``None`` for a run
its int32 ids cannot index (the caller runs the Python loop) and
``draw_uniforms`` for keys or payloads it cannot format (the caller
draws key by key), both byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

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

_FRESH = -1  # the need-ring entry standing for the rest of the fresh range

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

#: The sampler's named streams, in the C ``S_*`` row order.
_STREAMS = ("speed", "avail", "churn.departure", "churn.phase",
            "churn.on", "churn.off")
_SPAWN = np.array([spawn_key_words(name) for name in _STREAMS],
                  dtype=np.uint32).ravel()
#: Spawn-key words of the event kernel's serve-stream lanes.
_ERROR_SPAWN = np.array(spawn_key_words("error"), dtype=np.uint32)
#: numpy's ziggurat tables, bound to the sampler by name.
_ZIG = {"ki_nor": np.array(KI_NOR, dtype=np.uint64),
        "ke_exp": np.array(KE_EXP, dtype=np.uint64),
        "wi_nor": np.array(WI_NOR, dtype=np.float64),
        "fi_nor": np.array(FI_NOR, dtype=np.float64),
        "we_exp": np.array(WE_EXP, dtype=np.float64),
        "fe_exp": np.array(FE_EXP, dtype=np.float64)}

def available() -> bool:
    """``True`` once the compiled kernel is loaded; raises
    :class:`~repro.errors.NativeBuildError` when it cannot be built."""
    return ckernel.available()


def _capacity(spec: Tuple[int, int], n: int) -> int:
    floor, per_host = spec
    return max(floor, per_host * n)


def _aligned(count: int, dtype: np.dtype, align: int,
             lead: int = 0) -> np.ndarray:
    """``count`` uninitialised records of ``dtype`` whose record ``lead``
    starts on an ``align``-byte boundary."""
    size = count * dtype.itemsize
    raw = np.empty(size + align, dtype=np.uint8)
    skip = -(raw.__array_interface__["data"][0]
             + lead * dtype.itemsize) % align
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


def _host_records(prep: Any, soff: np.ndarray, fs: np.ndarray,
                  fe: np.ndarray) -> np.ndarray:
    """One :data:`_HOST_DTYPE` record per host, on 128-byte boundaries,
    filled by the kernel from the prep's host columns."""
    n = prep.n
    columns = [np.ascontiguousarray(col, dtype=np.float64)
               for col in (prep.an, prep.base, prep.departure)]
    seeds = np.ascontiguousarray(prep.serve_seed, dtype=np.uint64)
    if len(soff) != n + 1 or any(len(col) != n
                                 for col in (*columns, seeds)):
        raise ValueError(f"host columns do not describe {n} hosts")
    hosts = _aligned(n, _HOST_DTYPE, 2 * _LINE)
    ckernel.load().fleet_init_hosts(hosts, soff, fs, fe, *columns, seeds,
                                    _ERROR_SPAWN)
    return hosts


def run_event_loop(prep: Any) -> Optional[Dict[str, Any]]:
    """Run the fleet event loop in C; ``None`` if its int32 ids or its
    quorum field cannot hold the run.

    ``prep`` is the server's ``_FastPrep``.  Returns the canonical flat
    state dict consumed by ``FleetServer._fast_report`` — identical,
    value for value, to what ``_fast_loop_python`` produces.
    """
    lib = ckernel.load()
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
    need[0] = _FRESH
    stash = np.empty(need_cap, dtype=np.int32)

    # initial REQUEST events: one per host with sessions, seq assigned
    # in host order; a (t, seq)-sorted array is a valid 4-ary min-heap
    has_sessions = np.flatnonzero(soff[1:] > soff[:-1])
    first_start = fs[soff[:-1][has_sessions]]
    seqs = np.arange(len(has_sessions), dtype=np.int64)
    order = np.lexsort((seqs, first_start))
    k = len(has_sessions)
    heap_t, heap = _heap(max(_capacity(_HEAP_CAP, n), k))
    heap_t[:k] = first_start[order]
    heap["seq"][:k] = seqs[order]
    heap["host"][:k] = has_sessions[order]  # kind K_REQUEST == 0

    hosts = _host_records(prep, soff, fs, fe)

    loop = lib.FleetRun(
        nwu=nwu, quorum=quorum, max_replicas=max_replicas,
        horizon=prep.horizon, err_rate=prep.err_rate,
        fs=fs, fe=fe, stretch=stretch, delays=delays, hosts=hosts,
        wu_state=wu_state, wu_validated=wu_validated, wu_issued=wu_issued,
        wu_out=wu_out, wu_tmo=wu_tmo, wu_holders=wu_holders,
        wu_nhold=wu_nhold, wu_last=wu_last,
        r_host=r_host, r_prev=r_prev, r_disp=r_disp, r_flag=r_flag,
        ret_wid=ret_wid, ret_host=ret_host, ret_cpu=ret_cpu,
        need=need, stash=stash, need_count=1 if nwu else 0,
        fresh_end=nwu * quorum,
        heap_t=heap_t, heap=heap, heap_len=k, seq=k)

    while True:
        status = loop.run()
        if status == _ST_DONE:
            break
        if status == _ST_GROW_REP:
            rep_cap = 2 * loop.rep_cap
            r_host, r_prev, r_disp, r_flag = (
                _grow(r_host, rep_cap), _grow(r_prev, rep_cap),
                _grow(r_disp, rep_cap), _grow(r_flag, rep_cap))
            loop.grow(r_host=r_host, r_prev=r_prev, r_disp=r_disp,
                      r_flag=r_flag)
        elif status == _ST_GROW_RET:
            ret_cap = 2 * loop.ret_cap
            ret_wid, ret_host, ret_cpu = (
                _grow(ret_wid, ret_cap), _grow(ret_host, ret_cap),
                _grow(ret_cpu, ret_cap))
            loop.grow(ret_wid=ret_wid, ret_host=ret_host, ret_cpu=ret_cpu)
        elif status == _ST_GROW_HEAP:
            heap_t, heap = _heap(2 * loop.heap_cap, (heap_t, heap))
            loop.grow(heap_t=heap_t, heap=heap)
        elif status == _ST_GROW_NEED:
            # linearize the ring into a doubled buffer
            count = loop.need_count
            idx = (loop.need_head + np.arange(count)) % loop.need_cap
            grown = np.empty(2 * loop.need_cap, dtype=np.int32)
            grown[:count] = need[idx]
            need = grown
            stash = np.empty(len(need), dtype=np.int32)
            loop.grow(need=need, stash=stash)
            loop.need_head = 0
        else:  # pragma: no cover - unknown status means a kernel bug
            raise RuntimeError(f"fleet kernel returned status {status}")

    n_rep = loop.n_rep
    ret_count = loop.ret_count
    return {
        "n_valid": loop.n_valid,
        "n_rep": n_rep,
        "need_peak": loop.need_peak,
        "ok_n": loop.ok_n,
        "err_n": loop.err_n,
        "stale_n": loop.stale_n,
        "tmo_n": loop.tmo_n,
        "red_n": loop.red_n,
        "err_cpu": loop.err_cpu,
        "stale_cpu": loop.stale_cpu,
        "red_cpu": loop.red_cpu,
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
    lib = ckernel.load()
    n = stop - start
    draw_speed = config.host_gflops_sigma != 0.0
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

    sampler = lib.FleetSample(
        start=start, stop=stop, next=start,
        root=f"{config.seed}/host-".encode(), draw_speed=int(draw_speed),
        avail_mean=config.availability_mean,
        avail_spread=config.availability_spread,
        avail_floor=AVAILABILITY_FLOOR, avail_ceil=AVAILABILITY_CEIL,
        horizon=config.duration_s, departure_mean=config.departure_mean_s,
        session_mean=config.session_mean_s, spawn=_SPAWN, **_ZIG,
        nor_r=NOR_R, nor_inv_r=NOR_INV_R, exp_r=EXP_R,
        speed_z=speed_z, avail=avail, departure=departure, serve=serve,
        count=count, s_starts=s_starts, s_ends=s_ends)

    while True:
        status = sampler.run()
        if status == _ST_DONE:
            break
        if status != _ST_GROW_SESS:  # pragma: no cover - a kernel bug
            raise RuntimeError(f"column sampler returned status {status}")
        s_cap = 2 * sampler.s_cap
        s_starts, s_ends = _grow(s_starts, s_cap), _grow(s_ends, s_cap)
        sampler.grow(s_starts=s_starts, s_ends=s_ends)

    # Trim the session buffers to what was written, in place (no copy):
    # the fleet's columns keep these arrays for the whole run.  The
    # sampler's views of them go first.
    s_len = sampler.s_len
    del sampler
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
    lib = ckernel.load()
    if first < 0 or count < 0 or first + count > 2 ** 63 - 1:
        return None
    out = np.empty(count, dtype=np.float64)
    if lib.fleet_draw_uniforms(prefix, suffix, first, count, out) != 0:
        return None
    return out


def _grow(arr: np.ndarray, new_cap: int) -> np.ndarray:
    grown = np.empty(new_cap, dtype=arr.dtype)
    grown[:len(arr)] = arr
    return grown
