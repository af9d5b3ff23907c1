"""The fleet column sampler in numpy: the test oracle of ``_cloop.c``'s.

:func:`sample_shard_numpy` builds the same host columns as the compiled
sampler (:func:`repro.fleet.cloop.sample_columns`) and returns the same
dict, but advances a block of hosts in lockstep through vectorised
numpy: the ``RngStreams`` forks (:func:`fork_seed`), SeedSequence mixing
and PCG64 steps of :mod:`repro.simcore.pcg` (through
:class:`repro.fleet.fastrng.VecPcg`), and numpy's 256-layer ziggurat
samplers for the standard normal and exponential (:class:`ZigguratPcg`,
tables in :mod:`repro.fleet._zigdata`).  The ~1% of draws that fall off
the vector fast path (tail or wedge rejection) are finished by an exact
scalar replica (:class:`ScalarPcg`) continuing from that lane's state.

Every distribution is checked against the installed numpy by
``tests/test_fleet_columns.py``; the compiled sampler is held to this
build by ``tests/property/test_prop_fleet_sampler.py``.
:func:`use_python_fleet` runs a whole fleet on this sampler and on the
Python event loop, for the CI drill that compares their report bytes
with the compiled path's.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

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
from repro.fleet.fastrng import VecPcg
from repro.fleet.host import AVAILABILITY_CEIL, AVAILABILITY_FLOOR
from repro.simcore.pcg import D53, M32, M64, M128, MULT

# table views for the vector kernels
_WI = np.array(WI_NOR, dtype=np.float64)
_KI = np.array(KI_NOR, dtype=np.uint64)
_WE = np.array(WE_EXP, dtype=np.float64)
_KE = np.array(KE_EXP, dtype=np.uint64)


def fork_seed(root_seed: int, name: str) -> int:
    """``RngStreams(root_seed).fork(name).root_seed`` without numpy."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# -- scalar replica (slow lanes and unit tests) ---------------------------


class ScalarPcg:
    """One PCG64 stream as plain Python integers (exact, slow)."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc

    def u64(self) -> int:
        st = (self.state * MULT + self.inc) & M128
        self.state = st
        value = (st >> 64) ^ (st & M64)
        rot = st >> 122
        return ((value >> rot) | (value << ((64 - rot) & 63))) & M64

    def dbl(self) -> float:
        return (self.u64() >> 11) * D53

    def std_normal(self) -> float:
        r = self.u64()
        idx = r & 0xFF
        r >>= 8
        sign = r & 0x1
        rabs = (r >> 1) & 0xFFFFFFFFFFFFF
        x = rabs * WI_NOR[idx]
        if rabs < KI_NOR[idx]:
            return -x if sign else x
        return _normal_unlikely(self, idx, sign, rabs, x)

    def std_exp(self) -> float:
        ri = self.u64() >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE_EXP[idx]
        if ri < KE_EXP[idx]:
            return x
        return _exp_unlikely(self, idx, x)


def _normal_unlikely(pcg: ScalarPcg, idx: int, sign: int, rabs: int,
                     x: float) -> float:
    """The ziggurat slow path: layer-0 tail or wedge rejection test.

    Mirrors numpy's ``random_standard_normal`` exactly, including the
    quirk that the tail sample's sign comes from bit 8 of ``rabs``, not
    the main sign bit.
    """
    while True:
        if idx == 0:
            while True:
                xx = -NOR_INV_R * math.log1p(-pcg.dbl())
                yy = -math.log1p(-pcg.dbl())
                if yy + yy > xx * xx:
                    break
            return -(NOR_R + xx) if (rabs >> 8) & 0x1 else NOR_R + xx
        if (FI_NOR[idx - 1] - FI_NOR[idx]) * pcg.dbl() + FI_NOR[idx] \
                < math.exp(-0.5 * x * x):
            return -x if sign else x
        r = pcg.u64()
        idx = r & 0xFF
        r >>= 8
        sign = r & 0x1
        rabs = (r >> 1) & 0xFFFFFFFFFFFFF
        x = rabs * WI_NOR[idx]
        if rabs < KI_NOR[idx]:
            return -x if sign else x


def _exp_unlikely(pcg: ScalarPcg, idx: int, x: float) -> float:
    """numpy's ``standard_exponential_unlikely`` plus the redraw loop."""
    while True:
        if idx == 0:
            return EXP_R - math.log1p(-pcg.dbl())
        if (FE_EXP[idx - 1] - FE_EXP[idx]) * pcg.dbl() + FE_EXP[idx] \
                < math.exp(-x):
            return x
        ri = pcg.u64() >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE_EXP[idx]
        if ri < KE_EXP[idx]:
            return x


# -- the vectorised ziggurat ---------------------------------------------


class ZigguratPcg(VecPcg):
    """:class:`~repro.fleet.fastrng.VecPcg` lanes with numpy's ziggurat
    normal and exponential draws."""

    __slots__ = ()

    # -- lane plumbing ---------------------------------------------------

    def lane(self, i: int) -> ScalarPcg:
        s = sum(int(self.s[k][i]) << (32 * k) for k in range(4))
        inc = sum(int(self.inc[k][i]) << (32 * k) for k in range(4))
        return ScalarPcg(s, inc)

    def store_lane(self, i: int, pcg: ScalarPcg) -> None:
        st = pcg.state
        for k in range(4):
            self.s[k][i] = (st >> (32 * k)) & M32

    def gather(self, indices: np.ndarray) -> "ZigguratPcg":
        return ZigguratPcg([limb[indices] for limb in self.s],
                           [limb[indices] for limb in self.inc])

    def scatter(self, indices: np.ndarray, sub: "ZigguratPcg") -> None:
        for k in range(4):
            self.s[k][indices] = sub.s[k]

    # -- distributions ---------------------------------------------------

    def std_normal(self) -> np.ndarray:
        r = self.raw64()
        idx = (r & np.uint64(0xFF)).astype(np.intp)
        r = r >> np.uint64(8)
        sign = (r & np.uint64(1)).astype(bool)
        rabs = (r >> np.uint64(1)) & np.uint64(0xFFFFFFFFFFFFF)
        x = rabs.astype(np.float64) * _WI[idx]
        out = np.where(sign, -x, x)
        slow = np.flatnonzero(rabs >= _KI[idx])
        for i in slow:
            pcg = self.lane(i)
            out[i] = _normal_unlikely(pcg, int(idx[i]), int(sign[i]),
                                      int(rabs[i]), float(x[i]))
            self.store_lane(i, pcg)
        return out

    def std_exp(self) -> np.ndarray:
        ri = self.raw64() >> np.uint64(3)
        idx = (ri & np.uint64(0xFF)).astype(np.intp)
        ri = ri >> np.uint64(8)
        x = ri.astype(np.float64) * _WE[idx]
        slow = np.flatnonzero(ri >= _KE[idx])
        for i in slow:
            pcg = self.lane(i)
            x[i] = _exp_unlikely(pcg, int(idx[i]), float(x[i]))
            self.store_lane(i, pcg)
        return x


# -- the column build ----------------------------------------------------


#: Hosts per lockstep block of the numpy build: its per-round
#: gather/scatter temporaries scale with the block, not the fleet.
NUMPY_BLOCK = 8192


def sample_shard_numpy(config: FleetConfig, start: int,
                        stop: int) -> Dict[str, Optional[np.ndarray]]:
    """The vectorised numpy oracle of the compiled sampler, run over the
    range :data:`NUMPY_BLOCK` hosts at a time (every host draws from
    its own streams, so blocks join without changing a byte).  Same
    result dict as :func:`repro.fleet.cloop.sample_columns`."""
    blocks = [sample_block_numpy(config, lo, min(lo + NUMPY_BLOCK, stop))
              for lo in range(start, stop, NUMPY_BLOCK) or [start]]
    if len(blocks) == 1:
        return blocks[0]
    return {key: None if blocks[0][key] is None
            else np.concatenate([block[key] for block in blocks])
            for key in blocks[0]}


def sample_block_numpy(config: FleetConfig, start: int,
                        stop: int) -> Dict[str, Optional[np.ndarray]]:
    """One block of the numpy build: every host of ``[start, stop)``
    advances through each draw in lockstep, lanes that leave the
    renewal loop drop out."""
    n = stop - start
    child = np.empty(n, dtype=np.uint64)
    trace = np.empty(n, dtype=np.uint64)
    serve = np.empty(n, dtype=np.uint64)
    seed = config.seed
    for k, index in enumerate(range(start, stop)):
        child_seed = fork_seed(seed, f"host-{index}")
        child[k] = child_seed
        trace[k] = fork_seed(child_seed, "trace")
        serve[k] = fork_seed(child_seed, "serve")

    speed_z = None
    if config.host_gflops_sigma != 0.0:
        speed_z = ZigguratPcg.seeded(child, "speed").std_normal()

    # availability: normal("avail", mean, spread) clamped to the band.
    z = ZigguratPcg.seeded(child, "avail").std_normal()
    avail = config.availability_mean + config.availability_spread * z
    avail = np.minimum(AVAILABILITY_CEIL,
                       np.maximum(AVAILABILITY_FLOOR, avail))

    # churn trace: departure clock, phase draw, alternating on/off renewal
    # (availability is clamped <= AVAILABILITY_CEIL < 1, so the object
    # path's always-on branch is unreachable and every off-gap draws).
    horizon = config.duration_s
    departure = ZigguratPcg.seeded(trace, "churn.departure").std_exp() \
        * config.departure_mean_s
    eow = np.minimum(horizon, departure)
    phase = ZigguratPcg.seeded(trace, "churn.phase").doubles()
    on = phase < avail
    off_mean = config.session_mean_s * (1.0 - avail) / avail
    on_pcg = ZigguratPcg.seeded(trace, "churn.on")
    off_pcg = ZigguratPcg.seeded(trace, "churn.off")

    t = np.zeros(n)
    start_off = np.flatnonzero(~on)
    if start_off.size:
        sub = off_pcg.gather(start_off)
        t[start_off] = sub.std_exp() * off_mean[start_off]
        off_pcg.scatter(start_off, sub)

    counts = np.zeros(n, dtype=np.int64)
    rounds: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    alive = np.flatnonzero(t < eow)
    while alive.size:
        sub = on_pcg.gather(alive)
        length = sub.std_exp() * config.session_mean_s
        on_pcg.scatter(alive, sub)
        s_start = t[alive]
        t_next = s_start + length
        s_end = np.minimum(t_next, eow[alive])
        rounds.append((alive, s_start, s_end))
        counts[alive] += 1
        sub = off_pcg.gather(alive)
        gap = sub.std_exp() * off_mean[alive]
        off_pcg.scatter(alive, sub)
        t[alive] = t_next + gap
        alive = alive[t[alive] < eow[alive]]

    # CSR scatter: the alive set only shrinks, so a lane alive in round
    # r has exactly r earlier sessions — its slot is offset + r.
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    s_starts = np.empty(off[-1])
    s_ends = np.empty(off[-1])
    for r, (idxs, st, en) in enumerate(rounds):
        pos = off[idxs] + r
        s_starts[pos] = st
        s_ends[pos] = en

    return {"speed_z": speed_z, "availability": avail,
            "departure_s": departure, "serve_seed": serve,
            "s_starts": s_starts, "s_ends": s_ends, "s_cnt": counts}


def use_python_fleet() -> None:
    """Run every later fleet of this process on the numpy sampler and the
    Python event loop instead of the compiled kernel."""
    from repro.fleet import columns, server

    columns.sample_columns = sample_shard_numpy
    server._c_event_loop = lambda prep: None
