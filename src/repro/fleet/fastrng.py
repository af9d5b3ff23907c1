"""Vectorised PCG64 sampling, bit-identical to numpy's ``Generator``.

The fleet build (:mod:`repro.fleet.columns`) must reproduce exactly the
draws that :class:`repro.simcore.rng.RngStreams` makes through
``numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key)))`` —
the host columns are only admissible if they are byte-identical to the
per-host object build.  numpy's ``Generator`` API is scalar-per-stream
here (one generator per host per stream name), so sampling 100k hosts
through it costs 100k generator constructions.  This module instead
reimplements the full derivation chain *vectorised across hosts*:

* ``SeedSequence`` entropy-pool mixing (the DUMMY/Doty-Humphrey hashes)
  — the hash-constant schedule is data-independent, so every host mixes
  in lockstep with two per-host entropy words;
* PCG64 seeding (``state = (inc + seed)*MULT + inc``) in 32-bit limbs;
* the XSL-RR output function and ``next_double``;
* the 256-layer ziggurat samplers for the standard normal and standard
  exponential (tables in :mod:`repro.fleet._zigdata`), with the ~1% of
  draws that fall off the vector fast path (tail or wedge rejection)
  finished by an exact scalar replica continuing from that lane's state.

Two consumers drive it.  The column build uses it only when the
compiled kernel is unavailable: ``_cloop.c`` carries its own C copy of
the same chain, and this module is that sampler's fallback and test
oracle.  The event kernel's serve streams are always seeded here
(:meth:`VecPcg.seeded`) and handed to C as 64-bit halves.
:func:`exp_consistent` guards the one numpy call the column build keeps
on both routes, the vectorised ``np.exp`` of the lognormal speed factor.

Every distribution is verified against the installed numpy by
``tests/test_fleet_columns.py``; the fleet equivalence suite then checks
the end-to-end reports.  Nothing here touches ``repro.simcore.rng`` —
the object path stays the reference implementation.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

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

__all__ = [
    "ScalarPcg",
    "VecPcg",
    "fork_seed",
    "spawn_key_words",
    "seeded_vec",
    "exp_consistent",
]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

#: The PCG64 LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MULT_LIMBS = tuple((_MULT >> (32 * k)) & _M32 for k in range(4))

# SeedSequence hash constants (Doty-Humphrey's entropy pool).
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

_D53 = 1.0 / 9007199254740992.0  # 2**-53

# table views for the vector kernels
_WI = np.array(WI_NOR, dtype=np.float64)
_KI = np.array(KI_NOR, dtype=np.uint64)
_FI = np.array(FI_NOR, dtype=np.float64)
_WE = np.array(WE_EXP, dtype=np.float64)
_KE = np.array(KE_EXP, dtype=np.uint64)
_FE = np.array(FE_EXP, dtype=np.float64)


def _hash_chain(init: int, mult: int, calls: int) -> List[int]:
    """The hash-constant schedule: value ``j`` is XORed at call ``j`` and
    value ``j+1`` is the multiplier of call ``j`` (data-independent)."""
    consts = [init]
    h = init
    for _ in range(calls):
        h = (h * mult) & _M32
        consts.append(h)
    return consts


# 4 init hashes + 12 pairwise mixes + 4 remaining words x 4 slots = 32
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, 32)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)


def fork_seed(root_seed: int, name: str) -> int:
    """``RngStreams(root_seed).fork(name).root_seed`` without numpy."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_key_words(name: str) -> Tuple[int, ...]:
    """The four uint32 spawn-key words ``RngStreams.stream(name)`` uses."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 16, 4))


# -- scalar replica (fallback lanes and unit tests) -----------------------


class ScalarPcg:
    """One PCG64 stream as plain Python integers (exact, slow)."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc

    @classmethod
    def seeded(cls, entropy64: int, name: str) -> "ScalarPcg":
        """Seed exactly like ``RngStreams(entropy64).stream(name)``."""
        words = _mix_scalar(entropy64, spawn_key_words(name))
        return cls(*_state_from_words(words))

    def u64(self) -> int:
        st = (self.state * _MULT + self.inc) & _M128
        self.state = st
        value = (st >> 64) ^ (st & _M64)
        rot = st >> 122
        return ((value >> rot) | (value << ((64 - rot) & 63))) & _M64

    def dbl(self) -> float:
        return (self.u64() >> 11) * _D53

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


# -- scalar seeding helpers (shared by the vector path's constants) -------


def _hmix_scalar(value: int, j: int) -> int:
    value = (value ^ _CHAIN_A[j]) & _M32
    value = (value * _CHAIN_A[j + 1]) & _M32
    return value ^ (value >> _XSHIFT)


def _mix_scalar(entropy64: int, spawn: Sequence[int]) -> List[int]:
    """SeedSequence pool mix + generate_state(4, uint64), scalar."""
    assembled = [entropy64 & _M32, (entropy64 >> 32) & _M32, 0, 0,
                 *spawn]
    pool = [0] * _POOL
    j = 0
    for i in range(_POOL):
        pool[i] = _hmix_scalar(assembled[i], j)
        j += 1
    for i_src in range(_POOL):
        for i_dst in range(_POOL):
            if i_src != i_dst:
                hashed = _hmix_scalar(pool[i_src], j)
                j += 1
                res = (pool[i_dst] * _MIX_L - hashed * _MIX_R) & _M32
                pool[i_dst] = res ^ (res >> _XSHIFT)
    for i_src in range(_POOL, len(assembled)):
        for i_dst in range(_POOL):
            hashed = _hmix_scalar(assembled[i_src], j)
            j += 1
            res = (pool[i_dst] * _MIX_L - hashed * _MIX_R) & _M32
            pool[i_dst] = res ^ (res >> _XSHIFT)
    out32 = []
    for i in range(8):
        val = (pool[i % _POOL] ^ _CHAIN_B[i]) & _M32
        val = (val * _CHAIN_B[i + 1]) & _M32
        out32.append(val ^ (val >> _XSHIFT))
    return [out32[2 * i] | (out32[2 * i + 1] << 32) for i in range(4)]


def _state_from_words(w: Sequence[int]) -> Tuple[int, int]:
    """PCG64 ``(state, inc)`` from ``generate_state(4, uint64)`` words."""
    inc = ((((w[2] << 64) | w[3]) << 1) | 1) & _M128
    seed = (w[0] << 64) | w[1]
    state = ((inc + seed) * _MULT + inc) & _M128
    return state, inc


# -- the vectorised stream bundle ----------------------------------------


class VecPcg:
    """One PCG64 stream per lane, stepped in lockstep.

    State and increment live as four uint64 arrays of 32-bit limbs per
    lane, so the 128-bit LCG step is schoolbook limb arithmetic that
    never overflows uint64.  Draws advance every lane by the same number
    of raw outputs; per-lane over-draw is safe because each named stream
    feeds exactly one consumer (the prefix property of PCG64 draws).
    """

    __slots__ = ("s", "inc")

    def __init__(self, s: List[np.ndarray], inc: List[np.ndarray]):
        self.s = s
        self.inc = inc

    def __len__(self) -> int:
        return self.s[0].shape[0]

    # -- seeding ---------------------------------------------------------

    @classmethod
    def seeded(cls, entropy64: np.ndarray, name: str) -> "VecPcg":
        """Lane ``i`` equals ``RngStreams(entropy64[i]).stream(name)``."""
        spawn = spawn_key_words(name)
        e = np.ascontiguousarray(entropy64, dtype=np.uint64)
        u32 = np.uint32
        lanes = [(e & np.uint64(_M32)).astype(u32),
                 (e >> np.uint64(32)).astype(u32),
                 np.zeros(e.shape[0], dtype=u32),
                 np.zeros(e.shape[0], dtype=u32)]

        def hmix(value: np.ndarray, j: int) -> np.ndarray:
            value = value ^ u32(_CHAIN_A[j])
            value = value * u32(_CHAIN_A[j + 1])
            return value ^ (value >> u32(_XSHIFT))

        pool = []
        j = 0
        for i in range(_POOL):
            pool.append(hmix(lanes[i], j))
            j += 1
        for i_src in range(_POOL):
            for i_dst in range(_POOL):
                if i_src != i_dst:
                    hashed = hmix(pool[i_src], j)
                    j += 1
                    res = pool[i_dst] * u32(_MIX_L) - hashed * u32(_MIX_R)
                    pool[i_dst] = res ^ (res >> u32(_XSHIFT))
        for i_src in range(_POOL):
            # remaining assembled words are the four spawn-key words —
            # identical across lanes, so their hashes are scalars
            for i_dst in range(_POOL):
                hashed = _hmix_scalar(spawn[i_src], j)
                j += 1
                res = (pool[i_dst] * u32(_MIX_L)
                       - u32((hashed * _MIX_R) & _M32))
                pool[i_dst] = res ^ (res >> u32(_XSHIFT))
        out32 = []
        for i in range(8):
            val = pool[i % _POOL] ^ u32(_CHAIN_B[i])
            val = val * u32(_CHAIN_B[i + 1])
            out32.append(val ^ (val >> u32(_XSHIFT)))
        u64 = np.uint64
        w = [out32[2 * i].astype(u64)
             | (out32[2 * i + 1].astype(u64) << u64(32)) for i in range(4)]
        inc_lo = (w[3] << u64(1)) | u64(1)
        inc_hi = (w[2] << u64(1)) | (w[3] >> u64(63))
        m32 = u64(_M32)
        inc = [inc_lo & m32, inc_lo >> u64(32),
               inc_hi & m32, inc_hi >> u64(32)]
        seed = [w[1] & m32, w[1] >> u64(32), w[0] & m32, w[0] >> u64(32)]
        state = _add128(inc, seed)
        state = _mul128_const(state, _MULT_LIMBS)
        state = _add128(state, inc)
        return cls(state, inc)

    # -- lane plumbing ---------------------------------------------------

    def lane(self, i: int) -> ScalarPcg:
        s = sum(int(self.s[k][i]) << (32 * k) for k in range(4))
        inc = sum(int(self.inc[k][i]) << (32 * k) for k in range(4))
        return ScalarPcg(s, inc)

    def store_lane(self, i: int, pcg: ScalarPcg) -> None:
        st = pcg.state
        for k in range(4):
            self.s[k][i] = (st >> (32 * k)) & _M32

    def gather(self, indices: np.ndarray) -> "VecPcg":
        return VecPcg([limb[indices] for limb in self.s],
                      [limb[indices] for limb in self.inc])

    def scatter(self, indices: np.ndarray, sub: "VecPcg") -> None:
        for k in range(4):
            self.s[k][indices] = sub.s[k]

    # -- raw outputs -----------------------------------------------------

    def raw64(self) -> np.ndarray:
        """Step every lane once; return the XSL-RR outputs."""
        state = _add128(_mul128_const(self.s, _MULT_LIMBS), self.inc)
        self.s = state
        u64 = np.uint64
        lo = state[0] | (state[1] << u64(32))
        hi = state[2] | (state[3] << u64(32))
        value = hi ^ lo
        rot = state[3] >> u64(26)
        return (value >> rot) | (value << ((u64(64) - rot) & u64(63)))

    def doubles(self) -> np.ndarray:
        return (self.raw64() >> np.uint64(11)).astype(np.float64) * _D53

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


def seeded_vec(entropy64: np.ndarray, name: str) -> VecPcg:
    """Convenience alias for :meth:`VecPcg.seeded`."""
    return VecPcg.seeded(entropy64, name)


# -- 128-bit limb arithmetic (base 2**32, limbs held in uint64) ----------


def _add128(a: List[np.ndarray], b: List[np.ndarray]) -> List[np.ndarray]:
    u64 = np.uint64
    m32 = u64(_M32)
    out = []
    carry = u64(0)
    for k in range(4):
        col = a[k] + b[k] + carry
        out.append(col & m32)
        carry = col >> u64(32)
    return out


def _mul128_const(a: List[np.ndarray],
                  m: Tuple[int, int, int, int]) -> List[np.ndarray]:
    """``a * m mod 2**128`` with ``m`` a 4-limb constant.

    Column sums collect the 32-bit halves of every partial product; at
    most 7 sub-2**32 terms plus a sub-2**36 carry per column, far inside
    uint64.
    """
    u64 = np.uint64
    m32 = u64(_M32)
    mk = [u64(limb) for limb in m]
    p = {}
    for i in range(4):
        ai = a[i]
        for j in range(4 - i):
            p[(i, j)] = ai * mk[j]
    cols = [None] * 4
    for k in range(4):
        acc = None
        for i in range(k + 1):
            term = p[(i, k - i)] & m32
            acc = term if acc is None else acc + term
        if k > 0:
            for i in range(k):
                acc = acc + (p[(i, k - 1 - i)] >> u64(32))
        cols[k] = acc
    out = []
    carry = u64(0)
    for k in range(4):
        col = cols[k] + carry
        out.append(col & m32)
        carry = col >> u64(32)
    return out


# -- vector/scalar libm consistency --------------------------------------


def exp_consistent(sample: int = 4096, seed: int = 12345) -> bool:
    """True when ``np.exp`` over an array matches element-wise scalar
    ``np.exp`` bit-for-bit on this build (SIMD vs scalar code paths).

    The columnar host build (``columns._vector_exp_ok``, checked once
    per process) vectorises the lognormal speed factor only when this
    holds; otherwise it exponentiates lane by lane, exactly as the
    object path does.  The probe is deterministic and spans the
    relevant argument range, drawn by this module's own PCG64 lanes:
    numpy's ``Generator`` module costs ~2 MB of peak RSS to import, and
    columnar runs never import it otherwise.
    """
    entropy = np.arange(seed, seed + sample, dtype=np.uint64)
    probe = -6.0 + 12.0 * VecPcg.seeded(entropy, "exp-probe").doubles()
    vec = np.exp(probe)
    scalars = np.array([np.exp(v) for v in probe])
    return bool(np.array_equal(vec.view(np.uint64),
                               scalars.view(np.uint64)))
