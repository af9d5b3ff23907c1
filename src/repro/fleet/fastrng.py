"""Vectorised PCG64 sampling, bit-identical to numpy's ``Generator``.

The fleet build (:mod:`repro.fleet.columns`) must reproduce exactly the
draws that :class:`repro.simcore.rng.RngStreams` makes through
``numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key)))`` —
the host columns are only admissible if they are byte-identical to the
per-host object build.  numpy's ``Generator`` API is scalar-per-stream
here (one generator per host per stream name), so sampling 100k hosts
through it costs 100k generator constructions.  This module instead
runs the full derivation chain *vectorised across hosts*:

* ``SeedSequence`` mixing and PCG64 seeding with a per-host root seed,
  one LCG step, the XSL-RR output and ``next_double`` — the shared core
  in :mod:`repro.simcore.pcg`, which :meth:`RngStreams.first_uniforms
  <repro.simcore.rng.RngStreams.first_uniforms>` also uses for bulk
  first draws over many stream names;
* the 256-layer ziggurat samplers for the standard normal and standard
  exponential (tables in :mod:`repro.fleet._zigdata`), with the ~1% of
  draws that fall off the vector fast path (tail or wedge rejection)
  finished by an exact scalar replica continuing from that lane's state.

It serves the Python twins of the compiled kernel, which ``_cloop.c``
replaces whenever it builds: the numpy column build
(:mod:`repro.fleet.columns`) and the Python event loop
(``server._fast_loop_python``, the only caller of
``VecPcg.seeded(..., "error")``; the kernel seeds its serve streams in
C).  ``_cloop.c`` carries its own C copy of the same chain, so this
module is also that sampler's test oracle.  :func:`exp_consistent`
guards the one numpy call the column build keeps on both routes, the
vectorised ``np.exp`` of the lognormal speed factor.

Every distribution is verified against the installed numpy by
``tests/test_fleet_columns.py``; the fleet equivalence suite then checks
the end-to-end reports.  The object path (``RngStreams.stream`` and its
``Generator``) stays the reference implementation.
"""

from __future__ import annotations

import hashlib
import math
from typing import List

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
from repro.simcore.pcg import (
    D53,
    M32,
    M64,
    M128,
    MULT,
    mix_words,
    next_raw64,
    seed_limbs,
    spawn_key_words,
    to_doubles,
)

__all__ = [
    "ScalarPcg",
    "VecPcg",
    "fork_seed",
    "seeded_vec",
    "exp_consistent",
]

# table views for the vector kernels
_WI = np.array(WI_NOR, dtype=np.float64)
_KI = np.array(KI_NOR, dtype=np.uint64)
_FI = np.array(FI_NOR, dtype=np.float64)
_WE = np.array(WE_EXP, dtype=np.float64)
_KE = np.array(KE_EXP, dtype=np.uint64)
_FE = np.array(FE_EXP, dtype=np.float64)


def fork_seed(root_seed: int, name: str) -> int:
    """``RngStreams(root_seed).fork(name).root_seed`` without numpy."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# -- scalar replica (fallback lanes and unit tests) -----------------------


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
        e = np.ascontiguousarray(entropy64, dtype=np.uint64)
        lanes = [(e & np.uint64(M32)).astype(np.uint32),
                 (e >> np.uint64(32)).astype(np.uint32), 0, 0]
        state, inc = seed_limbs(mix_words(lanes + list(spawn_key_words(name))))
        return cls(state, inc)

    # -- lane plumbing ---------------------------------------------------

    def lane(self, i: int) -> ScalarPcg:
        s = sum(int(self.s[k][i]) << (32 * k) for k in range(4))
        inc = sum(int(self.inc[k][i]) << (32 * k) for k in range(4))
        return ScalarPcg(s, inc)

    def store_lane(self, i: int, pcg: ScalarPcg) -> None:
        st = pcg.state
        for k in range(4):
            self.s[k][i] = (st >> (32 * k)) & M32

    def gather(self, indices: np.ndarray) -> "VecPcg":
        return VecPcg([limb[indices] for limb in self.s],
                      [limb[indices] for limb in self.inc])

    def scatter(self, indices: np.ndarray, sub: "VecPcg") -> None:
        for k in range(4):
            self.s[k][indices] = sub.s[k]

    # -- raw outputs -----------------------------------------------------

    def raw64(self) -> np.ndarray:
        """Step every lane once; return the XSL-RR outputs."""
        self.s, raw = next_raw64(self.s, self.inc)
        return raw

    def doubles(self) -> np.ndarray:
        return to_doubles(self.raw64())

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
