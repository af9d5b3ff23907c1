"""Vectorised PCG64 uniforms, bit-identical to numpy's ``Generator``.

The fleet must reproduce exactly the draws that
:class:`repro.simcore.rng.RngStreams` makes through
``numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key)))``.
numpy's ``Generator`` API is scalar-per-stream here (one generator per
host per stream name), so drawing for 100k hosts through it costs 100k
generator constructions.  :class:`VecPcg` instead runs the derivation
chain *vectorised across hosts*: ``SeedSequence`` mixing and PCG64
seeding with a per-host root seed, one LCG step, the XSL-RR output and
``next_double`` — the shared core in :mod:`repro.simcore.pcg`, which
:meth:`RngStreams.first_uniforms
<repro.simcore.rng.RngStreams.first_uniforms>` also uses for bulk first
draws over many stream names.

Two callers: the Python event loop (``server._fast_loop_python``, which
draws the serve streams' ``uniform("error")`` in rounds; the kernel
seeds its serve streams in C) and :func:`exp_consistent`, which guards
the one numpy call the column build keeps, the vectorised ``np.exp`` of
the lognormal speed factor.  The numpy column sampler built on this
class, with numpy's ziggurat normal and exponential draws, is the
compiled sampler's test oracle (``tests/_oracle_columns.py``).  The
object path (``RngStreams.stream`` and its ``Generator``) stays the
reference implementation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.simcore.pcg import (
    M32,
    mix_words,
    next_raw64,
    seed_limbs,
    spawn_key_words,
    to_doubles,
)

__all__ = ["VecPcg", "exp_consistent"]

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

    # -- raw outputs -----------------------------------------------------

    def raw64(self) -> np.ndarray:
        """Step every lane once; return the XSL-RR outputs."""
        self.s, raw = next_raw64(self.s, self.inc)
        return raw

    def doubles(self) -> np.ndarray:
        return to_doubles(self.raw64())


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
