"""Deterministic named random-number streams.

Every stochastic element of the simulator (disk seek jitter, packet
jitter, workload data, scheduler tick phase, ...) draws from its own named
substream derived from a single root seed.  This gives:

* bit-for-bit reproducibility for a (root_seed, stream_name) pair,
* independence between subsystems — adding a new consumer of randomness
  never perturbs existing streams,
* cheap per-repetition variation: repetition *k* uses root seed
  ``derive_rep_seed(root, k)``.

Streams are ``numpy.random.Generator`` instances (PCG64) seeded through
``SeedSequence`` with a stable hash of the stream name.

Building one costs ~45 µs, which dominates a draw site that opens a
fresh stream per item and draws from it once (the host 7z benchmark
names one stream per compressed block).  Such a site takes its draws
through :meth:`RngStreams.first_uniforms`: the first ``uniform`` of
many names in one vectorised pass (:mod:`repro.simcore.pcg`), bit for
bit what the per-name loop returns, with no ``Generator`` built or
cached.  Use it whenever the names are known ahead of the draws and
each is drawn once; a stream later asked for by name still continues
from its second draw.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.simcore import pcg


def derive_rep_seed(root_seed: int, repetition: int) -> int:
    """Root seed for repetition ``repetition`` of an experiment."""
    if repetition < 0:
        raise ValueError(f"repetition must be >= 0, got {repetition}")
    payload = f"{root_seed}:{repetition}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


class RngStreams:
    """Factory and cache of named substreams off one root seed."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: names whose first draw :meth:`first_uniforms` has returned
        #: and that have no generator yet
        self._spent: Set[str] = set()

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=pcg.spawn_key_words(name)
            )
            gen = np.random.Generator(np.random.PCG64(seq))
            if name in self._spent:
                self._spent.discard(name)
                gen.bit_generator.advance(1)
            self._streams[name] = gen
        return gen

    def first_uniforms(self, names: Sequence[str], low: float = 0.0,
                       high: float = 1.0) -> List[float]:
        """``[self.uniform(n, low, high) for n in names]``, bit for bit.

        Names not yet drawn from take their first draw in one vectorised
        pass and are only remembered as spent, so no generator is built
        or cached for them.  Names already drawn from (earlier in
        ``names`` too) take the scalar path; bounds numpy rejects, and
        negative root seeds, take it for all names, so they raise
        numpy's own error.
        """
        low, high = float(low), float(high)
        span = high - low
        if self.root_seed < 0 or not (math.isfinite(span) and span >= 0.0):
            return [self.uniform(name, low, high) for name in names]
        out = [0.0] * len(names)
        fresh: Dict[str, int] = {}
        drawn = []
        for i, name in enumerate(names):
            if name in fresh or name in self._streams or name in self._spent:
                drawn.append(i)
            else:
                fresh[name] = i
        if fresh:
            doubles = pcg.first_doubles(pcg.entropy_words(self.root_seed),
                                        pcg.spawn_key_array(fresh))
            for i, value in zip(fresh.values(),
                                (low + span * doubles).tolist()):
                out[i] = value
            self._spent.update(fresh)
        for i in drawn:
            out[i] = self.uniform(names[i], low, high)
        return out

    # -- convenience draws -------------------------------------------------

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def normal(self, name: str, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self.stream(name).normal(mean, std))

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """Multiplicative jitter with unit median: ``exp(N(0, sigma))``."""
        if sigma == 0.0:
            return 1.0
        return float(np.exp(self.stream(name).normal(0.0, sigma)))

    def exponential(self, name: str, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self.stream(name).integers(low, high))

    def bytes(self, name: str, n: int) -> bytes:
        """``n`` pseudorandom bytes (workload payloads)."""
        return self.stream(name).bytes(n)

    def fork(self, name: str) -> "RngStreams":
        """A child stream-space, e.g. one per VM instance."""
        child_seed = int.from_bytes(
            hashlib.sha256(f"{self.root_seed}/{name}".encode()).digest()[:8], "little"
        )
        return RngStreams(child_seed)
