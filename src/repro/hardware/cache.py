"""Shared-L2 contention model for the dual-core package.

The Core 2 Duo's two cores share one 4 MB L2.  When both cores run
memory-hungry code, each evicts the other's lines and both slow down.
The paper leans on this twice:

* §4.2.3 — two native 7z threads only reach ~180% of one thread,
* Figure 5 — a VM busy on the sibling core costs NBench's MEM index a few
  per cent even though the host benchmark owns its core.

Model: thread *t* running on core *c* retires cycles at

    factor(t) = 1 / (1 + coeff * sensitivity(t) * sum_{u on other cores} pressure(u))

with ``pressure``/``sensitivity`` taken from each thread's current
:class:`~repro.hardware.cpu.InstructionMix`.  This is the classic
"cache-pressure product" analytic model: simple, monotone, and symmetric
enough to validate with property tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.hardware.cpu import InstructionMix
from repro.obs.metrics import METRICS
from repro.simcore.events import CORE


class CacheStats(CORE.L2Record):
    """Aggregate contention bookkeeping for reporting and tests.

    Its base type is the event core's ``L2Record``, whose C body
    (``L2Stats`` in ``osmodel/_sched.c``) the compiled scheduler pass
    updates in place, as the Python oracle pass does through
    :meth:`observe`.
    """

    def __init__(self, contended_seconds: float = 0.0,
                 solo_seconds: float = 0.0, worst_factor: float = 1.0):
        self.contended_seconds = contended_seconds
        self.solo_seconds = solo_seconds
        self.worst_factor = worst_factor

    def astuple(self) -> tuple:
        return (self.contended_seconds, self.solo_seconds, self.worst_factor)

    def __repr__(self) -> str:
        return ("CacheStats(contended_seconds={!r}, solo_seconds={!r}, "
                "worst_factor={!r})".format(*self.astuple()))

    def observe(self, factor: float, dt: float) -> None:
        if factor < 1.0:
            self.contended_seconds += dt
            self.worst_factor = min(self.worst_factor, factor)
        else:
            self.solo_seconds += dt


class SharedL2Model:
    """Computes per-thread throughput factors for a set of co-runners."""

    def __init__(self, contention_coeff: float):
        if contention_coeff < 0:
            raise ValueError(f"coefficient must be >= 0, got {contention_coeff}")
        self.coeff = contention_coeff
        self.stats = CacheStats()

    def factor(self, own: InstructionMix, others: Iterable[InstructionMix]) -> float:
        """Throughput factor in (0, 1] for ``own`` next to ``others``."""
        # a left fold from 0.0, as the compiled scheduler pass sums it
        # (``sum`` compensates float sums on CPython >= 3.12)
        pressure = 0.0
        for mix in others:
            pressure += mix.l2_pressure
        return 1.0 / (1.0 + self.coeff * own.l2_sensitivity * pressure)

    def factors(self, per_core: Sequence[InstructionMix | None]) -> Dict[int, float]:
        """Factors for every occupied core given the current placement.

        ``per_core[i]`` is the mix running on core *i*, or ``None`` when
        the core is idle.  Returns ``{core_index: factor}`` for occupied
        cores only.
        """
        result: Dict[int, float] = {}
        for index, mix in enumerate(per_core):
            if mix is None:
                continue
            others = [m for j, m in enumerate(per_core) if j != index and m is not None]
            result[index] = self.factor(mix, others)
        return result

    def observe(self, factor: float, dt: float) -> None:
        self.stats.observe(factor, dt)
        if METRICS.enabled:
            observe_metrics(factor, dt)


def observe_metrics(factor: float, dt: float) -> None:
    """The ``hw.l2.*`` metrics of one :meth:`SharedL2Model.observe`
    (the compiled scheduler pass replays them through this)."""
    if factor < 1.0:
        METRICS.inc("hw.l2.contended_s", dt)
        # stall share: fraction of the interval lost to contention
        METRICS.inc("hw.l2.contention_stall_s", (1.0 - factor) * dt)
    else:
        METRICS.inc("hw.l2.solo_s", dt)
