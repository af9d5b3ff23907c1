"""Physical-memory accounting (the §4.2.1 intrusiveness dimension).

The paper's point in §4.2.1 is that a VM's memory cost is *configured,
constant and known*: the VMM commits the whole configured guest RAM while
running.  We model commitment accounting plus a coarse paging penalty so
experiments can show what happens when a VM is configured beyond what the
host can spare.

Beyond the paper's static picture, :meth:`MemoryAccounting.adjust` is the
**dynamic-commitment path**: a balloon driver (see
:mod:`repro.virt.memory`) grows and shrinks an owner's commitment while
the VM runs.  The scheduler multiplies every core's speed by
:meth:`paging_penalty_factor`, so commitment changes feed straight back
into host *and* guest compute speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.hardware.specs import MemorySpec
from repro.obs.metrics import METRICS


@dataclass
class MemoryAccounting:
    """Tracks committed bytes per named owner against physical capacity."""

    spec: MemorySpec
    commitments: Dict[str, int] = field(default_factory=dict)
    #: :meth:`paging_penalty_factor` as of the last commitment change
    #: (``None`` until read again); the scheduler reads it every decision.
    _paging: Optional[float] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def committed_bytes(self) -> int:
        return sum(self.commitments.values())

    @property
    def free_bytes(self) -> int:
        return self.spec.capacity_bytes - self.committed_bytes

    @property
    def overcommitted(self) -> bool:
        return self.committed_bytes > self.spec.capacity_bytes

    @property
    def swap_used_bytes(self) -> int:
        """Committed bytes that have spilled past physical RAM."""
        return max(0, self.committed_bytes - self.spec.capacity_bytes)

    @property
    def ceiling_bytes(self) -> int:
        """The hard commitment ceiling: RAM + swap."""
        return self.spec.capacity_bytes + self.spec.swap_bytes

    def held(self, owner: str) -> int:
        """Bytes currently committed by ``owner`` (0 if unknown)."""
        return self.commitments.get(owner, 0)

    def pressure(self) -> float:
        """Committed bytes as a fraction of physical RAM (can exceed 1)."""
        return self.committed_bytes / self.spec.capacity_bytes

    def commit(self, owner: str, nbytes: int) -> None:
        """Reserve ``nbytes`` for ``owner`` (stacked on prior commitments)."""
        if nbytes < 0:
            raise SimulationError(f"cannot commit negative bytes: {nbytes}")
        total_after = self.committed_bytes + nbytes
        if total_after > self.ceiling_bytes:
            raise SimulationError(
                f"commit of {nbytes} for {owner!r} exceeds RAM+swap "
                f"({total_after} > {self.ceiling_bytes})"
            )
        self.commitments[owner] = self.commitments.get(owner, 0) + nbytes
        self._paging = None

    def release(self, owner: str, nbytes: int | None = None) -> None:
        """Release part or all of an owner's commitment."""
        held = self.commitments.get(owner, 0)
        if nbytes is None:
            nbytes = held
        if nbytes > held:
            raise SimulationError(
                f"{owner!r} releasing {nbytes} but holds only {held}"
            )
        remaining = held - nbytes
        if remaining:
            self.commitments[owner] = remaining
        else:
            self.commitments.pop(owner, None)
        self._paging = None

    def adjust(self, owner: str, delta: int) -> int:
        """Dynamic-commitment path: grow or shrink an owner's commitment.

        Positive ``delta`` commits more (balloon deflate returning memory
        to the guest), negative releases (balloon inflate reclaiming it
        for the host).  The RAM+swap ceiling and the never-below-zero
        floor are enforced with the same errors as
        :meth:`commit`/:meth:`release`.  Returns the owner's new holding.
        """
        if delta >= 0:
            self.commit(owner, delta)
        else:
            held = self.held(owner)
            if -delta > held:
                raise SimulationError(
                    f"{owner!r} adjusting by {delta} but holds only {held}"
                )
            self.release(owner, -delta)
        if METRICS.enabled:
            METRICS.gauge_max("mem.committed_peak_bytes",
                              self.committed_bytes)
        return self.held(owner)

    def paging_penalty_factor(self) -> float:
        """Global compute slowdown from paging when overcommitted.

        1.0 when everything fits; degrades smoothly with the overcommit
        ratio.  Deliberately coarse — the paper's configurations always
        fit (300 MB guest in 1 GB host), so this path only matters for
        the what-if examples.
        """
        # Read on every scheduling decision: the int commitments are
        # summed once per change (commit/release reset the cache).
        paging = self._paging
        if paging is None:
            committed = sum(self.commitments.values())
            capacity = self.spec.capacity_bytes
            if committed <= capacity:
                paging = 1.0
            else:
                overshoot = (committed - capacity) / capacity
                paging = 1.0 / (1.0 + 4.0 * overshoot)
            self._paging = paging
        return paging
