"""Instruction-mix model: how a thread's code translates into cycle demand.

The simulator does not interpret instructions; workloads describe their
code as an :class:`InstructionMix` (class fractions + base CPI + cache
behaviour) and an instruction count.  The scheduler then retires cycles at
``frequency * contention_factor`` and converts cycles back to instructions
through the mix's CPI for MIPS-style metrics.

Class fractions matter because hypervisor binary translation penalises
instruction classes differently (integer/branchy code vs FP vs memory ops
vs kernel-mode code) — this is what separates Figure 1 (7z, int-heavy)
from Figure 2 (Matrix, FP-heavy) in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class InstructionMix:
    """Static description of a code region's instruction stream.

    Parameters
    ----------
    int_frac, fp_frac, mem_frac:
        Fractions of retired instructions by class; must sum to 1.
    kernel_frac:
        Fraction of *cycles* spent in kernel mode (syscalls, faults).
        Kernel-mode code is what full virtualisation penalises most.
    cpi:
        Average cycles per instruction of this mix on the native core.
    l2_pressure:
        How much shared-L2 footprint this code imposes on siblings (0..1).
    l2_sensitivity:
        How much this code suffers from sibling L2 pressure (0..1).
    """

    name: str
    int_frac: float
    fp_frac: float
    mem_frac: float
    kernel_frac: float = 0.0
    cpi: float = 1.5
    l2_pressure: float = 0.3
    l2_sensitivity: float = 0.3

    def __post_init__(self):
        total = self.int_frac + self.fp_frac + self.mem_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"mix {self.name!r}: class fractions sum to {total}, expected 1.0"
            )
        for attr in ("int_frac", "fp_frac", "mem_frac", "kernel_frac",
                     "l2_pressure", "l2_sensitivity"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"mix {self.name!r}: {attr}={value} out of [0, 1]")
        if self.cpi <= 0:
            raise ValueError(f"mix {self.name!r}: cpi must be positive")
        # The scheduler's speed table hashes tuples of mixes on every
        # decision: compute the field-tuple hash the dataclass would
        # generate once (frozen, so it cannot go stale).
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return tuple([getattr(self, f.name) for f in fields(self)])

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash is recomputed
        # under the unpickling process's string-hash seed.
        return (type(self), self._fields())

    def cycles_for(self, instructions: float) -> float:
        """Cycle demand of ``instructions`` of this mix on the native core."""
        if instructions < 0:
            raise ValueError(f"negative instruction count: {instructions}")
        return instructions * self.cpi

    def instructions_for(self, cycles: float) -> float:
        """Instructions retired by ``cycles`` of this mix."""
        return cycles / self.cpi

    def with_kernel_frac(self, kernel_frac: float) -> "InstructionMix":
        return replace(self, kernel_frac=kernel_frac)


# --- canonical mixes used by the workloads ---------------------------------
#
# Fractions are drawn from the character of each benchmark (7z/LZMA is
# integer+memory bound with hash-chain chasing; naive matmul is FP with a
# streaming read set; the OS kernel is branchy integer code).  CPI values
# are set so native absolute numbers land in a plausible 2006-era range;
# only *relative* numbers are compared with the paper.

MIX_SEVENZIP = InstructionMix(
    name="7z-lzma", int_frac=0.62, fp_frac=0.03, mem_frac=0.35,
    kernel_frac=0.02, cpi=1.70, l2_pressure=0.55, l2_sensitivity=0.55,
)

MIX_MATRIX = InstructionMix(
    name="matrix-fp", int_frac=0.02, fp_frac=0.85, mem_frac=0.13,
    kernel_frac=0.001, cpi=2.20, l2_pressure=0.45, l2_sensitivity=0.40,
)

MIX_KERNEL = InstructionMix(
    name="os-kernel", int_frac=0.75, fp_frac=0.0, mem_frac=0.25,
    kernel_frac=1.0, cpi=1.9, l2_pressure=0.25, l2_sensitivity=0.2,
)

MIX_EINSTEIN = InstructionMix(
    name="einstein-fstat", int_frac=0.20, fp_frac=0.55, mem_frac=0.25,
    kernel_frac=0.01, cpi=1.90, l2_pressure=0.15, l2_sensitivity=0.30,
)

MIX_IDLE = InstructionMix(
    name="idle", int_frac=1.0, fp_frac=0.0, mem_frac=0.0,
    kernel_frac=0.0, cpi=1.0, l2_pressure=0.0, l2_sensitivity=0.0,
)

MIX_VMM_SERVICE = InstructionMix(
    name="vmm-service", int_frac=0.8, fp_frac=0.0, mem_frac=0.2,
    kernel_frac=0.6, cpi=1.6, l2_pressure=0.05, l2_sensitivity=0.1,
)


def blend(name: str, a: InstructionMix, b: InstructionMix, weight_b: float) -> InstructionMix:
    """Linear blend of two mixes (e.g. app code + kernel share)."""
    if not 0.0 <= weight_b <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight_b}")
    wa, wb = 1.0 - weight_b, weight_b
    return InstructionMix(
        name=name,
        int_frac=wa * a.int_frac + wb * b.int_frac,
        fp_frac=wa * a.fp_frac + wb * b.fp_frac,
        mem_frac=wa * a.mem_frac + wb * b.mem_frac,
        kernel_frac=wa * a.kernel_frac + wb * b.kernel_frac,
        cpi=wa * a.cpi + wb * b.cpi,
        l2_pressure=wa * a.l2_pressure + wb * b.l2_pressure,
        l2_sensitivity=wa * a.l2_sensitivity + wb * b.l2_sensitivity,
    )
