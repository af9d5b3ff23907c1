"""The 7z benchmark (``7z b``): LZMA compression as a CPU benchmark.

Semantics follow the real tool:

* ``-mmt N`` — N worker threads.  With N=2 the workers compress paired
  blocks and synchronise (real LZMA benchmark threads share a dictionary
  pipeline), which is why the paper's dual-thread runs top out near 180%
  CPU even with no VM present (§4.2.3).
* **Rating (MIPS)** — instructions retired per second of wall time.
* **Usage (%)** — CPU time consumed / wall time, summed over threads
  (100% = one full core).

The instruction cost per compressed byte is anchored on the real
compressor in :mod:`repro.workloads.lzma_lite` (see
``CompressStats.estimated_instructions``); running the pure-Python coder
on 1 MB blocks inside the simulator would be ~10^4x too slow, so the
benchmark charges the simulated CPU instead — the standard trace/model
split for simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.errors import WorkloadError
from repro.hardware.cpu import MIX_SEVENZIP
from repro.osmodel.kernel import ExecutionContext
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from repro.units import MB
from repro.workloads.base import WorkloadResult

#: Dynamic instructions per input byte of LZMA compression (mid-chain
#: search depth), consistent with lzma_lite's measured 100-300/byte range.
INSTR_PER_BYTE = 220.0

#: Block size the benchmark compresses per work item.
BLOCK_BYTES = 1 * MB

#: Per-block compression-time jitter (uniform half-width).  Real LZMA
#: block times vary with local data entropy; +/-33% reproduces the ~180%
#: dual-thread ceiling through barrier imbalance.
BLOCK_JITTER = 0.33

#: The host benchmark takes its block jitters in bulk
#: (:meth:`RngStreams.first_uniforms`), in chunks doubling from
#: ``JITTER_CHUNK`` to ``JITTER_CHUNK_MAX`` names per thread.
JITTER_CHUNK = 64
JITTER_CHUNK_MAX = 512


@dataclass
class SevenZipConfig:
    threads: int = 1          # -mmt value
    n_blocks: int = 16        # blocks per thread
    block_bytes: int = BLOCK_BYTES

    def __post_init__(self):
        if self.threads < 1:
            raise WorkloadError(f"-mmt must be >= 1, got {self.threads}")
        if self.n_blocks < 1:
            raise WorkloadError(f"n_blocks must be >= 1, got {self.n_blocks}")


class SevenZipBenchmark:
    """Single-context flavour: runs in one thread of the given context.

    This is the guest-side benchmark of Figure 1 (the guest is single
    vCPU, so ``-mmt 1``).
    """

    name = "7z"

    def __init__(self, config: Optional[SevenZipConfig] = None,
                 rng: Optional[RngStreams] = None, rng_tag: str = "7z"):
        self.config = config or SevenZipConfig()
        self.rng = rng or RngStreams(0)
        self.rng_tag = rng_tag

    def block_instructions(self, jitter: float) -> float:
        return INSTR_PER_BYTE * self.config.block_bytes * jitter

    def run(self, ctx: ExecutionContext) -> Generator:
        """Compress ``n_blocks`` blocks; returns a :class:`WorkloadResult`."""
        if self.config.threads != 1:
            raise WorkloadError(
                "SevenZipBenchmark.run is single-threaded; use "
                "SevenZipHostBenchmark for -mmt > 1"
            )
        instr0 = ctx.instructions()
        clock0 = ctx.time()
        offsets = self.rng.first_uniforms(
            [f"{self.rng_tag}.block.{b}" for b in range(self.config.n_blocks)],
            -BLOCK_JITTER, BLOCK_JITTER,
        )
        t0 = yield from ctx.timestamp()
        total_instr = 0.0
        for offset in offsets:
            instr = self.block_instructions(1.0 + offset)
            total_instr += instr
            yield from ctx.compute(instr, MIX_SEVENZIP)
        t1 = yield from ctx.timestamp()
        duration = t1 - t0
        if duration <= 0:
            raise WorkloadError("7z benchmark measured non-positive duration")
        retired = ctx.instructions() - instr0
        return WorkloadResult(
            workload="7z",
            duration_s=duration,
            clock_duration_s=ctx.time() - clock0,
            metrics={
                "mips": retired / 1e6 / duration,
                "issued_instructions": total_instr,
                "retired_instructions": retired,
                "blocks": self.config.n_blocks,
            },
        )


class SevenZipHostBenchmark:
    """Multi-threaded flavour for the host-impact experiment (Figs 7-8).

    Spawns ``-mmt`` OS threads on the given kernel, measures over a fixed
    wall duration, and reports the 7z metrics (usage %, MIPS).

    Block ``b`` of thread ``i`` draws its jitter from the stream
    ``{rng_tag}.jit.{i}.{b}``.  The workers take these first draws ahead
    in chunks, so names past the deadline are drawn but never read; a
    run therefore wants streams of its own (callers pass
    ``rng.fork(...)``), as a second run on the same streams and tag
    would continue those names from their second draw.
    """

    name = "7z-host"

    def __init__(self, kernel, threads: int = 2, duration_s: float = 20.0,
                 priority: Optional[int] = None,
                 rng: Optional[RngStreams] = None, rng_tag: str = "7zhost"):
        from repro.osmodel.threads import PRIORITY_NORMAL

        if threads < 1:
            raise WorkloadError(f"-mmt must be >= 1, got {threads}")
        self.kernel = kernel
        self.engine: Engine = kernel.engine
        self.n_threads = threads
        self.duration_s = duration_s
        self.priority = priority if priority is not None else PRIORITY_NORMAL
        self.rng = rng or RngStreams(0)
        self.rng_tag = rng_tag

    def run(self) -> Generator:
        """Run for ``duration_s``; returns a :class:`WorkloadResult`.

        Drive with ``engine.run_until_event(engine.process(bench.run()))``.
        """
        start = self.engine.now
        deadline = start + self.duration_s
        threads = [
            self.kernel.spawn_thread(f"{self.rng_tag}.{i}", self.priority)
            for i in range(self.n_threads)
        ]
        contexts = [self.kernel.context(t) for t in threads]
        barrier_queue: List = []
        closing = [False]

        def worker(index: int, ctx: ExecutionContext) -> Generator:
            offsets: List[float] = []
            chunk = JITTER_CHUNK
            block = 0
            while self.engine.now < deadline:
                if block == len(offsets):
                    offsets += self.rng.first_uniforms(
                        [f"{self.rng_tag}.jit.{index}.{b}"
                         for b in range(block, block + chunk)],
                        -BLOCK_JITTER, BLOCK_JITTER,
                    )
                    chunk = min(2 * chunk, JITTER_CHUNK_MAX)
                jitter = 1.0 + offsets[block]
                yield from ctx.compute(
                    INSTR_PER_BYTE * BLOCK_BYTES / 4 * jitter, MIX_SEVENZIP
                )
                block += 1
                if self.n_threads > 1 and not closing[0]:
                    # pairwise pipeline barrier: wait for a peer each round
                    while barrier_queue and barrier_queue[0].triggered:
                        barrier_queue.pop(0)
                    if barrier_queue:
                        barrier_queue.pop(0).succeed(None)
                    else:
                        ev = self.engine.event()
                        barrier_queue.append(ev)
                        yield ev

        procs = [
            self.engine.process(worker(i, ctx), name=f"{self.rng_tag}.w{i}")
            for i, ctx in enumerate(contexts)
        ]
        yield self.engine.timeout(self.duration_s)
        # shut the barrier so no worker parks after the deadline, and
        # release any straggler already parked
        closing[0] = True
        for ev in barrier_queue:
            if not ev.triggered:
                ev.succeed(None)
        yield self.engine.all_of(procs)

        wall = self.engine.now - start
        scheduler = self.kernel.scheduler
        cpu = sum(scheduler.cpu_time(t) for t in threads)
        instr = sum(scheduler.instructions(t) for t in threads)
        for thread in threads:
            scheduler.exit_thread(thread)
        return WorkloadResult(
            workload="7z-host",
            duration_s=wall,
            clock_duration_s=wall,
            metrics={
                "threads": self.n_threads,
                "usage_pct": 100.0 * cpu / wall,
                "mips": instr / 1e6 / wall,
                "cpu_seconds": cpu,
            },
        )
