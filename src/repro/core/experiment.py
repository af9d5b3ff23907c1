"""Repetition framework: run a measurement function many times, each in a
fresh simulated world seeded independently, and summarise.

Repetition counts
-----------------
The paper performs every test at least 50 times.  Full fidelity is
expensive for the heavier figures, so counts resolve through the
:class:`repro.api.RunConfig` policy:

* ``RunConfig(reps=n)``   — explicit override, used verbatim;
* ``RunConfig(full=True)`` — the paper's 50 everywhere;
* ``RunConfig(fast=True)`` — 3 (CI smoke);
* otherwise               — the per-experiment default passed by the caller.

The policy comes from the activated config (see
:func:`repro.api.activated`); with none active it is a plain
``RunConfig()``.  The CLI maps ``REPRO_REPS`` / ``REPRO_FULL`` /
``REPRO_FAST`` onto the config at its boundary; library code never
reads the environment.

Parallelism
-----------
Repetitions are independent by construction (each gets its own world via
:func:`derive_rep_seed`), so :func:`repeat` fans them out over the
persistent worker pool when more than one job is available and there is
enough work to amortise dispatch (``RunConfig(jobs=)`` / ``jobs=``; see
:mod:`repro.core.parallel` and :mod:`repro.core.workerpool` — the pool
is created once and reused across repeater runs).  Serial runs take the
same round engine in-process, so ``--jobs N`` is **bit-identical** to
``--jobs 1``: same derived seeds, same repetition ordering, same
``summarize`` inputs, same errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.audit.tracehash import TRACE_HASH
from repro.core.stats import Summary, summarize
from repro.errors import ExperimentError
from repro.faults import FAULTS, RUNLOG
from repro.obs.metrics import METRICS
from repro.simcore.rng import derive_rep_seed

PAPER_REPS = 50
FAST_REPS = 3

#: A measurement: seed in, named scalar metrics out.
MeasureFn = Callable[[int], Mapping[str, float]]


def resolve_reps(default: int) -> int:
    """Apply the activated :class:`repro.api.RunConfig`'s repetition
    policy (explicit / full / fast / ``default``)."""
    from repro import api

    return (api.active_config() or api.RunConfig()).resolve_reps(default)


@dataclass
class RepeatedResult:
    """All repetitions of one measurement, summarised per metric.

    ``dropped`` is empty except under the ``min_reps`` graceful
    degradation policy, where it records each abandoned repetition's
    index, derived seed, and last error (see :class:`Repeater`).
    """

    metrics: Dict[str, Summary]
    raw: Dict[str, List[float]] = field(default_factory=dict)
    dropped: List[Dict[str, Any]] = field(default_factory=list)

    def __getitem__(self, key: str) -> Summary:
        try:
            return self.metrics[key]
        except KeyError:
            raise ExperimentError(
                f"no metric {key!r}; available: {sorted(self.metrics)}"
            ) from None


def collect_repetitions(
    results: Iterable[Tuple[int, int, Mapping[str, float]]],
) -> RepeatedResult:
    """Fold ``(repetition, seed, metrics)`` triples into a result.

    Every :class:`Repeater` run ends here, pooled or in-process, so both
    produce identical ``raw`` dictionaries (same key order, same value
    order) and raise identical errors.  Triples must arrive in
    repetition order.  Error
    messages carry the derived seed so a failing repetition can be
    reproduced standalone via ``measure(seed)``.
    """
    raw: Dict[str, List[float]] = {}
    expected_keys = None
    for repetition, seed, metrics in results:
        if not metrics:
            raise ExperimentError(
                f"repetition {repetition} (seed {seed}) returned no metrics"
            )
        keys = set(metrics)
        if expected_keys is None:
            expected_keys = keys
        elif keys != expected_keys:
            raise ExperimentError(
                f"repetition {repetition} (seed {seed}) returned metrics "
                f"{sorted(keys)}, expected {sorted(expected_keys)}"
            )
        for key, value in metrics.items():
            raw.setdefault(key, []).append(float(value))
    return RepeatedResult(
        metrics={k: summarize(v) for k, v in raw.items()},
        raw=raw,
    )


class Repeater:
    """Runs a :data:`MeasureFn` across seeds derived from a base seed.

    ``jobs`` / ``retries`` / ``task_timeout_s`` / ``min_reps`` resolve
    through the activated :class:`repro.api.RunConfig` (explicit
    arguments win).  Every run goes through the one round engine,
    :func:`repro.core.parallel._run_rounds`: over the persistent worker
    pool when ``min(jobs, reps) > 1``, ``measure`` pickles, and either
    ``reps`` exceeds :data:`repro.core.parallel.SERIAL_FALLBACK_REPS` or
    a retry, timeout, ``min_reps`` or fault plan is in force; otherwise
    in-process.  Both give the same results, metrics and errors.
    """

    def __init__(self, base_seed: int = 0, reps: int = 5, *,
                 jobs: Optional[int] = None,
                 retries: Optional[int] = None,
                 task_timeout_s: Optional[float] = None,
                 min_reps: Optional[int] = None):
        from repro import api

        if reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {reps}")
        config = api.active_config() or api.RunConfig()
        self.base_seed = base_seed
        self.reps = reps
        self.jobs = config.resolve_jobs(jobs)
        self.retries = config.resolve_retries(retries)
        self.task_timeout_s = config.resolve_task_timeout_s(task_timeout_s)
        self.min_reps = config.resolve_min_reps(min_reps)
        if self.min_reps is not None and self.min_reps > reps:
            raise ExperimentError(
                f"min_reps ({self.min_reps}) cannot exceed reps ({reps})")

    def run(self, measure: MeasureFn) -> RepeatedResult:
        """Run every repetition, then fold them in repetition order.

        Retried repetitions re-derive the **same** seed, so a recovered
        result is byte-identical to a fault-free one.  A repetition that
        still fails raises :class:`ExperimentError` (naming the lowest
        one and its seed) once the others have run, unless ``min_reps``
        lets the run drop it.
        """
        # The engine module imports this one.
        from repro.core import parallel

        workers = min(self.jobs, self.reps)
        fn_blob = None
        if workers > 1:
            if (self.retries or self.task_timeout_s is not None
                    or self.min_reps is not None or FAULTS.enabled
                    or self.reps > parallel.SERIAL_FALLBACK_REPS):
                fn_blob = parallel._encode_fn(measure)
            elif METRICS.enabled:
                # Adaptive fallback: too little work to amortise dispatch.
                METRICS.inc("parallel.fallback_serial")
        seeds = [derive_rep_seed(self.base_seed, repetition)
                 for repetition in range(self.reps)]
        thash_on = TRACE_HASH.enabled
        hash_group = TRACE_HASH.begin_group() if thash_on else 0
        submit, pool = parallel._submitter(measure, seeds, fn_blob,
                                           self.jobs, hash_group)
        try:
            done, failures = parallel._run_rounds(
                self.reps, submit, pool, self.retries, self.task_timeout_s)
        finally:
            if thash_on:
                TRACE_HASH.clear_context()
        if METRICS.enabled:
            METRICS.inc("parallel.repetitions", len(done))
            if pool is not None:
                METRICS.gauge_max("parallel.workers", workers)
        return self._fold(seeds, done, failures)

    def _fold(self, seeds, done, failures) -> RepeatedResult:
        """Collect successes; degrade via ``min_reps`` or raise."""
        dropped: List[Dict[str, Any]] = []
        if failures:
            if self.min_reps is None or len(done) < self.min_reps:
                first = min(failures)
                label = f"repetition {first} (seed {seeds[first]})"
                broke_pool, text = failures[first]
                if broke_pool:
                    raise ExperimentError(
                        f"{label} broke the worker pool after {len(done)} "
                        f"of {self.reps} repetitions had completed: {text}")
                raise ExperimentError(
                    f"{label} failed after {self.retries + 1} attempt(s) "
                    f"({len(done)} of {self.reps} repetitions completed); "
                    f"reproduce with measure({seeds[first]}).\n"
                    f"Worker traceback:\n{text}")
            for r in sorted(failures):
                broke_pool, text = failures[r]
                if broke_pool:
                    text = f"worker pool broke: {text}"
                dropped.append({
                    "repetition": r, "seed": seeds[r],
                    "error": text.strip().splitlines()[-1]
                    if text.strip() else "unknown",
                    "traceback": text})
            RUNLOG.dropped.extend(dropped)
            if METRICS.enabled:
                METRICS.inc("parallel.dropped", len(dropped))
        result = collect_repetitions(
            (repetition, seeds[repetition], done[repetition].values)
            for repetition in sorted(done)
        )
        result.dropped = dropped
        return result


def repeat(measure: MeasureFn, *, base_seed: int = 0,
           default_reps: int = 5, jobs: Optional[int] = None,
           reps: Optional[int] = None, retries: Optional[int] = None,
           task_timeout_s: Optional[float] = None,
           min_reps: Optional[int] = None) -> RepeatedResult:
    """Convenience: resolve reps/jobs from the run config and run.

    ``reps=`` / ``jobs=`` are explicit overrides; otherwise both resolve
    through the activated :class:`repro.api.RunConfig`.  Routing is
    :class:`Repeater`'s: more than one job fans the repetitions out over
    a process pool (bit-identical results), and ``retries`` /
    ``task_timeout_s`` / ``min_reps`` (explicit, or set on the activated
    config, or implied by an active fault plan) retry failed
    repetitions at any job count — retried repetitions re-derive the
    same seeds, so recovered results are byte-identical to undisturbed
    ones.
    """
    if reps is None:
        reps = resolve_reps(default_reps)
    return Repeater(
        base_seed, reps, jobs=jobs, retries=retries,
        task_timeout_s=task_timeout_s, min_reps=min_reps,
    ).run(measure)
