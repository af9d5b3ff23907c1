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

The legacy ``REPRO_REPS`` / ``REPRO_FULL`` / ``REPRO_FAST`` environment
variables keep working through :meth:`repro.api.RunConfig.from_env`, the
single place environment policy is interpreted; a library call that
falls back to them (rather than activating a config) gets a
``DeprecationWarning``.

Parallelism
-----------
Repetitions are independent by construction (each gets its own world via
:func:`derive_rep_seed`), so :func:`repeat` fans them out over the
persistent worker pool when more than one job is available and there is
enough work to amortise dispatch (``REPRO_JOBS`` / ``jobs=``; see
:mod:`repro.core.parallel` and :mod:`repro.core.workerpool` — the pool
is created once and reused across repeater runs).  Parallel runs are
**bit-identical** to the serial path: same derived seeds, same
repetition ordering, same ``summarize`` inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.core.stats import Summary, summarize
from repro.errors import ExperimentError
from repro.simcore.rng import derive_rep_seed

PAPER_REPS = 50
FAST_REPS = 3

#: A measurement: seed in, named scalar metrics out.
MeasureFn = Callable[[int], Mapping[str, float]]


def resolve_reps(default: int, env: Optional[Mapping[str, str]] = None) -> int:
    """Apply the repetition policy (explicit / full / fast / default).

    With ``env=None`` the policy comes from the activated
    :class:`repro.api.RunConfig` when one is in force, else from the
    legacy environment variables (with a ``DeprecationWarning``).  An
    explicit ``env`` mapping is interpreted directly — the testing hook.
    A malformed ``REPRO_REPS`` raises a clean :class:`ExperimentError`.
    """
    from repro import api

    if env is not None:
        config = api.RunConfig.from_env(env)
    else:
        config = api.fallback_config("reps")
    return config.resolve_reps(default)


@dataclass
class RepeatedResult:
    """All repetitions of one measurement, summarised per metric.

    ``dropped`` is empty except under the ``min_reps`` graceful
    degradation policy, where it records each abandoned repetition's
    index, derived seed, and last error (see
    :class:`repro.core.parallel.ParallelRepeater`).
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

    Shared by the serial and parallel paths so both produce identical
    ``raw`` dictionaries (same key order, same value order) and raise
    identical errors.  Triples must arrive in repetition order.  Error
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
    """Runs a :data:`MeasureFn` across seeds derived from a base seed."""

    def __init__(self, base_seed: int = 0, reps: int = 5):
        if reps < 1:
            raise ExperimentError(f"reps must be >= 1, got {reps}")
        self.base_seed = base_seed
        self.reps = reps

    def _results(self, measure: MeasureFn):
        for repetition in range(self.reps):
            seed = derive_rep_seed(self.base_seed, repetition)
            yield repetition, seed, measure(seed)

    def _results_hashed(self, measure: MeasureFn):
        # Mirror of _results that labels each repetition's trace-hash
        # streams exactly as the parallel path does (group allocated
        # once per repeater run, context per repetition), so serial and
        # --jobs N snapshots are comparable key-for-key.
        from repro.audit.tracehash import TRACE_HASH

        group = TRACE_HASH.begin_group()
        try:
            for repetition in range(self.reps):
                seed = derive_rep_seed(self.base_seed, repetition)
                TRACE_HASH.set_context(f"g{group}/rep{repetition}")
                yield repetition, seed, measure(seed)
        finally:
            TRACE_HASH.clear_context()

    def run(self, measure: MeasureFn) -> RepeatedResult:
        from repro.audit.tracehash import TRACE_HASH

        if TRACE_HASH.enabled:
            return collect_repetitions(self._results_hashed(measure))
        return collect_repetitions(self._results(measure))


def repeat(measure: MeasureFn, *, base_seed: int = 0,
           default_reps: int = 5, jobs: Optional[int] = None,
           reps: Optional[int] = None, retries: Optional[int] = None,
           task_timeout_s: Optional[float] = None,
           min_reps: Optional[int] = None) -> RepeatedResult:
    """Convenience: resolve reps/jobs from the run config and run.

    ``reps=`` / ``jobs=`` are explicit overrides; otherwise both resolve
    through the activated :class:`repro.api.RunConfig` (or, deprecated,
    the legacy environment).  Routing is
    :class:`repro.core.parallel.ParallelRepeater`'s: more than one job
    fans the repetitions out over a process pool (bit-identical
    results), and ``retries`` / ``task_timeout_s`` / ``min_reps``
    (explicit, or set on the activated config, or implied by an active
    fault plan) retry failed repetitions even at one job — retried
    repetitions re-derive the same seeds, so recovered results are
    byte-identical to undisturbed ones.
    """
    from repro.core.parallel import ParallelRepeater

    if reps is None:
        reps = resolve_reps(default_reps)
    return ParallelRepeater(
        base_seed, reps, jobs=jobs, retries=retries,
        task_timeout_s=task_timeout_s, min_reps=min_reps,
    ).run(measure)
