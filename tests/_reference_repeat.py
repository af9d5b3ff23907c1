"""The repetition oracle: a plain loop over derived seeds.

Independent of the round engine it checks: each repetition runs
``measure(derive_rep_seed(base_seed, r))`` in order in this process and
the results fold through :func:`repro.core.experiment.collect_repetitions`,
the fold every :class:`~repro.core.experiment.Repeater` run ends in.
"""

from repro.core.experiment import RepeatedResult, collect_repetitions
from repro.simcore.rng import derive_rep_seed


def reference_repeat(measure, base_seed: int, reps: int) -> RepeatedResult:
    """What any ``Repeater(base_seed, reps).run(measure)`` must return."""
    seeds = [derive_rep_seed(base_seed, r) for r in range(reps)]
    return collect_repetitions((r, seed, measure(seed))
                               for r, seed in enumerate(seeds))
