"""Repetition framework."""

import pytest

from repro.api import RunConfig, activated
from repro.core.experiment import (
    FAST_REPS,
    PAPER_REPS,
    Repeater,
    collect_repetitions,
    repeat,
    resolve_reps,
)
from repro.errors import ExperimentError
from repro.simcore.rng import derive_rep_seed


def _reps(default, **env):
    with activated(RunConfig.from_env(env)):
        return resolve_reps(default)


class TestResolveReps:
    def test_default_passthrough(self):
        assert _reps(7) == 7

    def test_explicit_override_wins(self):
        assert _reps(7, REPRO_REPS="13", REPRO_FULL="1") == 13

    def test_full_mode(self):
        assert _reps(7, REPRO_FULL="1") == PAPER_REPS

    def test_fast_mode_caps(self):
        assert _reps(10, REPRO_FAST="1") == FAST_REPS
        assert _reps(2, REPRO_FAST="1") == 2

    def test_bad_explicit_rejected(self):
        with pytest.raises(ExperimentError):
            _reps(5, REPRO_REPS="0")


class TestRepeater:
    def test_runs_requested_repetitions(self):
        seen = []

        def measure(seed):
            seen.append(seed)
            return {"x": float(len(seen))}

        result = Repeater(base_seed=1, reps=5).run(measure)
        assert result["x"].n == 5
        assert len(set(seen)) == 5  # distinct seeds

    def test_summaries_per_metric(self):
        def measure(seed):
            return {"a": 1.0, "b": float(seed % 7)}

        result = Repeater(base_seed=2, reps=4).run(measure)
        assert set(result.metrics) == {"a", "b"}
        assert result["a"].mean == 1.0
        assert result.raw["a"] == [1.0] * 4

    def test_deterministic_given_base_seed(self):
        def measure(seed):
            return {"x": float(seed % 1000)}

        first = Repeater(base_seed=3, reps=6).run(measure)
        second = Repeater(base_seed=3, reps=6).run(measure)
        assert first.raw == second.raw

    def test_different_base_seeds_differ(self):
        def measure(seed):
            return {"x": float(seed % 100000)}

        a = Repeater(base_seed=1, reps=3).run(measure)
        b = Repeater(base_seed=2, reps=3).run(measure)
        assert a.raw != b.raw

    def test_empty_metrics_rejected(self):
        with pytest.raises(ExperimentError):
            Repeater(reps=1).run(lambda seed: {})

    def test_inconsistent_metrics_rejected(self):
        calls = []

        def measure(seed):
            calls.append(seed)
            return {"x": 1.0} if len(calls) == 1 else {"y": 1.0}

        with pytest.raises(ExperimentError):
            Repeater(reps=2).run(measure)

    def test_mismatch_error_reports_repetition_and_seed(self):
        """A failing rep must be reproducible standalone via its seed."""
        calls = []

        def measure(seed):
            calls.append(seed)
            return {"x": 1.0} if len(calls) == 1 else {"y": 1.0}

        bad_seed = derive_rep_seed(7, 1)
        with pytest.raises(ExperimentError,
                           match=rf"repetition 1 \(seed {bad_seed}\)"):
            Repeater(base_seed=7, reps=2).run(measure)

    def test_empty_metrics_error_reports_seed(self):
        seed = derive_rep_seed(0, 0)
        with pytest.raises(ExperimentError, match=rf"seed {seed}"):
            Repeater(reps=1).run(lambda s: {})

    def test_unknown_metric_lookup_rejected(self):
        result = Repeater(reps=1).run(lambda seed: {"x": 1.0})
        with pytest.raises(ExperimentError, match="available"):
            result["nope"]

    def test_bad_reps_rejected(self):
        with pytest.raises(ExperimentError):
            Repeater(reps=0)

    def test_repeat_helper_uses_env(self):
        # REPRO_REPS reaches repeat() only through an activated config.
        with activated(RunConfig.from_env({"REPRO_REPS": "2"})):
            result = repeat(lambda seed: {"x": 1.0}, default_reps=9)
        assert result["x"].n == 2


class TestCollectRepetitions:
    def test_preserves_order_and_key_insertion(self):
        triples = [
            (0, 10, {"b": 1.0, "a": 2.0}),
            (1, 11, {"b": 3.0, "a": 4.0}),
        ]
        result = collect_repetitions(triples)
        assert list(result.raw) == ["b", "a"]
        assert result.raw["b"] == [1.0, 3.0]
        assert result.raw["a"] == [2.0, 4.0]

    def test_mismatch_raises_with_offending_triple(self):
        triples = [(0, 10, {"x": 1.0}), (1, 11, {"z": 1.0})]
        with pytest.raises(ExperimentError,
                           match=r"repetition 1 \(seed 11\)"):
            collect_repetitions(triples)
