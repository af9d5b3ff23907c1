"""Deterministic named RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simcore import pcg
from repro.simcore.rng import RngStreams, derive_rep_seed

#: Root seeds around the word boundaries of the ``SeedSequence`` entropy.
SEEDS = (0, 7, 12345, 2 ** 40, 2 ** 63 + 5, 2 ** 64 - 1)


class TestStreams:
    def test_same_name_same_sequence(self):
        a = RngStreams(42).stream("disk.seek")
        b = RngStreams(42).stream("disk.seek")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_differ(self):
        streams = RngStreams(42)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_roots_differ(self):
        a = RngStreams(1).stream("x").random()
        b = RngStreams(2).stream("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_consumer_does_not_perturb_others(self):
        lhs = RngStreams(7)
        baseline = [lhs.stream("stable").random() for _ in range(3)]
        rhs = RngStreams(7)
        rhs.stream("newcomer").random()  # extra consumer first
        perturbed = [rhs.stream("stable").random() for _ in range(3)]
        assert baseline == perturbed


class TestDraws:
    def test_uniform_bounds(self):
        streams = RngStreams(3)
        values = [streams.uniform("u", 2.0, 5.0) for _ in range(200)]
        assert all(2.0 <= v < 5.0 for v in values)

    def test_lognormal_factor_unit_when_sigma_zero(self):
        assert RngStreams(0).lognormal_factor("x", 0.0) == 1.0

    def test_lognormal_factor_positive(self):
        streams = RngStreams(5)
        assert all(streams.lognormal_factor("j", 0.4) > 0 for _ in range(100))

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RngStreams(0).exponential("e", 0.0)

    def test_integers_range(self):
        streams = RngStreams(9)
        values = [streams.integers("i", 10, 20) for _ in range(200)]
        assert all(10 <= v < 20 for v in values)

    def test_bytes_length_and_determinism(self):
        assert RngStreams(4).bytes("b", 16) == RngStreams(4).bytes("b", 16)
        assert len(RngStreams(4).bytes("b", 33)) == 33


class TestRepSeeds:
    def test_distinct_per_repetition(self):
        seeds = {derive_rep_seed(0, k) for k in range(100)}
        assert len(seeds) == 100

    def test_deterministic(self):
        assert derive_rep_seed(12, 3) == derive_rep_seed(12, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_rep_seed(0, -1)

    def test_fork_independent(self):
        root = RngStreams(11)
        child_a = root.fork("vm-a")
        child_b = root.fork("vm-b")
        assert child_a.stream("x").random() != child_b.stream("x").random()


def _outcome(draw):
    """``draw()``'s floats, or the type and message of what it raised."""
    try:
        return draw()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _scalar_loop(seed, names, low, high, warm=()):
    streams = RngStreams(seed)
    for name in warm:
        streams.uniform(name)
    return _outcome(lambda: [streams.uniform(n, low, high) for n in names])


def _bulk(seed, names, low, high, warm=()):
    streams = RngStreams(seed)
    for name in warm:
        streams.uniform(name)
    return _outcome(lambda: streams.first_uniforms(names, low, high))


def _bits(outcome):
    """Floats as their bit patterns (so ``-0.0 != 0.0``); errors as is."""
    if isinstance(outcome, list):
        return np.array(outcome, dtype=np.float64).view(np.uint64).tolist()
    return outcome


bounds = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestFirstUniforms:
    """``first_uniforms`` is the scalar ``uniform`` loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(names=st.lists(st.text(max_size=12), max_size=40),
           seed=st.one_of(st.sampled_from(SEEDS),
                          st.integers(min_value=0, max_value=2 ** 64 - 1),
                          st.integers(min_value=2 ** 64, max_value=2 ** 140),
                          st.integers(min_value=-2 ** 70, max_value=-1)),
           low=st.one_of(bounds, st.sampled_from([-0.33, 0.0, -0.0])),
           high=st.one_of(bounds, st.sampled_from([0.33, 0.0, 1e308])),
           equal=st.booleans())
    def test_matches_the_scalar_loop(self, names, seed, low, high, equal):
        if equal:
            high = low
        assert _bits(_bulk(seed, names, low, high)) == \
            _bits(_scalar_loop(seed, names, low, high))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pinned_seeds(self, seed):
        names = [f"7zhost.jit.{t}.{b}" for t in (0, 1) for b in range(70)]
        names += ["", "\u00e9t\u00e9", "\u6f22\u5b57", "\U0001f600", " "]
        for low, high in ((-0.33, 0.33), (-5.0, -2.5), (1.5, 1.5),
                          (0.0, 1.0)):
            got = _bulk(seed, names, low, high)
            assert _bits(got) == _bits(_scalar_loop(seed, names, low, high))
            assert all(low <= v <= high for v in got)

    @pytest.mark.parametrize("low, high", [(1.0, 0.5), (0.0, math.inf),
                                           (-1e308, 1e308),
                                           (0.0, math.nan)])
    def test_rejected_bounds_raise_numpys_error(self, low, high):
        got = _bulk(7, ["a", "b"], low, high)
        assert not isinstance(got, list)
        assert got == _scalar_loop(7, ["a", "b"], low, high)

    def test_cached_names_mixed_into_a_bulk_call(self):
        warm = ["b", "d", "d"]
        names = ["a", "b", "c", "d", "a", "e"]
        assert _bulk(12345, names, -1.0, 1.0, warm) == \
            _scalar_loop(12345, names, -1.0, 1.0, warm)

    def test_stream_after_a_bulk_draw_continues_from_its_second_draw(self):
        bulk = RngStreams(2 ** 63 + 5)
        first = bulk.first_uniforms(["x", "y"])
        assert "x" not in bulk._streams  # no generator built for the draw
        reference = RngStreams(2 ** 63 + 5).stream("x")
        expected = [reference.random() for _ in range(4)]
        assert first[0] == expected[0]
        gen = bulk.stream("x")
        assert [gen.random() for _ in range(3)] == expected[1:]
        assert bulk.uniform("y") == RngStreams(2 ** 63 + 5).first_uniforms(
            ["y", "y"])[1]

    def test_a_second_bulk_call_takes_the_second_draws(self):
        streams = RngStreams(7)
        twice = streams.first_uniforms(["p", "q"]) + \
            streams.first_uniforms(["q", "p"])
        reference = RngStreams(7)
        assert twice == [reference.uniform(n) for n in ("p", "q", "q", "p")]

    def test_empty_names(self):
        streams = RngStreams(3)
        assert streams.first_uniforms([]) == []
        assert streams.first_uniforms([], 2.0, 1.0) == []
        assert streams._streams == {} and streams._spent == set()

    def test_lane_and_scalar_words_mix_alike(self):
        """One mixer serves the fleet's layout (per-lane root seed, one
        name) and the bulk draw's (one root seed, per-lane names); both
        give numpy's ``generate_state`` words."""
        names = ["speed", "error", "", "x"]
        spawn = pcg.spawn_key_array(names)
        for seed in SEEDS + (2 ** 64, 2 ** 130 + 3):
            entropy = pcg.entropy_words(seed)
            by_name = pcg.mix_words(entropy + list(spawn))
            for k, name in enumerate(names):
                words = pcg.spawn_key_words(name)
                by_seed = pcg.mix_words(
                    [np.full(2, w, dtype=np.uint32) for w in entropy]
                    + list(words))
                expected = np.random.SeedSequence(
                    seed, spawn_key=words).generate_state(4, np.uint64)
                assert [int(w[k]) for w in by_name] == expected.tolist()
                assert [w.tolist() for w in by_seed] == \
                    [[int(v)] * 2 for v in expected]
