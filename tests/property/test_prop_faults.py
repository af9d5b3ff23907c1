"""Property tests: fault-plan determinism and retry convergence."""

from hypothesis import given, settings, strategies as st

from repro.core.experiment import Repeater
from repro.faults import SITES, FaultPlan, injected, parse_fault_spec
from tests._reference_repeat import reference_repeat

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
PROBS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
SITE = st.sampled_from(sorted(SITES))


def measure(seed):
    return {"x": float(seed % 1000), "y": float(seed % 13)}


@settings(max_examples=60, deadline=None)
@given(SEEDS, SITE, PROBS, st.lists(st.integers(0, 999), max_size=20))
def test_decisions_are_pure_functions_of_the_plan(seed, site, prob, keys):
    a = FaultPlan(seed=seed).arm(site, prob)
    b = FaultPlan(seed=seed).arm(site, prob)
    for key in keys:
        for attempt in range(3):
            assert a.would_fire(site, key, attempt) == \
                b.would_fire(site, key, attempt)
    assert a.injected == {} and b.injected == {}  # would_fire never tallies


@settings(max_examples=60, deadline=None)
@given(SEEDS, SITE, st.floats(min_value=0.01, max_value=1.0,
                              allow_nan=False), st.integers(0, 999))
def test_transient_sites_never_refire(seed, site, prob, key):
    plan = FaultPlan(seed=seed).arm(site, prob)
    if SITES[site] == "transient":
        assert not plan.would_fire(site, key, attempt=1)
        assert not plan.would_fire(site, key, attempt=5)
    else:
        # an each-mode decision at attempt N is key- and attempt-local
        assert plan.would_fire(site, key, 1) == plan.would_fire(site, key, 1)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
       SEEDS)
def test_canonical_spec_is_idempotent(seed, prob, _unused):
    plan = FaultPlan(seed=seed).arm("worker.crash", prob) \
                               .arm("measure.transient", prob / 2)
    spec = plan.canonical_spec()
    assert parse_fault_spec(spec).canonical_spec() == spec


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
       st.integers(0, 2 ** 16))
def test_transient_storm_with_retry_converges_to_fault_free(
        fault_seed, rate, base_seed):
    """measure.transient at any rate < 1 plus one retry round is always
    recovered: transients fire only at attempt 0 and retried repetitions
    re-derive the same seeds, so the result is byte-identical."""
    baseline = reference_repeat(measure, base_seed, 3)
    plan = FaultPlan(seed=fault_seed).arm("measure.transient", rate)
    with injected(plan):
        recovered = Repeater(base_seed=base_seed, reps=3, jobs=1,
                             retries=1).run(measure)
    assert recovered.raw == baseline.raw
    assert recovered.metrics == baseline.metrics
    assert recovered.dropped == []
