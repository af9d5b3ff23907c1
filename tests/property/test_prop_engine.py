"""Property tests: engine ordering and clock monotonicity, on the
compiled event core and on its Python oracle."""

from hypothesis import given, settings, strategies as st

from repro.simcore.engine import Engine
from tests._python_core import pytest_on_python_core


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), max_size=60))
def test_events_fire_in_nondecreasing_time(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda d=delay: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
             min_size=1, max_size=40),
    st.data(),
)
def test_cancellation_removes_exactly_the_cancelled(delays, data):
    engine = Engine()
    handles = []
    fired = []
    for index, delay in enumerate(delays):
        handles.append(engine.schedule(delay, fired.append, index))
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(delays) - 1)))
    for index in to_cancel:
        handles[index].cancel()
    engine.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
), max_size=25))
def test_nested_scheduling_preserves_order(pairs):
    engine = Engine()
    fired = []

    def outer(t_inner, tag):
        engine.schedule(t_inner, lambda: fired.append(engine.now))

    for t_outer, t_inner in pairs:
        engine.schedule(t_outer, outer, t_inner, None)
    engine.run()
    assert fired == sorted(fired)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=20.0,
                          allow_nan=False), min_size=1, max_size=30),
       st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_run_until_splits_cleanly(delays, split):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, fired.append, delay)
    engine.run(until=split)
    early = list(fired)
    assert all(d <= split for d in early)
    engine.run()
    assert sorted(fired) == sorted(delays)


def test_suite_passes_on_the_python_core():
    """Every test above, on the Python oracle of the compiled core."""
    pytest_on_python_core(__file__)
