"""Property test: the lean scheduler is a pure re-encoding of the old one.

Each example draws one random world — threads of mixed priority classes
and affinity groups, a boost policy with short thresholds, segments of
random length and instruction mix, sleeps, mid-run ``cpu_time()`` reads,
``exit_thread`` calls and a memory commit past physical RAM, so paging
applies — and runs it twice: once on the archived scheduler
(:mod:`tests._reference_scheduler`, drained one ``step()`` per event as
the old ``run_until_event`` did) and once on the live scheduler and
engine, on the compiled pass (:mod:`tests.property.test_prop_scheduler_passes`
holds it to the Python oracle of ``tests/_oracle_pass.py``).  Every accounting float, every core's busy time, the
shared-L2 statistics, the tracer records, the scheduler metrics and the
trace-hash snapshot must be identical (``==``, not approximately).  A
world may name its core count (``cores``; two by default).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import tests._reference_scheduler as ref
from repro.audit import TRACE_HASH
from repro.hardware.cpu import (
    MIX_EINSTEIN,
    MIX_IDLE,
    MIX_KERNEL,
    MIX_MATRIX,
    MIX_SEVENZIP,
    MIX_VMM_SERVICE,
)
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.obs.metrics import METRICS
from repro.osmodel.scheduler import BoostPolicy, Scheduler
from repro.osmodel.threads import ThreadState
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from repro.simcore.trace import Tracer

#: A value-equal copy of a module mix: the speed table keys by value.
_SEVENZIP_COPY = dataclasses.replace(MIX_SEVENZIP)
MIXES = (MIX_SEVENZIP, MIX_MATRIX, MIX_KERNEL, MIX_EINSTEIN, MIX_IDLE,
         MIX_VMM_SERVICE, _SEVENZIP_COPY)

segments = st.lists(
    st.tuples(
        st.one_of(st.floats(min_value=1e3, max_value=6e7),
                  st.sampled_from([0.0, 0.25, 0.5, 1.0])),   # cycles
        st.integers(min_value=0, max_value=len(MIXES) - 1),  # mix
        st.sampled_from([0.0, 0.0, 1e-4, 2e-3, 7e-3]),       # sleep first
        st.booleans(),                                       # read cpu_time
    ),
    min_size=1, max_size=10,
)

threads = st.lists(
    st.fixed_dictionaries({
        "priority": st.sampled_from([4, 6, 8, 13, 15]),
        "group": st.sampled_from([None, None, "vm-a", "vm-b"]),
        "segments": segments,
        "exit_after": st.one_of(st.none(), st.integers(0, 6)),
    }),
    min_size=1, max_size=8,
)

worlds = st.fixed_dictionaries({
    "threads": threads,
    "boost": st.booleans(),
    "scan_interval": st.sampled_from([0.005, 0.02, 0.1]),
    "starvation_threshold": st.sampled_from([0.005, 0.03, 0.2]),
    "boost_cpu": st.sampled_from([0.001, 0.01, 0.04]),
    "quantum": st.sampled_from([0.003, 0.02]),
    # (time, thread index) of controller actions
    "reads": st.lists(st.tuples(st.floats(0.0, 0.3), st.integers(0, 7)),
                      max_size=6),
    "exits": st.lists(st.tuples(st.floats(0.0, 0.3), st.integers(0, 7)),
                      max_size=2),
    "overcommit": st.one_of(st.none(), st.tuples(
        st.floats(0.0, 0.2),                      # commit at
        st.sampled_from([1, 64, 512, 1536]),      # MB past capacity
        st.one_of(st.none(), st.floats(0.0, 0.2)),  # release after
    )),
    "horizon": st.sampled_from([0.05, 0.3]),
    "metrics": st.booleans(),
})


def _thread_body(engine, scheduler, thread, plan):
    for number, (cycles, mix, sleep, read) in enumerate(plan["segments"]):
        if plan["exit_after"] == number:
            scheduler.exit_thread(thread)
        if thread.state is ThreadState.DONE:
            return
        if sleep:
            yield engine.timeout(sleep)
            if thread.state is ThreadState.DONE:
                return
        yield scheduler.submit(thread, cycles, MIXES[mix])
        if read:
            scheduler.cpu_time(thread)


def _controller(engine, scheduler, machine, world, spawned):
    actions = []
    for when, index in world["reads"]:
        actions.append((when, 0, index))
    for when, index in world["exits"]:
        actions.append((when, 1, index))
    overcommit = world["overcommit"]
    if overcommit is not None:
        at, megabytes, release_after = overcommit
        actions.append((at, 2, megabytes))
        if release_after is not None:
            actions.append((at + release_after, 3, 0))
    for when, kind, arg in sorted(actions):
        if when > engine.now:
            yield engine.timeout(when - engine.now)
        if kind == 0:
            scheduler.cpu_time(spawned[arg % len(spawned)])
        elif kind == 1:
            scheduler.exit_thread(spawned[arg % len(spawned)])
        elif kind == 2:
            memory = machine.memory
            memory.commit("hog", memory.spec.capacity_bytes
                          + arg * 1024 * 1024)
        else:
            machine.memory.release("hog")


def _simulated_metrics():
    """The scheduler and L2 instruments (the engine's are wall-clock)."""
    snap = METRICS.snapshot()
    return {kind: {name: value for name, value in snap[kind].items()
                   if name.startswith(("sched.", "hw."))}
            for kind in ("counters", "timers", "hists")}


def _run_world(world, scheduler_cls, drain):
    """Run ``world`` on a fresh engine; everything the two runs compare."""
    TRACE_HASH.enable()
    if world["metrics"]:
        METRICS.enable()
    try:
        engine = Engine(trace=Tracer(enabled=True))
        spec = core2duo_e6600("equiv")
        cores = world.get("cores", spec.cpu.n_cores)
        if cores != spec.cpu.n_cores:
            spec = dataclasses.replace(
                spec, cpu=dataclasses.replace(spec.cpu, n_cores=cores))
        machine = Machine(engine, spec, RngStreams(0))
        boost = BoostPolicy(enabled=world["boost"],
                            scan_interval=world["scan_interval"],
                            starvation_threshold=world["starvation_threshold"],
                            boost_cpu=world["boost_cpu"])
        scheduler = scheduler_cls(engine, machine, quantum=world["quantum"],
                                  boost=boost)
        spawned = []
        for index, plan in enumerate(world["threads"]):
            thread = scheduler.spawn(f"t{index}", plan["priority"],
                                     group=plan["group"])
            spawned.append(thread)
            engine.process(_thread_body(engine, scheduler, thread, plan))
        engine.process(_controller(engine, scheduler, machine, world,
                                   spawned))
        drain(engine, engine.timeout(world["horizon"]))
        cpu = [scheduler.cpu_time(thread) for thread in spawned]
        return {
            "now": engine.now,
            "events": engine.events_processed,
            "cpu": cpu,
            "threads": [(t.cycles_retired, t.instructions_retired,
                         t.segments_completed, t.remaining_cycles,
                         t.state, t.rr_seq, t.boost_cpu_remaining,
                         t.quantum_used, t.last_ran_at, t.ready_since)
                        for t in spawned],
            "cores": [(core.busy_seconds, core.speed,
                       core.thread.name if core.thread else None)
                      for core in scheduler.cores],
            "l2": machine.l2.stats.astuple(),
            "records": [(r.time, r.category, r.fields)
                        for r in engine.trace.records],
            "metrics": _simulated_metrics() if world["metrics"] else None,
            "trace_hash": TRACE_HASH.snapshot(),
        }
    finally:
        TRACE_HASH.disable()
        TRACE_HASH.reset()
        METRICS.disable()
        METRICS.reset()


def _reference_drain(engine, event):
    ref.run_until_event(engine, event)


def _live_drain(engine, event):
    engine.run_until_event(event)


@pytest.fixture(autouse=True)
def _quiet_global_state():
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    METRICS.disable()
    METRICS.reset()
    yield
    TRACE_HASH.disable()
    TRACE_HASH.reset()
    METRICS.disable()
    METRICS.reset()


@settings(max_examples=120, deadline=None)
@given(worlds)
def test_live_scheduler_matches_archived_oracle(world):
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    assert expected["trace_hash"]["streams"]
    assert actual == expected


def test_every_branch_of_the_decision_pass_is_reached():
    """A fixed world that is known to preempt, boost and contend for the
    L2 (it also pages, exits threads and mixes affinity groups) matches
    the oracle too."""
    plan = [{"priority": p, "group": g, "exit_after": e,
             "segments": [(3e7, m, 0.0, True)] * 4}
            for p, g, e, m in [(8, "vm-a", None, 0), (8, None, None, 1),
                               (13, "vm-a", None, 5), (8, "vm-b", 2, 2),
                               (4, None, None, 4)]]
    world = {"threads": plan, "boost": True, "scan_interval": 0.005,
             "starvation_threshold": 0.005, "boost_cpu": 0.001,
             "quantum": 0.003, "reads": [(0.01, 1)], "exits": [(0.04, 0)],
             "overcommit": (0.02, 512, 0.05), "horizon": 0.3,
             "metrics": True}
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    counters = actual["metrics"]["counters"]
    assert counters["sched.preemptions"] > 0
    assert counters["sched.starvation_boosts"] > 0
    categories = {category for _, category, _ in actual["records"]}
    assert {"sched.place", "sched.segment_done", "sched.boost"} <= categories
    assert actual["l2"][0] > 0.0       # contended seconds
    assert actual == expected


def _world(plan, **overrides):
    """A fixed world over ``plan`` with every controller action off."""
    world = {"threads": plan, "boost": False, "scan_interval": 0.02,
             "starvation_threshold": 0.2, "boost_cpu": 0.01,
             "quantum": 0.02, "reads": [], "exits": [], "overcommit": None,
             "horizon": 0.05, "metrics": True}
    world.update(overrides)
    return world


def _thread(priority, group, cycles, mix=0, count=3, sleep=0.0):
    return {"priority": priority, "group": group, "exit_after": None,
            "segments": [(cycles, mix, sleep, False)] * count}


def _placements(result):
    return [(time, fields["thread"], fields["core"])
            for time, category, fields in result["records"]
            if category == "sched.place"]


def test_one_runnable_thread_on_two_cores():
    world = _world([_thread(8, None, 2e6, count=4, sleep=1e-4)])
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    # the lone thread always lands on core 0; core 1 never runs
    assert {core for _, _, core in _placements(actual)} == {0}
    assert actual["cores"][1][0] == 0.0
    assert actual["threads"][0][2] == 4          # segments completed
    assert actual == expected


def test_more_runnable_threads_than_cores_with_group_preference():
    """A VM's service thread (13) and vCPU (8) beside a foreign thread
    (8): the vCPU was submitted first, so it wins the rr order, but when
    the foreign thread arrives the group preference hands it the vCPU's
    core."""
    world = _world([_thread(13, "vm-a", 3e7, mix=5),
                    _thread(8, "vm-a", 3e7),
                    _thread(8, None, 3e7, mix=1)], quantum=0.003)
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    at_start = [(name, core) for time, name, core in _placements(actual)
                if time == 0.0]
    assert at_start == [("t0", 0), ("t1", 1), ("t2", 1)]
    assert actual["metrics"]["counters"]["sched.preemptions"] > 0
    assert actual == expected


def test_boost_granted_between_decisions():
    """An idle-class thread starved by two normal threads is boosted by
    the balance-set scan, which runs between decisions."""
    world = _world([_thread(8, None, 6e7), _thread(8, None, 6e7),
                    _thread(4, None, 1e6)],
                   boost=True, scan_interval=0.005,
                   starvation_threshold=0.005, boost_cpu=0.001,
                   horizon=0.1)
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    assert actual["metrics"]["counters"]["sched.starvation_boosts"] > 0
    assert "t2" in {name for _, name, _ in _placements(actual)}
    assert actual == expected


def test_completion_resubmits_from_inside_the_decision_pass():
    """Back-to-back segments: each completion resumes its process inside
    the pass, which submits again; the pass restarts with fresh state."""
    world = _world([_thread(8, None, 1e6, count=6),
                    _thread(8, "vm-a", 2e6, mix=3, count=4)])
    inside = {"reference": [], "live": []}

    def recording(cls, label):
        class Recording(cls):
            def submit(self, thread, cycles, mix):
                inside[label].append(self._in_decide)
                return super().submit(thread, cycles, mix)

        return Recording

    expected = _run_world(world, recording(ref.Scheduler, "reference"),
                          _reference_drain)
    actual = _run_world(world, recording(Scheduler, "live"), _live_drain)
    assert any(inside["live"])
    assert inside["live"] == inside["reference"]
    assert actual["threads"][0][2] == 6
    assert actual == expected


def test_completion_coinciding_with_a_quantum_expiry():
    """t1's segment ends exactly as t0's quantum runs out, and t1 submits
    again from inside the pass.  The round-robin rotation of t0 must come
    after that re-entrant submit, so t1 keeps its core and t0 waits."""
    quantum = 0.02
    exact = core2duo_e6600("equiv").cpu.frequency_hz * quantum
    world = _world([_thread(8, None, 4e8, mix=4, count=1),
                    _thread(8, None, exact, mix=4, count=2),
                    _thread(8, None, 4e8, mix=4, count=1)],
                   quantum=quantum)
    expected = _run_world(world, ref.Scheduler, _reference_drain)
    actual = _run_world(world, Scheduler, _live_drain)
    at_expiry = [(name, core) for time, name, core in _placements(actual)
                 if time == quantum]
    assert at_expiry == [("t2", 0), ("t1", 1)]
    assert actual == expected


def test_instruction_mix_hash_is_the_field_tuple_hash():
    """The cached hash is the dataclass-generated one, so value-equal
    copies share one mix-table row of the compiled pass."""
    for mix in MIXES:
        assert hash(mix) == hash(dataclasses.astuple(mix))
    assert _SEVENZIP_COPY is not MIX_SEVENZIP
    assert hash(_SEVENZIP_COPY) == hash(MIX_SEVENZIP)

    def two_segments():
        engine = Engine()
        machine = Machine(engine, core2duo_e6600("hash"), RngStreams(0))
        scheduler = Scheduler(engine, machine,
                              boost=BoostPolicy(enabled=False))
        first = scheduler.spawn("a", 8)
        engine.run_until_event(scheduler.submit(first, 1e6, MIX_SEVENZIP))
        engine.run_until_event(scheduler.submit(first, 1e6,
                                                _SEVENZIP_COPY))
        return scheduler

    assert two_segments()._mix_rows == {MIX_SEVENZIP: 0}


def test_decision_counter_counts_the_archived_placement_passes():
    """``Scheduler.decisions`` counts exactly the passes that reached
    placement — the ``_place_threads`` calls of the archived scheduler."""
    world = _world([_thread(13, "vm-a", 3e6, mix=5, count=4, sleep=1e-3),
                    _thread(8, "vm-a", 1e7, count=4),
                    _thread(8, None, 1e7, mix=1, count=4)],
                   boost=True, scan_interval=0.005,
                   starvation_threshold=0.005, quantum=0.003)
    seen = {}

    class CountingReference(ref.Scheduler):
        placements = 0

        def _place_threads(self):
            CountingReference.placements += 1
            return super()._place_threads()

    def live(*args, **kwargs):
        seen["live"] = Scheduler(*args, **kwargs)
        return seen["live"]

    expected = _run_world(world, CountingReference, _reference_drain)
    actual = _run_world(world, live, _live_drain)
    assert seen["live"].decisions == CountingReference.placements > 10
    assert actual == expected
