"""Property tests: recovery storms never corrupt validation or accounting.

Two invariants over arbitrary fault storms (seeds, per-site
probabilities, recovery knobs):

* a work unit only validates with a true quorum of distinct hosts —
  unless the server was degraded, in which case the quorum-of-1 result
  is tagged on the unit and counted in the report's risk tally;
* the waste buckets (erroneous/stale/redundant/lost/rolled_back) are an
  exact partition of wasted CPU seconds, and quorum + wasted + pending
  + in_flight is an exact partition of total CPU seconds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, injected
from repro.fleet import FleetConfig, FleetServer, build_fleet_columns

probs = st.floats(min_value=0.0, max_value=0.8, allow_nan=False)

storms = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**16),
    "outage": probs,
    "partition": probs,
    "crash": probs,
    "interval": st.sampled_from([0.0, 300.0, 900.0, 3600.0]),
    "retries": st.integers(min_value=0, max_value=4),
    "threshold": st.integers(min_value=0, max_value=3),
})


def storm_server(storm):
    config = FleetConfig(hosts=12, hypervisor="mixed", seed=5,
                         duration_s=7200.0, workunits=30,
                         checkpoint_interval_s=storm["interval"],
                         upload_retries=storm["retries"],
                         upload_backoff_s=600.0,
                         degraded_threshold=storm["threshold"])
    plan = (FaultPlan(seed=storm["seed"])
            .arm("server.outage", storm["outage"])
            .arm("net.partition", storm["partition"])
            .arm("vm.crash", storm["crash"]))
    with injected(plan):
        server = FleetServer(config, build_fleet_columns(config))
        report = server.run()
    return config, server, report


@settings(max_examples=25, deadline=None)
@given(storms)
def test_no_validation_without_true_quorum_unless_degraded(storm):
    config, server, report = storm_server(storm)
    state = server.state
    quorum = config.quorum
    holders = state["hold_flat"].tolist()
    nhold = state["nhold"].tolist()
    wu_state = state["wu_state"].tolist()
    validated_at = state["wu_validated"].tolist()
    degraded_by = state["recovery"]["degraded_by"]
    degraded_tagged = 0
    true_quorum = 0
    for wid in range(report.workunits):
        # the distinct hosts holding the canonical result
        hosts = set(holders[wid * quorum:wid * quorum + nhold[wid]])
        if wid in degraded_by:
            # the tag only ever marks a unit validated without a quorum
            assert wu_state[wid] != 1 and validated_at[wid] > 0.0
            degraded_tagged += 1
        elif wu_state[wid] == 1:
            assert len(hosts) >= quorum
            true_quorum += 1
    # every validation is either a true quorum or a tagged degraded one
    assert true_quorum + degraded_tagged == report.valid
    # every quorum-of-1 acceptance is visible in the risk counter
    assert degraded_tagged == report.recovery["degraded_validated"]
    if config.degraded_threshold == 0:
        assert degraded_tagged == 0


@settings(max_examples=25, deadline=None)
@given(storms)
def test_waste_buckets_exactly_partition_cpu_seconds(storm):
    _, _, report = storm_server(storm)
    cpu = report.cpu_s
    assert cpu["wasted"] == pytest.approx(
        cpu["erroneous"] + cpu["stale"] + cpu["redundant"]
        + cpu["lost"] + cpu["rolled_back"], abs=1e-6)
    assert cpu["total"] == pytest.approx(
        cpu["quorum"] + cpu["wasted"] + cpu["pending"] + cpu["in_flight"],
        abs=1e-6)
    assert all(value >= -1e-9 for value in cpu.values())
