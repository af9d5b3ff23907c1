"""Property test: the columnar fast path is a pure re-encoding.

For arbitrary (seed, quorum, error rate, hypervisor, horizon) draws,
``simulate_fleet`` — columns, vectorised RNG, the C kernel when a
compiler is present, Python fallback otherwise — must reproduce the
archived pre-columnar server (:mod:`tests._reference_fleet`) byte for
byte through ``FleetReport.to_dict()``.  Under a fault storm (outages,
partitions, crashes, dropouts, degraded mode, any retry budget) the
Python loop's recovery machine must match the oracle's object loop the
same way.
"""

import json

from hypothesis import given, settings, strategies as st

import tests._reference_fleet as ref
from repro.faults import FaultPlan, injected
from repro.fleet import FleetConfig, simulate_fleet

scenarios = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
    "hosts": st.integers(min_value=8, max_value=96),
    "workunits": st.integers(min_value=10, max_value=150),
    "quorum": st.integers(min_value=1, max_value=3),
    "extra_replicas": st.integers(min_value=0, max_value=2),
    "error_rate": st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    "hypervisor": st.sampled_from(["mixed", "vmware", "qemu", "vmplayer"]),
    "duration_s": st.sampled_from([14400.0, 43200.0, 86400.0]),
    "checkpoint_interval_s": st.sampled_from([0.0, 1800.0]),
})


def build_config(draw):
    return FleetConfig(
        hosts=draw["hosts"], seed=draw["seed"],
        workunits=draw["workunits"], quorum=draw["quorum"],
        max_replicas=draw["quorum"] + 1 + draw["extra_replicas"],
        error_rate=draw["error_rate"], hypervisor=draw["hypervisor"],
        duration_s=draw["duration_s"],
        checkpoint_interval_s=draw["checkpoint_interval_s"])


def oracle_dict(config):
    hosts = ref.build_fleet_hosts(config)
    return ref.FleetServer(config, hosts).run().to_dict()


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_columnar_report_byte_identical_to_reference(draw):
    config = build_config(draw)
    live = simulate_fleet(config).to_dict()
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(oracle_dict(config), sort_keys=True)


@settings(max_examples=10, deadline=None)
@given(scenarios,
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
       st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=4))
def test_storm_report_byte_identical_to_reference(draw, outage, crash,
                                                  dropout, threshold,
                                                  retries):
    # dropout, degraded mode and the retry budget widen the storm to
    # every branch of the recovery machine
    config = FleetConfig(**{**build_config(draw).to_dict(),
                            "degraded_threshold": threshold,
                            "upload_retries": retries})

    def plan():
        # plans carry per-(site, key) attempt counters, so each run
        # gets its own instance lest the second run see shifted draws
        return (FaultPlan(seed=draw["seed"] % 65536)
                .arm("server.outage", outage)
                .arm("net.partition", crash / 2.0)
                .arm("vm.crash", crash)
                .arm("host.dropout", dropout))

    with injected(plan()):
        live = simulate_fleet(config).to_dict()
    with injected(plan()):
        expected = ref.simulate_fleet(config).to_dict()
    assert json.dumps(live, sort_keys=True) == \
        json.dumps(expected, sort_keys=True)
