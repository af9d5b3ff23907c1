"""Fast-loop equivalence and hot-path bugfix regressions.

Pins the three contracts the columnar rewrite rides on:

* ``_percentile`` nearest-rank rounding is parity-stable (the
  half-up fix — ``round``'s banker's rounding flipped the p50 between
  the lower and upper middle sample depending on count parity);
* the compiled C event kernel and the pure-Python fallback produce the
  same canonical flat state, and the whole columnar path reproduces the
  archived object server's (:mod:`tests._reference_fleet`)
  :meth:`FleetReport.to_dict` byte for byte;
* ``--metrics`` observes without steering: a metrics run takes the same
  path as a plain one, and its ``fleet.*`` snapshot equals the oracle's.
"""

import json

import pytest

import tests._reference_fleet as ref
from repro.faults import FaultPlan, injected
from repro.fleet import (
    FleetConfig,
    FleetServer,
    build_fleet_columns,
    simulate_fleet,
)
from repro.fleet.cloop import available as cloop_available
from repro.fleet.cloop import run_event_loop
from repro.fleet.server import _percentile
from repro.obs.metrics import METRICS

CONFIGS = [
    FleetConfig(hosts=60, seed=7, duration_s=43200.0, workunits=120,
                quorum=2, error_rate=0.05),
    FleetConfig(hosts=45, seed=23, duration_s=21600.0, workunits=90,
                quorum=1, error_rate=0.0, hypervisor="vmware"),
    FleetConfig(hosts=80, seed=3, duration_s=86400.0, workunits=200,
                quorum=3, max_replicas=5, error_rate=0.1,
                hypervisor="qemu", checkpoint_interval_s=3600.0),
]


def oracle_dict(config):
    hosts = ref.build_fleet_hosts(config, jobs=1)
    return ref.FleetServer(config, hosts).run().to_dict()


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestPercentileRounding:
    def test_empty_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_even_count_takes_upper_middle(self):
        # floor(0.5 * 1 + 0.5) = 1: two samples -> the larger one
        assert _percentile([1.0, 2.0], 0.5) == 2.0
        # floor(0.5 * 3 + 0.5) = 2: four samples -> the upper middle
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_odd_count_takes_exact_middle(self):
        assert _percentile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert _percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_parity_does_not_flip_the_rank_direction(self):
        # the old round()-based rank picked index 0 for n=2 but index 2
        # for n=4; half-up always lands on the upper middle
        for n in range(2, 12, 2):
            values = [float(i) for i in range(1, n + 1)]
            assert _percentile(values, 0.5) == values[n // 2]

    def test_p90_p99_pinned(self):
        ten = [float(i) for i in range(1, 11)]
        assert _percentile(ten, 0.90) == 9.0   # floor(8.1 + 0.5) = 8
        assert _percentile(ten, 0.99) == 10.0  # floor(8.91 + 0.5) = 9
        four = [10.0, 20.0, 30.0, 40.0]
        assert _percentile(four, 0.99) == 40.0

    def test_extremes_clamped(self):
        assert _percentile([5.0], 0.0) == 5.0
        assert _percentile([5.0], 1.0) == 5.0


class TestFastMatchesOracle:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_columnar_path_byte_identical(self, config):
        live = simulate_fleet(config, jobs=1).to_dict()
        assert canonical(live) == canonical(oracle_dict(config))


class TestKernelMatchesFallback:
    """C kernel and Python fallback emit the same canonical state."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_state_dicts_identical(self, config):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        columns = build_fleet_columns(config, jobs=1)
        server = FleetServer(config, columns)
        prep = server._fast_prep()
        c_state = run_event_loop(prep)
        assert c_state is not None
        py_state = server._fast_loop_python(prep)
        assert set(c_state) == set(py_state)
        assert c_state["need_peak"] > 0
        for key, c_val in c_state.items():
            p_val = py_state[key]
            if hasattr(c_val, "tobytes"):
                assert c_val.tobytes() == p_val.tobytes(), key
            else:
                assert c_val == p_val, key


STORM_CONFIG = FleetConfig(hosts=60, hypervisor="mixed", seed=7,
                           duration_s=43200.0, checkpoint_interval_s=900.0,
                           degraded_threshold=3, upload_backoff_s=600.0)


def storm_plan():
    return (FaultPlan(seed=11).arm("server.outage", 0.4)
            .arm("net.partition", 0.3).arm("vm.crash", 0.3)
            .arm("host.dropout", 0.05))


def fleet_metrics(simulate, config, plan=None):
    """``(report dict, fleet.* snapshot)`` of one run in a fresh registry."""
    METRICS.enable(reset=True)
    try:
        if plan is None:
            report = simulate(config, jobs=1)
        else:
            with injected(plan):
                report = simulate(config, jobs=1)
        snapshot = METRICS.snapshot()
    finally:
        METRICS.disable()
        METRICS.reset()
    fleet = {kind: {name: value for name, value in items.items()
                    if name.startswith("fleet.")}
             for kind, items in snapshot.items()}
    return report.to_dict(), fleet


class TestMetricsParity:
    """The fleet.* metrics come from the flat state after the loop."""

    @pytest.mark.parametrize("storm", [False, True],
                             ids=["fault_free", "storm"])
    def test_snapshot_equals_oracle(self, storm):
        config = STORM_CONFIG if storm else CONFIGS[0]
        live, live_metrics = fleet_metrics(
            simulate_fleet, config, storm_plan() if storm else None)
        expected, expected_metrics = fleet_metrics(
            ref.simulate_fleet, config, storm_plan() if storm else None)
        assert canonical(live) == canonical(expected)
        assert canonical(live_metrics) == canonical(expected_metrics)
        for kind in ("counters", "gauges", "timers", "hists"):
            assert expected_metrics[kind], kind  # every instrument kind
        if storm:
            counters = live_metrics["counters"]
            assert counters["fleet.upload_retried"] > 0
            assert counters["fleet.rolled_back"] > 0

    def test_metrics_run_takes_the_kernel(self, monkeypatch):
        if not cloop_available():
            pytest.skip("no C compiler / kernel unavailable")
        calls = []

        def spy(prep):
            calls.append(prep.n)
            return run_event_loop(prep)

        monkeypatch.setattr("repro.fleet.server._c_event_loop", spy)
        plain = simulate_fleet(CONFIGS[0], jobs=1).to_dict()
        observed, _ = fleet_metrics(simulate_fleet, CONFIGS[0])
        assert calls == [CONFIGS[0].hosts, CONFIGS[0].hosts]
        assert canonical(observed) == canonical(plain)
