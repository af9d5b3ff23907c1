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
  path as a plain one, and its ``fleet.*`` snapshot equals the oracle's;
* the numpy primitives the report folds with are sequential left folds
  in input order, bit for bit the Python ``+=`` loops they replace.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import tests._reference_fleet as ref
from repro.faults import FaultPlan, injected
from repro.fleet import (
    FleetConfig,
    FleetServer,
    build_fleet_columns,
    simulate_fleet,
)
from repro.fleet import cloop
from repro.fleet.cloop import available as cloop_available
from repro.fleet.cloop import run_event_loop
from repro.fleet.server import _left_fold, _percentile
from repro.obs.metrics import METRICS

CONFIGS = [
    FleetConfig(hosts=60, seed=7, duration_s=43200.0, workunits=120,
                quorum=2, error_rate=0.05),
    FleetConfig(hosts=45, seed=23, duration_s=21600.0, workunits=90,
                quorum=1, error_rate=0.0, hypervisor="vmware"),
    FleetConfig(hosts=80, seed=3, duration_s=86400.0, workunits=200,
                quorum=3, max_replicas=5, error_rate=0.1,
                hypervisor="qemu", checkpoint_interval_s=3600.0),
    # > 10k delivered results, hundreds of redundant ones, and hosts
    # drawing more serve uniforms than any small fleet
    FleetConfig(hosts=2000, seed=1, duration_s=43200.0, workunits=5000,
                hypervisor="mixed", error_rate=0.3),
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
        if config.hosts >= 2000:
            assert c_state["red_n"] > 0
            assert c_state["ok_n"] + c_state["err_n"] > 10_000
            # each ok result consumed one serve uniform: some host
            # steps its lane more than 8 times
            assert np.bincount(c_state["ret_host"]).max() > 8
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


class TestKernelSizeGuard:
    """Host ids are int32 inside the kernel: 2**31 hosts fall back."""

    def prep(self, n):
        # only the fields the guard reads: touching any other one raises
        return SimpleNamespace(n=n, nwu=10, quorum=2, max_replicas=8)

    def test_int32_overflow_returns_none_before_allocating(self,
                                                           monkeypatch):
        monkeypatch.setattr(cloop, "_load", lambda: object())
        assert run_event_loop(self.prep(2 ** 31)) is None

    def test_largest_int32_host_count_passes_the_guard(self, monkeypatch):
        monkeypatch.setattr(cloop, "_load", lambda: object())
        with pytest.raises(AttributeError):
            run_event_loop(self.prep(2 ** 31 - 1))


def python_fold(start, values):
    total = start
    for value in values.tolist():
        total += value
    return total


def python_bins(index, values, base):
    bins = base.tolist()
    for i, value in zip(index.tolist(), values.tolist()):
        bins[i] += value
    return np.array(bins)


class TestOrderExactFolds:
    """Pins the fold primitives of ``FleetServer._fast_report``.

    On data where pairwise summation (``np.sum``) and a left fold
    round differently, ``np.cumsum`` with the start prepended, weighted
    ``np.bincount`` and ``np.add.at`` must equal the Python ``+=`` loop
    bit for bit; a numpy that vectorises them differently fails here.
    """

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(20090525)
        size = 20_000
        # mixed magnitudes, signs and few bins: rounding depends on order
        values = (rng.standard_normal(size)
                  * 10.0 ** rng.integers(-6, 10, size))
        index = rng.integers(0, 17, size)
        return values, index

    def test_data_separates_pairwise_from_sequential(self, data):
        values, index = data
        assert float(np.sum(values)) != python_fold(0.0, values)
        pairwise = np.array([np.sum(values[index == b]) for b in range(17)])
        sequential = python_bins(index, values, np.zeros(17))
        assert pairwise.tobytes() != sequential.tobytes()

    @pytest.mark.parametrize("start", [0.0, 12345.678, -1e9])
    def test_cumsum_with_start(self, data, start):
        values, _ = data
        expected = python_fold(start, values)
        assert np.float64(_left_fold(start, values)).tobytes() == \
            np.float64(expected).tobytes()
        assert _left_fold(start, values[:0]) == start

    def test_weighted_bincount(self, data):
        values, index = data
        got = np.bincount(index, weights=values, minlength=20)
        assert got.tobytes() == \
            python_bins(index, values, np.zeros(20)).tobytes()

    def test_add_at(self, data):
        values, index = data
        base = np.linspace(-5e8, 5e8, 17)
        got = base.copy()
        np.add.at(got, index, values)
        assert got.tobytes() == python_bins(index, values, base).tobytes()
