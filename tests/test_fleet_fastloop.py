"""Fast-loop equivalence and hot-path bugfix regressions.

Pins the contracts the columnar rewrite rides on:

* ``_percentile`` nearest-rank rounding is parity-stable (the
  half-up fix — ``round``'s banker's rounding flipped the p50 between
  the lower and upper middle sample depending on count parity);
* the compiled C event kernel and the pure-Python fallback produce the
  same canonical flat state, and the whole columnar path reproduces the
  archived object server's (:mod:`tests._reference_fleet`)
  :meth:`FleetReport.to_dict` byte for byte;
* ``--metrics`` observes without steering: a metrics run takes the same
  path as a plain one, and its ``fleet.*`` snapshot equals the oracle's;
* a storm's pre-drawn fire masks tally what per-call draws tallied: the
  RUNLOG and ``faults.injected.*`` counts equal the oracle's, site for
  site and in order, and an unarmed site is never drawn;
* the numpy primitives the report folds with are sequential left folds
  in input order, bit for bit the Python ``+=`` loops they replace (not
  CPython 3.12's compensated ``sum``), and the report renders the same
  bytes whatever its fold block size;
* the kernel's host record and heap node match their numpy dtypes
  field for field, its entry points refuse a buffer of the wrong length,
  item size, kind or contiguity before writing, and ``-O0``/``-O3``
  builds keep every output byte;
* every pause of the event kernel (replica, return, heap and need-ring
  growth) resumes to the fallback's state byte for byte, and so does a
  run whose events tie on time by the dozen, and one where most
  completions land past their deadline.
"""

import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest

import tests._reference_fleet as ref
from repro import ckernel
from repro.faults import RUNLOG, FaultPlan, injected
from repro.fleet import (
    FleetConfig,
    FleetServer,
    build_fleet_columns,
    simulate_fleet,
)
from repro.fleet import cloop
from repro.fleet import config as fleet_config
from repro.fleet import server as fleet_server
from repro.fleet.calibration import fleet_slowdowns
from repro.fleet.cloop import run_event_loop
from repro.fleet.config import left_fold
from repro.fleet.server import (
    _MASK_BLOCK,
    _NO_RECOVERY,
    _fire_mask,
    _percentile,
)
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
    hosts = ref.build_fleet_hosts(config)
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
        live = simulate_fleet(config).to_dict()
        assert canonical(live) == canonical(oracle_dict(config))


class TestKernelMatchesFallback:
    """C kernel and Python fallback emit the same canonical state."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_state_dicts_identical(self, config):
        columns = build_fleet_columns(config)
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
            report = simulate(config)
        else:
            with injected(plan):
                report = simulate(config)
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
        # the oracle predates the compiled column sampler, so it cannot
        # count the hosts that sampler built; every other metric matches
        compiled = live_metrics["counters"].pop(
            "fleet.columns.compiled_hosts", 0)
        assert compiled == config.hosts
        assert canonical(live_metrics) == canonical(expected_metrics)
        for kind in ("counters", "gauges", "timers", "hists"):
            assert expected_metrics[kind], kind  # every instrument kind
        if storm:
            counters = live_metrics["counters"]
            assert counters["fleet.upload_retried"] > 0
            assert counters["fleet.rolled_back"] > 0

    def test_metrics_run_takes_the_kernel(self, monkeypatch):
        calls = []

        def spy(prep):
            calls.append(prep.n)
            return run_event_loop(prep)

        monkeypatch.setattr("repro.fleet.server._c_event_loop", spy)
        plain = simulate_fleet(CONFIGS[0]).to_dict()
        observed, _ = fleet_metrics(simulate_fleet, CONFIGS[0])
        assert calls == [CONFIGS[0].hosts, CONFIGS[0].hosts]
        assert canonical(observed) == canonical(plain)


#: A storm whose replica ids run past two pre-drawn mask blocks.
BLOCK_STORM_CONFIG = FleetConfig(hosts=400, hypervisor="mixed", seed=5,
                                 duration_s=43200.0,
                                 checkpoint_interval_s=900.0,
                                 degraded_threshold=3,
                                 upload_backoff_s=600.0)


def storm_tallies(simulate, config, plan):
    """``(report dict, RUNLOG injected, faults.injected* counters)`` of
    one storm run with a fresh run log and metrics registry."""
    RUNLOG.clear()
    METRICS.enable(reset=True)
    try:
        with injected(plan):
            report = simulate(config)
        counters = {name: value for name, value
                    in METRICS.snapshot()["counters"].items()
                    if name.startswith("faults.injected")}
        logged = RUNLOG.snapshot()["injected"]
    finally:
        METRICS.disable()
        METRICS.reset()
        RUNLOG.clear()
    return report.to_dict(), logged, counters


class TestStormTallyParity:
    """Pre-drawn fire masks tally exactly what per-call draws tallied."""

    def test_injection_tallies_equal_oracle(self):
        live_plan, ref_plan = storm_plan(), storm_plan()
        live, live_log, live_counters = storm_tallies(
            simulate_fleet, BLOCK_STORM_CONFIG, live_plan)
        assert live["replicas_issued"] > 2 * _MASK_BLOCK
        expected, log, counters = storm_tallies(
            ref.simulate_fleet, BLOCK_STORM_CONFIG, ref_plan)
        assert canonical(live) == canonical(expected)
        assert live_log == log
        assert live_counters == counters
        # the plans' own tallies keep first-injection order
        assert list(live_plan.injected.items()) \
            == list(ref_plan.injected.items())
        assert set(log) == {"host.dropout", "server.outage",
                            "net.partition", "vm.crash"}
        assert counters["faults.injected"] == sum(log.values())
        for site, count in log.items():
            assert counters[f"faults.injected.{site}"] == count

    def test_unarmed_site_is_never_drawn(self, monkeypatch):
        sites = []

        def spy(plan, site, first, count, attempt=0):
            sites.append(site)
            return _fire_mask(plan, site, first, count, attempt)

        monkeypatch.setattr("repro.fleet.server._fire_mask", spy)
        plan = storm_plan().arm("vm.crash", 0.0)
        live, live_log, _ = storm_tallies(
            simulate_fleet, BLOCK_STORM_CONFIG, plan)
        assert "vm.crash" not in sites
        assert sites.count("net.partition") >= 3  # one per block
        assert sites.count("host.dropout") == 1
        expected, log, _ = storm_tallies(
            ref.simulate_fleet, BLOCK_STORM_CONFIG,
            storm_plan().arm("vm.crash", 0.0))
        assert canonical(live) == canonical(expected)
        assert live_log == log and "vm.crash" not in log

    def test_draw_path_without_kernel_is_byte_identical(self, monkeypatch):
        kernel = storm_tallies(simulate_fleet, BLOCK_STORM_CONFIG,
                               storm_plan())
        monkeypatch.setattr("repro.fleet.server.draw_uniforms",
                            lambda prefix, suffix, first, count: None)
        fallback = storm_tallies(simulate_fleet, BLOCK_STORM_CONFIG,
                                 storm_plan())
        assert canonical(fallback) == canonical(kernel)


class TestKernelSizeGuard:
    """Host ids are int32 inside the kernel: 2**31 hosts fall back."""

    def prep(self, n):
        # only the fields the guard reads: touching any other one raises
        return SimpleNamespace(n=n, nwu=10, quorum=2, max_replicas=8)

    def test_int32_overflow_returns_none_before_allocating(self,
                                                           monkeypatch):
        monkeypatch.setattr(ckernel, "load", lambda: object())
        assert run_event_loop(self.prep(2 ** 31)) is None

    def test_largest_int32_host_count_passes_the_guard(self, monkeypatch):
        monkeypatch.setattr(ckernel, "load", lambda: object())
        with pytest.raises(AttributeError):
            run_event_loop(self.prep(2 ** 31 - 1))


def assert_state_equal(a, b):
    assert set(a) == set(b)
    for key, value in a.items():
        if hasattr(value, "tobytes"):
            assert value.dtype == b[key].dtype, key
            assert value.tobytes() == b[key].tobytes(), key
        else:
            assert value == b[key], key


@functools.lru_cache(maxsize=None)
def _build_with(flags):
    """The extension built with ``flags``, imported under a module name of
    its own next to the production build."""
    name = "repro_" + "".join(ch for ch in "".join(flags) if ch.isalnum())
    return ckernel._import_extension(ckernel.compile_extension(flags),
                                     f"{name}._ccore")


def _small_run():
    config = FleetConfig(hosts=40, seed=3, duration_s=21600.0, workunits=30,
                         quorum=2)
    prep = FleetServer(config, build_fleet_columns(config))._fast_prep()
    return prep, run_event_loop(prep)


class TestKernelBuild:
    """The compiled module's fleet entry points: record layouts, buffer
    checks and compiler-flag independence."""

    @pytest.mark.parametrize("export, dtype", [
        ("host_rec_layout", cloop._HOST_DTYPE),
        ("heap_node_layout", cloop._NODE_DTYPE),
    ])
    def test_c_layout_matches_numpy_dtype(self, export, dtype):
        # sizeof, then every offsetof in declaration order: a field
        # added, dropped or reordered on one side only fails here
        expected = [dtype.itemsize] + [
            dtype.fields[name][1] for name in dtype.names]
        assert list(getattr(ckernel.load(), export)()) == expected

    def test_host_records_and_heap_times_are_aligned(self):
        config = CONFIGS[0]
        prep = FleetServer(
            config, build_fleet_columns(config))._fast_prep()
        hosts = cloop._host_records(prep, prep.soff, prep.fs, prep.fe)
        assert hosts.ctypes.data % 128 == 0
        assert hosts.strides == (128,)
        times, nodes = cloop._heap(37)
        grown_times, _ = cloop._heap(74, (times, nodes))
        for heap_t in (times, grown_times):
            # time 1 opens a line: the four children of any event share it
            assert (heap_t.ctypes.data + 8) % 64 == 0

    @pytest.mark.parametrize("name, bad", [
        ("wu_out", np.zeros(29, dtype=np.int32)),        # one unit short
        ("wu_out", np.zeros(30, dtype=np.int64)),        # item size
        ("wu_validated", np.zeros(30, dtype=np.int64)),  # int, not float
        ("r_disp", np.zeros((4096, 2))[:, 0]),           # strided
        ("stretch", np.zeros(8)),                        # 9 factors read
        ("hosts", np.zeros(40, dtype=np.float64)),       # not records
    ], ids=["short", "int64", "int-for-float", "strided", "stretch",
            "hosts"])
    def test_event_loop_refuses_a_bad_buffer(self, monkeypatch, name, bad):
        # every FleetRun buffer is checked before the kernel writes:
        # the bad one is refused and the others keep their bytes
        lib = ckernel.load()
        seen = {}

        class Tamper(lib.FleetRun):
            def __init__(self, **kwargs):
                seen.update(kwargs)
                kwargs[name] = bad
                super().__init__(**kwargs)

        monkeypatch.setattr(lib, "FleetRun", Tamper)
        with pytest.raises(ValueError):
            _small_run()
        assert not seen["wu_state"].any()
        assert (seen["wu_last"] == -1).all()

    def test_init_hosts_refuses_offsets_past_the_sessions(self):
        lib = ckernel.load()
        hosts = np.zeros(2, dtype=cloop._HOST_DTYPE)
        columns = [np.ones(2) for _ in range(3)]
        seeds = np.zeros(2, dtype=np.uint64)
        for soff in ([0, 2, 5], [0, 3, 2], [-1, 1, 2]):
            with pytest.raises(ValueError, match="soff"):
                lib.fleet_init_hosts(hosts, np.array(soff), np.zeros(4),
                                     np.zeros(4), *columns, seeds,
                                     cloop._ERROR_SPAWN)
        assert hosts.tobytes() == bytes(hosts.nbytes)

    def test_flags_get_their_own_library(self):
        default = ckernel.compile_extension()
        other = ckernel.compile_extension(flags=("-O1",))
        assert other is not None and other != default
        assert ckernel.compile_extension(flags=("-O1",)) == other  # cached

    @pytest.mark.parametrize("flags", [("-O0",), ("-O3",)])
    def test_optimisation_level_keeps_every_byte(self, flags, monkeypatch):
        config = CONFIGS[3]
        sampled = cloop.sample_columns(config, 0, config.hosts)
        state = run_event_loop(FleetServer(
            config, build_fleet_columns(config))._fast_prep())
        other = _build_with(flags)
        assert other.__file__ != ckernel.load().__file__
        monkeypatch.setattr(ckernel, "load", lambda: other)
        rebuilt = cloop.sample_columns(config, 0, config.hosts)
        assert_state_equal(rebuilt, sampled)
        assert_state_equal(run_event_loop(FleetServer(
            config, build_fleet_columns(config))._fast_prep()),
            state)


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
        assert np.float64(left_fold(start, values)).tobytes() == \
            np.float64(expected).tobytes()
        assert left_fold(start, values[:0]) == start

    def test_blocks_carry_the_running_total(self, data, monkeypatch):
        values, _ = data
        monkeypatch.setattr(fleet_config, "FOLD_BLOCK", 999)
        assert np.float64(left_fold(12345.678, values)).tobytes() == \
            np.float64(python_fold(12345.678, values)).tobytes()

    def test_not_compensated_like_sum_on_newer_pythons(self):
        # a += loop rounds 1e16 + 1.0 back to 1e16 and ends at 0.0;
        # CPython >= 3.12's sum() (Neumaier) returns 1.0
        values = [1e16, 1.0, -1e16]
        assert python_fold(0.0, np.array(values)) == 0.0
        assert left_fold(0.0, values) == 0.0
        assert left_fold(0.0, np.array(values)) == 0.0

    def test_report_and_config_sums_are_left_folds(self):
        config = CONFIGS[0]
        server = FleetServer(config, build_fleet_columns(config))
        prep = server._fast_prep()
        state = server._fast_loop_python(prep)
        # (start, end) windows 1e16, 1.0 and -1e16 seconds long
        spans = [(0.0, 1e16), (0.0, 1.0), (1e16, 0.0)]
        state["recovery"] = dict(_NO_RECOVERY, outages=spans,
                                 degraded_windows=spans)
        recovery = server._fast_report(prep, state).recovery
        assert recovery["outage_s"] == recovery["degraded_s"] == 0.0
        # a run without windows still reports the int 0 that sum() gave
        clean = simulate_fleet(config).recovery
        assert type(clean["outage_s"]) is int and clean["outage_s"] == 0
        assert type(clean["degraded_s"]) is int
        mixed = FleetConfig(hypervisor="mixed")
        slowdowns = np.array(list(fleet_slowdowns().values()))
        assert mixed.mean_slowdown() == (
            python_fold(0.0, slowdowns) / slowdowns.size
            * mixed.memory_factor())

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


class TestKernelPauses:
    """Shrunk initial capacities force every pause of the event kernel.

    Production sizing (``heap_cap = max(1024, 2n)`` and the like) almost
    never pauses, so without this the grow-and-resume paths of
    :func:`run_event_loop` would go untested.  The replica pause also
    grows ``r_prev``, the chain each dispatch walks to find a unit's
    hosts, so a wrong copy there changes which host gets which unit.
    """

    #: few units, so the fresh range (one FRESH ring entry) runs dry
    #: early, and short deadlines, so the timeouts then refill the need
    #: ring past its start
    CONFIG = FleetConfig(hosts=60, seed=7, duration_s=43200.0,
                         workunits=60, quorum=2, error_rate=0.3,
                         deadline_factor=0.2)

    def test_every_pause_resumes_to_the_same_bytes(self, monkeypatch):
        lib = ckernel.load()
        pauses = []

        class Spy(lib.FleetRun):
            def run(self):
                status = super().run()
                wrapped = self.need_head + self.need_count > self.need_cap
                pauses.append((status, wrapped))
                return status

        monkeypatch.setattr(lib, "FleetRun", Spy)
        for name in ("_REP_CAP", "_RET_CAP", "_HEAP_CAP"):
            monkeypatch.setattr(cloop, name, (1, 0))
        # two free slots: the ring wraps before it first fills
        monkeypatch.setattr(cloop, "_NEED_CAP", (2, 0))
        server = FleetServer(self.CONFIG,
                             build_fleet_columns(self.CONFIG))
        prep = server._fast_prep()
        state = run_event_loop(prep)
        statuses = {status for status, _ in pauses}
        assert {cloop._ST_GROW_REP, cloop._ST_GROW_RET,
                cloop._ST_GROW_HEAP, cloop._ST_GROW_NEED} <= statuses
        # the need ring is linearized from a wrapped state at least once
        assert any(wrapped for status, wrapped in pauses
                   if status == cloop._ST_GROW_NEED)
        assert state["tmo_n"] > 0
        assert_state_equal(state, server._fast_loop_python(prep))


class TestBlockedReport:
    """The report folds its ok returns and unfinished replicas a block
    at a time, carrying every accumulator, so any block size renders the
    same report and ``fleet.*`` metrics."""

    def test_returns_fold_equals_a_python_walk(self, monkeypatch):
        # mixed magnitudes and signs (real returns repeat one value per
        # host, which hides regrouping): blocks of 7 must still equal
        # the wid-major += walk, per-host arrays included
        rng = np.random.default_rng(20090526)
        nwu, quorum, n, count = 40, 2, 6, 3000
        wu_state = (rng.random(nwu) < 0.7).astype(np.uint8)
        state = {
            "ret_wid": rng.integers(0, nwu, count).astype(np.int32),
            "ret_host": rng.integers(0, n, count).astype(np.int32),
            "ret_cpu": (rng.standard_normal(count)
                        * 10.0 ** rng.integers(-6, 10, count)),
            "wu_state": wu_state,
            "hold_flat": rng.integers(0, n, nwu * quorum).astype(np.int32),
            "nhold": rng.integers(0, quorum + 1, nwu).astype(np.uint8),
        }
        settled = wu_state == 1
        monkeypatch.setattr(fleet_server, "FOLD_BLOCK", 7)
        waste = np.linspace(-1e3, 1e3, n)
        got = fleet_server._fold_returns(state, quorum, settled, None,
                                         0.25, waste)

        sums = {"quorum": 0.0, "redundant": 0.25, "pending": 0.0}
        by_host = [0.0] * n
        expected_waste = np.linspace(-1e3, 1e3, n).tolist()
        rows = zip(state["ret_wid"].tolist(), state["ret_host"].tolist(),
                   state["ret_cpu"].tolist())
        for wid, host, cpu in sorted(rows, key=lambda row: row[0]):
            holders = state["hold_flat"][wid * quorum:
                                         wid * quorum + state["nhold"][wid]]
            if not settled[wid]:
                sums["pending"] += cpu
            elif host in holders.tolist():
                sums["quorum"] += cpu
                by_host[host] += cpu
            else:
                sums["redundant"] += cpu
                expected_waste[host] += cpu
        assert got[:3] == (sums["quorum"], sums["redundant"],
                           sums["pending"])
        assert got[3].tobytes() == np.array(by_host).tobytes()
        assert waste.tobytes() == np.array(expected_waste).tobytes()

    @pytest.mark.parametrize("storm", [False, True],
                             ids=["fault_free", "storm"])
    def test_tiny_blocks_keep_every_byte(self, storm, monkeypatch):
        config = BLOCK_STORM_CONFIG if storm else CONFIGS[3]
        plan = storm_plan if storm else (lambda: None)
        whole = fleet_metrics(simulate_fleet, config, plan())
        for module in (fleet_config, fleet_server):
            monkeypatch.setattr(module, "FOLD_BLOCK", 7)
        blocked = fleet_metrics(simulate_fleet, config, plan())
        assert canonical(blocked) == canonical(whole)
        if storm:
            recovery = blocked[0]["recovery"]
            assert recovery["vm_crashes"] > 0
            assert recovery["degraded_validated"] > 0


class TestLateCompletions:
    """Most completions land past their deadline.

    The kernel keeps no per-replica deadline: a completion at ``t >
    deadline`` always had its own deadline event pushed (``deadline <
    fin <= horizon``), which popped strictly earlier and set the
    timed-out flag, so the flag alone marks the completion stale.
    """

    CONFIG = FleetConfig(hosts=300, seed=13, duration_s=86400.0,
                         workunits=900, quorum=2, error_rate=0.05,
                         deadline_factor=0.3)

    def test_late_completions_keep_every_byte(self):
        server = FleetServer(self.CONFIG,
                             build_fleet_columns(self.CONFIG))
        prep = server._fast_prep()
        state = run_event_loop(prep)
        assert_state_equal(state, server._fast_loop_python(prep))
        assert state["stale_n"] > 0
        assert state["stale_n"] > (state["ok_n"] + state["err_n"]
                                   + state["red_n"])


class TestTieOrder:
    """Events tied on time pop in seq order, kernel and fallback alike.

    Every host gets the same sessions and the same per-unit seconds, so
    dozens of events share each time: the initial requests all sit at
    t = 0 (the 4-ary sift-down breaks every tie between four children
    on seq), and the completions land together, so a completion finds
    another event at its own time and takes the re-poll branch.
    """

    HOSTS = 40

    def tied_prep(self, server):
        prep = server._fast_prep()
        n = self.HOSTS
        prep.fs = np.tile([0.0, 30000.0], n)
        prep.fe = np.tile([20000.0, 80000.0], n)
        prep.soff = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        prep.an = np.full(n, 1000.0)
        prep.base = np.full(n, 5000.0)
        prep.departure = np.full(n, np.inf)
        return prep

    def test_tied_events_keep_every_byte(self):
        config = FleetConfig(hosts=self.HOSTS, seed=5, duration_s=86400.0,
                             workunits=300, quorum=2, error_rate=0.2)
        server = FleetServer(config, build_fleet_columns(config))
        prep = self.tied_prep(server)
        state = run_event_loop(prep)
        assert_state_equal(state, server._fast_loop_python(prep))
        # units validate in batches at shared times
        validated = state["wu_validated"][state["wu_state"] == 1]
        assert len(validated) > 4 * len(np.unique(validated))
        assert state["err_n"] > 0 and state["n_valid"] > 0
