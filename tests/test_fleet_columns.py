"""Columnar fleet host state: CSR layout, view parity, vectorised RNG.

The columnar build (:mod:`repro.fleet.columns`) is only admissible if
it is a pure re-encoding of the object build: same hosts, same traces,
same floats.  These tests pin that contract
and the CSR session-layout edge cases (empty traces, single-session
always-on hosts, departure-clipped traces), plus the vectorised PCG64
uniforms (:mod:`repro.fleet.fastrng`) and the numpy sampler's ziggurat
draws (``tests/_oracle_columns.py``) against the scalar reference
streams they must reproduce bit for bit.
"""

import numpy as np
import pytest

from repro.fleet import FleetConfig, build_fleet_columns, build_fleet_hosts
from repro.fleet.fastrng import VecPcg
from repro.simcore.rng import RngStreams
from tests import _oracle_columns
from tests._oracle_columns import ZigguratPcg, fork_seed
from tests._reference_fleet import host_from_columns

MIXED = FleetConfig(hosts=220, hypervisor="mixed", seed=13,
                    duration_s=86400.0)


def assert_columns_match_hosts(config):
    cols = build_fleet_columns(config)
    hosts = build_fleet_hosts(config)
    assert len(cols) == len(hosts) == config.hosts
    for host in hosts:
        assert host_from_columns(cols, host.index).to_dict() == \
            host.to_dict()


class TestColumnsMatchObjects:
    def test_mixed_fleet_byte_identical(self):
        assert_columns_match_hosts(MIXED)

    def test_single_hypervisor_with_checkpointing(self):
        assert_columns_match_hosts(
            FleetConfig(hosts=90, hypervisor="qemu", seed=3,
                        duration_s=43200.0,
                        checkpoint_interval_s=1800.0))

    def test_lane_by_lane_exp_when_vector_exp_disagrees(self, monkeypatch):
        # the SIMD guard: a build whose vector np.exp differs from the
        # scalar one exponentiates each speed factor on its own
        from repro.fleet import columns

        consulted = []

        def disagrees():
            consulted.append(True)
            return False

        monkeypatch.setattr(columns, "_vector_exp_ok", disagrees)
        assert_columns_match_hosts(MIXED)
        assert consulted

    @pytest.mark.parametrize("sigma", [0.35, 0.0])
    def test_numpy_build_blocks_join_byte_identical(self, monkeypatch,
                                                    sigma):
        # the numpy oracle walks its range in fixed host blocks; block
        # edges (including a short last block) must not change a byte
        config = FleetConfig(hosts=220, hypervisor="mixed", seed=13,
                             host_gflops_sigma=sigma)
        whole = _oracle_columns.sample_shard_numpy(config, 5, 215)
        monkeypatch.setattr(_oracle_columns, "NUMPY_BLOCK", 16)
        blocked = _oracle_columns.sample_shard_numpy(config, 5, 215)
        assert set(blocked) == set(whole)
        for key, value in whole.items():
            if value is None:
                assert blocked[key] is None
            else:
                assert blocked[key].dtype == value.dtype, key
                assert blocked[key].tobytes() == value.tobytes(), key


class TestCsrLayout:
    def test_offsets_are_a_valid_csr_index(self):
        cols = build_fleet_columns(MIXED)
        off = cols.s_off
        assert off.shape == (len(cols) + 1,)
        assert off[0] == 0
        assert off[-1] == len(cols.s_starts) == len(cols.s_ends)
        assert np.all(np.diff(off) >= 0)
        starts, ends = cols.s_starts, cols.s_ends
        assert np.all(ends >= starts)
        # sessions are ordered and disjoint within each host's slice
        for h in range(len(cols)):
            lo, hi = int(off[h]), int(off[h + 1])
            if hi - lo > 1:
                assert np.all(starts[lo + 1:hi] >= ends[lo:hi - 1])

    def test_empty_trace_host(self):
        # a host that departs immediately or never powers on has an
        # empty CSR slice and an empty sessions view
        config = FleetConfig(hosts=400, seed=29, duration_s=7200.0,
                             availability_mean=0.05,
                             availability_spread=0.01,
                             session_mean_s=600.0)
        cols = build_fleet_columns(config)
        off = cols.s_off
        empties = np.flatnonzero(off[1:] == off[:-1])
        assert empties.size > 0, "config produced no empty-trace host"
        for h in empties.tolist():
            assert host_from_columns(cols, h).sessions == []

    def test_single_session_always_on_model(self):
        # availability >= 1.0 collapses the renewal process to a single
        # session spanning the whole horizon (host sampling clips at
        # AVAILABILITY_CEIL, so the branch is reached via the model).
        from repro.fleet.churn import ChurnModel, availability_trace

        model = ChurnModel(availability=1.0, session_mean_s=3600.0,
                           departure_mean_s=1e12)
        sessions, _departure = availability_trace(
            model, RngStreams(99), horizon_s=14400.0)
        assert len(sessions) == 1
        assert sessions[0][0] == 0.0

    def test_sampled_availability_is_capped_below_one(self):
        # even an availability_mean of 1.0 with zero spread samples
        # below 1.0, so every host still churns (multiple sessions)
        config = FleetConfig(hosts=64, seed=17, duration_s=14400.0,
                             availability_mean=1.0,
                             availability_spread=0.0)
        cols = build_fleet_columns(config)
        assert np.all(cols.availability < 1.0)
        counts = np.diff(cols.s_off)
        assert counts.max() > 1

    def test_traces_clipped_at_departure_and_horizon(self):
        # short horizon + short departures: every session end respects
        # min(horizon, departure)
        config = FleetConfig(hosts=300, seed=11, duration_s=86400.0 * 14,
                             departure_mean_s=86400.0 * 4)
        cols = build_fleet_columns(config)
        horizon = config.duration_s
        assert np.any(cols.departure_s <= horizon), \
            "config produced no departing host"
        for h in range(len(cols)):
            lo, hi = int(cols.s_off[h]), int(cols.s_off[h + 1])
            if hi > lo:
                limit = min(horizon, float(cols.departure_s[h]))
                assert cols.s_ends[hi - 1] <= limit


class TestFastRng:
    def test_serve_stream_doubles_match_scalar_reference(self):
        cols = build_fleet_columns(MIXED)
        vec = VecPcg.seeded(cols.serve_seed, "error")
        rounds = [vec.doubles() for _ in range(3)]
        for h in (0, 1, 57, len(cols) - 1):
            rng = RngStreams(int(cols.serve_seed[h]))
            for r in range(3):
                assert rounds[r][h] == rng.uniform("error")

    def test_fork_seed_matches_rngstreams_fork(self):
        root = RngStreams(1234)
        forked = root.fork("host.7")
        assert fork_seed(1234, "host.7") == forked.root_seed

    def test_vec_normal_and_exp_match_numpy(self):
        seeds = np.array([fork_seed(99, f"lane.{i}") for i in range(256)],
                         dtype=np.uint64)
        vec_n = ZigguratPcg.seeded(seeds, "draw").std_normal()
        vec_e = ZigguratPcg.seeded(seeds, "draw").std_exp()
        for i in (0, 1, 100, 255):
            gen = RngStreams(int(seeds[i]))
            assert vec_n[i] == gen.normal("draw")
            gen = RngStreams(int(seeds[i]))
            assert vec_e[i] == gen.exponential("draw", 1.0)
