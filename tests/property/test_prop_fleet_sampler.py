"""Property test: the compiled column sampler is the numpy build, byte
for byte.

``repro.fleet.cloop.sample_columns`` (C) and
``tests._oracle_columns.sample_shard_numpy`` (numpy, its oracle) must
fill the same host columns and CSR sessions for arbitrary
seeds (zero, negative, beyond 64 bits), speed spreads, hypervisor mixes,
horizons shorter than one session, availability spreads that clamp
hosts onto both band edges, and shard ranges of any length.  A fixed
test pins the kernel's SHA-256 against :mod:`hashlib` across the
padding edges.
"""

import hashlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ckernel
from repro.fleet import FleetConfig, build_fleet_columns, build_fleet_hosts
from repro.fleet import cloop, columns
from repro.fleet.host import AVAILABILITY_CEIL, AVAILABILITY_FLOOR
from tests._oracle_columns import sample_shard_numpy
from tests._reference_fleet import host_from_columns

COLUMN_KEYS = ("hv_code", "gflops", "availability", "slowdown",
               "departure_s", "checkpoint_cost_s", "serve_seed",
               "s_starts", "s_ends", "s_off")

seeds = st.one_of(
    st.just(0),
    st.integers(min_value=-2 ** 80, max_value=-1),
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.integers(min_value=2 ** 64, max_value=2 ** 80),
)

configs = st.builds(
    FleetConfig,
    hosts=st.integers(min_value=2, max_value=120),
    seed=seeds,
    hypervisor=st.sampled_from(["mixed", "vmware", "qemu", "vmplayer"]),
    host_gflops_sigma=st.sampled_from([0.0, 0.25, 1.5]),
    # 60 s and 900 s end inside the first session (mean 4 h)
    duration_s=st.sampled_from([60.0, 900.0, 14400.0, 86400.0]),
    availability_mean=st.sampled_from([0.05, 0.5, 0.7, 1.0]),
    availability_spread=st.sampled_from([0.0, 0.15, 0.6, 3.0]),
    session_mean_s=st.sampled_from([600.0, 14400.0]),
    departure_mean_s=st.sampled_from([3600.0, 3888000.0]),
)


@contextmanager
def numpy_build():
    """Route ``_sample_shard_columns`` through the numpy build."""
    with mock.patch.object(columns, "sample_columns", sample_shard_numpy):
        yield


def assert_same(c_cols, np_cols, keys):
    for key in keys:
        a, b = c_cols[key], np_cols[key]
        assert a.dtype == b.dtype, key
        assert a.tobytes() == b.tobytes(), key


@settings(max_examples=60, deadline=None)
@given(configs)
@example(FleetConfig(hosts=97, seed=-3, availability_spread=3.0))
@example(FleetConfig(hosts=5, seed=2 ** 64, duration_s=60.0,
                     host_gflops_sigma=0.0, hypervisor="mixed"))
def test_compiled_fleet_columns_equal_numpy_build(config):
    compiled = build_fleet_columns(config)
    with numpy_build():
        reference = build_fleet_columns(config)
    assert_same({k: getattr(compiled, k) for k in COLUMN_KEYS},
                {k: getattr(reference, k) for k in COLUMN_KEYS},
                COLUMN_KEYS)


@settings(max_examples=40, deadline=None)
@given(configs, st.integers(min_value=0, max_value=5000),
       st.integers(min_value=1, max_value=203))
def test_compiled_shard_equals_numpy_shard(config, start, size):
    # shard ranges that start anywhere and are rarely multiples of 8
    stop = start + size
    compiled = cloop.sample_columns(config, start, stop)
    reference = sample_shard_numpy(config, start, stop)
    assert set(compiled) == set(reference)
    if config.host_gflops_sigma == 0.0:
        assert compiled["speed_z"] is None and reference["speed_z"] is None
    else:
        assert_same(compiled, reference, ("speed_z",))
    assert_same(compiled, reference,
                ("availability", "departure_s", "serve_seed", "s_starts",
                 "s_ends", "s_cnt"))


def test_wide_spread_reaches_both_clamp_edges():
    # the spread the strategies draw really does exercise both clamps
    config = FleetConfig(hosts=200, seed=11, availability_spread=3.0)
    avail = build_fleet_columns(config).availability
    assert np.any(avail == AVAILABILITY_FLOOR)
    assert np.any(avail == AVAILABILITY_CEIL)


@pytest.mark.parametrize("config", [
    FleetConfig(hosts=40, seed=-99, hypervisor="mixed"),
    FleetConfig(hosts=40, seed=2 ** 70, hypervisor="qemu",
                host_gflops_sigma=0.0, duration_s=900.0),
])
def test_compiled_columns_equal_object_build(config):
    cols = build_fleet_columns(config)
    for host in build_fleet_hosts(config):
        assert host_from_columns(cols, host.index).to_dict() == \
            host.to_dict()


def test_session_buffer_growth_resumes_exactly():
    # ~200 sessions per host: the initial buffer (at most 64 per host)
    # overflows twice, each time in the middle of some host
    config = FleetConfig(hosts=300, seed=5, session_mean_s=600.0,
                         duration_s=86400.0 * 2)
    compiled = cloop.sample_columns(config, 0, config.hosts)
    reference = sample_shard_numpy(config, 0, config.hosts)
    assert compiled["s_cnt"].sum() > 2 * 64 * config.hosts
    assert_same(compiled, reference, ("s_starts", "s_ends", "s_cnt"))


def test_kernel_sha256_matches_hashlib():
    lib = ckernel.load()
    # 0..130 bytes crosses the 55/56/64-byte padding edges twice
    for length in range(131):
        message = bytes((7 * i + length) % 256 for i in range(length))
        assert lib.fleet_sha256(message) == hashlib.sha256(
            message).digest(), length
