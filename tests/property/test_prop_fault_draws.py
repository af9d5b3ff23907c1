"""Property test: the bulk fault draws are ``_draw``, bit for bit.

Fault storms pre-draw their ``vm.crash``, ``net.partition`` and
``host.dropout`` decisions a block of keys at a time
(``repro.fleet.server._fault_uniforms`` / ``_fire_mask``), through the
compiled batch (:func:`repro.fleet.cloop.draw_uniforms`) or, when
the batch refuses a payload, through :func:`repro.faults.plan._draw`
key by key.
Both paths must return ``_draw``'s floats exactly for any seed (zero,
negative, beyond 64 bits), every fleet site, every salt the fleet uses,
attempts 0-4, keys up to 2**40 and counts that cross mask-block
boundaries; the fire masks must equal ``FaultPlan.would_fire`` key for
key, TRANSIENT sites included.  Payloads too long for the kernel's
fixed buffer take the ``_draw`` path (run under ASan/UBSan by
``benchmarks/check_sanitized_kernel.py``).
"""

import hashlib
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ckernel
from repro.faults import SITES, TRANSIENT, FaultPlan
from repro.faults.plan import _draw, draw_affixes
from repro.fleet import cloop, server
from repro.fleet.server import _MASK_BLOCK, _fault_uniforms, _fire_mask

FLEET_SITES = ("host.dropout", "server.outage", "net.partition", "vm.crash")
TRANSIENT_SITES = tuple(sorted(site for site, mode in SITES.items()
                               if mode == TRANSIENT))

seeds = st.one_of(
    st.just(0),
    st.integers(min_value=-2 ** 80, max_value=-1),
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.integers(min_value=2 ** 64, max_value=2 ** 80),
)
# keys anywhere up to 2**40, and keys just below a mask-block edge
firsts = st.one_of(
    st.integers(min_value=0, max_value=2 ** 40),
    st.builds(lambda block, back: max(0, block * _MASK_BLOCK - back),
              st.integers(min_value=1, max_value=64),
              st.integers(min_value=0, max_value=40)),
)
counts = st.integers(min_value=0, max_value=_MASK_BLOCK + 200)
salts = st.sampled_from(["", "u", "at"])
attempts = st.integers(min_value=0, max_value=4)


@contextmanager
def no_kernel():
    """Route ``_fault_uniforms`` through the ``_draw`` loop."""
    with mock.patch.object(server, "draw_uniforms",
                           lambda prefix, suffix, first, count: None):
        yield


def reference(seed, site, first, count, attempt, salt):
    return np.array([_draw(seed, site, key, attempt, salt)
                     for key in range(first, first + count)],
                    dtype=np.float64)


def test_draw_keeps_its_payload_format():
    # the affix helper must not move a single payload byte
    for seed, site, key, attempt, salt in (
            (7, "vm.crash", 3, 0, ""), (-2, "host.dropout", 0, 0, "u"),
            (2 ** 70, "net.partition", 2 ** 40, 4, "at"),
            (1, "worker.hang", "fig1/rep2", 1, "")):
        payload = f"{seed}|{site}|{key}|{attempt}|{salt}".encode("utf-8")
        word = int.from_bytes(hashlib.sha256(payload).digest()[:8],
                              "little")
        assert _draw(seed, site, key, attempt, salt) == word / 2.0 ** 64


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(FLEET_SITES), firsts, counts, attempts, salts)
@example(seed=-1, site="vm.crash", first=_MASK_BLOCK - 3, count=7,
         attempt=0, salt="")
@example(seed=2 ** 80, site="host.dropout", first=2 ** 40,
         count=_MASK_BLOCK + 1, attempt=4, salt="at")
def test_bulk_uniforms_equal_draw(seed, site, first, count, attempt, salt):
    expected = reference(seed, site, first, count, attempt, salt).tobytes()
    batch = cloop.draw_uniforms(*draw_affixes(seed, site, attempt, salt),
                                first, count)
    assert batch is not None
    assert batch.tobytes() == expected
    assert _fault_uniforms(seed, site, first, count, attempt,
                           salt).tobytes() == expected
    with no_kernel():
        assert _fault_uniforms(seed, site, first, count, attempt,
                               salt).tobytes() == expected


probabilities = st.one_of(st.just(0.0), st.just(1.0),
                          st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(FLEET_SITES + TRANSIENT_SITES), probabilities,
       st.integers(min_value=0, max_value=2 ** 40), counts, attempts)
@example(seed=3, site="checkpoint.lost", probability=1.0, first=0,
         count=50, attempt=1)
@example(seed=3, site="measure.transient", probability=0.5, first=0,
         count=50, attempt=0)
def test_fire_mask_equals_would_fire(seed, site, probability, first, count,
                                     attempt):
    plan = FaultPlan(seed=seed).arm(site, probability)
    expected = [plan.would_fire(site, key, attempt)
                for key in range(first, first + count)]
    for path in (nullcontext(), no_kernel()):
        with path:
            mask = _fire_mask(plan, site, first, count, attempt)
        assert mask.dtype == bool and mask.tolist() == expected
    assert plan.injected == {}  # pre-drawing tallies nothing
    if SITES[site] == TRANSIENT and attempt > 0:
        assert not any(expected)


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(FLEET_SITES),
       st.integers(min_value=0, max_value=2 ** 40),
       st.lists(st.integers(min_value=0, max_value=700), min_size=1,
                max_size=4))
def test_block_by_block_masks_concatenate(seed, site, first, sizes):
    # the storm grows its masks a block at a time: the concatenation of
    # the blocks is the one long mask
    plan = FaultPlan(seed=seed).arm(site, 0.37)
    pieces, key = [], first
    for size in sizes:
        pieces.append(_fire_mask(plan, site, key, size))
        key += size
    whole = _fire_mask(plan, site, first, key - first)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("seed, salt", [
    (5, "x" * 300),            # over-long suffix
    (10 ** 150, ""),           # over-long prefix
    (-(10 ** 100), "y" * 60),  # both near the edge, together too long
])
def test_over_long_payloads_take_the_draw_path(seed, salt):
    prefix, suffix = draw_affixes(seed, "net.partition", 2, salt)
    assert cloop.draw_uniforms(prefix, suffix, 0, 10) is None
    expected = reference(seed, "net.partition", 0, 10, 2, salt)
    got = _fault_uniforms(seed, "net.partition", 0, 10, 2, salt)
    assert got.tobytes() == expected.tobytes()


class TestKernelBatchEdges:
    def test_longest_payload_that_fits(self):
        # the kernel's 128-byte buffer keeps 20 bytes for the key digits:
        # affixes of 108 bytes fit, one byte more does not
        prefix, suffix = draw_affixes(1, "vm.crash", 0, "")
        pad = 128 - 20 - len(prefix) - len(suffix)
        salt = "s" * pad
        prefix, suffix = draw_affixes(1, "vm.crash", 0, salt)
        first = 2 ** 62
        batch = cloop.draw_uniforms(prefix, suffix, first, 3)
        assert batch is not None
        assert batch.tobytes() == reference(
            1, "vm.crash", first, 3, 0, salt).tobytes()
        assert cloop.draw_uniforms(prefix + b"!", suffix, 0, 1) is None

    @pytest.mark.parametrize("first, count", [
        (-1, 3), (0, -1), (2 ** 63 - 2, 2), (2 ** 63, 1)])
    def test_invalid_key_ranges_return_none(self, first, count):
        prefix, suffix = draw_affixes(1, "vm.crash", 0)
        assert cloop.draw_uniforms(prefix, suffix, first, count) is None

    @pytest.mark.parametrize("plen, slen, first, count", [
        (10, 200, 0, 1), (10, 4, -5, 1), (10, 4, 0, -1),
        (10, 4, 2 ** 63 - 2, 2)])
    def test_kernel_guards_its_own_buffer(self, plen, slen, first, count):
        # the C entry point refuses over-long payloads and bad key
        # ranges itself, before writing a byte of ``out``
        affix = b"7" * 256
        out = np.full(4, -1.0)
        status = ckernel.load().fleet_draw_uniforms(
            affix[:plen], affix[:slen], first, count, out)
        assert status == -1
        assert (out == -1.0).all()

    @pytest.mark.parametrize("out", [
        np.full(2, -1.0),                       # too short for 3 keys
        np.full(4, -1.0, dtype=np.float32),     # 4-byte items
        np.full(4, -1, dtype=np.int64),         # integers
        np.full((4, 2), -1.0)[:, 0],            # not contiguous
    ], ids=["short", "float32", "int64", "strided"])
    def test_kernel_refuses_a_bad_out_buffer(self, out):
        # an ``out`` the batch could overrun or misread is refused
        # before a byte is written
        prefix, suffix = draw_affixes(1, "vm.crash", 0)
        before = out.tobytes()
        with pytest.raises(ValueError):
            ckernel.load().fleet_draw_uniforms(prefix, suffix, 0, 3, out)
        assert out.tobytes() == before

    def test_empty_batch(self):
        prefix, suffix = draw_affixes(1, "vm.crash", 0)
        batch = cloop.draw_uniforms(prefix, suffix, 5, 0)
        assert batch is not None and batch.size == 0
