"""Columnar fleet host state: flat arrays instead of per-host objects.

The object path (:mod:`repro.fleet.host`) samples each volunteer with
its own :class:`repro.simcore.rng.RngStreams` bundle — safe, obvious,
and ~2,400 hosts/s.  This module builds the *same* hosts as flat numpy
columns (gflops, availability, slowdown, departure, checkpoint cost)
plus a CSR-style session layout: one flat ``starts``/``ends`` float
array with per-host offsets, so a 100k-host fleet is a handful of
arrays rather than 100k Python objects each owning a private trace
list.

The sampler
-----------
The fleet is drawn by the compiled column sampler in ``_cloop.c``
(:func:`repro.fleet.cloop.sample_columns`), which walks the hosts one
at a time through the exact SHA-256 forks, SeedSequence mixing, PCG64
streams and ziggurat draws behind ``RngStreams``.  It takes any
``[start, stop)`` index range, so the property suite can compare
arbitrary ranges; a run samples ``[0, hosts)`` in one call.  Its test
oracle is a vectorised numpy build of the same pipeline
(``tests/_oracle_columns.py``), which advances a block of hosts in
lockstep.

Bit-identity contract
---------------------
The sampler repeats the object path's draws and float operations in the
same order; the lognormal speed factor is exponentiated in numpy, as the
object path does.  The resulting columns are **byte-identical** to
``build_fleet_hosts`` — asserted by ``tests/test_fleet_columns.py``
across hypervisor mixes, sigma settings and horizons, and C against the
numpy oracle by ``tests/property/test_prop_fleet_sampler.py``.

The build is one serial call whatever ``--jobs`` says: it is the cheap
stage of a run, and the event loop after it is serial too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.fleet.calibration import fleet_slowdown
from repro.fleet.config import FleetConfig
from repro.fleet.cloop import sample_columns
from repro.fleet.fastrng import exp_consistent
from repro.fleet.host import host_hypervisor
from repro.fleet.recovery import checkpoint_cycles
from repro.obs.metrics import METRICS
from repro.virt.profiles import PROFILE_ORDER


@dataclass
class FleetColumns:
    """The whole fleet as flat columns plus a CSR session layout.

    ``s_off`` has ``n_hosts + 1`` entries; host ``i`` owns sessions
    ``s_starts[s_off[i]:s_off[i+1]]`` / ``s_ends[...]``.  ``hv_code``
    indexes ``hv_names`` (the resolved profile per host).
    """

    config: FleetConfig
    hv_names: Tuple[str, ...]
    hv_code: np.ndarray          #: uint16, per host
    gflops: np.ndarray           #: float64, per host
    availability: np.ndarray    #: float64, per host
    slowdown: np.ndarray         #: float64, per host
    departure_s: np.ndarray      #: float64, per host (NOT horizon-clipped)
    checkpoint_cost_s: np.ndarray  #: float64, per host
    serve_seed: np.ndarray       #: uint64, per host — seeds the serve fork
    s_starts: np.ndarray         #: float64, flat session starts
    s_ends: np.ndarray           #: float64, flat session ends
    s_off: np.ndarray            #: int64, n_hosts + 1 offsets

    def __len__(self) -> int:
        return self.hv_code.shape[0]

    @property
    def rate_flops_per_s(self) -> np.ndarray:
        """Per-host science rate; same float ops as
        :attr:`repro.fleet.host.FleetHost.rate_flops_per_s`."""
        return self.gflops * 1e9 / self.slowdown

    def depart_at(self, cut: np.ndarray) -> None:
        """Make host ``i`` depart for good at ``cut[i]``, in place.

        ``cut[i]`` must not be later than the host's own departure
        (``inf`` leaves it alone).  Each host's sessions become
        ``[(s, min(e, cut)) for s, e in sessions if s < cut]``, in one
        vectorised pass over the CSR layout.
        """
        n = len(self)
        owner = np.repeat(np.arange(n), np.diff(self.s_off))
        limit = cut[owner]
        keep = self.s_starts < limit
        self.departure_s = np.minimum(self.departure_s, cut)
        self.s_ends = np.minimum(self.s_ends, limit)[keep]
        self.s_starts = self.s_starts[keep]
        s_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=n), out=s_off[1:])
        self.s_off = s_off


@functools.lru_cache(maxsize=None)
def _vector_exp_ok() -> bool:
    """Whether vector ``np.exp`` matches scalar ``np.exp`` here (once)."""
    return exp_consistent()


def _sample_shard_columns(config: FleetConfig, start: int,
                          stop: int) -> Dict[str, np.ndarray]:
    """Sample hosts ``[start, stop)`` as columns — ``sample_host`` run
    ``stop - start`` times, without the objects.

    The compiled sampler (:func:`repro.fleet.cloop.sample_columns`)
    draws them, repeating the object path's draws and float operations
    exactly.  The lognormal speed factor is exponentiated here in numpy,
    because the object path uses numpy's ``exp``, not libm's.
    """
    n = stop - start
    sampled = sample_columns(config, start, stop)
    if METRICS.enabled:
        METRICS.inc("fleet.hosts_built", n)
        METRICS.inc("fleet.columns.compiled_hosts", n)

    # gflops: median * lognormal_factor("speed", sigma); the object path
    # skips the draw entirely at sigma == 0 (factor 1.0).
    z = sampled.pop("speed_z")
    if z is None:
        gflops = np.full(n, config.host_gflops_median)
    else:
        arg = 0.0 + config.host_gflops_sigma * z
        if _vector_exp_ok():
            factor = np.exp(arg)
        else:
            factor = np.array([np.exp(v) for v in arg.tolist()])
        gflops = config.host_gflops_median * factor
    sampled["gflops"] = gflops
    return sampled


def build_fleet_columns(config: FleetConfig) -> FleetColumns:
    """Build the whole fleet as :class:`FleetColumns` in one serial
    call: hosts ``[0, hosts)`` sampled at once, then the per-hypervisor
    columns (slowdown, checkpoint cost) gathered from the host codes."""
    n = config.hosts
    sampled = _sample_shard_columns(config, 0, n)
    s_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sampled["s_cnt"], out=s_off[1:])

    if config.mixed:
        hv_names = tuple(PROFILE_ORDER)
        hv_code = (np.arange(n, dtype=np.int64)
                   % len(PROFILE_ORDER)).astype(np.uint16)
    else:
        hv_names = (host_hypervisor(config, 0),)
        hv_code = np.zeros(n, dtype=np.uint16)
    mem = config.memory_factor()
    slow_by = np.array([fleet_slowdown(name) * mem for name in hv_names])
    cyc_by = np.array([checkpoint_cycles(name) for name in hv_names])
    gflops = sampled["gflops"]
    return FleetColumns(
        config=config, hv_names=hv_names, hv_code=hv_code,
        gflops=gflops,
        availability=sampled["availability"],
        slowdown=slow_by[hv_code],
        departure_s=sampled["departure_s"],
        checkpoint_cost_s=cyc_by[hv_code] / (gflops * 1e9),
        serve_seed=sampled["serve_seed"],
        s_starts=sampled["s_starts"], s_ends=sampled["s_ends"],
        s_off=s_off,
    )
