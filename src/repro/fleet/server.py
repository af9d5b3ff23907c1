"""The BOINC-style project server and the fleet discrete-event loop.

One :class:`FleetServer` owns the whole simulation: a batch of work
units, a queue of needed replicas, and every volunteer host's sampled
availability trace.  The event loop is a plain ``heapq`` of
``(time, seq, kind, payload)`` tuples — the monotone ``seq`` makes
simultaneous events totally ordered, so a run is a pure function of its
:class:`~repro.fleet.config.FleetConfig` (bit-identical at any worker
count; hosts are built in parallel, the serve loop is serial).

Server mechanics modelled (the V-BOINC / BOINC server loop):

* **dispatch** — a host on-line and idle polls for work; the server
  issues the oldest work unit still needing a replica that this host
  has not already served (one result per host per work unit);
* **deadlines** — every replica carries a completion deadline scaled by
  the work unit's expected wall time; a missed deadline marks the
  replica timed out and re-queues the work unit with a stretched
  (backed-off) deadline;
* **quorum validation** — results carry a result key; the work unit
  validates when ``quorum`` distinct hosts agree
  (:mod:`repro.fleet.validation`); erroneous results are injected per
  host with the configured probability and can never match;
* **churn** — computation pauses across off-sessions (the VM image
  persists on the host disk) and is lost for good when the host departs
  permanently; late results are stale and discarded, as the real server
  discards them after reassignment.

Failure & recovery (active only when :data:`repro.faults.FAULTS` arms
the sites; see :mod:`repro.fleet.recovery` for the model):

* **host.dropout** — selected hosts depart early: their traces are
  clipped before the loop starts;
* **server.outage** — dispatch halts inside drawn down-windows (hosts
  re-poll at the window's end) and finished results buffer host-side on
  the upload retry policy;
* **net.partition** — an individual upload attempt is lost; the host
  retries with exponential backoff until the retry budget is exhausted,
  after which the result is lost for good;
* **vm.crash** — the guest restores from its last checkpoint, so only
  ``progress − last_checkpoint`` active seconds are redone (the
  ``rolled_back`` waste bucket), not the whole unit;
* **degraded mode** — when the buffered-upload backlog exceeds
  ``degraded_threshold`` the server sheds replication to quorum-of-1
  (every such validation tallied as a validation risk), recovering when
  the backlog drains to zero.

There is one event loop, over :class:`repro.fleet.columns.FleetColumns`
flat arrays and parallel lists (:meth:`FleetServer._fast_loop_python`).
With no fault plan armed, the compiled kernel (:mod:`repro.fleet.cloop`,
a transliteration of the loop's fault-free branches) runs it; fault
storms, and runs whose ids or quorum the kernel's int32 fields cannot
hold, run the Python loop, which alone carries the recovery machine.  Which one runs depends on the input
alone: the ``fleet.*`` metrics are derived from the final flat state
after the loop, so ``--metrics`` never moves a run.  Every report is
byte-identical to the archived pre-columnar object server in
``tests/_reference_fleet.py`` (asserted by the equivalence suites).
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults import FAULTS, SITES, TRANSIENT, FaultPlan
from repro.faults.plan import _draw, draw_affixes
from repro.fleet.calibration import fleet_slowdown
from repro.fleet.columns import (
    FleetColumns,
    build_fleet_columns,
)
from repro.fleet.config import FOLD_BLOCK, FleetConfig, left_fold
from repro.fleet.cloop import draw_uniforms
from repro.fleet.cloop import run_event_loop as _c_event_loop
from repro.fleet.fastrng import VecPcg
from repro.fleet.recovery import outage_windows, rollback_seconds
from repro.obs.metrics import METRICS

# event kinds (ints so heap tuples compare cheaply and deterministically)
_REQUEST = 0
_DEADLINE = 1
_COMPLETE = 2
_UPLOAD = 3

#: Cap on the host poll backoff when the server has no work to give.
_MAX_POLL_BACKOFF_S = 7200.0

#: Replica ids per pre-drawn block of the storm's fire masks.
_MASK_BLOCK = 1024


@dataclass
class FleetReport:
    """Everything one fleet run produced (JSON round-trippable)."""

    config: Dict[str, Any]
    hosts: int
    workunits: int
    duration_s: float
    valid: int
    failed: int
    in_progress: int
    unsent: int
    replicas_issued: int
    results_ok: int
    results_erroneous: int
    results_stale: int
    timeouts: int
    redundant_results: int
    departures: int
    dropouts: int                           # injected host.dropout departures
    throughput_per_hour: float
    makespan_s: Dict[str, float]            # mean/p50/p90/p99
    cpu_s: Dict[str, float]                 # quorum/redundant/... split
    waste_fraction: float
    realized_availability: float
    per_hypervisor: Dict[str, Dict[str, float]]
    recovery: Dict[str, Any]                # outage/upload/rollback tallies

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-fleet-report/2",
            "config": dict(self.config),
            "hosts": self.hosts,
            "workunits": self.workunits,
            "duration_s": self.duration_s,
            "valid": self.valid,
            "failed": self.failed,
            "in_progress": self.in_progress,
            "unsent": self.unsent,
            "replicas_issued": self.replicas_issued,
            "results_ok": self.results_ok,
            "results_erroneous": self.results_erroneous,
            "results_stale": self.results_stale,
            "timeouts": self.timeouts,
            "redundant_results": self.redundant_results,
            "departures": self.departures,
            "dropouts": self.dropouts,
            "throughput_per_hour": self.throughput_per_hour,
            "makespan_s": dict(self.makespan_s),
            "cpu_s": dict(self.cpu_s),
            "waste_fraction": self.waste_fraction,
            "realized_availability": self.realized_availability,
            "per_hypervisor": {name: dict(stats) for name, stats
                               in self.per_hypervisor.items()},
            "recovery": dict(self.recovery),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetReport":
        fields = {name: payload[name] for name in (
            "config", "hosts", "workunits", "duration_s", "valid", "failed",
            "in_progress", "unsent", "replicas_issued", "results_ok",
            "results_erroneous", "results_stale", "timeouts",
            "redundant_results", "departures", "dropouts",
            "throughput_per_hour", "makespan_s", "cpu_s", "waste_fraction",
            "realized_availability", "per_hypervisor", "recovery")}
        return cls(**fields)

    def summary(self) -> str:
        cpu = self.cpu_s
        lines = [
            f"fleet of {self.hosts} hosts "
            f"({self.config.get('hypervisor', '?')}) over "
            f"{self.duration_s / 3600:.0f} simulated hours",
            f"  work units  : {self.valid}/{self.workunits} validated"
            f" ({self.in_progress} in progress, {self.unsent} unsent,"
            f" {self.failed} abandoned)",
            f"  throughput  : {self.throughput_per_hour:.1f} validated"
            f" work units/hour",
            f"  makespan    : p50={self.makespan_s['p50'] / 3600:.2f}h"
            f"  p90={self.makespan_s['p90'] / 3600:.2f}h"
            f"  p99={self.makespan_s['p99'] / 3600:.2f}h",
            f"  results     : {self.results_ok} ok,"
            f" {self.results_erroneous} erroneous,"
            f" {self.results_stale} stale,"
            f" {self.timeouts} deadline timeouts,"
            f" {self.redundant_results} redundant",
            f"  cpu         : {cpu['quorum'] / 3600:.1f} core-h quorum,"
            f" {cpu['wasted'] / 3600:.1f} wasted"
            f" ({self.waste_fraction * 100:.1f}%),"
            f" {cpu['in_flight'] / 3600:.1f} in flight",
            f"  churn       : {self.departures} permanent departures,"
            f" realized availability"
            f" {self.realized_availability * 100:.1f}%",
        ]
        rec = self.recovery
        if any(rec.get(k) for k in ("outages", "uploads_retried",
                                    "uploads_lost", "vm_crashes",
                                    "degraded_windows")):
            lines.append(
                f"  recovery    : {rec['outages']} outages"
                f" ({rec['outage_s'] / 3600:.1f}h down),"
                f" {rec['uploads_retried']} uploads retried"
                f" / {rec['uploads_lost']} lost,"
                f" {rec['vm_crashes']} vm crashes"
                f" ({rec['rolled_back_s'] / 3600:.1f} core-h rolled back),"
                f" {rec['degraded_windows']} degraded windows"
                f" ({rec['degraded_validated']} quorum-of-1)"
            )
        for name, stats in sorted(self.per_hypervisor.items()):
            lines.append(
                f"    {name:<11} hosts={stats['hosts']:<5.0f}"
                f" ok={stats['results_ok']:<6.0f}"
                f" waste={stats['waste_fraction'] * 100:5.1f}%"
                f" slowdown={stats['slowdown']:.3f}x"
            )
        return "\n".join(lines)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list or array (0 if
    empty).

    The rank rounds half *up* (``floor(q·(n−1) + 0.5)``), never
    half-to-even: ``round`` would pick the lower middle sample for two
    makespans but the upper one for four, so the reported p50 would
    jump around with the sample count's parity.
    """
    if len(sorted_values) == 0:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      math.floor(q * (len(sorted_values) - 1) + 0.5)))
    return float(sorted_values[rank])


def _wid_major(ret_wid: np.ndarray) -> np.ndarray:
    """Sort keys ``wid << 32 | index`` of the ok returns, ascending: the
    wid-major order with delivery order kept within a wid.  The low 32
    bits of each key are its return's index.

    With fewer than 2**32 returns the keys are unique, so numpy's faster
    unstable in-place sort orders them as a stable argsort would; the
    one int64 array is the only full-size allocation.
    """
    keys = ret_wid.astype(np.int64)
    keys <<= 32
    for lo in range(0, keys.size, FOLD_BLOCK):
        hi = min(lo + FOLD_BLOCK, keys.size)
        keys[lo:hi] |= np.arange(lo, hi, dtype=np.int64)
    keys.sort()
    return keys


def _online_seconds(prep: "_FastPrep", hosts: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """On-line seconds of each host between its start and the horizon.

    Entry ``i`` folds host ``hosts[i]``'s sessions left to right from
    the last one starting at or before ``starts[i]``, clipped to
    ``[starts[i], horizon)`` — the same walk, in the same order, as a
    per-replica ``bisect`` loop, run as one ``np.add.at`` over the
    expanded (replica, session) table.
    """
    horizon = prep.horizon
    lo = prep.soff[hosts]
    count = prep.soff[hosts + 1] - lo
    row = np.repeat(np.arange(hosts.size), count)
    j = np.repeat(lo - (np.cumsum(count) - count), count) \
        + np.arange(row.size)
    s = prep.fs[j]
    start = starts[row]
    # sessions are sorted per host: the walk starts at the last session
    # starting at or before ``start`` (the first one when none does)
    began = np.bincount(row[s <= start], minlength=hosts.size)
    first = lo + np.maximum(began - 1, 0)
    left = np.maximum(s, start)
    right = np.minimum(prep.fe[j], horizon)
    keep = (j >= first[row]) & (s < horizon) & (right > left)
    spent = np.zeros(hosts.size)
    np.add.at(spent, row[keep], right[keep] - left[keep])
    return spent


class _FastPrep:
    """Read-only inputs of the columnar event loop.

    One instance is shared by the compiled event kernel
    (:mod:`repro.fleet.cloop` / ``_cloop.c``) and the pure-Python loop,
    so both paths start from literally the same floats.  ``an`` is each
    host's active seconds per unit, checkpoint tax included.
    ``delays`` is the poll-backoff table ``min(poll·2^(f−1), cap)``
    pre-tabulated until it saturates; doubling is an exact float
    operation, so the table entries equal the inline expression.
    """

    __slots__ = ("n", "nwu", "horizon", "quorum", "max_replicas",
                 "err_rate", "fs", "fe", "soff", "departure", "an",
                 "base", "stretch", "delays", "serve_seed", "hv_code")


class FleetServer:
    """One project server driving a fleet of sampled volunteer hosts."""

    def __init__(self, config: FleetConfig, columns: FleetColumns):
        self.config = config
        self.columns = columns
        self.policy = config.recovery_policy()
        #: effective host.dropout departures, decided by :meth:`run`
        self.dropouts = 0
        #: the canonical flat state of the last :meth:`run`
        self.state: Optional[Dict[str, Any]] = None

    def run(self) -> FleetReport:
        """Run the event loop and render its report.

        Every fault decision is taken here, so a plan armed after
        construction still applies in full.  With a plan armed,
        ``host.dropout`` clips the columns, the ``server.outage``
        schedule is drawn, and the Python loop runs the recovery
        machine.  Otherwise the compiled kernel runs the loop, or the
        Python loop when the kernel's int32 fields cannot hold the run;
        both produce the identical canonical flat state.
        """
        cfg = self.config
        if FAULTS.enabled:
            self.dropouts = _apply_host_dropout(self.columns,
                                                cfg.duration_s)
            outages = outage_windows(cfg.duration_s,
                                     self.policy.outage_scale_s)
            prep = self._fast_prep()
            state = self._fast_loop_python(prep, outages)
        else:
            prep = self._fast_prep()
            state = _c_event_loop(prep)
            if state is None:
                state = self._fast_loop_python(prep)
        self.state = state
        return self._fast_report(prep, state)

    def _fast_prep(self) -> _FastPrep:
        cfg = self.config
        cols = self.columns
        prep = _FastPrep()
        prep.n = len(cols)
        prep.nwu = cfg.resolved_workunits()
        prep.horizon = cfg.duration_s
        prep.quorum = cfg.quorum
        prep.max_replicas = cfg.max_replicas
        prep.err_rate = cfg.error_rate
        prep.fs = cols.s_starts
        prep.fe = cols.s_ends
        prep.soff = cols.s_off
        prep.departure = cols.departure_s
        an = cfg.wu_flops / cols.rate_flops_per_s
        interval = cfg.checkpoint_interval_s
        if interval > 0:
            # checkpoint tax: one image write per interval of compute
            ck = cols.checkpoint_cost_s
            an = np.where(ck > 0.0, an * (1.0 + ck / interval), an)
        prep.an = an
        prep.hv_code = cols.hv_code
        # Deadline base per profile: deadline = now + base * stretch^t.
        # The server prices a unit from the *nominal* expected wall time
        # (the hypervisor's calibrated slowdown and the fleet's mean
        # availability, not this host's private trace), stretched by the
        # backoff factor for every timeout the unit already suffered.
        base_by_code = [
            cfg.deadline_factor
            * ((cfg.wu_flops / (cfg.host_gflops_median * 1e9
                                / fleet_slowdown(name)))
               / cfg.availability_mean)
            for name in cols.hv_names]
        prep.base = np.array(base_by_code, dtype=np.float64)[
            cols.hv_code.astype(np.int64)]
        prep.stretch = np.array(
            [cfg.backoff_factor ** k for k in range(9)], dtype=np.float64)
        delays = [cfg.poll_interval_s]
        while delays[-1] < _MAX_POLL_BACKOFF_S and len(delays) < 4096:
            delays.append(min(delays[-1] * 2.0, _MAX_POLL_BACKOFF_S))
        prep.delays = np.array(delays, dtype=np.float64)
        prep.serve_seed = cols.serve_seed
        return prep

    def _fast_loop_python(
            self, prep: _FastPrep,
            outages: Optional[List[Tuple[float, float]]] = None,
    ) -> Dict[str, Any]:
        """The fleet event loop over flat columns.

        ``outages`` is ``None`` for a fault-free run.  A storm run
        passes its drawn ``server.outage`` schedule (possibly empty),
        which arms the recovery machine: dispatch halts inside outage
        windows, a finished result uploads separately from its
        completion (``_UPLOAD`` retries with backoff, ``net.partition``
        draws keyed by ``(rid, attempt)``, a spent budget loses the
        result), ``vm.crash`` rolls a replica back to its last
        checkpoint, and degraded-mode hysteresis on the upload backlog
        validates lone results as quorum-of-1.

        Storage is parallel lists instead of per-replica / per-unit
        records, with pre-drawn error uniforms and a monotone per-host
        cursor into the CSR trace.  A storm's attempt-0 ``vm.crash`` and
        ``net.partition`` decisions come from byte fire masks drawn
        :data:`_MASK_BLOCK` rids at a time (:func:`_fire_mask`); upload
        retries draw one call at a time, and the outage schedule sits
        behind a monotone cursor.  Three event elisions keep the heap
        small without changing any observable:

        * a completion at ``t`` re-dispatches inline when no other event
          is scheduled at ``t`` — the pushed re-poll would pop next
          anyway (any tied event carries a smaller sequence number, and
          every event the delivery pushes a larger one);
        * in a fault-free run a replica whose completion lands at or
          before its deadline never pushes the deadline event: the
          completion is also the delivery, so the completed flag makes
          the deadline a no-op.  Storms deliver late, so they push it;
        * events past the horizon are never pushed — the loop stops at
          the first popped time past the horizon, processing none of
          them, and relative order among surviving events is preserved.

        Replica flag bits: 1 = timed out, 2 = completed (delivered or
        dropped), 4 = computed with the upload still buffered.  Work-unit
        validator state: 0 = open, 1 = validated, 2 = locked by a
        quorum-of-1 erroneous result (the validator accepted a bad key,
        so later matching results can never validate the unit).  A unit
        validated in degraded mode keeps its validator state and is
        tagged in ``degraded_by`` instead.

        ``repro/fleet/_cloop.c`` is a transliteration of the fault-free
        branches; both return the canonical flat state that
        :meth:`_fast_report` renders.  Storm runs add a ``recovery``
        entry.
        """
        cfg = self.config
        horizon = prep.horizon
        n = prep.n
        quorum = prep.quorum
        max_replicas = prep.max_replicas
        poll_interval = cfg.poll_interval_s
        nwu = prep.nwu
        storm = outages is not None

        # per-host columns as plain python lists (fastest scalar indexing)
        departure = prep.departure.tolist()
        fs = prep.fs.tolist()
        fe = prep.fe.tolist()
        off = prep.soff.tolist()
        an = prep.an.tolist()
        base = prep.base.tolist()
        stretch = prep.stretch.tolist()

        # work-unit state, flat
        wu_validated: List[Optional[float]] = [None] * nwu
        wu_issued = [0] * nwu
        wu_out = [0] * nwu
        wu_tmo = [0] * nwu
        wu_state = bytearray(nwu)
        wu_holders: List[Optional[list]] = [None] * nwu
        ret_wid: List[int] = []
        ret_host: List[int] = []
        ret_cpu: List[float] = []
        wu_hosts: List[Optional[list]] = [None] * nwu
        need = deque(wid for wid in range(nwu) for _ in range(quorum))

        # replica state, flat
        r_pack: List[Tuple[int, int, float]] = []  # (wu_id, host, deadline)
        r_disp: List[float] = []
        r_flag = bytearray()

        # serve-stream error uniforms, drawn one vectorised round at a
        # time: draws[r][h] is the (r+1)-th uniform("error") on host h's
        # serve fork
        serve_vec = VecPcg.seeded(prep.serve_seed, "error")
        err_rate = prep.err_rate
        draws: List[array] = []
        ucur = [0] * n
        cur = off[:n]               # per-host session cursor (monotone)
        poll_fail = [0] * n

        # recovery state (storms only); the replica-keyed maps stay sparse
        retries = self.policy.upload_retries
        retry_delay_s = self.policy.retry_delay_s
        threshold = self.policy.degraded_threshold
        interval = cfg.checkpoint_interval_s
        crash_rb: Dict[int, float] = {}   # rid -> nonzero rolled-back s
        attempts: Dict[int, int] = {}     # rid -> upload attempts so far
        degraded_by: Dict[int, int] = {}  # wid -> host of the lone result
        degraded_windows: List[Tuple[float, float]] = []
        degraded_since: Optional[float] = None
        backlog = 0
        retried = lost_n = crashes = rb_n = entered = deg_val = 0
        rb_cpu = lost_cpu = 0.0
        # outage windows behind a cursor, closed by an endless sentinel:
        # ``now < o_start`` means the server is up
        windows = [*(outages or ()), (math.inf, math.inf)]
        o_start, o_end = windows[0]
        o_next = 1
        # attempt-0 fire masks of the replica-keyed sites, pre-drawn a
        # block of rids at a time; drawing tallies nothing, so each
        # decision is still recorded where it is consulted
        plan = FAULTS.plan
        arms = plan.arms if storm else {}
        crash_on = arms.get("vm.crash", 0.0) > 0.0
        part_on = arms.get("net.partition", 0.0) > 0.0
        crash_mask = bytearray()
        part_mask = bytearray()
        drawn = 0  # rids the masks cover

        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for h in range(n):
            if off[h + 1] > off[h]:
                heap.append((fs[off[h]], seq, _REQUEST, h))
                seq += 1
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop

        n_valid = 0
        need_peak = 0
        ok_n = err_n = stale_n = tmo_n = red_n = 0
        err_cpu = stale_cpu = red_cpu = 0.0
        waste = [0.0] * n

        def finish_at(c: int, hi: int, now: float,
                      remaining: float) -> Optional[float]:
            """When ``remaining`` active seconds after ``now`` are done
            on sessions ``c:hi`` (``None``: the trace runs out first)."""
            for j in range(c, hi):
                s = fs[j]
                e = fe[j]
                lo = s if s > now else now
                if lo >= e:
                    continue
                span = e - lo
                if span >= remaining:
                    return lo + remaining
                remaining -= span
            return None

        def outage_end(now: float) -> Optional[float]:
            """End of the outage window covering ``now`` (``None``: the
            server is up).  Windows are sorted and disjoint, and popped
            event times never decrease, so the cursor only moves on."""
            nonlocal o_next, o_start, o_end
            while now >= o_end:
                o_start, o_end = windows[o_next]
                o_next += 1
            return o_end if now >= o_start else None

        def useful_of(rid: int, h: int) -> float:
            """Replica ``rid``'s compute seconds net of a crash's redo
            (rolled-back seconds are tallied as their own waste bucket)."""
            rolled_back = crash_rb.get(rid)
            if rolled_back is None:
                return an[h]
            return (an[h] + rolled_back) - rolled_back

        def maybe_reissue(wid: int) -> None:
            """Queue another replica when the quorum is no longer
            reachable from matching results plus outstanding replicas."""
            if wu_validated[wid] is None:
                hl = wu_holders[wid]
                if ((0 if hl is None else len(hl)) + wu_out[wid]
                        < quorum) and wu_issued[wid] < max_replicas:
                    need.append(wid)

        def dispatch(h: int, now: float) -> None:
            nonlocal seq, need_peak, crashes, drawn
            end = None if now < o_start else outage_end(now)
            if end is not None:
                # scheduler down: the host re-polls when the window ends
                # (poll-failure backoff untouched — this is not a dry
                # queue)
                limit = departure[h]
                if horizon < limit:
                    limit = horizon
                if end < limit:
                    push(heap, (end, seq, _REQUEST, h))
                    seq += 1
                return
            wid = -1
            stash = None
            while need:
                w = need.popleft()
                if wu_validated[w] is not None \
                        or wu_issued[w] >= max_replicas:
                    continue  # entry is stale; drop it
                hl = wu_hosts[w]
                if hl is not None and h in hl:
                    if stash is None:
                        stash = [w]
                    else:
                        stash.append(w)
                    continue
                wid = w
                break
            if stash is not None:
                need.extendleft(reversed(stash))
            if wid < 0:
                if n_valid >= nwu:
                    return  # everything validated; the host retires
                f = poll_fail[h] + 1
                poll_fail[h] = f
                delay = poll_interval * (2.0 ** (f - 1))
                if delay > _MAX_POLL_BACKOFF_S:
                    delay = _MAX_POLL_BACKOFF_S
                next_poll = now + delay
                limit = departure[h]
                if horizon < limit:
                    limit = horizon
                if next_poll < limit:
                    push(heap, (next_poll, seq, _REQUEST, h))
                    seq += 1
                return
            poll_fail[h] = 0
            rid = len(r_disp)
            hi = off[h + 1]
            c = cur[h]
            while c + 1 < hi and fs[c + 1] <= now:
                c += 1
            cur[h] = c
            active = an[h]
            if rid == drawn:
                if crash_on:
                    crash_mask.extend(_fire_mask(plan, "vm.crash", rid,
                                                 _MASK_BLOCK).tobytes())
                if part_on:
                    part_mask.extend(_fire_mask(plan, "net.partition", rid,
                                                _MASK_BLOCK).tobytes())
                drawn += _MASK_BLOCK
            if crash_on and crash_mask[rid]:
                # crash point as a fraction of this replica's compute;
                # the guest restores from its last checkpoint, redoing
                # only progress − last_checkpoint seconds.  The mask is
                # would_fire; record only once the trace reaches the
                # crash, so a crash it never reaches is not tallied.
                progress = FAULTS.uniform("vm.crash", rid, "at") * active
                if finish_at(c, hi, now, progress) is not None:
                    FAULTS.record("vm.crash")
                    rolled_back = rollback_seconds(progress, interval)
                    active += rolled_back
                    crashes += 1
                    if rolled_back:
                        crash_rb[rid] = rolled_back
            t = wu_tmo[wid]
            deadline = now + base[h] * stretch[t if t < 8 else 8]
            fin = finish_at(c, hi, now, active)
            r_pack.append((wid, h, deadline))
            r_disp.append(now)
            r_flag.append(0)
            wu_issued[wid] += 1
            wu_out[wid] += 1
            hl = wu_hosts[wid]
            if hl is None:
                wu_hosts[wid] = [h]
            else:
                hl.append(h)
            if len(need) > need_peak:
                need_peak = len(need)
            if fin is not None and fin <= horizon:
                push(heap, (fin, seq, _COMPLETE, rid))
                seq += 1
            if deadline <= horizon \
                    and (storm or fin is None or deadline < fin):
                push(heap, (deadline, seq, _DEADLINE, rid))
                seq += 1

        def update_degraded(now: float) -> None:
            """Degraded-mode hysteresis on the buffered-upload backlog."""
            nonlocal degraded_since, entered
            if threshold <= 0:
                return
            if degraded_since is None:
                if backlog > threshold:
                    degraded_since = now
                    entered += 1
            elif backlog == 0:
                degraded_windows.append((degraded_since, now))
                degraded_since = None

        def upload_through(rid: int, wid: int, h: int, now: float) -> bool:
            """One upload attempt of a finished result; True when it
            reaches the server now.

            A server outage blocks every upload until the window ends; a
            ``net.partition`` draw loses this one attempt.  Either way
            the host retries on exponential backoff until the retry
            budget runs out, then the result is gone for good.
            """
            nonlocal seq, backlog, retried, lost_n, lost_cpu
            attempt = attempts.get(rid, 0)
            earliest = None if now < o_start else outage_end(now)
            if earliest is None:
                if attempt:
                    # retries are few: draw them one call at a time
                    if not FAULTS.fires("net.partition", key=rid,
                                        attempt=attempt):
                        return True
                elif part_on and part_mask[rid]:
                    FAULTS.record("net.partition")
                else:
                    return True
                earliest = now
            attempts[rid] = attempt + 1
            if attempt >= retries:
                # retry budget exhausted: the computed result is lost
                fl = r_flag[rid]
                r_flag[rid] = fl | 2
                lost_n += 1
                useful = useful_of(rid, h)
                lost_cpu += useful
                waste[h] += useful
                if not fl & 1:
                    wu_out[wid] -= 1
                    r_flag[rid] = fl | 3
                maybe_reissue(wid)
                return False
            retried += 1
            retry_at = now + retry_delay_s(attempt)
            if retry_at < earliest:
                retry_at = earliest
            backlog += 1
            update_degraded(now)
            if retry_at <= horizon:
                push(heap, (retry_at, seq, _UPLOAD, rid))
                seq += 1
            return False

        while heap:
            time_s, _s, kind, payload = pop(heap)
            if time_s > horizon:
                break
            if kind == _REQUEST:
                dispatch(payload, time_s)
                continue
            rid = payload
            if kind == _DEADLINE:
                fl = r_flag[rid]
                if not fl & 3:
                    r_flag[rid] = fl | 1
                    wid = r_pack[rid][0]
                    wu_out[wid] -= 1
                    if wu_validated[wid] is None:
                        wu_tmo[wid] += 1
                        tmo_n += 1
                        maybe_reissue(wid)
                continue
            # _COMPLETE or _UPLOAD: a finished result heads for the server
            wid, h, deadline = r_pack[rid]
            redispatch = False
            if kind == _COMPLETE:
                redispatch = n_valid < nwu
                if redispatch and heap and heap[0][0] == time_s:
                    # a tied event must process first: fall back to the
                    # plain re-poll push
                    push(heap, (time_s, seq, _REQUEST, h))
                    seq += 1
                    redispatch = False
                if storm:
                    r_flag[rid] |= 4
                    rolled_back = crash_rb.get(rid)
                    if rolled_back is not None:
                        rb_n += 1
                        rb_cpu += rolled_back
                        waste[h] += rolled_back
            else:
                backlog -= 1
            if not storm or upload_through(rid, wid, h, time_s):
                fl = r_flag[rid]
                r_flag[rid] = fl | 2
                useful = useful_of(rid, h)
                if fl & 1 or time_s > deadline:
                    # past deadline: the server already reassigned
                    stale_n += 1
                    stale_cpu += useful
                    waste[h] += useful
                    if not fl & 1:
                        wu_out[wid] -= 1
                        r_flag[rid] = fl | 3
                    maybe_reissue(wid)
                elif wu_validated[wid] is not None:
                    wu_out[wid] -= 1
                    red_n += 1
                    red_cpu += useful
                    waste[h] += useful
                else:
                    wu_out[wid] -= 1
                    u = ucur[h]
                    ucur[h] = u + 1
                    while u >= len(draws):
                        round_draws = array("d")
                        round_draws.frombytes(serve_vec.doubles().tobytes())
                        draws.append(round_draws)
                    if draws[u][h] < err_rate:
                        err_n += 1
                        err_cpu += useful
                        waste[h] += useful
                        if quorum == 1 and wu_state[wid] == 0:
                            wu_state[wid] = 2
                        maybe_reissue(wid)
                    else:
                        ok_n += 1
                        ret_wid.append(wid)
                        ret_host.append(h)
                        ret_cpu.append(useful)
                        if wu_state[wid] == 0:
                            hl = wu_holders[wid]
                            if hl is None:
                                hl = wu_holders[wid] = [h]
                            else:
                                hl.append(h)
                        if wu_state[wid] == 0 and len(hl) >= quorum:
                            wu_state[wid] = 1
                            wu_validated[wid] = time_s
                            n_valid += 1
                        elif degraded_since is not None:
                            # degraded mode: the backlog is past
                            # threshold, so the server accepts this lone
                            # result as quorum-of-1 — a validation risk,
                            # counted as such
                            wu_validated[wid] = time_s
                            degraded_by[wid] = h
                            n_valid += 1
                            deg_val += 1
                        else:
                            # still open, or bad-locked: the match can
                            # never validate
                            maybe_reissue(wid)
            if kind == _UPLOAD:
                update_degraded(time_s)
            if redispatch:
                dispatch(h, time_s)

        hold_flat = np.full(nwu * quorum, -1, dtype=np.int32)
        nhold = np.zeros(nwu, dtype=np.uint8)
        for wid, hl in enumerate(wu_holders):
            if hl:
                hold_flat[wid * quorum:wid * quorum + len(hl)] = hl
                nhold[wid] = len(hl)
        state = {
            "n_valid": n_valid,
            "n_rep": len(r_disp),
            "need_peak": need_peak,
            "ok_n": ok_n,
            "err_n": err_n,
            "stale_n": stale_n,
            "tmo_n": tmo_n,
            "red_n": red_n,
            "err_cpu": err_cpu,
            "stale_cpu": stale_cpu,
            "red_cpu": red_cpu,
            "wu_state": np.frombuffer(bytes(wu_state), dtype=np.uint8),
            "wu_validated": np.fromiter(
                (0.0 if v is None else v for v in wu_validated),
                dtype=np.float64, count=nwu),
            "wu_issued": np.array(wu_issued, dtype=np.int32),
            "wu_out": np.array(wu_out, dtype=np.int32),
            "hold_flat": hold_flat,
            "nhold": nhold,
            "ret_wid": np.array(ret_wid, dtype=np.int32),
            "ret_host": np.array(ret_host, dtype=np.int32),
            "ret_cpu": np.array(ret_cpu, dtype=np.float64),
            "r_host": np.fromiter((p[1] for p in r_pack), dtype=np.int32,
                                  count=len(r_pack)),
            "r_disp": np.array(r_disp, dtype=np.float64),
            "r_flag": np.frombuffer(bytes(r_flag), dtype=np.uint8),
            "waste": np.array(waste, dtype=np.float64),
        }
        if storm:
            if degraded_since is not None:
                degraded_windows.append((degraded_since, horizon))
            state["recovery"] = {
                "outages": list(outages),
                "uploads_retried": retried,
                "uploads_lost": lost_n,
                "lost_cpu": lost_cpu,
                "vm_crashes": crashes,
                "rolled_back": rb_n,
                "rolled_back_cpu": rb_cpu,
                "crash_rb": crash_rb,
                "degraded_entered": entered,
                "degraded_windows": degraded_windows,
                "degraded_validated": deg_val,
                "degraded_by": degraded_by,
            }
        return state

    def _fast_report(self, prep: _FastPrep,
                     state: Dict[str, Any]) -> FleetReport:
        """Render the one report from the canonical flat state.

        Every accumulation whose order the archived object server fixes
        keeps that order: the wid-major walk over ok returns, the
        rid-order walk over unfinished replicas, the host-order
        per-hypervisor buckets.  Each runs as numpy primitives that are
        sequential left folds in input order (:func:`left_fold`,
        weighted ``np.bincount``, ``np.add.at``), so they equal the
        ``+=`` loops bit for bit; pairwise reductions (``np.sum``,
        ``add.reduce``, ``reduceat``, ``dot``) and the builtin ``sum``
        (compensated from CPython 3.12 on) never touch a float here.

        The ok returns and the unfinished replicas fold
        :data:`~repro.fleet.config.FOLD_BLOCK` at a time
        (:func:`_fold_returns`, :func:`_fold_unfinished`), carrying
        every accumulator across blocks, so beyond one sort key per ok
        return no temporary grows with the fleet, and none outlives its
        block.
        """
        cfg = self.config
        cols = self.columns
        horizon = prep.horizon
        n = prep.n
        nwu = prep.nwu
        quorum = prep.quorum
        n_valid = state["n_valid"]
        n_rep = state["n_rep"]
        ok_n = state["ok_n"]
        err_n = state["err_n"]
        stale_n = state["stale_n"]
        tmo_n = state["tmo_n"]
        red_n = state["red_n"]
        err_cpu = state["err_cpu"]
        stale_cpu = state["stale_cpu"]
        red_cpu = state["red_cpu"]
        wu_state = state["wu_state"]
        rec = state.get("recovery") or _NO_RECOVERY
        degraded_by = rec["degraded_by"]

        # Each unit's load-bearing quorum: the validator's holders on a
        # validated unit; on a degraded quorum-of-1 unit the lone
        # accepted host, or nobody when the unit is bad-locked (its
        # validator quorum is the erroneous holder, which has no ok
        # return).  Other units are still pending.
        settled = wu_state == 1
        lone_host = None
        if degraded_by:
            lone_host = np.full(nwu, -1, dtype=np.int64)
            dwid = np.fromiter(degraded_by, dtype=np.int64,
                               count=len(degraded_by))
            dhost = np.fromiter(degraded_by.values(), dtype=np.int64,
                                count=len(degraded_by))
            settled[dwid] = True
            lone_host[dwid] = np.where(wu_state[dwid] == 0, dhost, -1)

        ok_by_host = np.bincount(state["ret_host"], minlength=n)
        waste = state["waste"].copy()
        quorum_cpu, redundant_cpu, pending_cpu, quorum_cpu_by_host = \
            _fold_returns(state, quorum, settled, lone_host, red_cpu, waste)
        lost_cpu, rolled_back, rb_n, in_flight_cpu = _fold_unfinished(
            prep, state, rec, waste)

        wasted = (err_cpu + stale_cpu + redundant_cpu + lost_cpu
                  + rolled_back)
        total_cpu = quorum_cpu + wasted + pending_cpu + in_flight_cpu
        waste_fraction = wasted / total_cpu if total_cpu else 0.0

        wu_issued = state["wu_issued"]
        wu_out = state["wu_out"]
        not_valid = ~settled
        unsent = int(np.count_nonzero(not_valid & (wu_issued == 0)))
        started = not_valid & (wu_issued > 0)
        failed = int(np.count_nonzero(
            started & (wu_out == 0) & (wu_issued >= cfg.max_replicas)))
        in_progress = int(np.count_nonzero(started)) - failed
        makespans = np.sort(state["wu_validated"][settled])
        makespan = {
            "mean": (left_fold(0.0, makespans) / makespans.size
                     if makespans.size else 0.0),
            "p50": _percentile(makespans, 0.50),
            "p90": _percentile(makespans, 0.90),
            "p99": _percentile(makespans, 0.99),
        }
        departures = int(np.count_nonzero(cols.departure_s <= horizon))
        session_time = 0.0
        for lo in range(0, cols.s_starts.size, FOLD_BLOCK):
            session_time = left_fold(
                session_time, cols.s_ends[lo:lo + FOLD_BLOCK]
                - cols.s_starts[lo:lo + FOLD_BLOCK])
        realized_availability = session_time / (horizon * n)

        # per-hypervisor buckets, each a weighted bincount folding its
        # hosts in host order (the += 0.0 terms for untouched hosts are
        # float identities)
        ncodes = len(cols.hv_names)
        qc_sum = np.bincount(prep.hv_code, weights=quorum_cpu_by_host,
                             minlength=ncodes).tolist()
        w_sum = np.bincount(prep.hv_code, weights=waste,
                            minlength=ncodes).tolist()
        host_count = np.bincount(prep.hv_code, minlength=ncodes)
        ok_count = np.bincount(prep.hv_code, weights=ok_by_host,
                               minlength=ncodes)
        codes, first_at = np.unique(prep.hv_code, return_index=True)
        per_hv: Dict[str, Dict[str, float]] = {}
        # insertion order = first-appearance order in host index order
        for code in codes[np.argsort(first_at)].tolist():
            name = cols.hv_names[code]
            denom = qc_sum[code] + w_sum[code]
            per_hv[name] = {
                "hosts": float(host_count[code]),
                "results_ok": float(ok_count[code]),
                "quorum_cpu_s": qc_sum[code],
                "wasted_cpu_s": w_sum[code],
                "waste_fraction": w_sum[code] / denom if denom else 0.0,
                "slowdown": fleet_slowdown(name),
            }

        outages = rec["outages"]
        degraded_windows = rec["degraded_windows"]
        if METRICS.enabled:
            # The fleet.* metrics, derived once from the final state.
            # Counters exist only once their event happened.  Validation
            # times never decrease in event order, so replaying the
            # sorted makespans folds the timer in validation order.
            for name, count in (
                    ("fleet.dispatched", n_rep),
                    ("fleet.timeouts", tmo_n),
                    ("fleet.stale", stale_n),
                    ("fleet.redundant", red_n),
                    ("fleet.erroneous", err_n),
                    ("fleet.validated", n_valid),
                    ("fleet.degraded_validated",
                     rec["degraded_validated"]),
                    ("fleet.rolled_back", rb_n),
                    ("fleet.upload_retried", rec["uploads_retried"]),
                    ("fleet.upload_lost", rec["uploads_lost"]),
                    ("fleet.degraded_entered", rec["degraded_entered"])):
                if count:
                    METRICS.inc(name, count)
            if n_rep:
                METRICS.gauge_max("fleet.need_queue_peak",
                                  state["need_peak"])
            for lo in range(0, makespans.size, FOLD_BLOCK):
                for at in makespans[lo:lo + FOLD_BLOCK].tolist():
                    METRICS.observe("fleet.makespan_s", at)
                    METRICS.hist("fleet.makespan_h", at / 3600.0)
            METRICS.inc("fleet.hosts", n)
            METRICS.inc("fleet.workunits", nwu)
            METRICS.inc("fleet.departures", departures)

        return FleetReport(
            config=cfg.to_dict(),
            hosts=n,
            workunits=nwu,
            duration_s=horizon,
            valid=n_valid,
            failed=failed,
            in_progress=in_progress,
            unsent=unsent,
            replicas_issued=n_rep,
            results_ok=ok_n,
            results_erroneous=err_n,
            results_stale=stale_n,
            timeouts=tmo_n,
            redundant_results=red_n,
            departures=departures,
            dropouts=self.dropouts,
            throughput_per_hour=n_valid / (horizon / 3600.0),
            makespan_s=makespan,
            cpu_s={
                "quorum": quorum_cpu,
                "redundant": redundant_cpu,
                "erroneous": err_cpu,
                "stale": stale_cpu,
                "lost": lost_cpu,
                "rolled_back": rolled_back,
                "pending": pending_cpu,
                "in_flight": in_flight_cpu,
                "wasted": wasted,
                "total": total_cpu,
            },
            waste_fraction=waste_fraction,
            realized_availability=realized_availability,
            per_hypervisor=per_hv,
            recovery={
                "outages": len(outages),
                # int 0 starts both folds, as it started sum(): a run
                # without windows reports 0, not 0.0
                "outage_s": left_fold(0, np.array(
                    [end - start for start, end in outages])),
                "uploads_retried": rec["uploads_retried"],
                "uploads_lost": rec["uploads_lost"],
                "vm_crashes": rec["vm_crashes"],
                "rolled_back_s": rolled_back,
                "degraded_windows": len(degraded_windows),
                "degraded_s": left_fold(0, np.array(
                    [end - start for start, end in degraded_windows])),
                "degraded_validated": rec["degraded_validated"],
            },
        )


def _fold_returns(state: Dict[str, Any], quorum: int, settled: np.ndarray,
                  lone_host: Optional[np.ndarray], red_cpu: float,
                  waste: np.ndarray) -> Tuple[float, float, float,
                                              np.ndarray]:
    """Fold the ok returns wid-major, :data:`FOLD_BLOCK` at a time.

    ``lone_host`` is each degraded quorum-of-1 unit's accepted host (-1
    elsewhere; ``None`` when no unit validated degraded).  Returns the
    quorum, redundant and pending CPU seconds and the per-host quorum
    seconds, and adds each redundant return to its host's ``waste``.

    Every accumulator carries across blocks: the scalar folds restart
    from their running total, the per-host arrays take ``np.add.at`` in
    return order, so the blocks together equal one pass over all returns
    bit for bit (per-block ``np.bincount`` sums would not).
    """
    ret_wid = state["ret_wid"]
    ret_host = state["ret_host"]
    ret_cpu = state["ret_cpu"]
    wu_state = state["wu_state"]
    nhold = state["nhold"]
    holders = state["hold_flat"].reshape(-1, quorum)
    slot = np.arange(quorum)
    quorum_cpu = pending_cpu = 0.0
    redundant_cpu = red_cpu
    quorum_cpu_by_host = np.zeros(waste.size)
    keys = _wid_major(ret_wid)
    for lo in range(0, keys.size, FOLD_BLOCK):
        order = keys[lo:lo + FOLD_BLOCK] & 0xFFFFFFFF
        rw = ret_wid[order]
        rh = ret_host[order]
        rc = ret_cpu[order]
        slots = (slot < nhold[rw][:, None]) & (wu_state[rw] == 1)[:, None]
        in_quorum = ((holders[rw] == rh[:, None]) & slots).any(axis=1)
        if lone_host is not None:
            in_quorum |= rh == lone_host[rw]
        done = settled[rw]
        load = done & in_quorum
        # a second matching result landed between quorum completion
        # and now: counted but not load-bearing
        extra = done & ~in_quorum
        quorum_cpu = left_fold(quorum_cpu, rc[load])
        redundant_cpu = left_fold(redundant_cpu, rc[extra])
        pending_cpu = left_fold(pending_cpu, rc[~done])
        np.add.at(quorum_cpu_by_host, rh[load], rc[load])
        np.add.at(waste, rh[extra], rc[extra])
    return quorum_cpu, redundant_cpu, pending_cpu, quorum_cpu_by_host


def _fold_unfinished(prep: _FastPrep, state: Dict[str, Any],
                     rec: Dict[str, Any],
                     waste: np.ndarray) -> Tuple[float, float, int, float]:
    """Fold the replicas unfinished at the horizon in rid order,
    :data:`FOLD_BLOCK` at a time, carrying every accumulator as
    :func:`_fold_returns` does.

    Returns the lost and rolled-back CPU seconds (folded on from the
    loop's own), the rolled-back count and the in-flight seconds, and
    adds each replica's lost seconds to its host's ``waste``.
    """
    horizon = prep.horizon
    r_flag = state["r_flag"]
    r_host = state["r_host"]
    r_disp = state["r_disp"]
    crash_rb = rec["crash_rb"]
    lost_cpu = rec["lost_cpu"]
    rolled_back = rec["rolled_back_cpu"]
    rb_n = rec["rolled_back"]
    in_flight_cpu = 0.0
    # crash_rb holds only nonzero rollbacks, so 0.0 means no crash
    by_rid = None
    if crash_rb:
        by_rid = np.zeros(r_flag.size)
        by_rid[np.fromiter(crash_rb, dtype=np.int64,
                           count=len(crash_rb))] = np.fromiter(
            crash_rb.values(), dtype=np.float64, count=len(crash_rb))
    incomplete = np.flatnonzero((r_flag & 2) == 0)
    for lo in range(0, incomplete.size, FOLD_BLOCK):
        rids = incomplete[lo:lo + FOLD_BLOCK]
        ih = r_host[rids]
        rb = np.zeros(rids.size) if by_rid is None else by_rid[rids]
        has_rb = rb != 0.0
        # computed, upload still buffered at the horizon: the result
        # never lands, so its useful seconds are lost
        buffered = (r_flag[rids] & 4) != 0
        useful = prep.an[ih]
        useful = np.where(has_rb, (useful + rb) - rb, useful)
        # the rest ran on-line from dispatch to the horizon; a crash
        # landed in-trace (traces end at the horizon), so its redone
        # seconds belong to the rollback bucket
        spent = _online_seconds(prep, ih, r_disp[rids])
        crashed = has_rb & ~buffered
        spent = np.where(crashed, spent - rb, spent)
        departed = ~buffered & (prep.departure[ih] <= horizon)
        running = ~buffered & ~departed
        lost_cpu = left_fold(lost_cpu, np.where(
            buffered, useful, spent)[buffered | departed])
        rolled_back = left_fold(rolled_back, rb[crashed])
        rb_n += int(np.count_nonzero(crashed))
        in_flight_cpu = left_fold(in_flight_cpu, spent[running])
        # per replica, its lost (or rolled-back) seconds, then its lost
        # on-line seconds, all landing on the host's waste in rid order
        adds = np.stack([np.where(buffered, useful, rb), spent], axis=1)
        lands = np.stack([buffered | crashed, departed], axis=1)
        np.add.at(waste, np.repeat(ih, 2)[lands.ravel()], adds[lands])
    return lost_cpu, rolled_back, rb_n, in_flight_cpu


#: The ``recovery`` state of a fault-free run: nothing happened.
_NO_RECOVERY: Dict[str, Any] = {
    "outages": [], "uploads_retried": 0, "uploads_lost": 0,
    "lost_cpu": 0.0, "vm_crashes": 0, "rolled_back": 0,
    "rolled_back_cpu": 0.0, "crash_rb": {}, "degraded_entered": 0,
    "degraded_windows": [], "degraded_validated": 0, "degraded_by": {},
}


def simulate_fleet(config: FleetConfig) -> FleetReport:
    """Build the fleet's columns and run the server loop.

    The one-call entry point used by the fleet executor behind
    :func:`repro.api.run`, the fleet figures and the benchmarks.
    Deterministic per config, and serial: no stage touches the worker
    pool, so ``--jobs`` changes neither the work a fleet does nor its
    report.
    """
    return FleetServer(config, build_fleet_columns(config)).run()


def _fault_uniforms(seed: int, site: str, first: int, count: int,
                    attempt: int = 0, salt: str = "") -> np.ndarray:
    """``_draw(seed, site, key, attempt, salt)`` for ``count`` keys from
    ``first``: one kernel-library batch, or ``_draw`` key by key."""
    prefix, suffix = draw_affixes(seed, site, attempt, salt)
    draws = draw_uniforms(prefix, suffix, first, count)
    if draws is None:
        draws = np.array([_draw(seed, site, key, attempt, salt)
                          for key in range(first, first + count)],
                         dtype=np.float64)
    return draws


def _fire_mask(plan: FaultPlan, site: str, first: int, count: int,
               attempt: int = 0) -> np.ndarray:
    """``plan.would_fire(site, key, attempt)`` for ``count`` keys from
    ``first``, as booleans.  An unarmed site draws nothing, and nothing
    is tallied: callers :meth:`~FaultPlan.record` a decision where they
    consult it."""
    probability = plan.arms.get(site, 0.0)
    if probability <= 0.0 or (SITES[site] == TRANSIENT and attempt > 0):
        return np.zeros(count, dtype=bool)
    return _fault_uniforms(plan.seed, site, first, count,
                           attempt) < probability


def _apply_host_dropout(columns: FleetColumns, horizon_s: float) -> int:
    """Injection site ``host.dropout``: permanently remove hosts early.

    Each selected host departs at a deterministic fraction of the
    horizon (drawn from the fault plan, keyed by host index): its
    departure time is truncated, sessions starting at or after it are
    removed and the rest clipped (:meth:`FleetColumns.depart_at`).  This *changes results by design* — the fault-plan token is
    folded into the cache identity so such runs never collide with
    fault-free ones.

    A dropout drawn *after* the host's own permanent departure is a
    no-op and is neither tallied as an injection nor counted in the
    returned effective-dropout count — the host departed exactly once,
    on its own schedule, so :class:`FleetReport` must not double-count
    it (``report.departures`` counts each departed host once;
    ``report.dropouts`` counts only dropouts that moved a departure).
    """
    departure = columns.departure_s.tolist()
    cut = np.full(len(departure), np.inf)
    dropouts = 0
    fired = _fire_mask(FAULTS.plan, "host.dropout", 0, len(departure))
    for index in np.flatnonzero(fired).tolist():
        dropout_s = FAULTS.uniform("host.dropout", key=index) * horizon_s
        if dropout_s >= departure[index]:
            continue  # already departed on its own: nothing to inject
        FAULTS.record("host.dropout")
        dropouts += 1
        cut[index] = dropout_s
    if dropouts:
        columns.depart_at(cut)
    return dropouts
