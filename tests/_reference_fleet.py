"""The pre-columnar fleet server, archived as an equivalence oracle.

A byte-for-byte copy of ``repro.fleet.server`` as it stood before the
columnar fast loop (objects everywhere, per-call start-list rebuilds,
the linear outage scan, the unconditional post-completion re-poll).
The equivalence tests replay seeds/configs through this module and
assert the live server's ``FleetReport.to_dict()`` is byte-identical.

Only one deliberate divergence: ``_percentile`` is imported from the
live module, so the intentional nearest-rank rounding bugfix does not
confound the equivalence assertions.

:func:`host_from_columns` is the one bridge the other way: it reads a
:class:`FleetHost` back out of a column build, so the column-vs-object
oracles compare whole host records.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.faults import FAULTS
from repro.fleet.calibration import fleet_slowdown
from repro.fleet.churn import active_seconds, finish_time
from repro.fleet.columns import FleetColumns
from repro.fleet.config import FleetConfig
from repro.fleet.host import FleetHost, build_fleet_hosts
from repro.fleet.recovery import outage_windows, rollback_seconds
from repro.fleet.validation import (
    CANONICAL_KEY,
    QuorumValidator,
    erroneous_key,
)
from repro.obs.metrics import METRICS
from repro.simcore.rng import RngStreams

# event kinds (ints so heap tuples compare cheaply and deterministically)
_REQUEST = 0
_DEADLINE = 1
_COMPLETE = 2
_UPLOAD = 3

#: Cap on the host poll backoff when the server has no work to give.
_MAX_POLL_BACKOFF_S = 7200.0


@dataclass
class Replica:
    """One issued copy of a work unit on one host."""

    rid: int
    wu_id: int
    host: int
    dispatched_s: float
    deadline_s: float
    cpu_s: float                      #: active seconds if it completes
    finish_s: Optional[float]         #: None = never completes in-trace
    completed: bool = False           #: result delivered to the server
    timed_out: bool = False
    rolled_back_s: float = 0.0        #: redone seconds after a vm.crash
    crash_wall_s: Optional[float] = None  #: when the crash lands in-trace
    rollback_counted: bool = False
    upload_attempts: int = 0
    compute_done_s: Optional[float] = None  #: compute finished, upload pending


@dataclass
class WorkUnit:
    """Server-side state of one work unit."""

    wu_id: int
    flops: float
    issued: int = 0
    outstanding: int = 0
    timeouts: int = 0
    validated_at: Optional[float] = None
    hosts: set = field(default_factory=set)
    ok_returns: List = field(default_factory=list)  # (host, cpu_s)
    degraded_by: Optional[int] = None  #: host whose lone result validated


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


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class FleetServer:
    """One project server driving a fleet of sampled volunteer hosts."""

    def __init__(self, config: FleetConfig, hosts: List[FleetHost],
                 dropouts: int = 0):
        self.config = config
        self.hosts = hosts
        self.dropouts = dropouts
        self.policy = config.recovery_policy()
        # server.outage schedule: drawn once, from the fault stream only
        self._outages: List[Tuple[float, float]] = (
            outage_windows(config.duration_s, self.policy.outage_scale_s)
            if FAULTS.enabled else [])
        self.validator = QuorumValidator(config.quorum)
        self.workunits = [
            WorkUnit(wu_id=i, flops=config.wu_flops)
            for i in range(config.resolved_workunits())
        ]
        self.need: deque = deque()
        for wu in self.workunits:
            for _ in range(config.quorum):
                self.need.append(wu.wu_id)
        self.replicas: List[Replica] = []
        self._rng_serve = [
            RngStreams(config.seed).fork(f"host-{h.index}").fork("serve")
            for h in hosts
        ]
        self._poll_failures = [0] * len(hosts)
        self._heap: List = []
        self._seq = itertools.count()
        self._n_valid = 0
        # tallies
        self.results_ok = 0
        self.results_erroneous = 0
        self.results_stale = 0
        self.timeouts = 0
        self.redundant_results = 0
        self.erroneous_cpu_s = 0.0
        self.stale_cpu_s = 0.0
        self.redundant_cpu_s = 0.0
        self._wasted_by_host: Dict[int, float] = {}
        # recovery tallies
        self.uploads_retried = 0
        self.uploads_lost = 0
        self.vm_crashes = 0
        self.rolled_back_cpu_s = 0.0
        self.lost_upload_cpu_s = 0.0
        self.degraded_validated = 0
        self._upload_backlog = 0
        self._degraded = False
        self._degraded_since: Optional[float] = None
        self._degraded_windows: List[Tuple[float, float]] = []

    # -- event plumbing --------------------------------------------------

    def _push(self, time_s: float, kind: int, payload: int) -> None:
        heapq.heappush(self._heap, (time_s, next(self._seq), kind, payload))

    def _waste_on(self, host_index: int, cpu_s: float) -> None:
        self._wasted_by_host[host_index] = \
            self._wasted_by_host.get(host_index, 0.0) + cpu_s

    def _outage_at(self, time_s: float) -> Optional[Tuple[float, float]]:
        """The ``[start, end)`` outage window covering ``time_s``, if any."""
        for start, end in self._outages:
            if time_s < start:
                return None  # windows are sorted and disjoint
            if time_s < end:
                return (start, end)
        return None

    # -- server policy ---------------------------------------------------

    def _deadline_for(self, wu: WorkUnit, host: FleetHost,
                      now: float) -> float:
        """Deadline from the *nominal* expected wall time (the server
        knows the hypervisor's calibrated slowdown and the fleet's mean
        availability, not this host's private trace), stretched by the
        backoff factor for every timeout the work unit already suffered."""
        cfg = self.config
        nominal_rate = cfg.host_gflops_median * 1e9 \
            / fleet_slowdown(host.hypervisor)
        expected_wall = (wu.flops / nominal_rate) / cfg.availability_mean
        stretch = cfg.backoff_factor ** min(wu.timeouts, 8)
        return now + cfg.deadline_factor * expected_wall * stretch

    def _take_work(self, host_index: int) -> Optional[WorkUnit]:
        """Oldest needed replica this host may serve (FIFO with skips)."""
        stash = []
        found = None
        while self.need:
            wu_id = self.need.popleft()
            wu = self.workunits[wu_id]
            if wu.validated_at is not None \
                    or wu.issued >= self.config.max_replicas:
                continue  # entry is stale; drop it
            if host_index in wu.hosts:
                stash.append(wu_id)
                continue
            found = wu
            break
        self.need.extendleft(reversed(stash))
        return found

    def _maybe_reissue(self, wu: WorkUnit) -> None:
        """Queue another replica when the quorum is no longer reachable
        from matching results plus outstanding replicas."""
        if wu.validated_at is not None:
            return
        potential = self.validator.matching_count(wu.wu_id) + wu.outstanding
        if potential < self.config.quorum \
                and wu.issued < self.config.max_replicas:
            self.need.append(wu.wu_id)

    # -- event handlers --------------------------------------------------

    def _handle_request(self, host_index: int, now: float) -> None:
        host = self.hosts[host_index]
        window = self._outage_at(now)
        if window is not None:
            # scheduler down: the host re-polls when the window ends
            # (poll-failure backoff untouched — this is not a dry queue)
            if window[1] < min(self.config.duration_s, host.departure_s):
                self._push(window[1], _REQUEST, host_index)
            return
        wu = self._take_work(host_index)
        if wu is None:
            if self._n_valid >= len(self.workunits):
                return  # everything validated; the host retires
            failures = self._poll_failures[host_index] = \
                self._poll_failures[host_index] + 1
            delay = min(self.config.poll_interval_s * (2.0 ** (failures - 1)),
                        _MAX_POLL_BACKOFF_S)
            next_poll = now + delay
            if next_poll < min(self.config.duration_s, host.departure_s):
                self._push(next_poll, _REQUEST, host_index)
            return
        self._poll_failures[host_index] = 0
        rid = len(self.replicas)
        active_needed = wu.flops / host.rate_flops_per_s
        interval = self.config.checkpoint_interval_s
        if interval > 0 and host.checkpoint_cost_s > 0:
            # checkpoint tax: one image write per interval of compute
            active_needed *= 1.0 + host.checkpoint_cost_s / interval
        rolled_back = 0.0
        crash_wall: Optional[float] = None
        if FAULTS.enabled and FAULTS.would_fire("vm.crash", key=rid,
                                                attempt=0):
            # crash point as a fraction of this replica's compute; the
            # guest restores from its last checkpoint, redoing only
            # progress − last_checkpoint seconds.  would_fire + record
            # so a crash the trace never reaches is not tallied.
            progress = FAULTS.uniform("vm.crash", rid, "at") * active_needed
            crash_wall = finish_time(host.sessions, now, progress)
            if crash_wall is not None:
                FAULTS.record("vm.crash")
                rolled_back = rollback_seconds(progress, interval)
                active_needed += rolled_back
                self.vm_crashes += 1
        deadline = self._deadline_for(wu, host, now)
        finish = finish_time(host.sessions, now, active_needed)
        replica = Replica(rid=rid, wu_id=wu.wu_id, host=host_index,
                          dispatched_s=now, deadline_s=deadline,
                          cpu_s=active_needed, finish_s=finish,
                          rolled_back_s=rolled_back,
                          crash_wall_s=crash_wall)
        self.replicas.append(replica)
        wu.issued += 1
        wu.outstanding += 1
        wu.hosts.add(host_index)
        if finish is not None:
            self._push(finish, _COMPLETE, rid)
        if deadline <= self.config.duration_s:
            self._push(deadline, _DEADLINE, rid)
        if METRICS.enabled:
            METRICS.inc("fleet.dispatched")
            METRICS.gauge_max("fleet.need_queue_peak", len(self.need))

    def _handle_deadline(self, rid: int, now: float) -> None:
        replica = self.replicas[rid]
        if replica.completed or replica.timed_out:
            return
        replica.timed_out = True
        wu = self.workunits[replica.wu_id]
        wu.outstanding -= 1
        if wu.validated_at is None:
            wu.timeouts += 1
            self.timeouts += 1
            if METRICS.enabled:
                METRICS.inc("fleet.timeouts")
            self._maybe_reissue(wu)

    def _handle_complete(self, rid: int, now: float) -> None:
        replica = self.replicas[rid]
        replica.compute_done_s = now
        self._count_rollback(replica)
        # the host is free again: poll immediately
        self._push(now, _REQUEST, replica.host)
        self._attempt_upload(rid, now)

    def _count_rollback(self, replica: Replica) -> None:
        """Tally a crash's redone seconds exactly once per replica."""
        if replica.rolled_back_s and not replica.rollback_counted:
            replica.rollback_counted = True
            self.rolled_back_cpu_s += replica.rolled_back_s
            self._waste_on(replica.host, replica.rolled_back_s)
            if METRICS.enabled:
                METRICS.inc("fleet.rolled_back")

    def _attempt_upload(self, rid: int, now: float) -> None:
        """Try to deliver a finished result; buffer it when blocked.

        A server outage blocks every upload until the window ends; a
        ``net.partition`` draw loses this one attempt.  Either way the
        host retries on exponential backoff until the retry budget runs
        out, then the result is gone for good.
        """
        replica = self.replicas[rid]
        window = self._outage_at(now)
        earliest_retry = now
        if window is not None:
            earliest_retry = window[1]
        elif not (FAULTS.enabled
                  and FAULTS.fires("net.partition", key=rid,
                                   attempt=replica.upload_attempts)):
            self._deliver_result(rid, now)
            return
        attempt = replica.upload_attempts
        replica.upload_attempts = attempt + 1
        if attempt >= self.policy.upload_retries:
            self._drop_upload(rid, now)
            return
        self.uploads_retried += 1
        retry_at = max(now + self.policy.retry_delay_s(attempt),
                       earliest_retry)
        self._upload_backlog += 1
        self._update_degraded(now)
        self._push(retry_at, _UPLOAD, rid)
        if METRICS.enabled:
            METRICS.inc("fleet.upload_retried")

    def _handle_upload(self, rid: int, now: float) -> None:
        self._upload_backlog -= 1
        self._attempt_upload(rid, now)
        self._update_degraded(now)

    def _drop_upload(self, rid: int, now: float) -> None:
        """Retry budget exhausted: the computed result is lost."""
        replica = self.replicas[rid]
        wu = self.workunits[replica.wu_id]
        replica.completed = True
        self.uploads_lost += 1
        useful = replica.cpu_s - replica.rolled_back_s
        self.lost_upload_cpu_s += useful
        self._waste_on(replica.host, useful)
        if not replica.timed_out:
            wu.outstanding -= 1
            replica.timed_out = True
        if METRICS.enabled:
            METRICS.inc("fleet.upload_lost")
        self._maybe_reissue(wu)

    def _update_degraded(self, now: float) -> None:
        """Degraded-mode hysteresis on the buffered-upload backlog."""
        threshold = self.policy.degraded_threshold
        if threshold <= 0:
            return
        if not self._degraded and self._upload_backlog > threshold:
            self._degraded = True
            self._degraded_since = now
            if METRICS.enabled:
                METRICS.inc("fleet.degraded_entered")
        elif self._degraded and self._upload_backlog == 0:
            self._degraded = False
            self._degraded_windows.append((self._degraded_since, now))
            self._degraded_since = None

    def _deliver_result(self, rid: int, now: float) -> None:
        replica = self.replicas[rid]
        replica.completed = True
        host = self.hosts[replica.host]
        wu = self.workunits[replica.wu_id]
        # rolled-back seconds are already tallied as their own waste
        # bucket, so every path below accounts the useful remainder only
        useful = replica.cpu_s - replica.rolled_back_s
        if replica.timed_out or now > replica.deadline_s:
            # past deadline: the server already reassigned; discard
            self.results_stale += 1
            self.stale_cpu_s += useful
            self._waste_on(replica.host, useful)
            if not replica.timed_out:
                wu.outstanding -= 1
                replica.timed_out = True
            if METRICS.enabled:
                METRICS.inc("fleet.stale")
            self._maybe_reissue(wu)
            return
        wu.outstanding -= 1
        if wu.validated_at is not None:
            self.redundant_results += 1
            self.redundant_cpu_s += useful
            self._waste_on(replica.host, useful)
            if METRICS.enabled:
                METRICS.inc("fleet.redundant")
            return
        bad = self._rng_serve[replica.host].uniform("error") \
            < host.error_rate
        if bad:
            key = erroneous_key(wu.wu_id, replica.host, rid)
            self.results_erroneous += 1
            self.erroneous_cpu_s += useful
            self._waste_on(replica.host, useful)
            self.validator.record(wu.wu_id, replica.host, key)
            if METRICS.enabled:
                METRICS.inc("fleet.erroneous")
            self._maybe_reissue(wu)
            return
        self.results_ok += 1
        wu.ok_returns.append((replica.host, useful))
        if self.validator.record(wu.wu_id, replica.host, CANONICAL_KEY):
            wu.validated_at = now
            self._n_valid += 1
            if METRICS.enabled:
                METRICS.inc("fleet.validated")
                METRICS.observe("fleet.makespan_s", now)
                METRICS.hist("fleet.makespan_h", now / 3600.0)
        elif self._degraded:
            # degraded mode: the backlog is past threshold, so the
            # server accepts this lone result as quorum-of-1 — a
            # validation risk, counted as such
            wu.validated_at = now
            wu.degraded_by = replica.host
            self._n_valid += 1
            self.degraded_validated += 1
            if METRICS.enabled:
                METRICS.inc("fleet.validated")
                METRICS.inc("fleet.degraded_validated")
                METRICS.observe("fleet.makespan_s", now)
                METRICS.hist("fleet.makespan_h", now / 3600.0)
        else:
            self._maybe_reissue(wu)

    # -- the run ---------------------------------------------------------

    def run(self) -> FleetReport:
        horizon = self.config.duration_s
        for host in self.hosts:
            if host.sessions:
                self._push(host.sessions[0][0], _REQUEST, host.index)
        heap = self._heap
        while heap:
            time_s, _seq, kind, payload = heapq.heappop(heap)
            if time_s > horizon:
                break
            if kind == _REQUEST:
                self._handle_request(payload, time_s)
            elif kind == _COMPLETE:
                self._handle_complete(payload, time_s)
            elif kind == _UPLOAD:
                self._handle_upload(payload, time_s)
            else:
                self._handle_deadline(payload, time_s)
        return self._report()

    # -- accounting ------------------------------------------------------

    def _report(self) -> FleetReport:
        cfg = self.config
        horizon = cfg.duration_s
        quorum_cpu = 0.0
        redundant_cpu = self.redundant_cpu_s
        pending_cpu = 0.0
        ok_by_host: Dict[int, int] = {}
        quorum_cpu_by_host: Dict[int, float] = {}
        for wu in self.workunits:
            validated = wu.validated_at is not None
            qset = (set(self.validator.quorum_hosts(wu.wu_id))
                    if validated else set())
            if validated and not qset and wu.degraded_by is not None:
                # degraded quorum-of-1: the lone accepted result is the
                # load-bearing one; any other matching returns are
                # redundant via the branch below
                qset = {wu.degraded_by}
            for host_index, cpu in wu.ok_returns:
                ok_by_host[host_index] = ok_by_host.get(host_index, 0) + 1
                if host_index in qset:
                    quorum_cpu += cpu
                    quorum_cpu_by_host[host_index] = \
                        quorum_cpu_by_host.get(host_index, 0.0) + cpu
                elif validated:
                    # a second matching result landed between quorum
                    # completion and now: counted but not load-bearing
                    redundant_cpu += cpu
                    self._waste_on(host_index, cpu)
                else:
                    pending_cpu += cpu
        lost_cpu = self.lost_upload_cpu_s
        in_flight_cpu = 0.0
        for replica in self.replicas:
            if replica.completed:
                continue
            host = self.hosts[replica.host]
            if replica.compute_done_s is not None:
                # computed, upload still buffered at the horizon: the
                # result never lands, so its useful seconds are lost
                useful = replica.cpu_s - replica.rolled_back_s
                lost_cpu += useful
                self._waste_on(replica.host, useful)
                continue
            spent = active_seconds(host.sessions, replica.dispatched_s,
                                   horizon)
            if replica.crash_wall_s is not None \
                    and not replica.rollback_counted:
                # the crash landed in-trace (traces end at the horizon),
                # so its redone seconds belong to the rollback bucket
                self._count_rollback(replica)
                spent -= replica.rolled_back_s
            if host.departure_s <= horizon:
                lost_cpu += spent
                self._waste_on(replica.host, spent)
            else:
                in_flight_cpu += spent
        wasted = (self.erroneous_cpu_s + self.stale_cpu_s + redundant_cpu
                  + lost_cpu + self.rolled_back_cpu_s)
        total_cpu = quorum_cpu + wasted + pending_cpu + in_flight_cpu
        waste_fraction = wasted / total_cpu if total_cpu else 0.0

        valid = self._n_valid
        failed = sum(
            1 for wu in self.workunits
            if wu.validated_at is None and wu.outstanding == 0
            and wu.issued >= cfg.max_replicas
        )
        in_progress = sum(1 for wu in self.workunits
                          if wu.validated_at is None and wu.issued > 0) \
            - failed
        unsent = sum(1 for wu in self.workunits if wu.issued == 0)
        makespans = sorted(wu.validated_at for wu in self.workunits
                           if wu.validated_at is not None)
        makespan = {
            "mean": (sum(makespans) / len(makespans)) if makespans else 0.0,
            "p50": _percentile(makespans, 0.50),
            "p90": _percentile(makespans, 0.90),
            "p99": _percentile(makespans, 0.99),
        }
        departures = sum(1 for h in self.hosts if h.departure_s <= horizon)
        session_time = sum(
            e - s for h in self.hosts for s, e in h.sessions)
        realized_availability = session_time / (horizon * len(self.hosts))

        per_hv: Dict[str, Dict[str, float]] = {}
        wasted_cpu_by_host = self._wasted_by_host
        for host in self.hosts:
            stats = per_hv.setdefault(host.hypervisor, {
                "hosts": 0.0, "results_ok": 0.0, "quorum_cpu_s": 0.0,
                "wasted_cpu_s": 0.0, "waste_fraction": 0.0,
                "slowdown": fleet_slowdown(host.hypervisor),
            })
            stats["hosts"] += 1
            stats["results_ok"] += ok_by_host.get(host.index, 0)
            stats["quorum_cpu_s"] += quorum_cpu_by_host.get(host.index, 0.0)
            stats["wasted_cpu_s"] += wasted_cpu_by_host.get(host.index, 0.0)
        for stats in per_hv.values():
            denom = stats["quorum_cpu_s"] + stats["wasted_cpu_s"]
            stats["waste_fraction"] = \
                stats["wasted_cpu_s"] / denom if denom else 0.0

        degraded_windows = list(self._degraded_windows)
        if self._degraded and self._degraded_since is not None:
            degraded_windows.append((self._degraded_since, horizon))
        recovery = {
            "outages": len(self._outages),
            "outage_s": sum(end - start for start, end in self._outages),
            "uploads_retried": self.uploads_retried,
            "uploads_lost": self.uploads_lost,
            "vm_crashes": self.vm_crashes,
            "rolled_back_s": self.rolled_back_cpu_s,
            "degraded_windows": len(degraded_windows),
            "degraded_s": sum(end - start
                              for start, end in degraded_windows),
            "degraded_validated": self.degraded_validated,
        }

        if METRICS.enabled:
            METRICS.inc("fleet.hosts", len(self.hosts))
            METRICS.inc("fleet.workunits", len(self.workunits))
            METRICS.inc("fleet.departures", departures)

        return FleetReport(
            config=cfg.to_dict(),
            hosts=len(self.hosts),
            workunits=len(self.workunits),
            duration_s=horizon,
            valid=valid,
            failed=failed,
            in_progress=in_progress,
            unsent=unsent,
            replicas_issued=len(self.replicas),
            results_ok=self.results_ok,
            results_erroneous=self.results_erroneous,
            results_stale=self.results_stale,
            timeouts=self.timeouts,
            redundant_results=self.redundant_results,
            departures=departures,
            dropouts=self.dropouts,
            throughput_per_hour=valid / (horizon / 3600.0),
            makespan_s=makespan,
            cpu_s={
                "quorum": quorum_cpu,
                "redundant": redundant_cpu,
                "erroneous": self.erroneous_cpu_s,
                "stale": self.stale_cpu_s,
                "lost": lost_cpu,
                "rolled_back": self.rolled_back_cpu_s,
                "pending": pending_cpu,
                "in_flight": in_flight_cpu,
                "wasted": wasted,
                "total": total_cpu,
            },
            waste_fraction=waste_fraction,
            realized_availability=realized_availability,
            per_hypervisor=per_hv,
            recovery=recovery,
        )


def simulate_fleet(config: FleetConfig) -> FleetReport:
    """Build the fleet as objects and run the server loop.

    The archived one-call entry point: deterministic per config, host
    by host through :func:`repro.fleet.host.build_fleet_hosts`, counting
    ``fleet.hosts_built`` as the archived object build did.
    """
    hosts = build_fleet_hosts(config)
    if METRICS.enabled:
        METRICS.inc("fleet.hosts_built", len(hosts))
    dropouts = _apply_host_dropout(hosts, config.duration_s) \
        if FAULTS.enabled else 0
    return FleetServer(config, hosts, dropouts=dropouts).run()


def host_from_columns(columns: FleetColumns, index: int) -> FleetHost:
    """Host ``index`` of a column build as a :class:`FleetHost`, every
    field read back from the columns, so the column-vs-object oracles
    can compare whole records (``to_dict()`` equality)."""
    lo, hi = int(columns.s_off[index]), int(columns.s_off[index + 1])
    return FleetHost(
        index=index, name=f"host-{index:05d}",
        hypervisor=columns.hv_names[int(columns.hv_code[index])],
        slowdown=float(columns.slowdown[index]),
        gflops=float(columns.gflops[index]),
        availability=float(columns.availability[index]),
        error_rate=columns.config.error_rate,
        sessions=list(zip(columns.s_starts[lo:hi].tolist(),
                          columns.s_ends[lo:hi].tolist())),
        departure_s=float(columns.departure_s[index]),
        checkpoint_cost_s=float(columns.checkpoint_cost_s[index]),
    )


def _apply_host_dropout(hosts: List[FleetHost], horizon_s: float) -> int:
    """Injection site ``host.dropout``: permanently remove hosts early.

    Each selected host departs at a deterministic fraction of the
    horizon (drawn from the fault plan, keyed by host index): its
    departure time is truncated and later availability sessions are
    clipped.  This *changes results by design* — the fault-plan token is
    folded into the cache identity so such runs never collide with
    fault-free ones.

    A dropout drawn *after* the host's own permanent departure is a
    no-op and is neither tallied as an injection nor counted in the
    returned effective-dropout count — the host departed exactly once,
    on its own schedule, so :class:`FleetReport` must not double-count
    it (``report.departures`` counts each departed host once;
    ``report.dropouts`` counts only dropouts that moved a departure).
    """
    dropouts = 0
    for host in hosts:
        if not FAULTS.would_fire("host.dropout", key=host.index, attempt=0):
            continue
        dropout_s = FAULTS.uniform("host.dropout", key=host.index) \
            * horizon_s
        if dropout_s >= host.departure_s:
            continue  # already departed on its own: nothing to inject
        FAULTS.record("host.dropout")
        dropouts += 1
        host.departure_s = dropout_s
        host.sessions = [(start, min(end, dropout_s))
                         for start, end in host.sessions
                         if start < dropout_s]
    return dropouts


# equivalence-harness patch: take the *fixed* percentile (see docstring)
from repro.fleet.server import _percentile  # noqa: E402,F401,F811
