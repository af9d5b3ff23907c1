"""Volunteer availability and churn: session traces per host.

Desktop-grid hosts are not cluster nodes: they appear when their owner
powers the desktop on, vanish at shutdown, and eventually leave the
project for good (disk reinstall, lost interest — the *permanent
departure* of the BOINC literature).  The fleet models each host's
availability as an alternating renewal process:

* **on sessions** of exponential mean ``session_mean_s``;
* **off gaps** of exponential mean ``session_mean_s * (1 - a) / a`` so
  the long-run fraction of time on is the host's availability ``a``;
* one exponential **departure** clock of mean ``departure_mean_s`` after
  which the host never returns (its in-flight result is lost and the
  server's deadline/reissue machinery must recover the work unit).

Traces are sampled up-front per host from that host's own named RNG
streams, so they are a pure function of (fleet seed, host index) —
independent of which index range a build samples them in.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ExperimentError
from repro.simcore.rng import RngStreams


@dataclass(frozen=True)
class ChurnModel:
    """One host's availability character."""

    availability: float          #: long-run fraction of time volunteered
    session_mean_s: float        #: mean length of one powered-on session
    departure_mean_s: float      #: mean time until permanent departure

    def __post_init__(self):
        if not 0.0 < self.availability <= 1.0:
            raise ExperimentError(
                "availability is a fraction of time and must lie in "
                f"(0, 1], got {self.availability!r}"
            )
        for attr in ("session_mean_s", "departure_mean_s"):
            value = getattr(self, attr)
            if value <= 0:
                raise ExperimentError(
                    f"{attr} must be positive, got {value!r}"
                )

    @property
    def off_mean_s(self) -> float:
        """Mean off-gap implied by availability and session length."""
        a = self.availability
        return self.session_mean_s * (1.0 - a) / a


def availability_trace(model: ChurnModel, rng: RngStreams,
                       horizon_s: float
                       ) -> Tuple[List[Tuple[float, float]], float]:
    """Sample one host's on-sessions over ``[0, horizon_s]``.

    Returns ``(sessions, departure_s)`` where ``sessions`` is an ordered
    list of non-overlapping ``(start, end)`` intervals truncated at the
    departure time and the horizon.  The first draw decides the phase:
    with probability ``availability`` the host is already on at t=0.
    """
    if horizon_s <= 0:
        raise ExperimentError(f"horizon_s must be positive, got {horizon_s!r}")
    departure = rng.exponential("churn.departure", model.departure_mean_s)
    end_of_world = min(horizon_s, departure)
    sessions: List[Tuple[float, float]] = []
    t = 0.0
    on = rng.uniform("churn.phase") < model.availability
    if not on and model.availability < 1.0:
        t = rng.exponential("churn.off", model.off_mean_s)
    while t < end_of_world:
        length = rng.exponential("churn.on", model.session_mean_s)
        sessions.append((t, min(t + length, end_of_world)))
        t += length
        if model.availability >= 1.0:
            t = end_of_world  # an always-on host has one session
            break
        t += rng.exponential("churn.off", model.off_mean_s)
    return sessions, departure


def active_seconds(sessions: List[Tuple[float, float]],
                   start: float, end: float,
                   starts: Optional[Tuple[float, ...]] = None) -> float:
    """Seconds of session time inside ``[start, end]``.

    ``starts`` is an optional precomputed sequence of session start
    times (one per session, same order).  The hot server path passes a
    cached per-host tuple so each call avoids rebuilding an O(sessions)
    list just to bisect it once.
    """
    if end <= start:
        return 0.0
    total = 0.0
    if starts is None:
        starts = [s for s, _ in sessions]
    index = bisect.bisect_right(starts, start) - 1
    index = max(0, index)
    for s, e in sessions[index:]:
        if s >= end:
            break
        lo, hi = max(s, start), min(e, end)
        if hi > lo:
            total += hi - lo
    return total


def finish_time(sessions: List[Tuple[float, float]], start: float,
                active_needed_s: float,
                starts: Optional[Tuple[float, ...]] = None
                ) -> Optional[float]:
    """When ``active_needed_s`` of session time after ``start`` is done.

    Computation pauses while the host is off (the VM image persists on
    the host disk, per the paper's checkpoint/suspend story) and resumes
    at the next session.  Returns ``None`` when the trace runs out first
    — the host departed or the horizon arrived with work unfinished.
    ``starts`` is the same optional precomputed start array as in
    :func:`active_seconds`.
    """
    remaining = active_needed_s
    if starts is None:
        starts = [s for s, _ in sessions]
    index = bisect.bisect_right(starts, start) - 1
    index = max(0, index)
    for s, e in sessions[index:]:
        lo = max(s, start)
        if lo >= e:
            continue
        span = e - lo
        if span >= remaining:
            return lo + remaining
        remaining -= span
    return None
