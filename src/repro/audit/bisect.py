"""Trace-hash comparison and the ``repro audit`` divergence bisector.

Given two ``repro-trace-hash/1`` snapshots (see
:mod:`repro.audit.tracehash`), :func:`compare_snapshots` lists every
stream/window pair that differs.  Because window digests *chain*, the
first differing checkpoint in a stream is exactly the first simulated
window where the two runs dispatched different events; everything after
it differs by construction, so :func:`first_divergence` is a true
bisection result, not a heuristic.

:func:`audit_figure` is the driver behind ``repro audit FIG``: it
regenerates one figure three times under identical seeds — serial,
``--jobs N``, and a serial seed-replay — with trace-hashing on and the
cache off (a cache hit would skip the engine entirely), then compares
the snapshots pairwise.  On mismatch it re-runs the two diverging
configurations once more with event *capture* focused on the first
diverging window and renders an event-level diff.

This is the white-box sibling of the ``repro chaos`` drill: chaos
proves the *outputs* survive injected faults byte-identically; audit
proves the *execution path* is identical event-for-event, and when it
is not, says where it first stopped being.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class StreamDivergence:
    """One stream/window pair that differs between two snapshots."""
    stream: str
    window: Optional[int]   # None for whole-stream presence mismatches
    kind: str               # "digest" | "count" | "missing" | "extra"
    detail: str


def _checkpoint_maps(snapshot: Dict[str, Any]
                     ) -> Dict[str, List[List[Any]]]:
    return snapshot.get("streams", {}) if snapshot else {}


def compare_snapshots(a: Dict[str, Any], b: Dict[str, Any]
                      ) -> List[StreamDivergence]:
    """Every divergence between two trace-hash snapshots.

    Within one stream only the *first* differing window is reported —
    chained digests make every later window differ mechanically, which
    would drown the signal.
    """
    out: List[StreamDivergence] = []
    streams_a = _checkpoint_maps(a)
    streams_b = _checkpoint_maps(b)
    for key in sorted(set(streams_a) | set(streams_b)):
        if key not in streams_b:
            out.append(StreamDivergence(
                key, None, "missing",
                "stream present in first run only"))
            continue
        if key not in streams_a:
            out.append(StreamDivergence(
                key, None, "extra",
                "stream present in second run only"))
            continue
        cps_a, cps_b = streams_a[key], streams_b[key]
        for index in range(max(len(cps_a), len(cps_b))):
            if index >= len(cps_a):
                window, digest, count = cps_b[index]
                out.append(StreamDivergence(
                    key, int(window), "extra",
                    f"second run has {len(cps_b) - len(cps_a)} extra "
                    f"window(s) from window {window}"))
                break
            if index >= len(cps_b):
                window, digest, count = cps_a[index]
                out.append(StreamDivergence(
                    key, int(window), "missing",
                    f"first run has {len(cps_a) - len(cps_b)} extra "
                    f"window(s) from window {window}"))
                break
            win_a, dig_a, cnt_a = cps_a[index]
            win_b, dig_b, cnt_b = cps_b[index]
            if (win_a, dig_a, cnt_a) == (win_b, dig_b, cnt_b):
                continue
            if win_a != win_b:
                detail = f"window index {win_a} vs {win_b}"
                window = min(int(win_a), int(win_b))
                kind = "digest"
            elif cnt_a != cnt_b:
                detail = f"{cnt_a} vs {cnt_b} events"
                window, kind = int(win_a), "count"
            else:
                detail = f"digest {dig_a} vs {dig_b} ({cnt_a} events)"
                window, kind = int(win_a), "digest"
            out.append(StreamDivergence(key, window, kind, detail))
            break
    return out


def first_divergence(divergences: List[StreamDivergence]
                     ) -> Optional[StreamDivergence]:
    """The divergence in the earliest simulated window (stream name
    breaks ties; presence mismatches sort last)."""
    if not divergences:
        return None
    return min(divergences,
               key=lambda d: (d.window is None,
                              d.window if d.window is not None else 0,
                              d.stream))


def format_event_diff(events_a: List[List[Any]],
                      events_b: List[List[Any]],
                      label_a: str, label_b: str,
                      context: int = 3) -> str:
    """Side-by-side diff of two captured windows' event lists.

    Events are ``[when, seq, name]``.  Prints ``context`` matching
    events before the first mismatch, then up to ``context`` events of
    each side from the mismatch on.
    """
    first = None
    for index in range(max(len(events_a), len(events_b))):
        ev_a = events_a[index] if index < len(events_a) else None
        ev_b = events_b[index] if index < len(events_b) else None
        if ev_a != ev_b:
            first = index
            break
    if first is None:
        return "captured windows are identical"

    def _fmt(event: Optional[List[Any]]) -> str:
        if event is None:
            return "(no event)"
        when, seq, name = event
        return f"t={when!r} seq={seq} {name}"

    lines = [f"first differing event at index {first} "
             f"({len(events_a)} vs {len(events_b)} events in window)"]
    start = max(0, first - context)
    for index in range(start, first):
        lines.append(f"    = {_fmt(events_a[index])}")
    for index in range(first, min(first + context,
                                  max(len(events_a), len(events_b)))):
        ev_a = events_a[index] if index < len(events_a) else None
        ev_b = events_b[index] if index < len(events_b) else None
        marker = "=" if ev_a == ev_b else "!"
        lines.append(f"  {marker} {label_a}: {_fmt(ev_a)}")
        if marker == "!":
            lines.append(f"  {marker} {label_b}: {_fmt(ev_b)}")
    return "\n".join(lines)


@dataclass
class AuditComparison:
    """Pairwise snapshot comparison between two labelled runs."""
    label_a: str
    label_b: str
    divergences: List[StreamDivergence] = field(default_factory=list)
    figures_identical: bool = True

    @property
    def clean(self) -> bool:
        return self.figures_identical and not self.divergences


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_figure` drill."""
    fig_id: str
    jobs: int
    window_s: float
    streams: int                #: streams in the serial baseline
    windows: int                #: total checkpoints in the baseline
    events: int                 #: total hashed events in the baseline
    comparisons: List[AuditComparison] = field(default_factory=list)
    first: Optional[StreamDivergence] = None
    event_diff: Optional[str] = None

    @property
    def clean(self) -> bool:
        return all(comparison.clean for comparison in self.comparisons)

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render(self) -> str:
        lines = [f"audit {self.fig_id}: {self.streams} stream(s), "
                 f"{self.windows} window(s) of {self.window_s}s, "
                 f"{self.events} event(s) hashed"]
        for comparison in self.comparisons:
            if comparison.clean:
                lines.append(f"  {comparison.label_a} vs "
                             f"{comparison.label_b}: OK "
                             "(figures byte-identical, 0 diverging "
                             "windows)")
                continue
            status = []
            if not comparison.figures_identical:
                status.append("FIGURES DIFFER")
            if comparison.divergences:
                status.append(f"{len(comparison.divergences)} diverging "
                              "stream(s)")
            lines.append(f"  {comparison.label_a} vs "
                         f"{comparison.label_b}: " + ", ".join(status))
            for divergence in comparison.divergences[:8]:
                where = (f"window {divergence.window}"
                         if divergence.window is not None else "stream")
                lines.append(f"    {divergence.stream} [{where}] "
                             f"{divergence.kind}: {divergence.detail}")
        if self.first is not None:
            lines.append(f"first divergence: {self.first.stream} "
                         f"window {self.first.window} "
                         f"({self.first.kind}: {self.first.detail})")
        if self.event_diff:
            lines.append(self.event_diff)
        lines.append("audit " + ("PASSED" if self.clean else "FAILED"))
        return "\n".join(lines)


def _figure_bytes(result: Any) -> bytes:
    import json
    return json.dumps(result.figure.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def audit_figure(fig_id: str, jobs: int = 4,
                 config: Optional[Any] = None,
                 window_s: Optional[float] = None,
                 capture_on_divergence: bool = True,
                 **kwargs: Any) -> AuditReport:
    """Run the serial / parallel / replay drill for one figure."""
    from repro import api
    from repro.audit.tracehash import TRACE_HASH

    base = (config or api.RunConfig()).with_overrides(
        cache=False, metrics=False, trace_hash=True, fault_spec=None)
    if window_s is not None:
        TRACE_HASH.window_s = window_s

    def _run(label: str, run_jobs: int) -> Any:
        return api.run(api.RunRequest(
            kind="figure", target=fig_id,
            config=base.with_overrides(jobs=run_jobs), options=kwargs))

    runs = [("serial", 1), (f"jobs{jobs}", jobs), ("replay", 1)]
    results = {label: _run(label, run_jobs) for label, run_jobs in runs}

    baseline = results["serial"].trace_hash or {}
    checkpoints = baseline.get("streams", {})
    report = AuditReport(
        fig_id=fig_id, jobs=jobs,
        window_s=float(baseline.get("window_s", TRACE_HASH.window_s)),
        streams=len(checkpoints),
        windows=sum(len(cps) for cps in checkpoints.values()),
        events=int(sum(item[2] for cps in checkpoints.values()
                       for item in cps)),
    )
    serial_bytes = _figure_bytes(results["serial"])
    diverged: Optional[Tuple[str, str]] = None
    for label, _run_jobs in runs[1:]:
        comparison = AuditComparison("serial", label)
        comparison.figures_identical = (
            _figure_bytes(results[label]) == serial_bytes)
        comparison.divergences = compare_snapshots(
            baseline, results[label].trace_hash or {})
        report.comparisons.append(comparison)
        if comparison.divergences and diverged is None:
            diverged = ("serial", label)
            report.first = first_divergence(comparison.divergences)

    if diverged is not None and capture_on_divergence \
            and report.first is not None \
            and report.first.window is not None:
        label = diverged[1]
        run_jobs = dict(runs)[label]
        TRACE_HASH.capture = (report.first.stream, report.first.window)
        try:
            recap_a = _run("capture-serial", 1)
            recap_b = _run(f"capture-{label}", run_jobs)
        finally:
            TRACE_HASH.capture = None
        captured_a = (recap_a.trace_hash or {}).get("captured", {}) \
            .get(report.first.stream, {})
        captured_b = (recap_b.trace_hash or {}).get("captured", {}) \
            .get(report.first.stream, {})
        report.event_diff = format_event_diff(
            captured_a.get("events", []), captured_b.get("events", []),
            "serial", label)
    return report
