"""Per-run manifests: a machine-readable record of every metrics run.

A metrics-enabled figure/report/sweep run emits one JSON manifest under
``results/runs/`` (configurable via :class:`repro.api.RunConfig`) holding
the run id, the full run configuration, seeds and repetition policy,
per-phase wall-clock, a per-subsystem counter snapshot and the cache
outcome.  The manifest is the contract downstream tooling consumes
(``repro metrics <run-id|last>`` is the human renderer; CI validates one
against :func:`validate_manifest` on every push).

Schema ``repro-run-manifest/1`` (see :data:`MANIFEST_SCHEMA` and
:data:`REQUIRED_FIELDS`)::

    {
      "schema":   "repro-run-manifest/1",
      "run_id":   "fig1-20260806-101500-1a2b3c",
      "command":  "figure:fig1",
      "created_unix": 1775111700.0,
      "config":   {... RunConfig.to_dict() ...},
      "versions": {"package": "1.0.0", "python": "3.11.8",
                   "source_fingerprint": "deadbeefdeadbeef"},
      "seeds":    {"base_seed": 1},
      "phases":   [{"name": "generate", "wall_s": 12.5}, ...],
      "metrics":  {"counters": {...}, "gauges": {...}, "timers": {...}},
      "cache":    {"outcome": "hit"|"miss"|"disabled",
                   "hits": 1, "misses": 0},
      "figure":   {... FigureData.to_dict() ...},  # optional (sweeps omit)
      "faults":   {...},                           # optional (fault runs)
      "campaign": {"spec": {...}, "points": [...], # optional (campaign
                   "totals": {...}, "cache":       #  runs; see
                   {"hit_rate": ...},              #  repro.campaign.
                   "queue_latency_s": {...}},      #  scheduler)
      "audit":    {"trace_hash": {"window_s": 1.0, # optional (trace-hash
                   "streams": {"<key>": {          #  runs; full checkpoint
                     "windows": 20, "events": 814, #  lists stay on the
                     "digest": "9f86d081..."}}},   #  in-memory RunResult)
      "mem":      {"counters": {"mem.ticks": 96,   # optional (multi-VM
                    ...},                          #  memory runs; every
                   "gauges": {                     #  mem.*-prefixed metric,
                    "mem.committed_peak_bytes":    #  see repro.virt.memory)
                    1.03e9, ...}},
      "recovery": {"outages": 2,                   # optional (fleet runs
                   "outage_s": 2834.8,             #  with recovery
                   "uploads_retried": 41,          #  activity; see
                   "uploads_lost": 1,              #  repro.fleet.recovery)
                   "vm_crashes": 23,
                   "rolled_back_s": 9188.9,
                   "degraded_windows": 1,
                   "degraded_s": 11093.0,
                   "degraded_validated": 27}
    }
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ExperimentError

#: Current manifest schema identifier.
MANIFEST_SCHEMA = "repro-run-manifest/1"

#: Default directory (relative to the working directory) for manifests.
DEFAULT_RUNS_DIR = os.path.join("results", "runs")

#: Field name -> required type(s); ``None`` in the tuple marks optional.
REQUIRED_FIELDS: Dict[str, tuple] = {
    "schema": (str,),
    "run_id": (str,),
    "command": (str,),
    "created_unix": (int, float),
    "config": (dict,),
    "versions": (dict,),
    "seeds": (dict,),
    "phases": (list,),
    "metrics": (dict,),
    "cache": (dict,),
}

_CACHE_OUTCOMES = {"hit", "miss", "disabled"}


_run_counter = itertools.count()


def new_run_id(label: str) -> str:
    """Unique, sortable, human-scannable run id.

    pid distinguishes concurrent processes; the counter distinguishes
    runs within one process (a timestamp alone collides at sub-second
    run rates).
    """
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    nonce = f"{os.getpid() & 0xFFFF:04x}{next(_run_counter) & 0xFFFF:04x}"
    return f"{label}-{stamp}-{nonce}"


def validate_manifest(manifest: Mapping[str, Any]) -> List[str]:
    """Schema check.  Returns a list of problems (empty = valid)."""
    problems: List[str] = []
    for name, types in REQUIRED_FIELDS.items():
        if name not in manifest:
            problems.append(f"missing field {name!r}")
        elif not isinstance(manifest[name], types):
            problems.append(
                f"field {name!r} has type {type(manifest[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if problems:
        return problems
    if manifest["schema"] != MANIFEST_SCHEMA:
        problems.append(
            f"schema is {manifest['schema']!r}, expected {MANIFEST_SCHEMA!r}"
        )
    for index, phase in enumerate(manifest["phases"]):
        if (not isinstance(phase, dict) or "name" not in phase
                or "wall_s" not in phase):
            problems.append(f"phases[{index}] lacks name/wall_s")
        elif not isinstance(phase["wall_s"], (int, float)) \
                or phase["wall_s"] < 0:
            problems.append(f"phases[{index}].wall_s is not a duration")
    metrics = manifest["metrics"]
    for section in ("counters", "gauges", "timers"):
        if section not in metrics or not isinstance(metrics[section], dict):
            problems.append(f"metrics.{section} missing or not a mapping")
    outcome = manifest["cache"].get("outcome")
    if outcome not in _CACHE_OUTCOMES:
        problems.append(
            f"cache.outcome is {outcome!r}, expected one of "
            f"{sorted(_CACHE_OUTCOMES)}"
        )
    faults = manifest.get("faults")
    if faults is not None:
        if not isinstance(faults, dict):
            problems.append("faults is not a mapping")
        else:
            for name in ("retries", "timeouts", "dropped", "injected"):
                if name not in faults:
                    problems.append(f"faults.{name} missing")
    audit = manifest.get("audit")
    if audit is not None:
        if not isinstance(audit, dict):
            problems.append("audit is not a mapping")
        else:
            trace_hash = audit.get("trace_hash")
            if not isinstance(trace_hash, dict):
                problems.append("audit.trace_hash missing or not a mapping")
            elif not isinstance(trace_hash.get("streams"), dict):
                problems.append("audit.trace_hash.streams missing or not "
                                "a mapping")
    mem = manifest.get("mem")
    if mem is not None:
        if not isinstance(mem, dict):
            problems.append("mem is not a mapping")
        else:
            for name in ("counters", "gauges"):
                if not isinstance(mem.get(name), dict):
                    problems.append(f"mem.{name} missing or not a mapping")
    recovery = manifest.get("recovery")
    if recovery is not None:
        if not isinstance(recovery, dict):
            problems.append("recovery is not a mapping")
        else:
            for name in ("outages", "outage_s", "uploads_retried",
                         "uploads_lost", "vm_crashes", "rolled_back_s",
                         "degraded_windows", "degraded_s",
                         "degraded_validated"):
                if not isinstance(recovery.get(name), (int, float)):
                    problems.append(
                        f"recovery.{name} missing or not a number")
    campaign = manifest.get("campaign")
    if campaign is not None:
        if not isinstance(campaign, dict):
            problems.append("campaign is not a mapping")
        else:
            for name, types in (("spec", (dict,)), ("points", (list,)),
                                ("totals", (dict,)), ("cache", (dict,)),
                                ("queue_latency_s", (dict,))):
                if not isinstance(campaign.get(name), types):
                    problems.append(f"campaign.{name} missing or not a "
                                    f"{types[0].__name__}")
            for index, point in enumerate(campaign.get("points") or []):
                if not isinstance(point, dict) or "key" not in point \
                        or "status" not in point:
                    problems.append(
                        f"campaign.points[{index}] lacks key/status")
    return problems


def write_manifest(manifest: Mapping[str, Any],
                   runs_dir: Union[str, os.PathLike, None] = None
                   ) -> pathlib.Path:
    """Validate and atomically write one manifest; returns its path."""
    problems = validate_manifest(manifest)
    if problems:
        raise ExperimentError(
            "refusing to write an invalid run manifest: "
            + "; ".join(problems)
        )
    root = pathlib.Path(runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{manifest['run_id']}.json"
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=False) + "\n",
                   encoding="utf-8")
    tmp.replace(path)
    return path


def list_manifests(runs_dir: Union[str, os.PathLike, None] = None
                   ) -> List[pathlib.Path]:
    """Manifest files, oldest first (mtime then name for stability)."""
    root = pathlib.Path(runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR)
    if not root.is_dir():
        return []
    return sorted((p for p in root.glob("*.json")
                   if not p.name.startswith("progress-")),
                  key=lambda p: (p.stat().st_mtime, p.name))


def load_manifest(ref: str = "last",
                  runs_dir: Union[str, os.PathLike, None] = None
                  ) -> Dict[str, Any]:
    """Load a manifest by run id (exact or unique prefix), or ``"last"``
    for the newest."""
    entries = list_manifests(runs_dir)
    if ref == "last":
        if not entries:
            raise ExperimentError(
                "no run manifests found; run e.g. "
                "`repro figure fig1 --metrics` first"
            )
        path = entries[-1]
    else:
        root = pathlib.Path(
            runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR)
        path = root / f"{ref}.json"
        if not path.is_file():
            matches = [p for p in entries if p.stem.startswith(ref)]
            if len(matches) == 1:
                path = matches[0]
            elif matches:
                names = ", ".join(p.stem for p in matches[:5])
                raise ExperimentError(
                    f"run id prefix {ref!r} is ambiguous: {names}"
                )
            else:
                known = ", ".join(p.stem for p in entries[-5:]) or "(none)"
                raise ExperimentError(
                    f"no run manifest {ref!r} under {root}; "
                    f"recent runs: {known}"
                )
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ExperimentError(f"corrupt run manifest {path}: {exc}") from exc


#: Schema identifier for per-point progress checkpoints.
PROGRESS_SCHEMA = "repro-progress/1"


class ProgressCheckpoint:
    """Crash-safe per-point completion record for multi-point commands.

    A figure/report/sweep command that computes several independent
    points marks each one here as it completes (atomic write-then-rename
    after every mark).  If the process is killed, rerunning with
    ``--resume`` replays the finished points from their stored payloads
    and recomputes only the rest; a run that completes normally deletes
    its checkpoint.  ``run_key`` must fingerprint everything that shapes
    the output (command, ids, repetition policy, seed, source), so a
    stale checkpoint can never leak points into a different run.
    """

    def __init__(self, run_key: str,
                 runs_dir: Union[str, os.PathLike, None] = None):
        self.run_key = run_key
        root = pathlib.Path(
            runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR)
        self.path = root / f"progress-{run_key}.json"
        self._points: Dict[str, Any] = {}

    def load(self) -> int:
        """Read completed points from disk; returns how many were found.

        A missing, unreadable, or mismatched-schema file is simply an
        empty checkpoint (resume then recomputes everything).
        """
        try:
            state = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        if not isinstance(state, dict) \
                or state.get("schema") != PROGRESS_SCHEMA \
                or state.get("run_key") != self.run_key:
            return 0
        points = state.get("points")
        self._points = dict(points) if isinstance(points, dict) else {}
        return len(self._points)

    def done(self, point_key: str) -> bool:
        return point_key in self._points

    def payload(self, point_key: str) -> Any:
        return self._points.get(point_key)

    def mark(self, point_key: str, payload: Any = None) -> None:
        """Record ``point_key`` as complete (persisted immediately)."""
        self._points[point_key] = payload
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps({
            "schema": PROGRESS_SCHEMA,
            "run_key": self.run_key,
            "updated_unix": time.time(),
            "points": self._points,
        }, default=repr), encoding="utf-8")
        tmp.replace(self.path)

    def finish(self) -> None:
        """Delete the checkpoint (the run completed normally)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def render_manifest(manifest: Mapping[str, Any]) -> str:
    """Human-readable rendering for ``repro metrics``."""
    lines = [
        f"run      {manifest.get('run_id', '?')}",
        f"command  {manifest.get('command', '?')}",
    ]
    created = manifest.get("created_unix")
    if isinstance(created, (int, float)):
        lines.append("created  " + time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(created)))
    config = manifest.get("config", {})
    if config:
        kv = " ".join(f"{k}={v}" for k, v in sorted(config.items())
                      if v is not None and v is not False)
        lines.append(f"config   {kv or '(defaults)'}")
    cache = manifest.get("cache", {})
    lines.append(f"cache    {cache.get('outcome', '?')}"
                 f" (hits={cache.get('hits', 0)}"
                 f" misses={cache.get('misses', 0)})")
    faults = manifest.get("faults")
    if faults and any(faults.get(k) for k in
                      ("total_injected", "retries", "timeouts", "dropped")):
        quarantined = int(manifest.get("metrics", {}).get(
            "counters", {}).get("parallel.payload_quarantined", 0))
        lines.append(
            f"faults   injected={faults.get('total_injected', 0)}"
            f" retries={faults.get('retries', 0)}"
            f" timeouts={faults.get('timeouts', 0)}"
            f" dropped={len(faults.get('dropped', []))}"
            f" quarantined={quarantined}")
        injected = faults.get("injected") or {}
        for site in sorted(injected):
            if injected[site]:
                lines.append(f"  {site:<36} {injected[site]:>14}")
    recovery = manifest.get("recovery")
    if recovery:
        lines.append(
            f"recovery outages={recovery.get('outages', 0)}"
            f" ({recovery.get('outage_s', 0.0) / 3600:.1f}h down)"
            f" uploads-retried={recovery.get('uploads_retried', 0)}"
            f" lost={recovery.get('uploads_lost', 0)}"
            f" vm-crashes={recovery.get('vm_crashes', 0)}"
            f" rolled-back={recovery.get('rolled_back_s', 0.0) / 3600:.1f}h"
            f" degraded={recovery.get('degraded_windows', 0)} window(s)"
            f"/{recovery.get('degraded_validated', 0)} quorum-of-1")
    campaign = manifest.get("campaign")
    if campaign:
        totals = campaign.get("totals", {})
        cache_agg = campaign.get("cache", {})
        latency = campaign.get("queue_latency_s", {})
        rate = cache_agg.get("hit_rate")
        rate_text = f"{rate:.0%}" if isinstance(rate, (int, float)) else "n/a"
        lines.append(
            f"campaign {totals.get('points', 0)} point(s):"
            f" computed={totals.get('computed', 0)}"
            f" resumed={totals.get('resumed', 0)}"
            f" deduped={totals.get('deduped', 0)}"
            f" cache-hit-rate={rate_text}"
            f" queue-latency mean={latency.get('mean', 0.0):.3f}s"
            f" max={latency.get('max', 0.0):.3f}s")
    mem = manifest.get("mem")
    if mem:
        counters = mem.get("counters", {})
        gauges = mem.get("gauges", {})
        peak = gauges.get("mem.committed_peak_bytes")
        peak_text = f" committed-peak={peak / 2 ** 20:.0f}MB" \
            if isinstance(peak, (int, float)) else ""
        lines.append(
            f"mem      ticks={counters.get('mem.ticks', 0)}"
            f" reclaim-pages={counters.get('mem.reclaim.pages', 0)}"
            f" fault-pages={counters.get('mem.fault.pages', 0)}"
            f"{peak_text}")
    audit = manifest.get("audit")
    trace_hash = (audit or {}).get("trace_hash") or {}
    streams = trace_hash.get("streams") or {}
    if streams:
        events = sum(int(s.get("events", 0)) for s in streams.values())
        windows = sum(int(s.get("windows", 0)) for s in streams.values())
        lines.append(
            f"audit    trace-hash streams={len(streams)}"
            f" windows={windows} events={events}"
            f" (window={trace_hash.get('window_s', '?')}s)")
    phases = manifest.get("phases", [])
    if phases:
        lines.append("phases:")
        for phase in phases:
            lines.append(f"  {phase.get('name', '?'):<24}"
                         f" {phase.get('wall_s', 0.0):9.3f}s")
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            text = f"{value:.0f}" if float(value).is_integer() \
                else f"{value:.6g}"
            lines.append(f"  {name:<36} {text:>14}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<36} {value:>14.6g}")
    timers = metrics.get("timers", {})
    if timers:
        lines.append("timers:")
        for name, agg in sorted(timers.items()):
            if not agg:
                continue
            lines.append(
                f"  {name:<36} n={agg['count']:<7.0f}"
                f" total={agg['total']:.6g}"
                f" mean={agg['mean']:.6g}"
                f" max={agg['max']:.6g}"
            )
    hists = metrics.get("hists", {})
    if hists:
        lines.append("hists:")
        for name, buckets in sorted(hists.items()):
            total = sum(buckets.values())
            body = " ".join(f"{label}:{count:.0f}"
                            for label, count in buckets.items())
            lines.append(f"  {name:<36} n={total:.0f}  {body}")
    return "\n".join(lines)
