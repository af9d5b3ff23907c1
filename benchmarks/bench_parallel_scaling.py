"""Parallel repetition scaling: per-call vs persistent pool.

Runs the Figure 7 host-impact measurement (one of the two heavy
figures) through ``Repeater`` at several worker counts (``jobs=1``, the
engine's in-process round, is the serial baseline) and records the
wall-clock trajectory to ``benchmarks/BENCH_parallel_scaling.json`` so
later changes can compare.
(Older entries also carry ``fleet_shard_*`` keys from a fleet host-build
workload; fleets now build serially, so that workload is gone.)

Each parallel level is timed twice: a **cold** run right after
``shutdown_pools()`` (the pool must fork first — what every run paid
when pools lived exactly one call) and a **warm** run against the
persistent pool, so the trajectory shows what pool reuse buys.  Every
run's output is checked against the serial baseline **exactly**; a
mismatch aborts with a non-zero exit.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        [--reps N] [--jobs 1,2,4] [--duration S]

Interpretation: warm speedup tracks the *schedulable* core count.  On an
N-core box expect the warm run to approach min(jobs, N)x; the cold run
additionally pays one pool fork.  The recorded ``cpu_count`` (machine)
and ``cpu_affinity`` (schedulable) fields say which situation produced
the numbers.
"""

import argparse
import json
import pathlib
import platform
import sys
import time

from _bench_util import cpu_info

from repro.core.experiment import Repeater
from repro.core.host_impact import HostImpactConfig, SevenZipImpactMeasure
from repro.core.workerpool import get_pool, shutdown_pools

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / \
    "BENCH_parallel_scaling.json"


def build_measure(duration_s: float) -> SevenZipImpactMeasure:
    """The Figure 7/8 inner loop: host 7z vs an Einstein@home VM."""
    config = HostImpactConfig(environment="vmplayer", vm_priority="idle",
                              duration_s=duration_s)
    return SevenZipImpactMeasure(config, threads=2)


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def _cold_warm(jobs: int, fn):
    """Time ``fn`` twice: after a pool shutdown (cold — the old
    per-call-pool cost) and again with the pool persistent (warm)."""
    shutdown_pools()
    cold_value, cold_wall = _timed(fn)
    generation = get_pool(jobs).generation
    warm_value, warm_wall = _timed(fn)
    reused = get_pool(jobs).generation == generation
    return cold_value, cold_wall, warm_value, warm_wall, reused


def run_scaling(reps: int, job_counts, duration_s: float) -> list:
    measure = build_measure(duration_s)
    serial_result, serial_wall = _timed(
        lambda: Repeater(base_seed=7, reps=reps, jobs=1).run(measure))
    runs = [{
        "jobs": 1,
        "wall_s": round(serial_wall, 3),
        "reps_per_s": round(reps / serial_wall, 3),
        "speedup_vs_serial": 1.0,
        "exact_match_vs_serial": True,
    }]
    print(f"figure reps: jobs=1 (serial) {serial_wall:7.2f}s wall")
    for jobs in job_counts:
        if jobs == 1:
            continue
        repeater = Repeater(base_seed=7, reps=reps, jobs=jobs)
        cold, cold_wall, warm, warm_wall, reused = _cold_warm(
            jobs, lambda: repeater.run(measure))
        exact = (cold.raw == serial_result.raw
                 and warm.raw == serial_result.raw)
        run = {
            "jobs": jobs,
            "wall_s": round(warm_wall, 3),
            "wall_s_cold_pool": round(cold_wall, 3),
            "reps_per_s": round(reps / warm_wall, 3),
            "speedup_vs_serial": round(serial_wall / warm_wall, 3),
            "speedup_cold_vs_serial": round(serial_wall / cold_wall, 3),
            "pool_reused": reused,
            "exact_match_vs_serial": exact,
        }
        runs.append(run)
        print(f"figure reps: jobs={jobs} cold {cold_wall:7.2f}s  "
              f"warm {warm_wall:7.2f}s  "
              f"speedup {run['speedup_vs_serial']:.2f}x "
              f"(cold {run['speedup_cold_vs_serial']:.2f}x)  "
              f"exact={exact} reused={reused}")
        if not exact:
            raise SystemExit(
                f"jobs={jobs} produced different metrics than the serial run")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=8,
                        help="repetitions per job count (default 8)")
    parser.add_argument("--jobs", default="1,2,4",
                        help="comma-separated worker counts (default 1,2,4)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="simulated benchmark duration per rep")
    parser.add_argument("--out", default=str(RESULTS_PATH),
                        help="JSON trajectory file to write")
    args = parser.parse_args(argv)
    job_counts = [int(part) for part in args.jobs.split(",") if part]
    if job_counts[0] != 1:
        job_counts.insert(0, 1)  # the serial baseline anchors speedups
    record = {
        "benchmark": "parallel_scaling",
        "workload": "fig7/fig8 sevenzip host-impact (vmplayer, 2 threads)",
        "reps": args.reps,
        "duration_s": args.duration,
        **cpu_info(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runs": run_scaling(args.reps, job_counts, args.duration),
    }
    shutdown_pools()
    out = pathlib.Path(args.out)
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except ValueError:
            history = []
    history.append(record)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"recorded -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
