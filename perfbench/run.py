"""The repository benchmark: four campaign workloads, end to end and traced.

Run one workload (the last line of output is the JSON result)::

    python3 perfbench/run.py --workload fleet_clean --seed 3 \
        --seconds 15 --trace 0

Workloads (see ``specs.py`` and ``BENCHMARK.json``): ``guest_perf``
(Figs 1-4), ``host_impact`` (Figs 5-8), ``fleet_clean`` (100k hosts on
the compiled kernel) and ``fleet_storm`` (5k hosts under a fault storm).
``--trace 0`` reports ``setup_s`` (imports, kernel load and spec, in
fresh processes), ``wall_s`` (the ``run_campaign`` call) and
``peak_rss_mb`` (after the first campaign); ``--trace 1`` reports the
per-layer metrics of ``tracing.py``.  Both timings are medians of
samples rescaled by a speed probe taken before and after each sample
(``child.PROBE_REF_S``), so they read in reference-machine seconds and
the host's own speed swings cancel; the unscaled host-time medians are
printed on an ``unscaled`` JSON line before the result.  Every point's
output digest is checked against ``digests.json``; ``failed`` counts
the points that raised or mismatched (``failed_frac`` = failed /
attempted).

Steadiness check: run each workload ``K`` times with different seeds
and compare each end-to-end metric's quartile spread with its bound::

    python3 perfbench/run.py --steady 10 [--sets 2] [--workload NAME ...]

``--steady 1`` prints every metric of every workload once.  ``--pin``
re-pins the output digests of every workload and input variant.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
import tracing  # noqa: E402

#: Fresh processes timed for ``setup_s`` per run; the median is reported.
SETUP_SAMPLES = 5
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env():
    """The parent environment minus ``REPRO_*``, with ``repro`` from this
    checkout and temporary files (the fleet kernel) inside it."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _child(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Warm up, time set-up in fresh processes, then measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    if workload not in specs.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = time.monotonic() + RUN_BUDGET_S
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        env = _child(["warmup", workload, scratch], deadline)
        setup = []
        if not trace:
            setup = [_child(["setup", workload, seed, scratch], deadline)
                     for _ in range(SETUP_SAMPLES)]
        measured = _child(["measure", workload, seed, seconds,
                           int(trace), scratch], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not measured["walls"]:
        raise BenchError("no campaign completed")
    if trace:
        if "layers" not in measured:
            raise BenchError("no traced campaign completed")
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: {"value": measured["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": statistics.median(
                sample["norm_setup_s"] for sample in setup),
            "wall_s": statistics.median(measured["norm_walls"]),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    return env, setup, measured, {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }


def report(workload, seed, env, setup, measured, result):
    """Human-readable lines printed before the JSON result."""
    print(f"perfbench {workload} seed={seed} "
          f"variant={specs.variant_of(seed)} "
          f"points={','.join(measured['points'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    unscaled = {"wall_s": statistics.median(measured["walls"]),
                "wall_samples": len(measured["walls"])}
    if setup:
        unscaled["setup_s"] = statistics.median(x["setup_s"] for x in setup)
        unscaled["setup_samples"] = len(setup)
    print("unscaled " + json.dumps(unscaled, sort_keys=True))
    print(f"  {'failed_frac':<34} "
          f"{result['failed'] / result['attempted']:>14.6g} fraction "
          f"({result['failed']}/{result['attempted']} points)")
    for problem in measured["problems"]:
        print(f"  problem: {problem}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    """Run each workload ``--steady`` times per set; check spreads."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or list(specs.WORKLOADS)
    seeds = [args.seed + i for i in range(args.steady)]
    values = {}          # (set, workload, metric) -> [values]
    ok = True
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                try:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", "0"],
                        stdout=subprocess.PIPE, text=True, timeout=200)
                except subprocess.TimeoutExpired:
                    print(f"FAIL {workload} seed={seed}: timed out")
                    ok = False
                    continue
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"FAIL {workload} seed={seed}: exit "
                          f"{proc.returncode}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                if not result["correct"]:
                    print(f"FAIL {workload} seed={seed}: incorrect output")
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault((set_index, workload, name),
                                      []).append(metric["value"])
                failed, attempted = result["failed"], result["attempted"]
                print(f"run set={set_index} {workload} seed={seed} "
                      + " ".join(f"{name}={metric['value']:.5g}"
                                 f"{metric['unit']}" for name, metric
                                 in result["metrics"].items())
                      + f" failed_frac={failed / attempted:.3g}"
                      f" ({failed}/{attempted} points)", flush=True)
    print(f"{'workload':<12} {'metric':<12} set {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for name, bound in bounds.items():
            medians = []
            for set_index in range(args.sets):
                series = values.get((set_index, workload, name))
                if not series:
                    continue
                q1, median, q3 = _quartiles(series)
                spread = (q3 - q1) / median
                medians.append(median)
                verdict = "ok" if spread <= bound else "TOO NOISY"
                ok = ok and spread <= bound
                print(f"{workload:<12} {name:<12} {set_index:>3} "
                      f"{median:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{spread:>7.3f} {bound:>6.2f} {verdict}"
                      f" (n={len(series)})")
            if len(medians) > 1:
                drift = medians[-1] / medians[0] - 1
                verdict = "ok" if abs(drift) <= bound else "DRIFTED"
                ok = ok and abs(drift) <= bound
                print(f"{workload:<12} {name:<12} second median vs first: "
                      f"{drift:+.3f} (bound {bound:.2f}) {verdict}")
    return 0 if ok else 1


def pin():
    """Re-pin the output digest of every workload and input variant."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    table = {}
    for workload in specs.WORKLOADS:
        table[workload] = {}
        for variant in range(specs.VARIANTS):
            scratch = tempfile.mkdtemp(prefix="pin-", dir=WORK)
            try:
                table[workload][str(variant)] = _child(
                    ["digest", workload, variant, scratch],
                    time.monotonic() + 600)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print(f"pinned {workload} variant {variant}", file=sys.stderr)
    (HERE / "digests.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="runs per workload in the steadiness check")
    parser.add_argument("--sets", type=int, default=1,
                        help="independent sets of --steady runs to compare")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin every output digest")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.pin:
        return pin()
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload (or use --steady)")
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workload = args.workload[0]
    try:
        env, setup, measured, result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(workload, args.seed, env, setup, measured, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
