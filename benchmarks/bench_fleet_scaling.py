"""Fleet-simulator scaling: wall clock and throughput vs fleet size.

Runs the ``repro.fleet`` simulator at several fleet sizes, records wall
time and simulated-throughput per size, and appends the trajectory to
``benchmarks/BENCH_fleet_scaling.json`` so later changes can compare.
Next to each total it records the run's three stages: ``columns_s``
(host column build), ``loop_s`` (the event loop: the compiled kernel,
or the Python loop under a fault plan) and ``report_s`` (the report fold), so a change names
the layer that moved.  Each size's run takes a fresh
spawned process, whose ``peak_rss_mb`` (``ru_maxrss`` after the run) is
that size's peak memory.  The same process then repeats the run under
``tracemalloc`` for ``columns_peak_mb``, ``loop_peak_mb`` and
``report_peak_mb``: the traced high-water mark while each stage runs,
counting what earlier stages left alive (the timed run stays untraced),
and checks that the traced run produced the same report bytes.  (Older
entries also carry ``wall_s_jobs4``/``exact_match_serial_vs_jobs4``
from an in-parent ``jobs=4`` re-run; a fleet now runs serially at any
``--jobs``, so that re-run is gone.  Their ``c_kernel`` flag went when
the compiled kernel became required.)

``--faults SPEC`` runs every size under that fault plan (a storm: the
Python event loop with the recovery machine), e.g. the perfbench storm::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py \
        --sizes 5000,50000 --hypervisor mixed --checkpoint-interval 1800 \
        --degraded 50 --faults "seed=0,server.outage=0.2,\
net.partition=0.1,vm.crash=0.05,host.dropout=0.02"

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py \
        [--sizes 100,250,500,1000,10000,100000] [--hours H] \
        [--hypervisor NAME] [--checkpoint-interval S] [--degraded N] \
        [--faults SPEC]

Interpretation: fault-free runs drive the columnar event loop (flat
arrays + the compiled event kernel), so
wall time grows roughly linearly with fleet size at a much higher
hosts/s than the archived object loop; the acceptance bars are 1000
hosts / 24 h well under 30 s and 100k hosts / 24 h under 5 s.
"""

import argparse
import contextlib
import functools
import json
import multiprocessing
import pathlib
import platform
import resource
import sys
import time
import tracemalloc

from _bench_util import cpu_info

from repro.faults import injected, parse_fault_spec
from repro.fleet import FleetConfig, simulate_fleet
from repro.fleet import server as fleet_server

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / \
    "BENCH_fleet_scaling.json"


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


STAGES = ("columns", "loop", "report")


@contextlib.contextmanager
def staged(measure):
    """Run each fleet stage inside ``measure(stage)`` while active.

    Wraps the functions ``simulate_fleet`` calls for the column build,
    the event loop and the report; everything is restored on exit.
    """
    server_cls = fleet_server.FleetServer
    targets = [
        (fleet_server, "build_fleet_columns", "columns"),
        (fleet_server, "_c_event_loop", "loop"),
        (server_cls, "_fast_loop_python", "loop"),
        (server_cls, "_fast_report", "report"),
    ]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in targets]

    def wrap(fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with measure(stage):
                return fn(*args, **kwargs)
        return wrapper

    for owner, name, stage in targets:
        setattr(owner, name, wrap(getattr(owner, name), stage))
    try:
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def stage_timers():
    """Accumulate the seconds spent in each fleet stage while active."""
    seconds = {f"{stage}_s": 0.0 for stage in STAGES}

    @contextlib.contextmanager
    def timed(stage):
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds[f"{stage}_s"] += time.perf_counter() - started

    with staged(timed):
        yield seconds


@contextlib.contextmanager
def stage_peaks():
    """Trace allocations while active and record each fleet stage's
    peak in MB: the high-water mark of traced memory while the stage
    runs, counting what earlier stages left alive."""
    peaks = {f"{stage}_peak_mb": 0.0 for stage in STAGES}

    @contextlib.contextmanager
    def traced(stage):
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            key = f"{stage}_peak_mb"
            peaks[key] = max(peaks[key],
                             tracemalloc.get_traced_memory()[1] / 2 ** 20)

    tracemalloc.start()
    try:
        with staged(traced):
            yield peaks
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def fault_plan(spec):
    """Arm the ``--faults`` plan (a fresh one per run), or nothing."""
    if spec is None:
        yield
    else:
        with injected(parse_fault_spec(spec)):
            yield


def measure_serial(config: FleetConfig, faults=None) -> dict:
    """One run: wall time, stage seconds and peak RSS; then the same run
    traced, for the stage peaks, which must print the same report."""
    with stage_timers() as stages, fault_plan(faults):
        started = time.perf_counter()
        serial = simulate_fleet(config)
        serial_wall = time.perf_counter() - started
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with stage_peaks() as peaks, fault_plan(faults):
        traced = simulate_fleet(config)
    if canonical(traced) != canonical(serial):
        raise SystemExit(f"hosts={config.hosts}: the traced run produced "
                         "a different report")
    return {"workunits": serial.workunits,
            "replicas": serial.replicas_issued,
            "valid": serial.valid,
            "wall_s_serial": serial_wall,
            "stages": {**stages, **peaks},
            "peak_rss_mb": peak_rss_mb}


def _child(conn, config, faults) -> None:
    conn.send(measure_serial(config, faults))
    conn.close()


def measure_in_child(config: FleetConfig, faults=None) -> dict:
    """:func:`measure_serial` in a fresh spawned process, so its peak
    RSS is this size's alone."""
    ctx = multiprocessing.get_context("spawn")
    parent_end, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child_end, config, faults))
    proc.start()
    child_end.close()
    try:
        serial = parent_end.recv()
    except EOFError:
        serial = None
    proc.join()
    if serial is None or proc.exitcode != 0:
        raise SystemExit(f"hosts={config.hosts}: the measuring process "
                         f"failed (exit code {proc.exitcode})")
    return serial


def run_scaling(sizes, hours: float, hypervisor: str, seed: int,
                faults=None, checkpoint_interval_s: float = 0.0,
                degraded_threshold: int = 0) -> dict:
    workload = (f"repro.fleet {hypervisor}, {hours:g} h horizon, "
                f"quorum-of-2, seed {seed}")
    if checkpoint_interval_s:
        workload += f", checkpoint every {checkpoint_interval_s:g} s"
    if degraded_threshold:
        workload += f", degraded above {degraded_threshold}"
    record = {
        "benchmark": "fleet_scaling",
        "workload": workload,
        **cpu_info(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **({"faults": faults} if faults is not None else {}),
        "runs": [],
    }
    for hosts in sizes:
        config = FleetConfig(hosts=hosts, hypervisor=hypervisor,
                             seed=seed, duration_s=hours * 3600.0,
                             checkpoint_interval_s=checkpoint_interval_s,
                             degraded_threshold=degraded_threshold)
        serial = measure_in_child(config, faults)
        run = {
            "hosts": hosts,
            "workunits": serial["workunits"],
            "replicas": serial["replicas"],
            "valid": serial["valid"],
            "wall_s_serial": round(serial["wall_s_serial"], 3),
            **{stage: round(value, 3)
               for stage, value in serial["stages"].items()},
            "peak_rss_mb": round(serial["peak_rss_mb"], 1),
            "hosts_per_s": round(hosts / serial["wall_s_serial"], 1),
        }
        record["runs"].append(run)
        print(f"hosts={hosts:5d}: serial {run['wall_s_serial']:6.2f}s "
              f"(columns {run['columns_s']:.2f}s, "
              f"loop {run['loop_s']:.2f}s, "
              f"report {run['report_s']:.2f}s, "
              f"peak RSS {run['peak_rss_mb']:.0f} MB; traced peaks "
              + "/".join(f"{run[f'{stage}_peak_mb']:.0f}"
                         for stage in STAGES)
              + f" MB)  valid={run['valid']}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="100,250,500,1000,10000,100000",
                        help="comma-separated fleet sizes")
    parser.add_argument("--hours", type=float, default=24.0,
                        help="simulated horizon per run (default 24)")
    parser.add_argument("--hypervisor", default="vmplayer",
                        help="profile, alias or 'mixed'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--checkpoint-interval", type=float, default=0.0,
                        help="guest checkpoint cadence in s (0 = none)")
    parser.add_argument("--degraded", type=int, default=0,
                        help="upload backlog that trips degraded mode "
                             "(0 = off)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault plan for every run, e.g. "
                             "'seed=0,server.outage=0.2,vm.crash=0.05'")
    parser.add_argument("--out", default=str(RESULTS_PATH),
                        help="JSON trajectory file to write")
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",") if part]
    record = run_scaling(sizes, args.hours, args.hypervisor, args.seed,
                         faults=args.faults,
                         checkpoint_interval_s=args.checkpoint_interval,
                         degraded_threshold=args.degraded)
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
