"""Fleet-simulator scaling: wall clock and throughput vs fleet size.

Runs the ``repro.fleet`` simulator at several fleet sizes, records wall
time and simulated-throughput per size, verifies that a ``jobs=4`` run
reproduces the serial report **byte for byte**, and appends the
trajectory to ``benchmarks/BENCH_fleet_scaling.json`` so future PRs can
compare.  Next to each serial total it records the serial run's three
stages: ``columns_s`` (host column build), ``loop_s`` (the event loop,
compiled kernel or Python fallback) and ``report_s`` (the report fold),
so a change names the layer that moved.

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
arrays + the compiled event kernel when a C compiler is present), so
wall time grows roughly linearly with fleet size at a much higher
hosts/s than the archived object loop; the acceptance bars are 1000
hosts / 24 h well under 30 s and 100k hosts / 24 h under 5 s.  Serial
timings use ``jobs=1`` deliberately: below ~1M hosts the worker-pool
dispatch costs more than the sharded build saves.
"""

import argparse
import contextlib
import json
import pathlib
import platform
import sys
import time

from _bench_util import cpu_info

from repro.faults import injected, parse_fault_spec
from repro.fleet import FleetConfig, simulate_fleet
from repro.fleet import server as fleet_server
from repro.fleet.cloop import available as cloop_available

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / \
    "BENCH_fleet_scaling.json"


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@contextlib.contextmanager
def stage_timers():
    """Accumulate the seconds spent in each fleet stage while active.

    Wraps the functions ``simulate_fleet`` calls for the column build,
    the event loop and the report; everything is restored on exit.
    """
    stages = {"columns_s": 0.0, "loop_s": 0.0, "report_s": 0.0}
    server_cls = fleet_server.FleetServer
    targets = [
        (fleet_server, "build_fleet_columns", "columns_s"),
        (fleet_server, "_c_event_loop", "loop_s"),
        (server_cls, "_fast_loop_python", "loop_s"),
        (server_cls, "_fast_report", "report_s"),
    ]
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in targets]

    def timed(fn, stage):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[stage] += time.perf_counter() - started
        return wrapper

    for owner, name, stage in targets:
        setattr(owner, name, timed(getattr(owner, name), stage))
    try:
        yield stages
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


@contextlib.contextmanager
def fault_plan(spec):
    """Arm the ``--faults`` plan (a fresh one per run), or nothing."""
    if spec is None:
        yield
    else:
        with injected(parse_fault_spec(spec)):
            yield


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
        "c_kernel": cloop_available(),
        **({"faults": faults} if faults is not None else {}),
        "runs": [],
    }
    for hosts in sizes:
        config = FleetConfig(hosts=hosts, hypervisor=hypervisor,
                             seed=seed, duration_s=hours * 3600.0,
                             checkpoint_interval_s=checkpoint_interval_s,
                             degraded_threshold=degraded_threshold)
        with stage_timers() as stages, fault_plan(faults):
            started = time.perf_counter()
            serial = simulate_fleet(config, jobs=1)
            serial_wall = time.perf_counter() - started
        with fault_plan(faults):
            started = time.perf_counter()
            parallel = simulate_fleet(config, jobs=4)
            parallel_wall = time.perf_counter() - started
        exact = canonical(serial) == canonical(parallel)
        run = {
            "hosts": hosts,
            "workunits": serial.workunits,
            "replicas": serial.replicas_issued,
            "valid": serial.valid,
            "wall_s_serial": round(serial_wall, 3),
            **{stage: round(spent, 3) for stage, spent in stages.items()},
            "wall_s_jobs4": round(parallel_wall, 3),
            "hosts_per_s": round(hosts / serial_wall, 1),
            "exact_match_serial_vs_jobs4": exact,
        }
        record["runs"].append(run)
        print(f"hosts={hosts:5d}: serial {serial_wall:6.2f}s "
              f"(columns {stages['columns_s']:.2f}s, "
              f"loop {stages['loop_s']:.2f}s, "
              f"report {stages['report_s']:.2f}s)  "
              f"jobs=4 {parallel_wall:6.2f}s  "
              f"valid={serial.valid:<6d} exact={exact}")
        if not exact:
            raise SystemExit(
                f"hosts={hosts}: jobs=4 produced a different report "
                "than the serial run")
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
