"""Fleet-simulator scaling: wall clock and throughput vs fleet size.

Runs the ``repro.fleet`` simulator at several fleet sizes, records wall
time and simulated-throughput per size, verifies that a ``jobs=4`` run
reproduces the serial report **byte for byte**, and appends the
trajectory to ``benchmarks/BENCH_fleet_scaling.json`` so future PRs can
compare.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_scaling.py \
        [--sizes 100,250,500,1000,10000,100000] [--hours H] \
        [--hypervisor NAME]

Interpretation: fault-free runs drive the columnar event loop (flat
arrays + the compiled event kernel when a C compiler is present), so
wall time grows roughly linearly with fleet size at a much higher
hosts/s than the archived object loop; the acceptance bars are 1000
hosts / 24 h well under 30 s and 100k hosts / 24 h under 5 s.  Serial
timings use ``jobs=1`` deliberately: below ~1M hosts the worker-pool
dispatch costs more than the sharded build saves.
"""

import argparse
import json
import pathlib
import platform
import sys
import time

from _bench_util import cpu_info

from repro.fleet import FleetConfig, simulate_fleet
from repro.fleet.cloop import available as cloop_available

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / \
    "BENCH_fleet_scaling.json"


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def run_scaling(sizes, hours: float, hypervisor: str, seed: int) -> dict:
    record = {
        "benchmark": "fleet_scaling",
        "workload": f"repro.fleet {hypervisor}, {hours:g} h horizon, "
                    f"quorum-of-2, seed {seed}",
        **cpu_info(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "c_kernel": cloop_available(),
        "runs": [],
    }
    for hosts in sizes:
        config = FleetConfig(hosts=hosts, hypervisor=hypervisor,
                             seed=seed, duration_s=hours * 3600.0)
        started = time.perf_counter()
        serial = simulate_fleet(config, jobs=1)
        serial_wall = time.perf_counter() - started
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
            "wall_s_jobs4": round(parallel_wall, 3),
            "hosts_per_s": round(hosts / serial_wall, 1),
            "exact_match_serial_vs_jobs4": exact,
        }
        record["runs"].append(run)
        print(f"hosts={hosts:5d}: serial {serial_wall:6.2f}s  "
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
    parser.add_argument("--out", default=str(RESULTS_PATH),
                        help="JSON trajectory file to write")
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.sizes.split(",") if part]
    record = run_scaling(sizes, args.hours, args.hypervisor, args.seed)
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
