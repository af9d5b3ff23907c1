"""Serial-vs-parallel equivalence smoke check.

For one measure from every figure family, runs ``Repeater(jobs=1)`` (the
engine's in-process round) and ``Repeater(jobs=N)`` (the worker pool)
with the audit trace-hash recorder on, and asserts the raw per-rep
metric lists are **exactly** equal (same floats, same ordering) and the
trace-hash snapshots are equal key for key — the bit-identical
guarantee the repetition harness makes, down to the ``g<group>/rep<n>``
stream labels both paths assign.

Exit status 0 on success, 1 on any mismatch.  Usage::

    PYTHONPATH=src python benchmarks/check_parallel_equivalence.py \
        [--reps N] [--jobs N]
"""

import argparse
import functools
import sys

from repro.audit.tracehash import TRACE_HASH
from repro.core.experiment import Repeater
from repro.core.figures import (
    _iobench_guest_factory,
    _matrix_guest_factory,
    _netbench_factory,
    _sevenzip_guest_factory,
)
from repro.core.guest_perf import EnvironmentMeasure
from repro.core.host_impact import (
    HostImpactConfig,
    NBenchImpactMeasure,
    SevenZipImpactMeasure,
)
from repro.core.multivm import MultiVmConfig, MultiVmImpactMeasure
from repro.workloads.nbench import IndexGroup


def measures():
    """(label, measure) pairs spanning every figure family."""
    yield ("fig1:7z/vmplayer", EnvironmentMeasure(
        "vmplayer", _sevenzip_guest_factory, "mips"))
    yield ("fig2:matrix/qemu", EnvironmentMeasure(
        "qemu", functools.partial(_matrix_guest_factory, size=128),
        "seconds_per_multiply"))
    yield ("fig3:iobench/virtualbox", EnvironmentMeasure(
        "virtualbox", _iobench_guest_factory, "aggregate_mbps"))
    yield ("fig4:netbench/vmplayer:nat", EnvironmentMeasure(
        "vmplayer:nat", _netbench_factory, "mbps"))
    yield ("fig5:nbench-mem/qemu", NBenchImpactMeasure(
        HostImpactConfig(environment="qemu"), IndexGroup.MEM))
    yield ("fig7:7z-impact/vmplayer", SevenZipImpactMeasure(
        HostImpactConfig(environment="vmplayer", duration_s=10.0), 2))
    yield ("multivm:2vm@1.25x", MultiVmImpactMeasure(
        MultiVmConfig(n_vms=2, overcommit_ratio=1.25, duration_s=4.0)))


def hashed_run(measure, reps: int, jobs: int):
    """``(result, trace-hash snapshot)`` of one run from a fresh
    recorder."""
    TRACE_HASH.enable(reset=True)
    try:
        result = Repeater(base_seed=42, reps=reps, jobs=jobs).run(measure)
        return result, TRACE_HASH.snapshot()
    finally:
        TRACE_HASH.disable()
        TRACE_HASH.reset()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)
    failures = 0
    for label, measure in measures():
        serial, serial_hash = hashed_run(measure, args.reps, 1)
        parallel, parallel_hash = hashed_run(measure, args.reps, args.jobs)
        streams = serial_hash["streams"]
        same_hash = bool(streams) and serial_hash == parallel_hash
        ok = (serial.raw == parallel.raw
              and serial.metrics == parallel.metrics and same_hash)
        print(f"{'OK  ' if ok else 'FAIL'} {label}: "
              f"{sum(len(v) for v in serial.raw.values())} raw values, "
              f"{len(streams)} trace-hash streams")
        if not ok:
            failures += 1
            for key in serial.raw:
                if serial.raw[key] != parallel.raw.get(key):
                    print(f"      {key}: serial={serial.raw[key]} "
                          f"parallel={parallel.raw.get(key)}",
                          file=sys.stderr)
            other = parallel_hash["streams"]
            for key in sorted(set(streams) | set(other)):
                if streams.get(key) != other.get(key):
                    print(f"      trace-hash stream {key} differs",
                          file=sys.stderr)
    if failures:
        print(f"{failures} measure(s) diverged", file=sys.stderr)
        return 1
    print(f"all measures identical at jobs={args.jobs} vs serial, "
          f"trace hashes included")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
