"""One benchmark process: warm up, time set-up, measure, or pin digests.

``run.py`` starts this file in a fresh interpreter with ``REPRO_*``
stripped from the environment and ``TMPDIR`` inside the checkout::

    python3 perfbench/child.py warmup  WORKLOAD SCRATCH
    python3 perfbench/child.py setup   WORKLOAD SEED SCRATCH
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE SCRATCH
    python3 perfbench/child.py digest  WORKLOAD VARIANT SCRATCH

The last line of standard output is one JSON object.
"""

import time

# The set-up clock starts before anything else is imported.
_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import heapq  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import specs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Whether tracing must leave the workload on the compiled fleet kernel.
KERNEL_EXPECTED = {"fleet_clean": True, "fleet_storm": False}

#: Median seconds :func:`probe` took on the reference machine (2 shared
#: x86-64 cores, CPython 3.11).  End-to-end timings are reported as
#: ``measured * PROBE_REF_S / probe``: reference-machine seconds, with
#: the speed the host lends this process at the moment of measurement
#: divided out.  On shared cores that speed swings by up to 30% within
#: seconds; rescaled, the run-to-run spread drops ~2x.
PROBE_REF_S = 0.045


def probe():
    """Seconds a fixed computation takes now: the median of five runs
    of an interpreter loop, a heap of small objects and a NumPy pass
    (the kinds of work the workloads do), none of it ``repro``.

    Always called with no campaign result alive, after a full
    collection and with the collector paused, so neither a change to
    the program's heap or GC behaviour nor the timing of a collection
    moves the probe.
    """
    import numpy as np

    gc.collect()
    gc.disable()
    try:
        return statistics.median(_probe_once(np) for _ in range(5))
    finally:
        gc.enable()


def _probe_once(np):
    started = time.perf_counter()
    table, acc = {}, 0
    for i in range(150_000):
        table[i & 1023] = acc
        acc += (i * 7) % 13
    heap = []
    for i in range(10_000):
        heapq.heappush(heap, (i * 7919 % 10007, i, {"i": i}))
    while heap:
        heapq.heappop(heap)
    arr = np.arange(250_000, dtype=np.float64)  # small: no RSS peak
    for _ in range(20):
        arr = arr * 1.0000001 + 1.0
    return time.perf_counter() - started


def normalized(seconds, probe_s):
    """``seconds`` rescaled to the reference machine's speed."""
    return seconds * PROBE_REF_S / probe_s


def setup(workload, variant, scratch):
    """What every CLI call pays before running: imports, the kernel
    load, the spec and the run config."""
    for module in specs.IMPORTS[workload]:
        importlib.import_module(module)
    from repro.fleet import cloop

    available = cloop.available()
    spec = specs.build_spec(workload, variant)
    config = specs.build_config(workload, variant, scratch)
    return spec, config, available


def _kernels():
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      "repro_cloop_*.so")))


def warmup(workload, scratch):
    """Compile the fleet kernel (cached by source hash) and the bytecode
    before any timed sample; report the host the run measures on."""
    before = _kernels()
    _, _, available = setup(workload, 0, scratch)
    if not available:
        kernel = "unavailable"
    elif _kernels() - before:
        kernel = "compiled"
    else:
        kernel = "reused"
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _bench_util import cpu_info

    return {"kernel": kernel, "cloop_available": available,
            "python": platform.python_version(),
            "platform": platform.platform(), **cpu_info()}


def _pinned(workload, variant):
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(str(variant), {})


def _run_once(spec, config, tracer=None):
    """One ``run_campaign`` call: ``(host seconds, result)``.

    Point spans come from the campaign's own hooks when traced.
    """
    from repro.campaign import run_campaign

    open_spans = {}
    on_start = on_result = None
    if tracer is not None:
        def on_start(point):
            open_spans[point.key] = tracer.begin(
                f"campaign.point.{specs.point_name(point)}")

        def on_result(item):
            if item.point.key in open_spans:
                tracer.end(open_spans.pop(item.point.key))

    gc.collect()
    started = time.perf_counter()
    result = run_campaign(spec, config, command="perfbench",
                          on_start=on_start, on_result=on_result)
    return time.perf_counter() - started, result


def _outcome(result, pinned):
    """Failed point names and the simulated counts of one campaign."""
    from repro.faults import RUNLOG

    pairs = [(specs.point_name(item.point), item.payload)
             for item in result.points]
    failures = specs.check_points(pairs, pinned)
    counts = specs.simulated_counts([payload for _, payload in pairs])
    counts["faults.injected"] = sum(
        RUNLOG.snapshot()["injected"].values())
    return failures, counts


def measure(workload, seed, seconds, trace, scratch):
    """Run the workload's campaign repeatedly for ``seconds``.

    Every campaign is timed between two speed probes and rescaled by
    their mean; each campaign's result is checked and dropped before
    the probe after it.  Traced: untraced and traced campaigns
    alternate; the per-layer numbers come from the traced ones and
    ``trace.overhead_s`` from the difference of the rescaled medians.
    """
    from repro.campaign import plan_campaign

    variant = specs.variant_of(seed)
    spec, config, available = setup(workload, variant, scratch)
    pinned = _pinned(workload, variant)
    names = [specs.point_name(point) for point in plan_campaign(spec)]
    walls, scaled, traced_scaled, layers, tracers = [], [], [], [], []
    attempted = failed = 0
    problems = []
    reference_counts = peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    probe_s = probe()
    while True:
        for traced in ((False, True) if trace else (False,)):
            tracer = tracing.Tracer() if traced else None
            attempted += len(names)
            try:
                with (tracing.installed(tracer) if traced
                      else contextlib.nullcontext()):
                    wall, result = _run_once(spec, config, tracer)
            except Exception:  # a point raised: report it, keep going
                traceback.print_exc(file=sys.stderr)
                failed += len(names)
                problems.append("campaign raised"
                                + (" (traced)" if traced else ""))
                probe_s = probe()
                continue
            bad, counts = _outcome(result, pinned)
            del result
            probe_after = probe()
            wall_scaled = normalized(wall, (probe_s + probe_after) / 2)
            probe_s = probe_after
            if reference_counts is None:
                reference_counts = counts
            elif counts != reference_counts:
                bad = bad or list(names)
                problems.append(f"simulated counts changed: {counts} "
                                f"!= {reference_counts}")
            if not traced:
                if not walls:
                    # As one CLI call would see it: later samples in
                    # this process must not move the high-water mark.
                    peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                walls.append(wall)
                scaled.append(wall_scaled)
            else:
                values = tracing.layer_values(tracer, wall)
                values.update(counts)
                values["fleet.cloop.available"] = int(available)
                expect = KERNEL_EXPECTED.get(workload)
                on_kernel = values["fleet.cloop.loop_s"] > 0
                if expect is not None and on_kernel != (expect
                                                        and available):
                    bad = bad or list(names)
                    problems.append(f"traced run on_kernel={on_kernel}")
                traced_scaled.append(wall_scaled)
                layers.append(values)
                tracers.append(tracer.to_dict())
            failed += len(bad)
            if bad:
                problems.append(f"failed points: {bad}")
        if time.perf_counter() >= deadline:
            break
    out = {"walls": walls, "norm_walls": scaled,
           "attempted": attempted, "failed": failed, "problems": problems,
           "points": names, "peak_rss_mb": peak_rss_mb}
    if trace and layers and walls:
        # median_low: a value some traced run produced (counts stay ints)
        merged = {name: statistics.median_low(run[name] for run in layers)
                  for name in layers[0]}
        merged["trace.overhead_s"] = (statistics.median(traced_scaled)
                                      - statistics.median(scaled))
        out["layers"] = merged
        trace_dir = Path(scratch).parent / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "runs": tracers}))
    return out


def digests(workload, variant, scratch):
    """Output digest of every point of one campaign (for ``--pin``)."""
    spec, config, _ = setup(workload, variant, scratch)
    _, result = _run_once(spec, config)
    return {specs.point_name(item.point): specs.digest(item.payload)
            for item in result.points}


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "warmup":
        out = warmup(workload, argv[2])
    elif mode == "setup":
        setup(workload, specs.variant_of(int(argv[2])), argv[3])
        setup_s = time.perf_counter() - _T0
        probe_s = probe()
        out = {"setup_s": setup_s, "probe_s": probe_s,
               "norm_setup_s": normalized(setup_s, probe_s)}
    elif mode == "measure":
        out = measure(workload, int(argv[2]), float(argv[3]),
                      argv[4] == "1", argv[5])
    elif mode == "digest":
        out = digests(workload, int(argv[2]), argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
