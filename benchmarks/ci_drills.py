"""CI drills: every smoke check the workflow runs, behind one driver.

Each drill is one CI matrix job (see ``DRILLS`` at the bottom).  A drill
stops at the first failed check and leaves its artefacts — manifests,
reports, bench trajectories, charts — under ``ci-out/<drill>/``.  The
shared checks:

* :func:`same_bytes` — two runs must print byte-identical output
  (serial vs ``--jobs``, warm cache, resumed, kernel vs the Python
  fleet, with vs without metrics);
* :func:`check_manifest` — the drill's newest run manifest must be
  schema-valid and pass per-section assertions;
* :func:`interrupt_then_resume` — a campaign killed after one point
  must finish under ``--resume`` with the uninterrupted run's bytes.

Usage::

    python benchmarks/ci_drills.py DRILL [DRILL ...]
    python benchmarks/ci_drills.py --list
"""

import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
PY = sys.executable
#: Wall-clock budget for 20k hosts x 24 h on a CI runner (local
#: hardware takes about 1 s).
FLEET_20K_BUDGET_S = 60.0

WORK = ROOT / "ci-out"   # set per drill by main()
_OUTPUTS = {}            # memoised stdout of reference commands


# -- commands -------------------------------------------------------------

def command(*argv, **env):
    """A hashable command: argv plus environment overrides."""
    return tuple(str(arg) for arg in argv), tuple(sorted(env.items()))


def repro(*args, **env):
    """``python -m repro ARGS`` with runs and cache kept in the drill dir."""
    env = {"REPRO_RUNS_DIR": str(WORK / "runs"),
           "REPRO_CACHE_DIR": str(WORK / "cache"), **env}
    return command(PY, "-m", "repro", *args, **env)


def bench(script, *args):
    return command(PY, ROOT / "benchmarks" / script, *args)


def _spawn(cmd, capture):
    argv, env = cmd
    print("$", " ".join(f"{k}={v}" for k, v in env), " ".join(argv),
          flush=True)
    pipe = subprocess.PIPE if capture else None
    proc = subprocess.run(
        argv, cwd=ROOT, stdout=pipe, stderr=pipe,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict(env)})
    if capture:
        sys.stderr.write(proc.stderr.decode())
    if proc.returncode:
        raise SystemExit(f"exit {proc.returncode}: {' '.join(argv)}")
    return proc


def run(cmd):
    """Run a command with output streamed; fail the drill on non-zero."""
    _spawn(cmd, capture=False)


def output(cmd):
    """Run a command and return its completed process (stdout, stderr)."""
    return _spawn(cmd, capture=True)


# -- shared checks --------------------------------------------------------

def _stdout(cmd):
    if callable(cmd):
        return cmd()
    if cmd not in _OUTPUTS:
        _OUTPUTS[cmd] = output(cmd).stdout
    return _OUTPUTS[cmd]


def same_bytes(cmd_a, cmd_b):
    """Both commands (or zero-argument callables returning bytes) must
    produce identical output.  Command output is memoised, so a reference
    run computes once per drill however many runs compare against it."""
    a, b = _stdout(cmd_a), _stdout(cmd_b)
    assert a == b, f"outputs differ:\n  {cmd_a}\n  {cmd_b}"
    print(f"byte-identical ({len(a)} bytes)")
    return a


def check_manifest(nth=-1, **asserts):
    """Validate the drill's ``nth`` manifest (oldest first; default the
    newest) and check named top-level sections: a callable is a predicate
    on the section, anything else must equal it.  Returns the manifest."""
    from repro.obs.manifest import (list_manifests, load_manifest,
                                    validate_manifest)

    runs = WORK / "runs"
    manifest = load_manifest(list_manifests(runs)[nth].stem, runs_dir=runs)
    problems = validate_manifest(manifest)
    assert not problems, problems
    for section, want in asserts.items():
        got = manifest[section]
        assert want(got) if callable(want) else got == want, \
            f"manifest {section}: {got!r}"
    print("manifest", manifest["run_id"], "valid;", ", ".join(asserts))
    return manifest


def campaign_run(spec, *flags):
    return repro("campaign", "run", spec, "--json", *flags, REPRO_CACHE="0")


def interrupt_then_resume(spec, point):
    """Simulate a campaign killed after point ``point`` (run it, mark the
    checkpoint, stop); ``--resume`` must then skip it and print exactly
    the serial run's bytes."""
    from repro.api import RunConfig
    from repro.campaign import (load_spec, plan_campaign, prepare_progress,
                                run_point)

    loaded = load_spec(spec)
    config = RunConfig(cache=False, runs_dir=str(WORK / "runs"))
    points = plan_campaign(loaded)
    progress, _ = prepare_progress(loaded, config)
    progress.mark(points[point].key, run_point(points[point], config).payload)
    print("interrupted after", points[point].label)
    resumed = output(campaign_run(spec, "--resume"))
    assert b"1 of 4 point(s) already complete" in resumed.stderr
    same_bytes(campaign_run(spec, "--jobs", 1), lambda: resumed.stdout)


def write_spec(name, scenario):
    path = WORK / f"{name}.json"
    path.write_text(json.dumps({"name": name, "scenarios": [scenario]}))
    return path


def figure_bytes(fig_id, jobs):
    """In-process FAST run of one figure, as canonical JSON bytes."""
    from repro.api import RunConfig, RunRequest, run as run_request

    result = run_request(RunRequest(
        kind="figure", target=fig_id,
        config=RunConfig(fast=True, jobs=jobs, cache=False)))
    return json.dumps(result.figure.to_dict(), sort_keys=True).encode()


def fleet_20k_bytes(jobs):
    """20k mixed hosts x 24 h through ``repro.api.run`` at ``jobs``, as
    canonical JSON bytes; the serial run must also finish inside the
    wall-clock budget."""
    from repro.api import RunConfig, RunRequest, run as run_request
    from repro.fleet import FleetConfig

    config = FleetConfig(hosts=20000, hypervisor="mixed", seed=42,
                         duration_s=86400.0)
    started = time.perf_counter()
    report = run_request(RunRequest(
        kind="fleet", target=config,
        config=RunConfig(jobs=jobs, cache=False))).report
    wall = time.perf_counter() - started
    print(f"20k hosts / 24 h at jobs={jobs}: {wall:.2f}s "
          f"({20000 / wall:,.0f} hosts/s), {report.valid} validated")
    if jobs == 1:
        assert wall < FLEET_20K_BUDGET_S, \
            f"20k-host run took {wall:.1f}s (budget {FLEET_20K_BUDGET_S}s)"
    return json.dumps(report.to_dict(), sort_keys=True).encode()


# -- drills ---------------------------------------------------------------

def tier1():
    """tier-1 tests (fast mode)"""
    run(command(PY, "-m", "pytest", "-x", "-q", REPRO_FAST="1"))


def parallel_equivalence():
    """serial vs parallel equivalence (results and trace hashes)"""
    run(bench("check_parallel_equivalence.py", "--jobs", 4))


def run_manifest():
    """metrics manifest (schema-valid artifact)"""
    run(repro("figure", "fig1", "--metrics", REPRO_FAST="1",
              REPRO_CACHE="0"))
    check_manifest(phases=bool, metrics=lambda m: m["counters"].get(
        "engine.events_dispatched", 0) > 0)


def chaos_smoke():
    """fault storm (byte-identical recovery)"""
    run(repro("chaos", "fig2", "--retries", 3, REPRO_FAST="1"))
    # two workers whatever the runner's size, under a fault seed whose
    # storm crashes a worker within REPRO_FAST's three repetitions: the
    # broken pool must not spend the retries of the repetitions it took
    # down with it
    run(repro("chaos", "fig2", "--retries", 3, "--jobs", 2,
              "--fault-seed", 92, REPRO_FAST="1"))
    # the in-process retry round must recover the storm too
    run(repro("chaos", "fig2", "--retries", 3, "--jobs", 1, REPRO_FAST="1"))
    # each chaos run writes two manifests: the storm pass, then the
    # cache re-read (which injects only if cache.corrupt hit the entry)
    check_manifest(-2, faults=lambda f: f["spec"] and f["total_injected"] > 0
                   and f["dropped"] == [])
    check_manifest(faults=lambda f: f["spec"] and f["dropped"] == [])


def parallel_speedup():
    """persistent pool speedup (multi-core)"""
    print("cpu_count", os.cpu_count(),
          "affinity", len(os.sched_getaffinity(0)))
    scaling = WORK / "parallel_scaling.json"
    run(bench("bench_parallel_scaling.py", "--out", scaling))
    record = json.loads(scaling.read_text())[-1]
    failures = [r for r in record["runs"] if not r["exact_match_vs_serial"]]
    assert not failures, failures
    print("all runs exactly match serial")
    lines = ["### Persistent pool speedup vs serial", "",
             f"cores: {record['cpu_affinity']} schedulable "
             f"of {record['cpu_count']}", "",
             "| workload | jobs | warm | cold pool | exact |",
             "| --- | --- | --- | --- | --- |"]
    lines += [f"| figure reps | {r['jobs']} | {r['speedup_vs_serial']:.2f}x "
              f"| {r['speedup_cold_vs_serial']:.2f}x "
              f"| {r['exact_match_vs_serial']} |"
              for r in record["runs"] if r["jobs"] != 1]
    summary = "\n".join(lines) + "\n"
    print(summary)
    if "GITHUB_STEP_SUMMARY" in os.environ:
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as out:
            out.write(summary)


def lint_audit():
    """determinism lint (repro lint) and the CLI's import profile"""
    run(repro("lint", "src/"))
    # -X importtime writes one line per imported module to stderr; the
    # last is the cumulative cost of `import repro.cli` itself
    profile = output(command(PY, "-X", "importtime", "-c",
                             "import repro.cli")).stderr
    (WORK / "importtime-repro-cli.txt").write_bytes(profile)
    print("import repro.cli:", profile.decode().strip().splitlines()[-1])


def audit_smoke():
    """trace-hash audit (serial vs parallel)"""
    # compute path, host-impact path (priority classes, boosts, group
    # preference), packet path (TCP stream through each virtual NIC) and
    # the host 7z, whose block jitters are drawn in bulk chunks
    for fig_id in ("fig1", "fig5", "fig4", "fig8"):
        run(repro("audit", fig_id, "--jobs", 4, REPRO_FAST="1"))
    # a tiny window makes some repetitions' results far larger than the
    # rest (82 KB seen); they must cross the pool's result pipe intact
    run(repro("audit", "fig1", "--jobs", 4, "--window", 0.0001,
              REPRO_FAST="1"))


def campaign_smoke():
    """campaign engine (equivalence + resume + manifest)"""
    spec = write_spec("ci-smoke", {
        "kind": "fleet",
        "grid": {"hypervisor": ["vmplayer", "qemu"], "hosts": [12, 24]},
        "params": {"duration_s": 3600.0, "seed": 3}})
    run(repro("campaign", "plan", spec))
    serial = campaign_run(spec, "--jobs", 1)
    same_bytes(serial, campaign_run(spec, "--jobs", 2))
    warm = repro("campaign", "run", spec, "--json", REPRO_CACHE="1")
    output(warm)  # cold: fills the drill's cache
    same_bytes(serial, warm)
    check_manifest(
        command="campaign:ci-smoke",
        campaign=lambda c: c["totals"]["points"] == 4
        and c["cache"]["hit_rate"] == 1.0
        and c["queue_latency_s"]["max"] >= c["queue_latency_s"]["mean"]
        >= 0.0)
    interrupt_then_resume(spec, 0)


def fleet_smoke():
    """fleet simulator (equivalence + manifest)"""
    def fleet(jobs):
        return repro("fleet", "--hosts", 120, "--hours", 6, "--seed", 42,
                     "--json", "--jobs", jobs, REPRO_CACHE="0")

    same_bytes(fleet(1), fleet(4))
    check_manifest(
        command=lambda c: c.startswith("fleet:"),
        fleet=lambda f: f["hosts"] == 120,
        metrics=lambda m: m["counters"].get("fleet.validated", 0) > 0)
    run(bench("bench_fleet_scaling.py", "--sizes", "100,250", "--hours", 6,
              "--out", WORK / "fleet_scaling.json"))


def python_fleet(*args, **env):
    """``repro ARGS`` with every fleet on the numpy column sampler and the
    Python event loop (``tests/_oracle_columns.py``), not the kernel."""
    argv, env = repro(*args, **env)
    code = ("import sys\n"
            "from tests._oracle_columns import use_python_fleet\n"
            "use_python_fleet()\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return (PY, "-c", code, *argv[3:]), env


def refuses_without_a_compiler():
    """``repro figure`` with no compiler on ``PATH`` and a cold build
    cache must exit non-zero and say what is missing."""
    bare = WORK / "no-compiler"
    for name in ("bin", "tmp"):
        (bare / name).mkdir(parents=True)
    argv, env = repro("figure", "fig1", REPRO_FAST="1", REPRO_CACHE="0",
                      PATH=str(bare / "bin"), TMPDIR=str(bare / "tmp"))
    print("$", " ".join(f"{k}={v}" for k, v in env), " ".join(argv),
          flush=True)
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict(env)})
    print(proc.stderr.strip(), flush=True)
    if proc.returncode == 0 or \
            "repro needs a C compiler and Python.h: no gcc or cc on PATH" \
            not in proc.stderr:
        raise SystemExit("a run without a compiler did not refuse cleanly")


def fleet_scale_smoke():
    """columnar fast path (20k hosts under budget)"""
    report = ("fleet", "--hosts", 2000, "--hypervisor", "mixed", "--seed", 42,
              "--hours", 6, "--json", "--jobs", 1, "--no-metrics")
    same_bytes(repro(*report, REPRO_CACHE="0"),
               python_fleet(*report, REPRO_CACHE="0"))
    refuses_without_a_compiler()
    run(bench("check_sanitized_kernel.py"))
    same_bytes(functools.partial(fleet_20k_bytes, 1),
               functools.partial(fleet_20k_bytes, 4))
    run(bench("bench_fleet_scaling.py", "--sizes", "1000,10000",
              "--out", WORK / "fleet_scale.json"))


def recovery_smoke():
    """failure & recovery (storm equivalence + manifest)"""
    storm = ("fleet", "--hosts", 80, "--hours", 8, "--seed", 42, "--faults",
             "seed=11,server.outage=0.35,net.partition=0.3,vm.crash=0.3",
             "--checkpoint-interval", 900, "--degraded", 4, "--json")
    serial = repro(*storm, "--jobs", 1, REPRO_CACHE="0")
    report = json.loads(same_bytes(
        serial, repro(*storm, "--jobs", 2, REPRO_CACHE="0")))
    check_manifest(
        recovery=lambda r: r == report["recovery"] and r["vm_crashes"] > 0
        and r["rolled_back_s"] > 0.0,
        faults=lambda f: f["total_injected"] > 0)
    # metrics are on by default; the same storm without them
    same_bytes(serial, repro(*storm, "--jobs", 1, "--no-metrics",
                             REPRO_CACHE="0"))
    same_bytes(functools.partial(figure_bytes, "fleet_outage", 1),
               functools.partial(figure_bytes, "fleet_outage", 2))
    charts = WORK / "charts"
    run(repro("figure", "fleet_outage", "fleet_checkpoint", "--svg", charts,
              REPRO_FAST="1", REPRO_CACHE="0"))
    for name in ("fleet_outage", "fleet_checkpoint"):
        assert (charts / f"{name}.svg").stat().st_size > 0, name
    spec = write_spec("ci-chaos", {
        "kind": "fleet",
        "faults": ["", "seed=11,net.partition=0.5,vm.crash=0.3"],
        "grid": {"checkpoint_interval_s": [0.0, 900.0]},
        "params": {"hosts": 24, "duration_s": 7200.0, "seed": 3,
                   "degraded_threshold": 2}})
    interrupt_then_resume(spec, 2)


def multivm_smoke():
    """multi-VM memory (mem manifest + equivalence)"""
    run(repro("figure", "multivm_intrusiveness", "--jobs", 2, "--metrics",
              REPRO_FAST="1", REPRO_CACHE="0"))
    check_manifest(mem=lambda m: m["counters"].get("mem.ticks", 0) > 0
                   and m["gauges"].get("mem.committed_peak_bytes", 0) > 0)
    same_bytes(functools.partial(figure_bytes, "multivm_intrusiveness", 1),
               functools.partial(figure_bytes, "multivm_intrusiveness", 2))
    run(repro("audit", "multivm_intrusiveness", "--jobs", 2, REPRO_FAST="1"))


DRILLS = {fn.__name__.replace("_", "-"): fn for fn in (
    tier1, parallel_equivalence, run_manifest, chaos_smoke, parallel_speedup,
    lint_audit, audit_smoke, campaign_smoke, fleet_smoke, fleet_scale_smoke,
    recovery_smoke, multivm_smoke)}


def main(argv):
    global WORK
    if argv == ["--list"]:
        for name, fn in DRILLS.items():
            print(f"{name:22s} {fn.__doc__}")
        return 0
    unknown = [name for name in argv if name not in DRILLS]
    if not argv or unknown:
        print(f"usage: ci_drills.py DRILL... | --list "
              f"(unknown: {unknown})", file=sys.stderr)
        return 2
    for name in argv:
        WORK = ROOT / "ci-out" / name
        shutil.rmtree(WORK, ignore_errors=True)
        (WORK / "runs").mkdir(parents=True)
        _OUTPUTS.clear()
        print(f"== drill {name}: {DRILLS[name].__doc__}", flush=True)
        DRILLS[name]()
        print(f"== drill {name} passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
