"""Simulator micro-benchmarks: event throughput of the substrate itself.

Not a paper figure — these keep the simulation kernel's performance
visible so harness slowdowns show up as regressions.  Six workloads,
one per layer:

* ``engine_throughput`` — a 20,000-event timer chain on a bare engine;
* ``scheduler_context_switch`` — six normal-priority threads on two
  cores, forcing quantum rotation;
* ``tcp_packet_rate`` — a 5 MB TCP transfer between two kernels (NIC,
  netstack, scheduler);
* ``vnic_packet_rate`` — a 5 MB TCP transfer from a guest through a
  bridged virtual NIC onto the wire to a LAN peer (the guest stack,
  one vNIC service process per frame, the host NIC; Fig 4's path),
  VM boot included;
* ``scheduler_decisions`` — two host compute threads next to an
  idle-priority vCPU and its elevated VMM service thread (the shape of
  the paper's Figs 5-8 host-impact runs): preemption, group preference
  and boosts on every few decisions; it reports decisions/s of the
  compiled crossings and decision pass;
* ``rng_first_draws`` — the first ``uniform`` of 2,048 fresh named
  streams (the host 7z's block jitters), scalar (one ``Generator`` per
  name) against bulk (``RngStreams.first_uniforms`` in the 7z's
  chunks); it reports draws/s for both.

Under pytest (``pytest benchmarks/bench_sim_engine.py``) each workload is
timed by pytest-benchmark.  Run as a script it appends one record —
best-of-N events/s per workload plus scheduler decisions/s and first
draws/s — to
``benchmarks/BENCH_sim_engine.json``::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py \
        [--reps 15] [--label TEXT] [--out PATH]

Decisions are read from the scheduler's own pass counter after an
untimed run (the simulation is deterministic, so the count is exact).
"""

import argparse
import json
import pathlib
import platform
import time

import pytest

from _bench_util import append_history, cpu_info

from repro.hardware.cpu import MIX_SEVENZIP, MIX_VMM_SERVICE
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.osmodel.kernel import Kernel
from repro.osmodel.scheduler import Scheduler
from repro.osmodel.threads import PRIORITY_HIGH, PRIORITY_IDLE, PRIORITY_NORMAL
from repro.simcore.engine import Engine
from repro.simcore.rng import RngStreams
from repro.workloads.sevenzip import (
    BLOCK_JITTER,
    JITTER_CHUNK,
    JITTER_CHUNK_MAX,
)

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / \
    "BENCH_sim_engine.json"


def engine_throughput():
    """20,000 chained timer events; returns the engine."""
    engine = Engine()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 20_000:
            engine.schedule(0.001, tick)

    engine.schedule(0.001, tick)
    engine.run()
    assert count[0] == 20_000
    return engine


def scheduler_context_switch():
    """Six threads oversubscribing two cores; returns the engine."""
    engine = Engine()
    machine = Machine(engine, core2duo_e6600("bench"), RngStreams(0))
    kernel = Kernel(engine, machine)
    events = []
    for index in range(6):  # oversubscribed: forces quantum rotation
        thread = kernel.spawn_thread(f"t{index}", PRIORITY_NORMAL)
        events.append(kernel.scheduler.submit(thread, 2.4e9, MIX_SEVENZIP))
    engine.run()
    assert all(ev.triggered for ev in events)
    return engine


def tcp_packet_rate():
    """A 5 MB TCP transfer between two kernels; returns the engine."""
    from repro.osmodel.kernel import ubuntu_params
    from repro.units import MB

    engine = Engine()
    a = Machine(engine, core2duo_e6600("a"), RngStreams(1))
    b = Machine(engine, core2duo_e6600("b"), RngStreams(2))
    a.nic.connect(b.nic)
    ka = Kernel(engine, a, ubuntu_params(), name="a")
    kb = Kernel(engine, b, ubuntu_params(), name="b")
    sender = ka.spawn_thread("tx", PRIORITY_NORMAL)
    receiver = kb.spawn_thread("rx", PRIORITY_NORMAL)
    queue = kb.net.listen(5001)

    def server():
        sock = yield queue.get()
        yield from sock.recv(receiver, 5 * MB)

    def client():
        sock = yield from ka.net.connect(sender, kb.net, 5001)
        yield from sock.send(sender, 5 * MB)

    engine.process(server(), "rx")
    proc = engine.process(client(), "tx")
    engine.run_until_event(proc)
    return engine


def vnic_packet_rate():
    """A 5 MB TCP transfer from a guest over its bridged vNIC to a LAN
    peer; returns the engine."""
    from repro.core.testbed import boot_vm, build_host_testbed
    from repro.units import MB
    from repro.virt.vm import VmConfig

    testbed = build_host_testbed(1, with_timeserver=False)
    engine, peer = testbed.engine, testbed.peer_kernel
    receiver = peer.spawn_thread("rx", PRIORITY_NORMAL)
    queue = peer.net.listen(5001)

    def server():
        sock = yield queue.get()
        yield from sock.recv(receiver, 5 * MB)

    def client():
        vm = yield from boot_vm(testbed, "vmplayer", VmConfig(
            priority=PRIORITY_NORMAL, net_mode="bridged"))
        sock = yield from vm.guest_net.connect(vm.vcpu.thread, peer.net,
                                               5001)
        yield from sock.send(vm.vcpu.thread, 5 * MB)

    engine.process(server(), "rx")
    proc = engine.process(client(), "tx")
    engine.run_until_event(proc)
    return engine


def scheduler_decisions(horizon_s: float = 5.0):
    """Host compute threads beside a VM's vCPU and service thread."""
    return _decision_world(horizon_s).engine


def _decision_world(horizon_s: float) -> Scheduler:
    """Run the ``scheduler_decisions`` world; returns its scheduler."""
    engine = Engine()
    machine = Machine(engine, core2duo_e6600("bench"), RngStreams(0))
    scheduler = Scheduler(engine, machine)

    def compute(thread, cycles):
        while True:
            yield scheduler.submit(thread, cycles, MIX_SEVENZIP)

    def service(thread):
        while True:
            yield engine.timeout(0.001)
            yield scheduler.submit(thread, 2.0e4, MIX_VMM_SERVICE)

    for index, cycles in enumerate((3.0e6, 5.0e6)):
        thread = scheduler.spawn(f"host{index}", PRIORITY_NORMAL)
        engine.process(compute(thread, cycles))
    vcpu = scheduler.spawn("vcpu", PRIORITY_IDLE, group="vm")
    engine.process(compute(vcpu, 1.0e6))
    vmm = scheduler.spawn("vmm", PRIORITY_HIGH, group="vm")
    engine.process(service(vmm))
    engine.run_until_event(engine.timeout(horizon_s))
    return scheduler


#: Fresh stream names per ``rng_first_draws`` run.
FIRST_DRAWS = 2048


def rng_first_draws(bulk: bool) -> list:
    """First draws of ``FIRST_DRAWS`` fresh 7z block-jitter streams, one
    ``uniform`` per name, bulk in the host 7z's chunks or name by name."""
    streams = RngStreams(0)
    names = [f"7zhost.jit.0.{b}" for b in range(FIRST_DRAWS)]
    if not bulk:
        return [streams.uniform(n, -BLOCK_JITTER, BLOCK_JITTER)
                for n in names]
    out, chunk = [], JITTER_CHUNK
    while len(out) < len(names):
        out += streams.first_uniforms(names[len(out):len(out) + chunk],
                                      -BLOCK_JITTER, BLOCK_JITTER)
        chunk = min(2 * chunk, JITTER_CHUNK_MAX)
    return out


WORKLOADS = {
    "engine_throughput": engine_throughput,
    "scheduler_context_switch": scheduler_context_switch,
    "tcp_packet_rate": tcp_packet_rate,
    "vnic_packet_rate": vnic_packet_rate,
    "scheduler_decisions": scheduler_decisions,
}


def count_decisions() -> int:
    """Decision passes (placements) of one ``scheduler_decisions`` run,
    as the scheduler counts them."""
    return _decision_world(5.0).decisions


def measure(reps: int) -> list:
    """Best-of-``reps`` wall and events/s of every workload.

    The workloads run round-robin, so a slow spell of a shared host hits
    all of them alike and ``engine_throughput`` stays a fair control for
    the layers above it; the fastest run of each is kept, the usual
    estimator for CPU-bound micro-benchmarks under outside noise.
    """
    walls = {name: [] for name in WORKLOADS}
    events = {}
    for _ in range(reps):
        for name, workload in WORKLOADS.items():
            started = time.perf_counter()
            engine = workload()
            walls[name].append(time.perf_counter() - started)
            events[name] = engine.events_processed
    runs = []
    for name in WORKLOADS:
        wall = min(walls[name])
        run = {"name": name, "events": events[name],
               "wall_s": round(wall, 4),
               "events_per_s": round(events[name] / wall, 1)}
        if name == "scheduler_decisions":
            run["decisions"] = count_decisions()
            run["decisions_per_s"] = round(run["decisions"] / wall, 1)
        runs.append(run)
        print(f"{name:26s} {events[name]:7d} events  {wall:7.4f} s  "
              f"{run['events_per_s']:10.1f} events/s"
              + (f"  {run['decisions_per_s']:10.1f} decisions/s"
                 if "decisions" in run else ""))
    # after the engine rounds, so the scalar path's 2,048 generators per
    # run do not share a round with the layers above
    draw_walls = {False: [], True: []}
    for _ in range(reps):
        for bulk in draw_walls:
            started = time.perf_counter()
            rng_first_draws(bulk)
            draw_walls[bulk].append(time.perf_counter() - started)
    scalar, bulk = min(draw_walls[False]), min(draw_walls[True])
    runs.append({"name": "rng_first_draws", "draws": FIRST_DRAWS,
                 "scalar_wall_s": round(scalar, 4),
                 "bulk_wall_s": round(bulk, 4),
                 "scalar_draws_per_s": round(FIRST_DRAWS / scalar, 1),
                 "bulk_draws_per_s": round(FIRST_DRAWS / bulk, 1)})
    print(f"{'rng_first_draws':26s} {FIRST_DRAWS:7d} draws   "
          f"{FIRST_DRAWS / scalar:10.1f} scalar/s  "
          f"{FIRST_DRAWS / bulk:10.1f} bulk/s")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=15,
                        help="timed runs per workload; the fastest is kept")
    parser.add_argument("--label", default="",
                        help="free text naming the measured source tree")
    parser.add_argument("--out", default=str(RESULTS_PATH),
                        help="JSON trajectory file to append to")
    args = parser.parse_args(argv)
    record = {
        "benchmark": "sim_engine",
        "label": args.label,
        "workload": "engine/scheduler/TCP/RNG micro-benches, "
                    f"best of {args.reps}",
        **cpu_info(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runs": measure(args.reps),
    }
    print("appended to", append_history(args.out, record))
    return 0


@pytest.mark.benchmark(group="simulator")
def test_engine_event_throughput(benchmark):
    assert benchmark(engine_throughput).events_processed == 20_000


@pytest.mark.benchmark(group="simulator")
def test_scheduler_context_switch_rate(benchmark):
    assert benchmark(scheduler_context_switch).events_processed > 0


@pytest.mark.benchmark(group="simulator")
def test_tcp_packet_rate(benchmark):
    assert benchmark(tcp_packet_rate).events_processed > 0


@pytest.mark.benchmark(group="simulator")
def test_vnic_packet_rate(benchmark):
    assert benchmark(vnic_packet_rate).events_processed > 0


@pytest.mark.benchmark(group="simulator")
def test_scheduler_decision_rate(benchmark):
    assert benchmark(scheduler_decisions).events_processed > 0


@pytest.mark.benchmark(group="simulator")
def test_rng_first_draws_bulk(benchmark):
    assert benchmark(rng_first_draws, True) == rng_first_draws(False)


def test_decision_count_is_deterministic():
    assert count_decisions() == count_decisions() > 1000


def test_decision_count_matches_the_trajectory():
    """The scheduler makes as many decision passes as the last recorded
    run counted: a speed-up must not change the work per run."""
    history = json.loads(RESULTS_PATH.read_text())
    last = next(run for run in history[-1]["runs"]
                if run["name"] == "scheduler_decisions")
    assert count_decisions() == last["decisions"]


if __name__ == "__main__":
    raise SystemExit(main())
