"""Seed-deterministic fault plans and the process-global injector.

A :class:`FaultPlan` owns its **own** randomness: every injection
decision is a pure function of ``(fault seed, site, key, attempt)``
hashed through SHA-256 — no shared RNG state at all.  That buys two
guarantees the chaos tests lean on:

* **reproducibility** — the same fault seed replays the exact same fault
  sequence, independent of timing, worker count or call order;
* **independence** — fault draws never touch the experiment RNG streams
  (:mod:`repro.simcore.rng`), so arming a site cannot perturb what a
  simulation *measures*; a fault-injected run that recovers is
  byte-identical to a fault-free run.

Injection sites are registered by dotted name in :data:`SITES` with a
firing mode:

* ``transient`` sites (``measure.transient``, ``worker.hang``,
  ``checkpoint.lost``) fire **at most once per key** — the
  raise-once-then-succeed contract that makes bounded retry converge;
* ``each`` sites (``worker.crash``, ``cache.corrupt``, ``host.dropout``,
  ``mem.pressure_spike``, ``server.outage``, ``net.partition``,
  ``vm.crash``) draw independently on every attempt.
  ``host.dropout``, ``mem.pressure_spike`` and the three fleet recovery
  sites change results *by design* (hosts vanish, guest demand spikes,
  the scheduler goes down, uploads drop, guests roll back to their last
  checkpoint); the result cache keeps such runs distinct via
  :meth:`FaultInjector.cache_token`.  The recovery sites
  (:mod:`repro.fleet.recovery`) key their draws on stable simulation
  identifiers — outage slot index, replica id, upload attempt — so the
  schedule is a pure function of the fault seed, independent of worker
  count and event interleaving.

The module-level :data:`FAULTS` injector follows the same guard contract
as :data:`repro.obs.metrics.METRICS`: a disabled site costs one
attribute read and a branch (``if FAULTS.enabled:``), nothing else.
Persistent pool workers (:mod:`repro.core.workerpool`) do **not** rely
on fork-time inheritance: every task spec carries the active plan as
``FaultPlan.to_dict()`` and the worker re-arms via
:meth:`FaultPlan.from_dict` before running the task, so a plan activated
*after* the pool was forked still injects inside worker bodies.  Worker
tallies travel home as the RUNLOG snapshot in each :class:`WorkerResult`
and the parent folds them in with :meth:`RunLog.merge`.
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import METRICS

#: Firing modes.
TRANSIENT = "transient"
EACH = "each"

#: Every registered injection site and its firing mode.
SITES: Dict[str, str] = {
    "worker.crash": EACH,          # repro.core.parallel worker bodies
    "worker.hang": TRANSIENT,      # repro.core.parallel worker bodies
    "measure.transient": TRANSIENT,  # around the measurement function
    "cache.corrupt": EACH,         # repro.core.cache.ResultCache.put
    "checkpoint.lost": TRANSIENT,  # repro.virt.checkpoint.restore_checkpoint
    "host.dropout": EACH,          # repro.fleet.server.FleetServer.run
    "mem.pressure_spike": EACH,    # repro.virt.memory.MultiVmHost host tick
    "server.outage": EACH,         # repro.fleet.recovery.outage_windows
    "net.partition": EACH,         # repro.fleet.server upload attempts
    "vm.crash": EACH,              # repro.fleet.server replica dispatch
}

#: Default sleep for an injected ``worker.hang`` (kept short so a
#: timed-out worker drains quickly).
DEFAULT_HANG_S = 1.0


class InjectedFault(ReproError):
    """Raised at an armed injection site; always retriable by design."""


def draw_affixes(seed: int, site: str, attempt: int,
                 salt: str = "") -> Tuple[bytes, bytes]:
    """The payload bytes before and after the key in a :func:`_draw`.

    The one definition of the draw format: ``_draw`` hashes
    ``prefix + f"{key}" + suffix``, and the compiled batch
    (:func:`repro.fleet.cloop.draw_uniforms`) formats integer keys
    between the same two byte strings.
    """
    return (f"{seed}|{site}|".encode("utf-8"),
            f"|{attempt}|{salt}".encode("utf-8"))


def _draw(seed: int, site: str, key: Any, attempt: int,
          salt: str = "") -> float:
    """Uniform [0, 1) from the (seed, site, key, attempt[, salt]) tuple."""
    prefix, suffix = draw_affixes(seed, site, attempt, salt)
    payload = prefix + f"{key}".encode("utf-8") + suffix
    word = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    return word / 2.0 ** 64


class FaultPlan:
    """Named injection sites armed with probabilities off one fault seed."""

    def __init__(self, seed: int = 0, hang_s: float = DEFAULT_HANG_S):
        self.seed = int(seed)
        self.hang_s = float(hang_s)
        self.arms: Dict[str, float] = {}
        #: per-(site, key) attempt counters for sites that count their own
        #: attempts (process-local; explicit ``attempt=`` bypasses these)
        self._counts: Dict[Any, int] = {}
        #: injections observed by *this* process (workers keep their own
        #: tallies; the merged view travels via the METRICS snapshot)
        self.injected: Dict[str, int] = {}

    def arm(self, site: str, probability: float) -> "FaultPlan":
        """Arm ``site`` to fire with ``probability`` per decision."""
        if site not in SITES:
            raise ReproError(
                f"unknown injection site {site!r}; known sites: "
                f"{sorted(SITES)}"
            )
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ReproError(
                f"fault probability for {site} must be in [0, 1], "
                f"got {probability}"
            )
        self.arms[site] = probability
        return self

    # -- decisions -------------------------------------------------------

    def would_fire(self, site: str, key: Any = "", attempt: int = 0) -> bool:
        """Pure decision check: no tallies, no counters touched.

        For sites that must decide before the process dies (an injected
        ``worker.crash`` cannot report itself) and for parent-side
        reconstruction of those decisions.
        """
        probability = self.arms.get(site, 0.0)
        if probability <= 0.0:
            return False
        if SITES[site] == TRANSIENT and attempt > 0:
            return False  # raise-once-then-succeed
        return _draw(self.seed, site, key, attempt) < probability

    def fires(self, site: str, key: Any = "", attempt: Optional[int] = None
              ) -> bool:
        """Whether ``site`` injects for ``key`` on ``attempt`` (tallied).

        ``attempt=None`` counts attempts internally per (site, key);
        resilient callers that re-run work pass the retry round
        explicitly so the decision is process-independent.
        """
        if attempt is None:
            counter_key = (site, str(key))
            attempt = self._counts.get(counter_key, 0)
            self._counts[counter_key] = attempt + 1
        if not self.would_fire(site, key, attempt):
            return False
        self.record(site)
        return True

    def record(self, site: str) -> None:
        """Tally one injection for ``site`` (plan, RUNLOG and METRICS).

        The RUNLOG tally is what survives the trip home from a pool
        worker even when the metrics registry is disabled, so manifest
        injection counts never depend on ``--metrics``.
        """
        self.injected[site] = self.injected.get(site, 0) + 1
        RUNLOG.injected[site] = RUNLOG.injected.get(site, 0) + 1
        if METRICS.enabled:
            METRICS.inc("faults.injected")
            METRICS.inc(f"faults.injected.{site}")

    def uniform(self, site: str, key: Any, salt: str = "u") -> float:
        """Deterministic [0, 1) auxiliary draw for an armed site (e.g.
        where in the horizon a ``host.dropout`` lands)."""
        return _draw(self.seed, site, key, 0, salt)

    # -- serialisation ---------------------------------------------------

    def canonical_spec(self) -> str:
        """Normalised spec string (stable cache-identity token)."""
        parts = [f"seed={self.seed}"]
        if self.hang_s != DEFAULT_HANG_S:
            parts.append(f"hang_s={self.hang_s:g}")
        parts += [f"{site}={self.arms[site]:g}"
                  for site in sorted(self.arms)]
        return ",".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "hang_s": self.hang_s,
            "arms": dict(sorted(self.arms.items())),
            "injected": dict(sorted(self.injected.items())),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (the TaskSpec wire
        form).  ``injected`` tallies are observations of a *past*
        process, not configuration, so they are deliberately dropped —
        the rebuilt plan starts with fresh counters."""
        plan = cls(seed=payload.get("seed", 0),
                   hang_s=payload.get("hang_s", DEFAULT_HANG_S))
        for site, probability in payload.get("arms", {}).items():
            plan.arm(site, probability)
        return plan


def parse_fault_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a ``key=value,...`` spec string.

    Keys are ``seed`` (fault seed, int), ``hang_s`` (injected hang sleep,
    float seconds) and any site name from :data:`SITES` with a firing
    probability, e.g.::

        seed=7,worker.crash=0.2,measure.transient=0.35,cache.corrupt=0.5
    """
    seed = 0
    hang_s = DEFAULT_HANG_S
    arms: Dict[str, float] = {}
    if not spec or not spec.strip():
        raise ReproError("empty fault spec; expected key=value[,key=value...]")
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, raw = item.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not sep or not raw:
            raise ReproError(f"malformed fault spec item {item!r}; "
                             "expected key=value")
        try:
            if name == "seed":
                seed = int(raw)
            elif name == "hang_s":
                hang_s = float(raw)
            elif name in SITES:
                arms[name] = float(raw)
            else:
                raise ReproError(
                    f"unknown fault spec key {name!r}; known: seed, "
                    f"hang_s, {', '.join(sorted(SITES))}"
                )
        except ValueError:
            raise ReproError(
                f"bad value {raw!r} for fault spec key {name!r}"
            ) from None
    plan = FaultPlan(seed=seed, hang_s=hang_s)
    for site, probability in arms.items():
        plan.arm(site, probability)
    return plan


class FaultInjector:
    """Process-global holder of the active plan (METRICS-style guard)."""

    __slots__ = ("enabled", "plan")

    def __init__(self):
        self.enabled = False
        self.plan: Optional[FaultPlan] = None

    def activate(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.enabled = bool(plan.arms)

    def deactivate(self) -> None:
        self.plan = None
        self.enabled = False

    # Delegates (call only behind an ``if FAULTS.enabled:`` guard).

    def fires(self, site: str, key: Any = "",
              attempt: Optional[int] = None) -> bool:
        return self.plan is not None and self.plan.fires(site, key, attempt)

    def would_fire(self, site: str, key: Any = "", attempt: int = 0) -> bool:
        return self.plan is not None and \
            self.plan.would_fire(site, key, attempt)

    def record(self, site: str) -> None:
        if self.plan is not None:
            self.plan.record(site)

    def raise_if(self, site: str, key: Any = "",
                 attempt: Optional[int] = None) -> None:
        """Raise :class:`InjectedFault` when ``site`` fires."""
        if self.fires(site, key, attempt):
            raise InjectedFault(
                f"injected {site} (fault_seed={self.plan.seed}, "
                f"key={key!r}, attempt={attempt})"
            )

    def uniform(self, site: str, key: Any, salt: str = "u") -> float:
        assert self.plan is not None
        return self.plan.uniform(site, key, salt)

    @property
    def hang_s(self) -> float:
        return self.plan.hang_s if self.plan is not None else DEFAULT_HANG_S

    def cache_token(self) -> Optional[str]:
        """Cache-identity token for the active plan (None when disabled),
        so fault-injected results never collide with fault-free entries."""
        if not self.enabled or self.plan is None:
            return None
        return self.plan.canonical_spec()


#: The process-global injector every site consults (disabled by default).
FAULTS = FaultInjector()


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Activate ``plan`` for the dynamic extent of the block.

    Worker processes forked inside the block inherit the activation.
    Nested activations restore the previous plan on exit.
    """
    previous, was_enabled = FAULTS.plan, FAULTS.enabled
    FAULTS.activate(plan)
    try:
        yield plan
    finally:
        FAULTS.plan = previous
        FAULTS.enabled = was_enabled


class RunLog:
    """Parent-side resilience incidents for the current run.

    The conduit between the execution layer and the run manifest:
    :class:`repro.core.experiment.Repeater` records dropped
    repetitions, retries and timeouts here; :func:`repro.api.run`
    clears it per run and folds it into the manifest's ``faults``
    section.  Only the parent process writes to it.
    """

    def __init__(self):
        self.dropped: list = []   # {"repetition", "seed", "error"} dicts
        self.retries = 0
        self.timeouts = 0
        #: per-site injection tallies folded in from worker RUNLOG
        #: snapshots (and recorded directly by in-process injections)
        self.injected: Dict[str, int] = {}
        self._held = False

    def clear(self) -> None:
        if self._held:
            return  # a campaign drain owns the window; per-run clears no-op
        self.dropped.clear()
        self.retries = 0
        self.timeouts = 0
        self.injected.clear()

    @contextlib.contextmanager
    def held(self):
        """Keep one incident window open across nested runs.

        The campaign scheduler clears once, then holds: the per-run
        ``clear()`` inside :func:`repro.api.run`'s executors becomes a
        no-op so incidents aggregate across every point of the
        campaign.  Worker-side logs are unaffected (each worker process
        has its own RUNLOG instance)."""
        previous = self._held
        self._held = True
        try:
            yield self
        finally:
            self._held = previous

    def snapshot(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "dropped": list(self.dropped),
            "injected": dict(sorted(self.injected.items())),
        }

    def merge(self, snap: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's RUNLOG snapshot (from a ``WorkerResult``)
        into this parent-side log; counts add, dropped lists extend."""
        if not snap:
            return
        self.retries += int(snap.get("retries", 0))
        self.timeouts += int(snap.get("timeouts", 0))
        self.dropped.extend(snap.get("dropped", ()))
        for site, count in snap.get("injected", {}).items():
            self.injected[site] = self.injected.get(site, 0) + int(count)


#: The process-global run log (cleared per repro.api.run and chaos run).
RUNLOG = RunLog()
