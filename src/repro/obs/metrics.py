"""Run-metrics registry: counters, gauges and timers for the whole stack.

Instrumentation sites live on hot paths (the event loop, the scheduler's
placement routine, every disk/NIC request), so the registry follows the
same guard contract as :class:`repro.simcore.trace.Tracer`:

* the **only** cost at a disabled site is one attribute read and a branch
  (``if METRICS.enabled:``); no kwargs are built, no strings formatted;
* sites on the very hottest loop (``Engine.run``) hoist the flag into a
  local before the loop and accumulate into plain locals, folding into
  the registry once per ``run()`` call.

Three instrument kinds, all addressed by dotted string name:

* **counter** — monotone float total (``inc``);
* **gauge** — last/max observed value (``gauge_set`` / ``gauge_max``);
* **timer** — count/total/min/max aggregate of observed durations or
  sizes (``observe``; a histogram-lite that keeps the manifest small);
* **hist** — power-of-two bucketed counts (``hist``) for values whose
  *distribution* matters (fleet makespans, queue depths); buckets are
  labelled by their upper bound so snapshots merge by simple addition.

The module-level :data:`METRICS` registry is process-global and disabled
by default; :func:`repro.api.run` enables it for metrics-enabled
runs.  Persistent pool workers (:mod:`repro.core.workerpool`) re-arm
their process-private registry per task from the spec's shipped context
(fork-time inheritance is not relied on — the pool outlives any one
run's enablement), reset it, and ship a snapshot back in their
``WorkerResult``, which the parent merges — so per-subsystem
counters survive ``--jobs N`` fan-out.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple


def _hist_bucket_key(item: Tuple[str, float]) -> float:
    """Numeric sort key for a bucket label (``underflow`` sorts first)."""
    label = item[0]
    if label == "underflow":
        return float("-inf")
    try:
        return float(label[3:])
    except ValueError:
        return float("inf")


class MetricsRegistry:
    """Named counters/gauges/timers behind a single ``enabled`` flag.

    ``inc``/``observe``/``gauge_*`` early-return when disabled (second
    line of defence — guarded call sites never reach them).
    """

    __slots__ = ("enabled", "counters", "gauges", "timers", "hists")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self.timers: Dict[str, list] = {}
        # name -> {bucket_upper_bound_label: count}
        self.hists: Dict[str, Dict[str, float]] = {}

    # -- lifecycle -------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.timers.clear()
        self.hists.clear()

    # -- instruments -----------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (creates at 0)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the maximum value ever seen for gauge ``name``."""
        if not self.enabled:
            return
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into timer ``name`` (count/total/min/max)."""
        if not self.enabled:
            return
        agg = self.timers.get(name)
        if agg is None:
            self.timers[name] = [1, float(value), float(value), float(value)]
        else:
            agg[0] += 1
            agg[1] += value
            if value < agg[2]:
                agg[2] = value
            if value > agg[3]:
                agg[3] = value

    def hist(self, name: str, value: float) -> None:
        """Count ``value`` into the power-of-two bucket of hist ``name``.

        Buckets are keyed ``le_<upper>`` where ``upper`` is the smallest
        power of two >= ``value``; exact zeros land in ``le_0`` and
        negative values in ``underflow`` (a negative observation almost
        always means a measurement bug — e.g. a non-monotonic clock —
        and must not hide among legitimate zeros).  Snapshots merge by
        adding matching bucket counts, so pre-split snapshots (which
        simply have no ``underflow`` key) still merge cleanly.
        """
        if not self.enabled:
            return
        if value < 0.0:
            label = "underflow"
        elif value == 0.0:
            label = "le_0"
        else:
            upper = 2.0 ** math.ceil(math.log2(value))
            label = f"le_{upper:g}"
        buckets = self.hists.setdefault(name, {})
        buckets[label] = buckets.get(label, 0.0) + 1.0

    # -- reading ---------------------------------------------------------

    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def gauge(self, name: str, default: Optional[float] = None
              ) -> Optional[float]:
        return self.gauges.get(name, default)

    def timer(self, name: str) -> Optional[Dict[str, float]]:
        agg = self.timers.get(name)
        if agg is None:
            return None
        count, total, lo, hi = agg
        return {"count": count, "total": total, "min": lo, "max": hi,
                "mean": total / count if count else 0.0}

    def hist_buckets(self, name: str) -> Dict[str, float]:
        """Bucket label -> count for hist ``name`` (empty if unknown),
        sorted by numeric upper bound."""
        buckets = self.hists.get(name, {})
        return dict(sorted(buckets.items(), key=_hist_bucket_key))

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self.counters.items()))

    # -- snapshot / merge (parallel workers, manifests) ------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of every instrument, sorted for stable diffs."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": {name: self.timer(name)
                       for name in sorted(self.timers)},
            "hists": {name: self.hist_buckets(name)
                      for name in sorted(self.hists)},
        }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters add, gauges keep the max, timers combine."""
        if not self.enabled:
            return
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            self.gauge_max(name, value)
        for name, agg in snap.get("timers", {}).items():
            if agg is None:
                continue
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = [agg["count"], agg["total"],
                                     agg["min"], agg["max"]]
            else:
                mine[0] += agg["count"]
                mine[1] += agg["total"]
                mine[2] = min(mine[2], agg["min"])
                mine[3] = max(mine[3], agg["max"])
        for name, buckets in snap.get("hists", {}).items():
            mine_h = self.hists.setdefault(name, {})
            for label, count in buckets.items():
                mine_h[label] = mine_h.get(label, 0.0) + count


#: The process-global registry every instrumentation site consults.
METRICS = MetricsRegistry(enabled=False)
