"""The benchmark's four workloads, as in-memory campaign specs.

Each workload is one :class:`repro.campaign.CampaignSpec` drained by
:func:`repro.campaign.run_campaign` under an explicit
:class:`repro.api.RunConfig` -- the path every ``repro figure``,
``repro fleet`` and ``repro campaign run`` command takes.

Inputs come from the benchmark seed.  The seed selects one of
:data:`VARIANTS` input variants (``seed % VARIANTS``); the output digest
of every variant is pinned in ``digests.json``, so every run is checked
byte for byte whatever seed it is given.  Variant 0 reproduces each
experiment's own default seeds.

``repro`` is imported lazily inside the functions, so the set-up timer
in :mod:`child` can start before the first ``repro`` import.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

#: Number of distinct input variants the seed selects from.
VARIANTS = 16

#: Figures of the paper's experiment 1 (guest performance).
GUEST_FIGURES = ("fig1", "fig2", "fig3", "fig4")
#: Figures of the paper's experiment 2 (host intrusiveness).
HOST_FIGURES = ("fig5", "fig6", "fig7", "fig8")
#: Each figure's own default ``base_seed`` (variant 0 keeps it).
FIGURE_SEEDS = {"fig1": 1, "fig2": 2, "fig3": 3, "fig4": 4,
                "fig5": 5, "fig6": 6, "fig7": 7, "fig8": 8}

FLEET_CLEAN = {"hosts": 100_000, "hypervisor": "vmplayer",
               "duration_s": 86400.0}
FLEET_STORM = {"hosts": 5_000, "hypervisor": "mixed", "duration_s": 86400.0,
               "checkpoint_interval_s": 1800.0, "degraded_threshold": 50}
STORM_FAULTS = ("seed={seed},server.outage=0.2,net.partition=0.1,"
                "vm.crash=0.05,host.dropout=0.02")
#: ``FleetConfig.seed`` of variant 0 (the config's own default).
FLEET_BASE_SEED = 42

WORKLOADS = ("guest_perf", "host_impact", "fleet_clean", "fleet_storm")

#: Modules each workload needs, imported during set-up (as a CLI call
#: would pay for them), so the timed region holds no first import.
IMPORTS = {
    "guest_perf": ("repro.api", "repro.campaign", "repro.core.figures",
                   "repro.fleet.cloop"),
    "host_impact": ("repro.api", "repro.campaign", "repro.core.figures",
                    "repro.fleet.cloop"),
    "fleet_clean": ("repro.api", "repro.campaign", "repro.fleet.server",
                    "repro.fleet.figures", "repro.fleet.cloop"),
    "fleet_storm": ("repro.api", "repro.campaign", "repro.fleet.server",
                    "repro.fleet.figures", "repro.fleet.cloop",
                    "repro.faults", "repro.obs.manifest"),
}


def variant_of(seed: int) -> int:
    """The input variant a benchmark seed selects."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed % VARIANTS


def fault_spec(workload: str, variant: int):
    """The fault plan of a workload (``None`` when it runs fault-free)."""
    if workload == "fleet_storm":
        return STORM_FAULTS.format(seed=variant)
    return None


def build_spec(workload: str, variant: int):
    """The campaign spec of ``workload`` for input ``variant``."""
    from repro.campaign import CampaignSpec, Scenario

    if workload in ("guest_perf", "host_impact"):
        figures = GUEST_FIGURES if workload == "guest_perf" else HOST_FIGURES
        # One scenario per figure, so each keeps its own base seed.
        scenarios = tuple(
            Scenario(kind="figure", figures=(fig,),
                     params=(("base_seed",
                              FIGURE_SEEDS[fig] + 100 * variant),))
            for fig in figures)
    elif workload in ("fleet_clean", "fleet_storm"):
        fields = dict(FLEET_CLEAN if workload == "fleet_clean"
                      else FLEET_STORM)
        fields["seed"] = FLEET_BASE_SEED + variant
        scenarios = (Scenario(kind="fleet",
                              params=tuple(sorted(fields.items()))),)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {list(WORKLOADS)}")
    return CampaignSpec(name=f"perfbench-{workload}", scenarios=scenarios)


def build_config(workload: str, variant: int, scratch: str):
    """The explicit run config: serial, uncached, files under ``scratch``.

    Never derived from the environment, so a stray ``REPRO_*`` variable
    cannot turn a run into a cache hit or move it to another path.
    """
    from repro.api import RunConfig

    return RunConfig(
        reps=1, jobs=1, cache=False,
        metrics=(workload == "fleet_storm"),
        runs_dir=f"{scratch}/runs", cache_dir=f"{scratch}/cache",
        fault_spec=fault_spec(workload, variant),
    )


def point_name(point: Any) -> str:
    """Stable short name of a planned point (figure id, or ``fleet``)."""
    params = point.params_dict
    return params["figure"] if point.kind == "figure" else point.kind


def digest(payload: Any) -> str:
    """sha256 of a point's canonical output (sorted-key JSON)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_points(results: List[Tuple[str, Any]],
                 pinned: Dict[str, str]) -> List[str]:
    """Names of the points whose output digest differs from ``pinned``.

    ``results`` holds ``(point name, payload)`` pairs.  A point with no
    pinned digest counts as a mismatch, as does a pinned point missing
    from the results.
    """
    bad = [name for name, payload in results
           if pinned.get(name) != digest(payload)]
    seen = {name for name, _ in results}
    bad += sorted(name for name in pinned if name not in seen)
    return bad


def simulated_counts(payloads: List[Any]) -> Dict[str, int]:
    """The fleet report counts that must repeat exactly across runs."""
    counts = {"fleet.server.workunits": 0, "fleet.server.replicas": 0,
              "fleet.server.validated": 0,
              "fleet.recovery.uploads_retried": 0,
              "fleet.recovery.uploads_lost": 0,
              "fleet.recovery.vm_crashes": 0,
              "fleet.recovery.degraded_validated": 0}
    for payload in payloads:
        if payload.get("schema", "").startswith("repro-fleet-report/"):
            counts["fleet.server.workunits"] += payload["workunits"]
            counts["fleet.server.replicas"] += payload["replicas_issued"]
            counts["fleet.server.validated"] += payload["valid"]
            recovery = payload.get("recovery", {})
            for key in ("uploads_retried", "uploads_lost", "vm_crashes",
                        "degraded_validated"):
                counts[f"fleet.recovery.{key}"] += int(recovery.get(key, 0))
    return counts
