"""Fleet-scale desktop-grid simulation (``repro.fleet``).

Scales the paper's single-desktop calibration (Figures 1-8) up to a
whole volunteer project: a BOINC-style work-unit server (dispatch,
deadlines, retry/backoff, quorum-of-2 validation with erroneous-result
injection) driving thousands of churny volunteer hosts, each carrying a
per-hypervisor slowdown derived from the calibrated guest-performance
and host-intrusiveness results.

Layout:

* :mod:`~repro.fleet.calibration` — hypervisor aliases and the
  figures-to-fleet slowdown reduction;
* :mod:`~repro.fleet.config` — :class:`FleetConfig`, the validated
  value object every run is a pure function of;
* :mod:`~repro.fleet.churn` — per-host availability traces
  (on/off sessions, permanent departure);
* :mod:`~repro.fleet.host` — deterministic per-host sampling, the
  object form of one volunteer;
* :mod:`~repro.fleet.columns` — the same hosts as flat columnar
  arrays (CSR session traces), built in one serial call; every run
  simulates on these;
* :mod:`~repro.fleet.fastrng` / :mod:`~repro.fleet.cloop` — the
  vectorised PCG64 uniforms and the compiled kernels (host-column
  sampler and event loop) behind the columnar fast path;
* :mod:`~repro.fleet.validation` — the quorum validator;
* :mod:`~repro.fleet.recovery` — the failure & recovery layer
  (server outages, upload retry/loss, checkpoint rollback,
  degraded-mode policy);
* :mod:`~repro.fleet.server` — the discrete-event server loop and
  :class:`FleetReport`;
* :mod:`~repro.fleet.figures` — fleet-level figures registered in
  :data:`repro.core.figures.FIGURES`.

Entry points: :func:`repro.api.run` with a ``fleet`` request (cache +
manifest + metrics) and the ``repro fleet`` CLI subcommand.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.fleet.calibration": (
        "HYPERVISOR_ALIASES", "MIXED_FLEET", "estimated_grid_efficiency",
        "fleet_slowdown", "fleet_slowdowns", "memory_slowdown_factor",
        "resolve_hypervisor",
    ),
    "repro.fleet.churn": (
        "ChurnModel", "active_seconds", "availability_trace", "finish_time",
    ),
    "repro.fleet.columns": ("FleetColumns", "build_fleet_columns"),
    "repro.fleet.config": ("FleetConfig",),
    "repro.fleet.host": ("FleetHost", "build_fleet_hosts", "sample_host"),
    "repro.fleet.recovery": (
        "RecoveryPolicy", "checkpoint_cost_s", "outage_windows",
        "rollback_seconds",
    ),
    "repro.fleet.server": ("FleetReport", "FleetServer", "simulate_fleet"),
    "repro.fleet.validation": (
        "CANONICAL_KEY", "QuorumValidator", "erroneous_key",
    ),
    "repro.fleet.figures": (
        "fleet_checkpoint_figure", "fleet_makespan_figure",
        "fleet_outage_figure", "fleet_scale_figure", "fleet_waste_figure",
        "report_figure",
    ),
})

__all__ = [
    "CANONICAL_KEY",
    "ChurnModel",
    "FleetColumns",
    "FleetConfig",
    "FleetHost",
    "FleetReport",
    "FleetServer",
    "HYPERVISOR_ALIASES",
    "MIXED_FLEET",
    "QuorumValidator",
    "RecoveryPolicy",
    "active_seconds",
    "availability_trace",
    "build_fleet_columns",
    "build_fleet_hosts",
    "checkpoint_cost_s",
    "erroneous_key",
    "estimated_grid_efficiency",
    "finish_time",
    "fleet_checkpoint_figure",
    "fleet_makespan_figure",
    "fleet_outage_figure",
    "fleet_scale_figure",
    "fleet_slowdown",
    "fleet_slowdowns",
    "fleet_waste_figure",
    "memory_slowdown_factor",
    "outage_windows",
    "report_figure",
    "resolve_hypervisor",
    "rollback_seconds",
    "sample_host",
    "simulate_fleet",
]
