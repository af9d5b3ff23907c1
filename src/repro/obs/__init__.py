"""repro.obs — observability: run metrics and per-run manifests.

:mod:`repro.obs.metrics` holds the process-global counter/gauge/timer
registry (:data:`~repro.obs.metrics.METRICS`) that every subsystem's
instrumentation sites feed; :mod:`repro.obs.manifest` turns a finished
run into a machine-readable JSON record under ``results/runs/``.

Metrics are off by default and cost one guarded branch per site when
disabled.  Enable them per run through
``repro.api.RunConfig(metrics=True)`` or ``repro figure ... --metrics``.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.obs.metrics": ("METRICS", "MetricsRegistry"),
    "repro.obs.manifest": (
        "DEFAULT_RUNS_DIR", "MANIFEST_SCHEMA", "list_manifests",
        "load_manifest", "new_run_id", "render_manifest", "validate_manifest",
        "write_manifest",
    ),
})

__all__ = [
    "DEFAULT_RUNS_DIR",
    "MANIFEST_SCHEMA",
    "METRICS",
    "MetricsRegistry",
    "list_manifests",
    "load_manifest",
    "new_run_id",
    "render_manifest",
    "validate_manifest",
    "write_manifest",
]
