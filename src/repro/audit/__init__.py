"""Determinism audit layer: static lint + runtime divergence bisector.

Two enforcement mechanisms for the repo's byte-identical-replay
contract, one static and one dynamic:

* :mod:`repro.audit.rules` / :mod:`repro.audit.linter` — an AST lint
  (``repro lint``) banning the coding patterns that break deterministic
  replay: host-clock reads, global RNG use, scattered ``os.environ``
  reads, unordered iteration, and order-sensitive float reductions.
* :mod:`repro.audit.tracehash` / :mod:`repro.audit.bisect` — rolling
  SHA-256 trace-hash checkpoints emitted by the engine per simulated
  window (``TRACE_HASH``, off by default under the Tracer/METRICS guard
  contract) and the ``repro audit`` drill that compares serial vs
  ``--jobs N`` vs seed-replay runs and bisects a mismatch to the first
  diverging window.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.audit.bisect": (
        "AuditComparison", "AuditReport", "StreamDivergence", "audit_figure",
        "compare_snapshots", "first_divergence", "format_event_diff",
    ),
    "repro.audit.linter": (
        "LINT_BASELINE_SCHEMA", "LintReport", "format_report",
        "iter_python_files", "lint_paths", "list_rules", "load_baseline",
        "write_baseline",
    ),
    "repro.audit.rules": (
        "RULES", "Rule", "Violation", "check_source", "module_rel_path",
    ),
    "repro.audit.tracehash": (
        "DEFAULT_WINDOW_S", "TRACE_HASH", "TRACE_HASH_SCHEMA", "StreamHash",
        "TraceHashRecorder",
    ),
})

__all__ = [
    "AuditComparison",
    "AuditReport",
    "DEFAULT_WINDOW_S",
    "LINT_BASELINE_SCHEMA",
    "LintReport",
    "RULES",
    "Rule",
    "StreamDivergence",
    "StreamHash",
    "TRACE_HASH",
    "TRACE_HASH_SCHEMA",
    "TraceHashRecorder",
    "Violation",
    "audit_figure",
    "check_source",
    "compare_snapshots",
    "first_divergence",
    "format_event_diff",
    "format_report",
    "iter_python_files",
    "lint_paths",
    "list_rules",
    "load_baseline",
    "module_rel_path",
    "write_baseline",
]
