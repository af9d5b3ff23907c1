"""Discrete-event simulation kernel.

Public surface:

* :class:`Engine` — the time-ordered callback loop,
* :class:`SimEvent`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` —
  waitable conditions,
* :class:`SimProcess`, :class:`Interrupted` — generator processes,
* :class:`Resource`, :class:`Mutex`, :class:`Store` — shared resources,
* :class:`RngStreams`, :func:`derive_rep_seed` — deterministic randomness,
* :class:`Tracer`, :class:`TraceRecord` — structured tracing.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "repro.simcore.engine": ("Engine",),
    "repro.simcore.events": (
        "AllOf", "AnyOf", "EventHandle", "SimEvent", "Timeout",
    ),
    "repro.simcore.process": ("Interrupted", "SimProcess"),
    "repro.simcore.resources": ("Mutex", "Request", "Resource", "Store"),
    "repro.simcore.rng": ("RngStreams", "derive_rep_seed"),
    "repro.simcore.trace": ("TraceRecord", "Tracer"),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "EventHandle",
    "Interrupted",
    "Mutex",
    "Request",
    "Resource",
    "RngStreams",
    "SimEvent",
    "SimProcess",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "derive_rep_seed",
]
