"""Exception hierarchy for the repro package.

Every subsystem raises exceptions rooted at :class:`ReproError` so callers
can catch simulator faults without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency (e.g. an event
    scheduled in the past, or a process resumed twice)."""


class SchedulerError(ReproError):
    """The OS scheduler model was driven into an invalid state."""


class FileSystemError(ReproError):
    """Filesystem-level failure (missing file, bad offset, disk full)."""


class NetworkError(ReproError):
    """Network-stack failure (closed socket, unreachable host)."""


class VirtualizationError(ReproError):
    """Hypervisor/VM lifecycle failure (bad config, double boot, ...)."""


class CheckpointError(VirtualizationError):
    """VM checkpoint save/restore failure."""


class WorkloadError(ReproError):
    """A benchmark workload was mis-configured or failed validation."""


class ExperimentError(ReproError):
    """The experiment harness was mis-configured."""


class CalibrationError(ReproError):
    """Calibration targets/parameters are inconsistent."""


class NativeBuildError(ReproError):
    """The compiled kernels cannot be built or loaded: no C compiler, no
    ``Python.h``, or a failed build or load (see :mod:`repro.ckernel`)."""
