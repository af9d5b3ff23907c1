"""Shared helper for the benchmark files (kept out of conftest so the
module name stays import-unambiguous next to tests/conftest.py)."""

import json
import os
import pathlib

from repro.api import RunConfig, RunRequest, run
from repro.core.parallel import available_cpus


def cpu_info():
    """CPU fields every bench record should carry.

    ``cpu_count`` is the machine, ``cpu_affinity`` the schedulable set —
    in affinity-limited containers they differ, and worker-count policy
    follows the latter, so speedup numbers are only interpretable with
    both recorded.
    """
    return {"cpu_count": os.cpu_count(), "cpu_affinity": available_cpus()}


def append_history(path, record):
    """Append one bench record to a ``BENCH_*.json`` trajectory file.

    The file holds a JSON list, one record per invocation, so future
    PRs can diff throughput against earlier runs; an unreadable file
    restarts the history rather than failing the benchmark.
    """
    out = pathlib.Path(path)
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except ValueError:
            history = []
    history.append(record)
    out.write_text(json.dumps(history, indent=2) + "\n")
    return out


def once(benchmark, fn):
    """Run an expensive harness exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def figure_once(benchmark, fig_id, config=None, **kwargs):
    """Regenerate one registry figure exactly once under pytest-benchmark.

    Goes through :func:`repro.api.run` with the ambient environment
    folded into a :class:`RunConfig` at this boundary, so
    ``REPRO_CACHE=1`` lets the suite skip recomputing identical seeded
    runs (the recorded time then measures a cache hit — useful for
    re-rendering, not for profiling).
    """
    if config is None:
        config = RunConfig.from_env()
    use_cache = kwargs.pop("use_cache", None)
    if use_cache is not None:
        config = config.with_overrides(cache=use_cache)
    request = RunRequest(kind="figure", target=fig_id, config=config,
                         options=kwargs)
    result = benchmark.pedantic(lambda: run(request), rounds=1, iterations=1)
    return result.figure
