"""Benchmark-suite plumbing.

Each ``bench_figN_*.py`` regenerates one of the paper's figures inside
``pytest-benchmark`` (so `pytest benchmarks/ --benchmark-only` both times
the harness and prints measured-vs-paper tables).  Repetition counts obey
``REPRO_REPS`` / ``REPRO_FULL`` / ``REPRO_FAST`` — the default is a small
count per figure so the whole suite completes in minutes; ``REPRO_FULL=1``
runs the paper's 50 repetitions.  The suite reads them once, at this
boundary, and activates the resulting :class:`repro.api.RunConfig` for
every benchmark.

Figures produced here are also dumped as JSON into ``results/`` so
EXPERIMENTS.md can be regenerated from the same artefacts.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro import api
from repro.core.figures import FigureData
from repro.core.report import ascii_bar_chart, figure_to_json

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(autouse=True, scope="session")
def _run_config():
    with api.activated(api.RunConfig.from_env()):
        yield


@pytest.fixture
def record_figure(capsys):
    """Print a figure's chart and persist it under results/."""

    def _record(fig: FigureData) -> FigureData:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{fig.fig_id}.json").write_text(figure_to_json(fig))
        with capsys.disabled():
            print()
            print(ascii_bar_chart(fig))
        return fig

    return _record
