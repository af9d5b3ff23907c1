"""Tests of the benchmark's own logic, on small fleets.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402

SMALL_CLEAN = {"hosts": 300, "hypervisor": "vmplayer", "duration_s": 21600.0}
SMALL_STORM = dict(specs.FLEET_STORM, hosts=200, duration_s=21600.0)


@pytest.fixture
def small_fleets(monkeypatch):
    monkeypatch.setattr(specs, "FLEET_CLEAN", SMALL_CLEAN)
    monkeypatch.setattr(specs, "FLEET_STORM", SMALL_STORM)


def _kernel_available():
    from repro.fleet import cloop

    return cloop.available()


def test_check_points_flags_mismatch_and_missing_points():
    payload = {"b": [1, 2.5], "a": "x"}
    pinned = {"fig1": specs.digest(payload)}
    assert specs.check_points([("fig1", payload)], pinned) == []
    assert specs.check_points([("fig1", dict(payload, a="y"))],
                              pinned) == ["fig1"]
    assert specs.check_points([], pinned) == ["fig1"]
    assert specs.check_points([("fig2", payload)], pinned) == [
        "fig2", "fig1"]


def test_digest_mismatch_counts_as_failure(small_fleets, tmp_path,
                                           monkeypatch):
    scratch = str(tmp_path / "run")
    good = child.digests("fleet_clean", 0, scratch)
    monkeypatch.setattr(child, "_pinned", lambda workload, variant: good)
    ok = child.measure("fleet_clean", 0, 0.0, False, scratch)
    assert ok["attempted"] == 1 and ok["failed"] == 0

    wrong = {name: "0" * 64 for name in good}
    monkeypatch.setattr(child, "_pinned", lambda workload, variant: wrong)
    bad = child.measure("fleet_clean", 0, 0.0, False, scratch)
    assert bad["attempted"] == 1 and bad["failed"] == 1
    assert bad["problems"] == ["failed points: ['fleet']"]


def _bindings():
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    for module in tracing.PRELOAD:
        __import__(module)
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(module_name, attr)] = value
    for module, cls, method, *_ in (tracing.TIMED_METHODS
                                    + tracing.COUNTED_METHODS):
        owner = getattr(sys.modules[module], cls)
        out[(owner, method)] = owner.__dict__[method]
    engine = sys.modules["repro.simcore.engine"].Engine
    for method in tracing.ENGINE_METHODS:
        out[(engine, method)] = engine.__dict__[method]
    return out


def _current(key):
    owner, name = key
    if isinstance(owner, str):
        return vars(sys.modules[owner])[name]
    return owner.__dict__[name]


def test_wrappers_restore_the_original_functions():
    before = _bindings()
    server = sys.modules["repro.fleet.server"]
    original_loop = server._c_event_loop
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert server._c_event_loop is not original_loop
            assert server.build_fleet_columns.__wrapped__ is \
                sys.modules["repro.fleet.columns"].build_fleet_columns \
                .__wrapped__
            raise RuntimeError("leave the block early")
    changed = [key for key, value in before.items()
               if _current(key) is not value]
    assert changed == []
    assert server._c_event_loop is original_loop


def test_tracing_keeps_fleet_clean_on_the_kernel(small_fleets, tmp_path,
                                                 monkeypatch):
    if not _kernel_available():
        pytest.skip("no C compiler: the fleet kernel is unavailable")
    from repro.obs.metrics import METRICS

    monkeypatch.setattr(child, "_pinned", lambda workload, variant: {})
    spec = specs.build_spec("fleet_clean", 0)
    config = specs.build_config("fleet_clean", 0, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert not METRICS.enabled
        wall, _ = child._run_once(spec, config, tracer)
    values = tracing.layer_values(tracer, wall)
    assert values["fleet.cloop.loop_s"] > 0
    assert values["fleet.columns.build_s"] > 0
    assert values["fleet.host.build_s"] == 0
    assert 0 < values["fleet.server.prep_report_s"] \
        < values["fleet.server.run_s"]
    assert values["core.experiment.reps"] == 0


def test_traced_storm_stays_off_the_kernel(small_fleets, tmp_path):
    spec = specs.build_spec("fleet_storm", 1)
    config = specs.build_config("fleet_storm", 1, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wall, result = child._run_once(spec, config, tracer)
    values = tracing.layer_values(tracer, wall)
    assert values["fleet.cloop.loop_s"] == 0
    assert values["fleet.host.build_s"] > 0
    assert values["obs.manifest.write_s"] > 0
    assert result.manifest_path is not None
    assert result.manifest_path.startswith(str(tmp_path))


@pytest.mark.parametrize("workload, expected", [
    ("guest_perf", ["fig1", "fig2", "fig3", "fig4"]),
    ("host_impact", ["fig5", "fig6", "fig7", "fig8"]),
    ("fleet_clean", ["fleet"]),
    ("fleet_storm", ["fleet"]),
])
def test_each_workload_plans_the_expected_points(workload, expected):
    from repro.campaign import plan_campaign

    points = plan_campaign(specs.build_spec(workload, 0))
    assert [specs.point_name(point) for point in points] == expected
    other = plan_campaign(specs.build_spec(workload, 5))
    assert {p.key for p in points}.isdisjoint(p.key for p in other)


def test_variant_zero_keeps_each_experiments_default_seeds():
    from repro.campaign import plan_campaign
    from repro.fleet import FleetConfig

    for point in plan_campaign(specs.build_spec("host_impact", 0)):
        params = point.params_dict
        assert params["base_seed"] == int(params["figure"][3:])
    fleet = plan_campaign(specs.build_spec("fleet_clean", 0))[0]
    assert fleet.params_dict["seed"] == FleetConfig().seed
    assert specs.fault_spec("fleet_storm", 3).startswith("seed=3,")
    assert specs.fault_spec("fleet_clean", 3) is None


def test_seed_selects_a_pinned_variant():
    assert specs.variant_of(0) == 0
    assert specs.variant_of(specs.VARIANTS + 3) == 3
    with pytest.raises(ValueError):
        specs.variant_of(-1)


def test_run_config_is_explicit(tmp_path):
    config = specs.build_config("guest_perf", 0, str(tmp_path))
    assert (config.reps, config.jobs, config.cache) == (1, 1, False)
    assert config.env_sources == ()
    assert config.runs_dir.startswith(str(tmp_path))
    assert config.cache_dir.startswith(str(tmp_path))


def test_benchmark_json_lists_every_reported_metric():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    import run

    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS)
