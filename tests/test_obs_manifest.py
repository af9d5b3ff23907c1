"""Run-manifest schema, IO and rendering."""

import json

import pytest

from repro.errors import ExperimentError
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    list_manifests,
    load_manifest,
    new_run_id,
    render_manifest,
    validate_manifest,
    write_manifest,
)


def make_manifest(run_id="fig1-20260101-000000-abcd01", **overrides):
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "command": "figure:fig1",
        "created_unix": 1_700_000_000.0,
        "config": {"fast": True, "metrics": True},
        "versions": {"package": "1.0.0", "python": "3.11",
                     "source_fingerprint": "deadbeefdeadbeef"},
        "seeds": {"base_seed": 1},
        "phases": [{"name": "generate", "wall_s": 1.5}],
        "metrics": {"counters": {"engine.events_dispatched": 10.0},
                    "gauges": {}, "timers": {}},
        "cache": {"outcome": "miss", "hits": 0, "misses": 1},
    }
    manifest.update(overrides)
    return manifest


RECOVERY = {
    "outages": 2, "outage_s": 3600.0, "uploads_retried": 41,
    "uploads_lost": 1, "vm_crashes": 23, "rolled_back_s": 9000.0,
    "degraded_windows": 1, "degraded_s": 1800.0, "degraded_validated": 27,
}


class TestValidate:
    def test_valid_manifest_has_no_problems(self):
        assert validate_manifest(make_manifest()) == []

    def test_missing_field(self):
        manifest = make_manifest()
        del manifest["seeds"]
        assert any("seeds" in p for p in validate_manifest(manifest))

    def test_wrong_schema_string(self):
        problems = validate_manifest(make_manifest(schema="nope/9"))
        assert any("schema" in p for p in problems)

    def test_bad_phase_entries(self):
        problems = validate_manifest(
            make_manifest(phases=[{"name": "x"}]))
        assert any("phases[0]" in p for p in problems)
        problems = validate_manifest(
            make_manifest(phases=[{"name": "x", "wall_s": -1.0}]))
        assert any("duration" in p for p in problems)

    def test_missing_metrics_section(self):
        problems = validate_manifest(
            make_manifest(metrics={"counters": {}}))
        assert any("gauges" in p for p in problems)

    def test_bad_cache_outcome(self):
        problems = validate_manifest(
            make_manifest(cache={"outcome": "maybe"}))
        assert any("outcome" in p for p in problems)

    def test_mem_section_is_optional(self):
        assert validate_manifest(make_manifest()) == []
        good = make_manifest(mem={
            "counters": {"mem.ticks": 12, "mem.reclaim.pages": 300},
            "gauges": {"mem.committed_peak_bytes": 1.0e9}})
        assert validate_manifest(good) == []

    def test_bad_mem_section_flagged(self):
        problems = validate_manifest(make_manifest(mem=[1, 2]))
        assert any("mem is not a mapping" in p for p in problems)
        problems = validate_manifest(
            make_manifest(mem={"counters": {}}))
        assert any("mem.gauges" in p for p in problems)

    def test_recovery_section_is_optional(self):
        assert validate_manifest(make_manifest()) == []
        assert validate_manifest(
            make_manifest(recovery=RECOVERY)) == []

    def test_bad_recovery_section_flagged(self):
        problems = validate_manifest(make_manifest(recovery=[1]))
        assert any("recovery is not a mapping" in p for p in problems)
        short = dict(RECOVERY)
        del short["vm_crashes"]
        problems = validate_manifest(make_manifest(recovery=short))
        assert any("recovery.vm_crashes" in p for p in problems)
        bad = dict(RECOVERY, outage_s="long")
        problems = validate_manifest(make_manifest(recovery=bad))
        assert any("recovery.outage_s" in p for p in problems)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = write_manifest(manifest, tmp_path)
        assert path.name == f"{manifest['run_id']}.json"
        back = json.loads(path.read_text())
        assert back == manifest
        assert load_manifest(manifest["run_id"], runs_dir=tmp_path) == manifest

    def test_write_refuses_invalid(self, tmp_path):
        manifest = make_manifest()
        del manifest["phases"]
        with pytest.raises(ExperimentError, match="invalid run manifest"):
            write_manifest(manifest, tmp_path)

    def test_load_last_picks_newest(self, tmp_path):
        import os

        first = make_manifest("fig1-20260101-000000-aaaa01")
        second = make_manifest("fig2-20260101-000001-bbbb02")
        p1 = write_manifest(first, tmp_path)
        p2 = write_manifest(second, tmp_path)
        os.utime(p1, (1, 1))
        os.utime(p2, (2, 2))
        assert load_manifest("last", runs_dir=tmp_path)["run_id"] == \
            second["run_id"]
        assert [p.stem for p in list_manifests(tmp_path)] == \
            [first["run_id"], second["run_id"]]

    def test_load_by_unique_prefix(self, tmp_path):
        manifest = make_manifest("fig1-20260101-000000-aaaa01")
        write_manifest(manifest, tmp_path)
        write_manifest(make_manifest("fig2-20260101-000001-bbbb02"), tmp_path)
        assert load_manifest("fig1", runs_dir=tmp_path)["run_id"] == \
            manifest["run_id"]

    def test_ambiguous_prefix_rejected(self, tmp_path):
        write_manifest(make_manifest("fig1-20260101-000000-aaaa01"), tmp_path)
        write_manifest(make_manifest("fig1-20260101-000001-bbbb02"), tmp_path)
        with pytest.raises(ExperimentError, match="ambiguous"):
            load_manifest("fig1", runs_dir=tmp_path)

    def test_missing_manifest_guides_user(self, tmp_path):
        with pytest.raises(ExperimentError, match="repro figure"):
            load_manifest("last", runs_dir=tmp_path)
        with pytest.raises(ExperimentError, match="no run manifest"):
            load_manifest("nope", runs_dir=tmp_path)


class TestRunIdAndRender:
    def test_run_ids_are_unique_and_labelled(self):
        ids = {new_run_id("fig1") for _ in range(20)}
        assert len(ids) == 20
        assert all(i.startswith("fig1-") for i in ids)

    def test_render_mentions_key_facts(self):
        text = render_manifest(make_manifest())
        assert "figure:fig1" in text
        assert "engine.events_dispatched" in text
        assert "miss" in text
        assert "generate" in text

    def test_render_mem_line(self):
        text = render_manifest(make_manifest(mem={
            "counters": {"mem.ticks": 12, "mem.reclaim.pages": 300},
            "gauges": {"mem.committed_peak_bytes": 2.0 * 2 ** 30}}))
        assert "ticks=12" in text
        assert "reclaim-pages=300" in text
        assert "committed-peak=2048MB" in text
        # no mem section, no mem line
        assert "committed-peak" not in render_manifest(make_manifest())

    def test_render_faults_tallies_with_per_site_breakdown(self):
        manifest = make_manifest(
            faults={"spec": "seed=11,vm.crash=0.4", "total_injected": 23,
                    "retries": 2, "timeouts": 0, "dropped": [],
                    "injected": {"vm.crash": 23, "net.partition": 0}},
            metrics={"counters": {"parallel.payload_quarantined": 3},
                     "gauges": {}, "timers": {}})
        text = render_manifest(manifest)
        assert "injected=23" in text
        assert "quarantined=3" in text
        assert "vm.crash" in text          # fired sites are broken out
        assert "net.partition" not in text  # zero-count sites stay quiet

    def test_render_recovery_line(self):
        text = render_manifest(make_manifest(recovery=RECOVERY))
        assert "recovery outages=2 (1.0h down)" in text
        assert "uploads-retried=41" in text
        assert "vm-crashes=23" in text
        assert "rolled-back=2.5h" in text
        assert "degraded=1 window(s)/27 quorum-of-1" in text
        # no recovery section, no recovery line
        assert "rolled-back" not in render_manifest(make_manifest())
