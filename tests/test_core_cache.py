"""Result cache: keys, round-trips, invalidation, figure integration."""

import json

import pytest

from repro import api
from repro.core.cache import ResultCache, cache_enabled, source_fingerprint
from repro.core.figures import (
    FigureData,
    MeasuredPoint,
    generate_figure,
)
from repro.core.report import figure_to_json


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


def _toggle(env, default):
    with api.activated(api.RunConfig.from_env(env)):
        return cache_enabled(default=default)


class TestToggle:
    def test_unset_uses_default(self):
        assert _toggle({}, default=True) is True
        assert _toggle({}, default=False) is False

    def test_falsey_values_disable(self):
        for value in ("0", "false", "off", "no", ""):
            assert _toggle({"REPRO_CACHE": value}, default=True) is False

    def test_truthy_values_enable(self):
        assert _toggle({"REPRO_CACHE": "1"}, default=False) is True


class TestStore:
    def test_miss_then_hit(self, cache):
        key = cache.key("figure:fig1", {"kwargs": {}})
        assert cache.get(key) is None
        cache.put(key, {"answer": 42}, experiment="figure:fig1")
        assert cache.get(key) == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_key_changes_with_params(self, cache):
        a = cache.key("figure:fig1", {"kwargs": {"base_seed": 1}})
        b = cache.key("figure:fig1", {"kwargs": {"base_seed": 2}})
        c = cache.key("figure:fig2", {"kwargs": {"base_seed": 1}})
        assert len({a, b, c}) == 3

    def test_source_fingerprint_in_key_is_stable(self, cache):
        assert source_fingerprint() == source_fingerprint()
        a = cache.key("x", {})
        assert a == cache.key("x", {})

    def test_stats_and_clear(self, cache):
        for index in range(3):
            cache.put(cache.key("exp", {"i": index}), {"i": index})
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_corrupt_entry_is_a_miss(self, cache):
        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        path = cache.root / f"{key}.json"
        path.write_text("{not json")
        assert cache.get(key) is None


class TestQuarantine:
    def test_corruption_counted_distinctly_from_misses(self, cache):
        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert cache.corrupt == 1 and cache.misses == 0

    def test_corrupt_entry_moved_aside_then_clean_miss(self, cache):
        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None
        assert (cache.root / f"{key}.corrupt").exists()
        assert not (cache.root / f"{key}.json").exists()
        assert cache.get(key) is None  # evidence moved: ordinary miss now
        assert cache.corrupt == 1 and cache.misses == 1

    def test_non_object_envelope_is_corruption(self, cache):
        key = cache.key("exp", {})
        cache.root.mkdir(parents=True)
        (cache.root / f"{key}.json").write_text("[1, 2, 3]")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_quarantine_feeds_metrics_counter(self, cache):
        from repro.obs.metrics import METRICS

        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.json").write_text("{not json")
        METRICS.enable()
        try:
            assert cache.get(key) is None
            assert METRICS.counter("cache.corrupt") == 1
        finally:
            METRICS.disable()
            METRICS.reset()

    def test_injected_corruption_quarantines_on_read(self, cache):
        from repro.faults import FaultPlan, injected

        key = cache.key("exp", {})
        with injected(FaultPlan(seed=1).arm("cache.corrupt", 1.0)):
            cache.put(key, {"ok": True})  # truncated write
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert (cache.root / f"{key}.corrupt").exists()


class TestSweep:
    def test_sweep_removes_dead_writer_temps(self, cache):
        cache.put(cache.key("exp", {}), {"ok": True})
        # a writer that died mid-put: certainly-dead pid
        orphan = cache.root / "deadbeef.tmp.999999999"
        orphan.write_text("{partial")
        assert cache.stats()["tmp_files"] == 1
        assert cache.sweep() == 1
        assert not orphan.exists()
        assert cache.stats()["entries"] == 1  # real entries untouched

    def test_sweep_keeps_own_inflight_temp(self, cache):
        import os

        cache.root.mkdir(parents=True)
        mine = cache.root / f"abc123.tmp.{os.getpid()}"
        mine.write_text("{inflight")
        assert cache.sweep() == 0
        assert mine.exists()

    def test_sweep_removes_unparsable_pid_temps(self, cache):
        cache.root.mkdir(parents=True)
        junk = cache.root / "abc123.tmp.notapid"
        junk.write_text("{junk")
        assert cache.sweep() == 1

    def test_clear_also_removes_temps_and_quarantined(self, cache):
        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.json").write_text("{not json")
        cache.get(key)  # quarantines to .corrupt
        (cache.root / "dead.tmp.999999999").write_text("{partial")
        assert cache.clear() == 0  # no .json entries left
        assert list(cache.root.iterdir()) == []

    def test_stats_report_corrupt_and_tmp_files(self, cache):
        key = cache.key("exp", {})
        cache.put(key, {"ok": True})
        (cache.root / f"{key}.json").write_text("{not json")
        cache.get(key)
        (cache.root / "dead.tmp.999999999").write_text("{partial")
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["corrupt_files"] == 1
        assert stats["tmp_files"] == 1
        assert stats["entries"] == 0


class TestFigurePayloadRoundTrip:
    def _figure(self):
        fig = FigureData(fig_id="figx", title="t", unit="u", notes="n",
                         paper={"qemu": 1.25, "native": 1.0})
        fig.series["native"] = MeasuredPoint(1.0, 0.0)
        fig.series["qemu"] = MeasuredPoint(1.2345678901234567, 0.0321)
        return fig

    def test_round_trip_preserves_everything(self):
        fig = self._figure()
        back = FigureData.from_dict(fig.to_dict())
        assert back.fig_id == fig.fig_id
        assert back.series == fig.series
        assert back.paper == fig.paper
        assert list(back.series) == list(fig.series)  # ordering too

    def test_round_trip_through_json_is_byte_identical(self):
        fig = self._figure()
        payload = json.loads(json.dumps(fig.to_dict()))
        back = FigureData.from_dict(payload)
        assert figure_to_json(back) == figure_to_json(fig)


class TestGenerateFigureIntegration:
    # Library callers pass policy by activating a RunConfig.

    def test_warm_cache_skips_recompute_and_is_byte_identical(
            self, tmp_path, monkeypatch):
        config = api.RunConfig(reps=1, cache_dir=str(tmp_path / "cache"))
        with api.activated(config):
            cold = generate_figure("fig2", use_cache=True, size=64)
            # poison the factory: a true cache hit must not call it
            monkeypatch.setitem(
                __import__("repro.core.figures",
                           fromlist=["FIGURES"]).FIGURES,
                "fig2",
                lambda **kwargs: (_ for _ in ()).throw(
                    AssertionError("recomputed")),
            )
            warm = generate_figure("fig2", use_cache=True, size=64)
        assert figure_to_json(warm) == figure_to_json(cold)
        assert list(warm.series) == list(cold.series)

    def test_cache_off_by_default_for_library_callers(self, tmp_path):
        config = api.RunConfig(reps=1, cache_dir=str(tmp_path / "cache"))
        with api.activated(config):
            generate_figure("mem")
        assert not (tmp_path / "cache").exists()

    def test_reps_env_is_part_of_identity(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        for reps in ("1", "2"):
            config = api.RunConfig.from_env(
                {"REPRO_REPS": reps, "REPRO_CACHE_DIR": cache_dir})
            with api.activated(config):
                generate_figure("mem", use_cache=True)
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 2
