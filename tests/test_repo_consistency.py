"""Repository self-consistency: docs, registries and files agree."""

import pathlib
import re

import pytest

from repro.core.figures import FIGURES

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestFigureRegistry:
    def test_all_paper_figures_registered(self):
        for fig_id in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                       "fig7", "fig8"):
            assert fig_id in FIGURES

    def test_figure_ids_match_the_registry(self):
        from repro.core.figdata import FIGURE_IDS

        assert tuple(FIGURES) == FIGURE_IDS

    def test_registry_ids_match_factory_outputs(self):
        # cheap figures can be generated; the id embedded in the result
        # must match the registry key
        fig = FIGURES["mem"]()
        assert fig.fig_id == "mem"

    # figures whose benchmark lives in a shared file rather than a
    # bench_{fig_id}_*.py of its own
    SHARED_BENCHES = {
        "mem": "bench_mem_footprint.py",
        "multivm_intrusiveness": "bench_multi_vm.py",
        "balloon_storm": "bench_multi_vm.py",
        "overcommit_sweep": "bench_multi_vm.py",
        "fleet_outage": "bench_fleet_recovery.py",
        "fleet_checkpoint": "bench_fleet_recovery.py",
    }

    @pytest.mark.parametrize("fig_id", sorted(FIGURES))
    def test_each_core_figure_has_a_bench(self, fig_id):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        if fig_id in self.SHARED_BENCHES:
            assert self.SHARED_BENCHES[fig_id] in benches
        else:
            prefix = f"bench_{fig_id}_"
            assert any(name.startswith(prefix) for name in benches), fig_id


class TestDesignDoc:
    def test_design_references_existing_benches(self):
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), \
                match.group(1)

    def test_design_lists_every_subpackage(self):
        text = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for package in sorted(p.name for p in src.iterdir()
                              if p.is_dir() and (p / "__init__.py").exists()):
            assert f"repro.{package}" in text or f"{package}/" in text, package

    def test_experiments_doc_covers_all_figures(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for needle in ("Figure 1", "Figure 2", "Figure 3", "Figure 4",
                       "Figure 5", "Figure 6", "Figure 7", "Figure 8",
                       "§4.2.1"):
            assert needle in text, needle


class TestOneNativeModule:
    """The compiled code is one extension module: no ctypes binding in
    ``src/`` and no second build to keep in step with it."""

    def test_no_module_imports_ctypes(self):
        imports = re.compile(r"^\s*(import|from)\s+ctypes\b", re.MULTILINE)
        offenders = [str(path.relative_to(ROOT))
                     for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
                     if imports.search(path.read_text())]
        assert offenders == []

    def test_ckernel_has_one_compile_function(self):
        from repro import ckernel

        compilers = [name for name, value in vars(ckernel).items()
                     if name.lstrip("_").startswith("compile")
                     and callable(value)]
        assert compilers == ["compile_extension"]


class TestPackageSurface:
    def test_public_subpackages_importable(self):
        import importlib

        for name in ("simcore", "hardware", "osmodel", "virt", "workloads",
                     "core", "calibration", "grid", "fleet", "analysis"):
            module = importlib.import_module(f"repro.{name}")
            assert module.__doc__, f"repro.{name} lacks a docstring"

    def test_all_exports_resolve(self):
        import importlib

        for name in ("simcore", "hardware", "osmodel", "virt", "workloads",
                     "core", "calibration", "grid", "fleet", "analysis"):
            module = importlib.import_module(f"repro.{name}")
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"repro.{name}.{symbol}"

    LAZY = ("core", "virt", "hardware", "simcore", "osmodel", "audit",
            "workloads", "fleet", "calibration", "obs")

    @pytest.mark.parametrize("name", LAZY)
    def test_lazy_surface_lists_and_resolves_every_export(self, name):
        import importlib

        module = importlib.import_module(f"repro.{name}")
        listed = dir(module)
        for symbol in module.__all__:
            assert symbol in listed, f"repro.{name}.{symbol}"
            assert getattr(module, symbol) is not None
        with pytest.raises(AttributeError,
                           match=rf"^module 'repro\.{name}' has no "
                                 r"attribute 'no_such_name'$"):
            module.no_such_name

    def test_lazy_surface_sees_rebinding_and_restore(self, monkeypatch):
        import repro.fleet as fleet
        from repro.fleet import columns

        original = columns.build_fleet_columns
        assert fleet.build_fleet_columns is original

        def replacement(config):
            return None

        with monkeypatch.context() as patch:
            patch.setattr(columns, "build_fleet_columns", replacement)
            assert fleet.build_fleet_columns is replacement
        assert fleet.build_fleet_columns is original
        assert "build_fleet_columns" not in vars(fleet)

    def test_every_module_has_docstring(self):
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            text = path.read_text()
            if not text.strip():
                continue
            first = text.lstrip().splitlines()[0]
            assert first.startswith(('"""', 'r"""', '#!')), path
