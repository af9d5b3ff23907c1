"""Desktop-grid fleet: volunteers, churn, recovery, reassignment."""

import pytest

from repro.errors import ReproError
from repro.fleet import estimated_grid_efficiency
from repro.grid import DesktopGrid, VolunteerConfig
from repro.workloads.einstein import EinsteinWorkunit


def workunits(n, templates=10):
    return [
        EinsteinWorkunit(workunit_id=f"wu-{i}", n_templates=templates,
                         input_bytes=256 * 1024, output_bytes=32 * 1024)
        for i in range(n)
    ]


class TestConstruction:
    def test_needs_volunteers(self):
        with pytest.raises(ReproError):
            DesktopGrid([], workunits(1))

    def test_duplicate_names_rejected(self):
        configs = [VolunteerConfig(name="same"), VolunteerConfig(name="same")]
        with pytest.raises(ReproError):
            DesktopGrid(configs, workunits(1))

    def test_fleet_wired_to_switch(self):
        grid = DesktopGrid([VolunteerConfig(name=f"d{i}") for i in range(4)],
                           workunits(1))
        assert grid.switch.n_ports == 5  # 4 volunteers + server


class TestStableFleet:
    def test_all_work_completes(self):
        grid = DesktopGrid(
            [VolunteerConfig(name=f"d{i}", hypervisor=h)
             for i, h in enumerate(("vmplayer", "virtualbox"))],
            workunits(8, templates=5), seed=1,
        )
        report = grid.run(600.0)
        assert report.workunits_completed == 8
        assert report.workunits_pending == 0
        assert report.templates_done == 40
        assert report.crashes == 0 and report.templates_lost == 0

    def test_work_splits_across_volunteers(self):
        grid = DesktopGrid(
            [VolunteerConfig(name=f"d{i}") for i in range(3)],
            workunits(9, templates=5), seed=2,
        )
        report = grid.run(600.0)
        shares = [stats.workunits_done
                  for stats in report.per_volunteer.values()]
        assert sum(shares) == 9
        assert all(share >= 1 for share in shares)

    def test_report_summary_renders(self):
        grid = DesktopGrid([VolunteerConfig(name="solo")],
                           workunits(2, templates=3), seed=3)
        report = grid.run(300.0)
        text = report.summary()
        assert "workunits completed : 2" in text
        assert "solo" in text


class TestChurn:
    @pytest.fixture(scope="class")
    def churny_report(self):
        # ~40 s of compute per volunteer against a 30 s MTBF: several
        # crashes are certain, yet checkpoints keep losses small
        grid = DesktopGrid(
            [VolunteerConfig(name=f"d{i}", mtbf_s=30.0, downtime_s=10.0,
                             checkpoint_interval_s=8.0)
             for i in range(3)],
            workunits(9, templates=80), seed=11,
            reassign_timeout_s=150.0,
        )
        return grid.run(400.0)

    def test_crashes_happened(self, churny_report):
        assert churny_report.crashes > 0

    def test_work_still_completes(self, churny_report):
        assert churny_report.workunits_completed == 9

    def test_checkpoints_bound_the_loss(self, churny_report):
        # each crash loses at most ~one checkpoint interval of templates
        # (20s / ~0.16s-per-template ~ hard bound far above reality)
        assert churny_report.loss_fraction < 0.25

    def test_uptime_accounting(self, churny_report):
        for stats in churny_report.per_volunteer.values():
            assert stats.uptime_s > 0
            if stats.crashes:
                assert stats.downtime_s > 0


class TestReassignment:
    def test_dead_volunteer_work_is_reassigned(self):
        # one volunteer dies mid-workunit and stays down; the steady one
        # finishes everything once the deadline passes
        grid = DesktopGrid(
            [
                VolunteerConfig(name="dies", mtbf_s=10.0,
                                downtime_s=1e9),
                VolunteerConfig(name="steady"),
            ],
            workunits(4, templates=200), seed=7,
            reassign_timeout_s=60.0,
        )
        report = grid.run(400.0)
        assert report.workunits_completed == 4
        assert report.reassignments >= 1


class TestEfficiencyModel:
    def test_vmplayer_most_efficient(self):
        efficiencies = {h: estimated_grid_efficiency(h)
                        for h in ("vmplayer", "qemu", "virtualbox",
                                  "virtualpc")}
        assert max(efficiencies, key=efficiencies.get) == "vmplayer"
        assert all(0.0 < e < 1.0 for e in efficiencies.values())

    def test_qemu_pays_the_most(self):
        assert estimated_grid_efficiency("qemu") < \
            estimated_grid_efficiency("virtualpc")
