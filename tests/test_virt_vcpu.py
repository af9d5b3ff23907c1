"""vCPU translation model."""

import pytest

from repro.errors import VirtualizationError
from repro.hardware.cpu import MIX_KERNEL, MIX_MATRIX, MIX_SEVENZIP
from repro.osmodel.kernel import CostKind
from repro.virt.profiles import get_profile
from repro.virt.vcpu import translate_cycles, user_multiplier


@pytest.fixture
def vmplayer():
    return get_profile("vmplayer")


@pytest.fixture
def qemu():
    return get_profile("qemu")


class TestTranslation:
    def test_user_multiplier_is_class_weighted(self, vmplayer):
        expected = (
            MIX_SEVENZIP.int_frac * vmplayer.m_int
            + MIX_SEVENZIP.fp_frac * vmplayer.m_fp
            + MIX_SEVENZIP.mem_frac * vmplayer.m_mem
        )
        assert user_multiplier(vmplayer, MIX_SEVENZIP) == pytest.approx(expected)

    def test_user_translation_includes_kernel_share(self, vmplayer):
        host = translate_cycles(vmplayer, 1e6, MIX_SEVENZIP, CostKind.USER)
        pure_user = 1e6 * user_multiplier(vmplayer, MIX_SEVENZIP)
        assert host > pure_user  # kernel_frac * m_kernel dominates the delta

    def test_kernel_control_uses_kernel_multiplier(self, qemu):
        host = translate_cycles(qemu, 1000, MIX_KERNEL,
                                CostKind.KERNEL_CONTROL)
        assert host == pytest.approx(1000 * qemu.m_kernel)

    def test_kernel_copy_cheaper_than_control(self, qemu):
        copy = translate_cycles(qemu, 1000, MIX_KERNEL, CostKind.KERNEL_COPY)
        control = translate_cycles(qemu, 1000, MIX_KERNEL,
                                   CostKind.KERNEL_CONTROL)
        assert copy < control

    def test_never_faster_than_native(self, vmplayer, qemu):
        for profile in (vmplayer, qemu):
            for mix in (MIX_SEVENZIP, MIX_MATRIX):
                for kind in CostKind:
                    assert translate_cycles(profile, 1e6, mix, kind) >= 1e6

    def test_negative_cycles_rejected(self, vmplayer):
        with pytest.raises(VirtualizationError):
            translate_cycles(vmplayer, -1.0, MIX_SEVENZIP, CostKind.USER)

    def test_qemu_translates_int_heavier_than_fp(self, qemu):
        int_cost = translate_cycles(qemu, 1e6, MIX_SEVENZIP, CostKind.USER)
        fp_cost = translate_cycles(qemu, 1e6, MIX_MATRIX, CostKind.USER)
        assert int_cost > fp_cost  # the Fig1-vs-Fig2 asymmetry


class TestVcpuAccounting:
    def test_charge_accounts_guest_and_host(self, engine, host_kernel, run):
        from repro.osmodel.threads import PRIORITY_NORMAL
        from repro.virt.vm import VirtualMachine, VmConfig

        vm = VirtualMachine(host_kernel, get_profile("qemu"),
                            VmConfig(priority=PRIORITY_NORMAL))

        def driver():
            yield from vm.boot()
            ctx = vm.guest_context()
            yield from ctx.compute(1e6, MIX_SEVENZIP)
            return vm.vcpu

        vcpu = run(driver())
        vm.shutdown()
        assert vcpu.guest_instructions == pytest.approx(1e6)
        assert vcpu.guest_cycles == pytest.approx(MIX_SEVENZIP.cycles_for(1e6))
        assert vcpu.host_cycles_charged > vcpu.guest_cycles


class TestVcpuSharing:
    """The guest's charges and the VMM's share the one vCPU thread."""

    @pytest.fixture
    def vm(self, engine, host_kernel, run):
        from repro.osmodel.threads import PRIORITY_NORMAL
        from repro.virt.vm import VirtualMachine, VmConfig

        vm = VirtualMachine(host_kernel, get_profile("qemu"),
                            VmConfig(priority=PRIORITY_NORMAL))
        run(vm.boot())
        yield vm
        vm.shutdown()

    def test_overlapping_charges_take_turns_in_order(self, engine, vm, run):
        vcpu = vm.vcpu
        done = []

        def charger(label, charge):
            yield charge()
            done.append((label, engine.now))

        guest = engine.process(charger("guest", lambda: vcpu.charge(
            None, 2e6, MIX_SEVENZIP, CostKind.USER)))
        vmm = engine.process(charger("vmm", lambda: vcpu.charge_host_native(
            1e6, MIX_KERNEL)))
        late = engine.process(charger("late", lambda: vcpu.charge(
            None, 1e6, MIX_KERNEL, CostKind.KERNEL_CONTROL)))
        for proc in (guest, vmm, late):
            engine.run_until_event(proc)
        # before the queue, the second charge raised "already has an
        # outstanding segment"
        assert [label for label, _ in done] == ["guest", "vmm", "late"]
        times = [when for _, when in done]
        assert times[0] < times[1] < times[2]

    def test_a_charge_on_a_free_thread_is_the_submit_itself(self, vm):
        # no relay event: the figures' event streams stay as they were
        event = vm.vcpu.charge_host_native(1e6, MIX_KERNEL)
        assert event is vm.vcpu._busy
        assert not vm.vcpu._queue
