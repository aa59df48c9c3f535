"""Hypervisor: admission, nymbox wiring, isolation, memory accounting, VirtFS."""

import pytest

from repro.errors import FileSystemError, HypervisorError, OutOfMemoryError
from repro.memory.physmem import GIB, MIB
from repro.net.internet import Internet
from repro.sim import Timeline
from repro.vmm import HostSpec, Hypervisor, SharedFolder, VmSpec
from repro.vmm.baseimage import build_base_layer
from repro.unionfs.verify import TamperDetected
from repro.unionfs.layer import Layer


@pytest.fixture
def timeline():
    return Timeline(seed=2)


@pytest.fixture
def hypervisor(timeline):
    return Hypervisor(timeline, Internet(timeline))


def _nymbox(hv, index=1):
    anon = hv.create_vm(VmSpec.anonvm(), name=f"nym{index}-anon")
    comm = hv.create_vm(VmSpec.commvm(), name=f"nym{index}-comm")
    hv.wire_nymbox(anon, comm)
    hv.attach_nat(comm)
    return anon, comm


class TestVmFactory:
    def test_create_and_boot(self, hypervisor):
        vm = hypervisor.create_vm(VmSpec.anonvm())
        vm.boot()
        assert vm.running

    def test_duplicate_name_rejected(self, hypervisor):
        hypervisor.create_vm(VmSpec.anonvm(), name="x")
        with pytest.raises(HypervisorError):
            hypervisor.create_vm(VmSpec.commvm(), name="x")

    def test_admission_control(self, timeline):
        hv = Hypervisor(
            timeline, Internet(timeline), host=HostSpec(ram_bytes=2 * GIB)
        )
        hv.create_vm(VmSpec.anonvm(ram_bytes=512 * MIB))
        with pytest.raises(OutOfMemoryError):
            hv.create_vm(VmSpec.anonvm(ram_bytes=1024 * MIB))

    def test_destroy_releases_memory(self, hypervisor):
        vm = hypervisor.create_vm(VmSpec.anonvm())
        vm.boot()
        used = hypervisor.memory.stats().guest_allocated_bytes
        hypervisor.destroy_vm(vm)
        assert hypervisor.memory.stats().guest_allocated_bytes < used
        assert vm.memory.erased

    def test_destroy_discards_fs(self, hypervisor):
        vm = hypervisor.create_vm(VmSpec.anonvm())
        vm.boot()
        vm.fs.write("/home/user/secret", b"data")
        hypervisor.destroy_vm(vm)
        assert vm.fs.ram_bytes == 0


class TestNymboxWiring:
    def test_anonvm_reaches_own_commvm_only(self, hypervisor):
        anon1, comm1 = _nymbox(hypervisor, 1)
        anon2, comm2 = _nymbox(hypervisor, 2)
        assert hypervisor.probe_cross_vm(anon1, comm1)
        assert hypervisor.probe_cross_vm(anon2, comm2)
        assert not hypervisor.probe_cross_vm(anon1, comm2)
        assert not hypervisor.probe_cross_vm(anon1, anon2)
        assert not hypervisor.probe_cross_vm(comm1, comm2)

    def test_identical_guest_addressing(self, hypervisor):
        anon1, _ = _nymbox(hypervisor, 1)
        anon2, _ = _nymbox(hypervisor, 2)
        assert str(anon1.primary_nic.mac) == str(anon2.primary_nic.mac)
        assert str(anon1.primary_nic.ip) == str(anon2.primary_nic.ip)

    def test_destroy_takes_wire_down(self, hypervisor):
        anon, comm = _nymbox(hypervisor, 1)
        hypervisor.destroy_vm(anon)
        assert not hypervisor.probe_cross_vm(comm, anon)

    def test_local_network_unreachable(self, hypervisor):
        _, comm = _nymbox(hypervisor, 1)
        assert not hypervisor.probe_local_network(comm)


class TestHostBringUp:
    def test_dhcp_acquire(self, hypervisor):
        ip = hypervisor.acquire_lan_address()
        assert str(ip).startswith("192.168.1.")
        assert hypervisor.host_capture.by_label() == {"dhcp": 4}


class TestMemoryAccounting:
    def test_snapshot_counts_ram_and_fs(self, hypervisor):
        anon, comm = _nymbox(hypervisor, 1)
        anon.boot()
        comm.boot()
        anon.fs.write("/home/user/cache", b"x" * (1 * MIB))
        snap = hypervisor.memory_snapshot()
        assert snap.guest_ram_bytes == (384 + 128) * MIB
        assert snap.fs_bytes >= 1 * MIB

    def test_ksm_reduces_usage_across_nymboxes(self, hypervisor):
        for index in range(4):
            anon, comm = _nymbox(hypervisor, index)
            anon.boot()
            comm.boot()
        hypervisor.ksm.run_to_completion()
        snap = hypervisor.memory_snapshot()
        assert snap.ksm_pages_saved > 0

    def test_expected_per_nymbox(self, hypervisor):
        expected = hypervisor.expected_bytes_per_nymbox(VmSpec.anonvm(), VmSpec.commvm())
        assert expected == (384 + 128 + 128 + 16) * MIB


class TestVerifiedBoot:
    def test_tamper_halts_hypervisor(self, timeline):
        hv = Hypervisor(timeline, Internet(timeline), verify_base_image=True)
        # Swap the base layer under the hypervisor (the evil-USB scenario)
        # while keeping the published root.
        tampered_files = {p: hv.base_layer.read(p) for p in hv.base_layer.paths()}
        tampered_files["/usr/bin/tor"] = b"#!ELF backdoored tor"
        hv.base_layer = Layer("base(nymix)", files=tampered_files, read_only=True)
        vm = hv.create_vm(VmSpec.commvm())
        with pytest.raises(TamperDetected):
            vm.fs.read("/usr/bin/tor")
        assert hv.emergency_halted
        assert hv.tamper_log == ["/usr/bin/tor"]
        with pytest.raises(HypervisorError):
            hv.create_vm(VmSpec.anonvm())

    def test_clean_base_verifies(self, timeline):
        hv = Hypervisor(timeline, Internet(timeline), verify_base_image=True)
        vm = hv.create_vm(VmSpec.anonvm())
        assert vm.fs.read("/usr/bin/tor").startswith(b"#!ELF")
        assert not hv.emergency_halted


class TestSharedFolder:
    def test_write_read_move(self):
        a = SharedFolder("sanivm-out")
        b = SharedFolder("anonvm-in")
        a.write("/photo.jpg", b"scrubbed")
        a.move_to("/photo.jpg", b)
        assert b.read("/photo.jpg") == b"scrubbed"
        assert not a.exists("/photo.jpg")

    def test_read_only_folder(self):
        folder = SharedFolder("ro", read_only=True)
        with pytest.raises(FileSystemError):
            folder.write("/x", b"1")

    def test_missing_file(self):
        with pytest.raises(FileSystemError):
            SharedFolder("f").read("/missing")

    def test_used_bytes(self):
        folder = SharedFolder("f")
        folder.write("/a", b"123")
        assert folder.used_bytes == 3
