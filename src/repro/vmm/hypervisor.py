"""The Nymix hypervisor: host resources, VM factory, isolation mechanics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import HypervisorError, UnreachableError
from repro.memory.ksm import Ksm
from repro.memory.pages import GuestMemory
from repro.memory.physmem import GIB, HostMemory
from repro.net.addresses import (
    GATEWAY_IP,
    GUEST_IP,
    QEMU_DEFAULT_MAC,
    Ipv4Address,
    MacAddress,
)
from repro.net.dhcp import DhcpClient, DhcpServer
from repro.net.internet import Internet
from repro.net.link import VirtualWire
from repro.net.nat import MasqueradeNat
from repro.net.nic import VirtualNic
from repro.net.pcap import PacketCapture
from repro.sim.clock import Timeline
from repro.unionfs.layer import Layer
from repro.unionfs.verify import VerifiedLayer
from repro.vmm.baseimage import (
    NYMIX_IMAGE_ID,
    build_base_layer,
    build_config_layer,
    build_vm_mount,
    published_merkle_root,
)
from repro.vmm.vcpu import CpuModel
from repro.vmm.virtfs import SharedFolder
from repro.vmm.vm import (
    MIB,
    VirtualMachine,
    VmmInstruments,
    VmRole,
    VmSpec,
    replay_boot,
)


@dataclass(frozen=True)
class HostSpec:
    """The physical machine (defaults: the paper's i7 quad core, 16 GB)."""

    cores: int = 4
    ram_bytes: int = 16 * GIB
    host_base_ram_bytes: int = 1 * GIB
    uplink_bps: float = 10_000_000.0
    uplink_rtt_s: float = 0.080
    public_ip: str = "203.0.113.77"
    lan_mac: str = "00:16:3e:aa:bb:01"


@dataclass(frozen=True)
class NymboxTemplate:
    """The zygote-cache key for one flavour of nymbox.

    Two launches with equal templates share the same pre-booted memory
    image and read-only mount layers on a given hypervisor; the template
    itself carries no state, so it can be computed anywhere and passed
    around freely.
    """

    anon_spec: VmSpec
    comm_spec: VmSpec
    anonymizer: str = ""
    image_id: str = NYMIX_IMAGE_ID


class FsTally:
    """Writable-FS bytes across one hypervisor's resident VMs.

    Each VM's writable top layer reports its used-byte deltas to
    :meth:`add`, so a memory snapshot reads one integer instead of
    summing the VMs.  The tally holds the count and the accounting
    listener, never the hypervisor: a layer that reached the hypervisor
    would make every live VM a reference cycle.
    """

    __slots__ = ("bytes", "listener")

    def __init__(self) -> None:
        self.bytes = 0
        #: Called with no arguments after every delta (see
        #: :meth:`Hypervisor.set_accounting_listener`).
        self.listener = None

    def add(self, delta: int) -> None:
        self.bytes += delta
        if self.listener is not None:
            self.listener()


@dataclass(frozen=True)
class MemorySnapshot:
    """One Figure 3 measurement point."""

    used_bytes: int  # host RAM in use (guests + writable FS - KSM savings)
    guest_ram_bytes: int
    fs_bytes: int
    ksm_pages_sharing: int
    ksm_pages_saved: int


class Hypervisor:
    """Host OS + KVM + the Nymix supervisory glue.

    Owns physical memory (with KSM), the CPU model, the base image (with
    its published Merkle root), the host uplink with packet capture, and
    every VM.  The Nym Manager sits on top of this class.
    """

    def __init__(
        self,
        timeline: Timeline,
        internet: Internet,
        host: Optional[HostSpec] = None,
        verify_base_image: bool = False,
        ksm_enabled: bool = True,
        base_layer: Optional[Layer] = None,
        merkle_root: Optional[str] = None,
    ) -> None:
        self.timeline = timeline
        self.internet = internet
        self.host = host or HostSpec()
        self.cpu = CpuModel(cores=self.host.cores, obs=timeline.obs)
        self.ksm = Ksm(enabled=ksm_enabled, obs=timeline.obs)
        self.memory = HostMemory(
            total_bytes=self.host.ram_bytes,
            base_used_bytes=self.host.host_base_ram_bytes,
            ksm=self.ksm,
        )
        # A fleet shares one base layer (and its published Merkle root)
        # across all its hosts; building it per host is pure waste.
        self.base_layer: Layer = base_layer if base_layer is not None else build_base_layer()
        self.merkle_root = (
            merkle_root if merkle_root is not None else published_merkle_root(self.base_layer)
        )
        self.verify_base_image = verify_base_image
        self.rng = timeline.fork_rng("hypervisor")
        # Held by this hypervisor and handed to every VM it creates.
        self._instruments = VmmInstruments(timeline.obs.metrics)

        # Host-side capture: the Wireshark vantage point of §5.1.
        self.host_capture = PacketCapture(timeline, name="host-uplink-capture")
        self.public_ip = Ipv4Address.parse(self.host.public_ip)
        self.lan_nic = VirtualNic("host-eth0", MacAddress.parse(self.host.lan_mac))

        self._vms: Dict[str, VirtualMachine] = {}
        self._nats: Dict[str, MasqueradeNat] = {}
        self._wires: List[VirtualWire] = []
        # O(1) wire teardown: wires registered through the factory methods
        # below are indexed by endpoint NIC and by position in ``_wires``.
        self._wire_slots: Dict[VirtualWire, int] = {}
        self._wires_by_nic: Dict[VirtualNic, VirtualWire] = {}
        self._vm_counter = itertools.count(1)
        self.emergency_halted = False
        self.tamper_log: List[str] = []
        # Writable-FS bytes across all resident VMs, fed by each VM's top
        # layer — keeps memory_snapshot() O(1).
        self._fs = FsTally()

        #: Flash-clone launch path: pre-booted memory images per (spec,
        #: image) and shared read-only mount layers per (role, anonymizer,
        #: base), one entry per VM flavour however many VMs launch.
        self._zygote_memories: Dict[tuple, GuestMemory] = {}
        self._layer_cache: Dict[tuple, tuple] = {}

    # -- host bring-up ------------------------------------------------------

    def acquire_lan_address(self) -> Ipv4Address:
        """Run the host's DHCP handshake on a captured LAN wire.

        Each call wires a fresh DHCP server to the host NIC and leaves
        nothing behind: the wire comes down and both NICs drop their DHCP
        handlers, whose owners hold the NICs (a reference cycle that
        would keep the whole timeline for the collector).
        """
        server_nic = VirtualNic(
            "lan-dhcp-server", MacAddress.parse("00:16:3e:00:00:01"),
            Ipv4Address.parse("192.168.1.1"),
        )
        wire = VirtualWire(self.timeline, self.lan_nic, server_nic, name="host-lan")
        wire.add_tap(self.host_capture)
        DhcpServer(self.timeline, server_nic, Ipv4Address.parse("192.168.1.100"))
        try:
            return DhcpClient(self.timeline, self.lan_nic).acquire()
        finally:
            wire.take_down()
            self.lan_nic.clear_handlers()
            server_nic.clear_handlers()

    # -- tamper handling (verified boot, §3.4) -----------------------------------

    def _on_tamper(self, path: str) -> None:
        self.tamper_log.append(path)
        self.timeline.obs.event("vmm.tamper", path=path)
        self.emergency_halt()

    def emergency_halt(self) -> None:
        """Safely shut down every VM (tampered base image detected)."""
        self.emergency_halted = True
        for vm in list(self._vms.values()):
            if vm.state.value in ("running", "paused"):
                vm.shutdown()

    # -- zygote cache (flash-clone launch path) ---------------------------------

    def nymbox_template(
        self,
        anon_spec: VmSpec,
        comm_spec: VmSpec,
        anonymizer: str = "",
        image_id: str = NYMIX_IMAGE_ID,
    ) -> NymboxTemplate:
        """The template key for :meth:`flash_clone` launches."""
        return NymboxTemplate(
            anon_spec=anon_spec,
            comm_spec=comm_spec,
            anonymizer=anonymizer,
            image_id=image_id,
        )

    def _zygote_memory(self, spec: VmSpec, image_id: str) -> GuestMemory:
        """The pre-booted memory image for one (spec, image) flavour.

        Built once by :func:`replay_boot` on a synthetic guest that is
        *not* registered with host memory or KSM — it represents no
        resident VM, so Figure 3 accounting never sees it.  Every VM of
        the flavour adopts its content runs copy-on-write at boot.
        """
        key = (spec, image_id)
        zygote = self._zygote_memories.get(key)
        if zygote is None:
            zygote = GuestMemory(f"zygote({spec.role.value})", spec.ram_bytes)
            replay_boot(zygote, spec, image_id)
            self._zygote_memories[key] = zygote
        return zygote

    def _mount_layers(
        self, role: VmRole, anonymizer: str, base: Layer
    ) -> tuple:
        """Memoized (config, bottom) mount layers for one VM flavour.

        Both layers are read-only, so every clone of a flavour can share
        the same objects — including the Merkle proof index a
        ``VerifiedLayer`` builds, which is the expensive part of the
        verified-boot check.
        """
        key = (role, anonymizer, base)
        cached = self._layer_cache.get(key)
        if cached is None:
            bottom: Layer = base
            if self.verify_base_image:
                bottom = VerifiedLayer(base, self.merkle_root, on_tamper=self._on_tamper)
            config = build_config_layer(role, anonymizer)
            cached = (config, bottom)
            self._layer_cache[key] = cached
        return cached

    def flash_clone(
        self, template: NymboxTemplate, name: str
    ) -> tuple:
        """Launch one AnonVM + CommVM nymbox pair from ``template``.

        Returns ``(anonvm, commvm, wire)``.  Like every VM from
        :meth:`create_vm`, both share their flavour's mount layers and
        flash-adopt its pre-booted memory at boot.  If the CommVM cannot
        be created, the AnonVM is destroyed again.
        """
        anonvm = self.create_vm(
            template.anon_spec, name=f"{name}-anon", image_id=template.image_id
        )
        try:
            commvm = self.create_vm(
                template.comm_spec,
                name=f"{name}-comm",
                anonymizer=template.anonymizer,
                image_id=template.image_id,
            )
        except Exception:
            self.destroy_vm(anonvm)
            raise
        wire = self.wire_nymbox(anonvm, commvm)
        return anonvm, commvm, wire

    # -- VM factory ------------------------------------------------------------

    def create_vm(
        self,
        spec: VmSpec,
        name: str = "",
        anonymizer: str = "",
        image_id: str = NYMIX_IMAGE_ID,
    ) -> VirtualMachine:
        """A new VM on its flavour's shared mount layers and zygote.

        Only the tmpfs top of the mount and the guest's own memory are
        fresh; the memory adopts the zygote's runs when the VM boots.
        """
        if self.emergency_halted:
            raise HypervisorError("hypervisor is halted (base image tamper detected)")
        vm_id = name or f"{spec.role.value}-{next(self._vm_counter)}"
        if vm_id in self._vms:
            raise HypervisorError(f"VM id {vm_id!r} already exists")
        guest_memory = self.memory.allocate_guest(vm_id, spec.ram_bytes)
        config, bottom = self._mount_layers(spec.role, anonymizer, self.base_layer)
        vm = VirtualMachine(
            timeline=self.timeline,
            vm_id=vm_id,
            spec=spec,
            memory=guest_memory,
            fs=build_vm_mount(spec.role, spec.writable_fs_bytes, bottom, config=config),
            image_id=image_id,
            template_memory=self._zygote_memory(spec, image_id),
            instruments=self._instruments,
        )
        self._vms[vm_id] = vm
        if vm.fs.writable:
            self._fs.bytes += vm.fs.top.used_bytes
            vm.fs.top.set_delta_listener(self._fs.add)
        self._instruments.created.inc()
        self._instruments.vms_live.set(len(self._vms))
        return vm

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Shut down and securely erase a VM (the amnesia step of §3.4)."""
        if vm.state.value in ("running", "paused", "created"):
            vm.shutdown()
        vm.fs.discard_changes()
        if vm.fs.writable:
            # discard_changes cleared the top layer (the tally saw the
            # delta); stop tracking it and drop any residual bytes.
            vm.fs.top.set_delta_listener(None)
            self._fs.bytes -= vm.fs.top.used_bytes
        # O(nics), not O(host wires): each registered wire is indexed by
        # its endpoint NICs, so a fleet-scale teardown no longer rescans
        # every wire on the host per destroyed VM.
        for nic in vm.nics:
            wire = self._wires_by_nic.get(nic)
            if wire is not None:
                wire.take_down()
                self._unregister_wire(wire)
        self.memory.release_guest(vm.vm_id, secure=True)
        self._nats.pop(vm.vm_id, None)
        self._vms.pop(vm.vm_id, None)
        self._instruments.destroyed.inc()
        self._instruments.vms_live.set(len(self._vms))
        self.timeline.obs.event("vm.destroyed", vm=vm.vm_id, role=vm.spec.role.value)

    def vm(self, vm_id: str) -> VirtualMachine:
        return self._vms[vm_id]

    def vms(self) -> List[VirtualMachine]:
        return list(self._vms.values())

    # -- wire registry ------------------------------------------------------------

    def _register_wire(self, wire: VirtualWire) -> None:
        self._wire_slots[wire] = len(self._wires)
        self._wires.append(wire)
        for nic in wire.endpoints:
            self._wires_by_nic[nic] = wire

    def _unregister_wire(self, wire: VirtualWire) -> None:
        """Drop a registered wire in O(1) (swap-remove from ``_wires``)."""
        for nic in wire.endpoints:
            if self._wires_by_nic.get(nic) is wire:
                del self._wires_by_nic[nic]
        slot = self._wire_slots.pop(wire)
        last = self._wires.pop()
        if last is not wire:
            self._wires[slot] = last
            self._wire_slots[last] = slot

    # -- nymbox wiring (§4.2) -----------------------------------------------------

    def wire_nymbox(self, anonvm: VirtualMachine, commvm: VirtualMachine) -> VirtualWire:
        """Build the private AnonVM <-> CommVM virtual wire.

        Every nymbox gets the *same* guest-side MAC and IP addresses —
        deliberate homogenization; isolation comes from the wire being a
        distinct object per nymbox with no bridge between them.
        """
        anon_nic = anonvm.attach_nic(VirtualNic(f"{anonvm.vm_id}-eth0", QEMU_DEFAULT_MAC, GUEST_IP))
        comm_inner = commvm.attach_nic(
            VirtualNic(f"{commvm.vm_id}-eth0", QEMU_DEFAULT_MAC, GATEWAY_IP)
        )
        wire = VirtualWire(
            self.timeline, anon_nic, comm_inner,
            latency_s=0.0002, name=f"nymwire({anonvm.vm_id})",
        )
        self._register_wire(wire)
        return wire

    def wire_comm_chain(
        self, upstream: VirtualMachine, downstream: VirtualMachine, position: int
    ) -> VirtualWire:
        """Link two CommVMs in serial (§3.3's chained-anonymizer option).

        ``upstream`` is the CommVM closer to the AnonVM; ``downstream``
        carries its output toward the Internet.  Each chain link gets its
        own private /24 so the hops cannot be confused.
        """
        subnet = 3 + position
        up_nic = upstream.attach_nic(
            VirtualNic(
                f"{upstream.vm_id}-eth1",
                QEMU_DEFAULT_MAC,
                Ipv4Address.parse(f"10.0.{subnet}.15"),
            )
        )
        down_nic = downstream.attach_nic(
            VirtualNic(
                f"{downstream.vm_id}-eth0",
                QEMU_DEFAULT_MAC,
                Ipv4Address.parse(f"10.0.{subnet}.2"),
            )
        )
        wire = VirtualWire(
            self.timeline, up_nic, down_nic,
            latency_s=0.0002, name=f"chainwire({upstream.vm_id}->{downstream.vm_id})",
        )
        self._register_wire(wire)
        return wire

    def attach_nat(self, commvm: VirtualMachine) -> MasqueradeNat:
        """Give a CommVM its user-mode NAT uplink to the Internet."""
        nat = MasqueradeNat(
            timeline=self.timeline,
            name=f"nat({commvm.vm_id})",
            public_ip=self.public_ip,
            internet=self.internet,
            host_capture=self.host_capture,
        )
        self._nats[commvm.vm_id] = nat
        return nat

    def nat_for(self, commvm_id: str) -> MasqueradeNat:
        return self._nats[commvm_id]

    # -- isolation probing (§5.1 validation) ----------------------------------------

    def probe_cross_vm(self, src: VirtualMachine, dst: VirtualMachine) -> bool:
        """Attempt direct delivery from ``src`` to ``dst``.

        Returns True only if a frame from ``src``'s primary NIC could reach
        ``dst`` — i.e. they share a wire.  Used to assert the isolation
        matrix: only an AnonVM and its own CommVM may communicate.
        """
        if not src.nics or not dst.nics:
            return False
        for src_nic in src.nics:
            for wire in self._wires:
                endpoints = wire.endpoints
                if src_nic in endpoints:
                    other = endpoints[0] if endpoints[1] is src_nic else endpoints[1]
                    if other in dst.nics and wire.up:
                        return True
        return False

    def probe_local_network(self, vm: VirtualMachine) -> bool:
        """Can this VM reach the host's local intranet?  Must be False."""
        nat = self._nats.get(vm.vm_id)
        if nat is None:
            return False
        try:
            nat.stream(Ipv4Address.parse("192.168.1.10"), 100, label="probe")
        except UnreachableError:
            return False
        return True

    # -- accounting ----------------------------------------------------------------

    def accounting_token(self) -> tuple:
        """A value that changes whenever :meth:`memory_snapshot` could.

        Covers guest allocations, KSM state (guest memory, scan coverage,
        guest registration), and writable-FS bytes — callers (the fleet's
        :class:`HostHandle`) cache snapshots keyed on it.
        """
        return (self.memory._allocated_pages, self.ksm.version, self._fs.bytes)

    def set_accounting_listener(self, callback) -> None:
        """Call ``callback()`` after every change to :meth:`accounting_token`.

        KSM reports its version bumps and the FS tally reports FS bytes.
        Guest allocations need no hook of their own: every allocation or
        release (un)registers a KSM guest, which bumps the version.
        ``None`` detaches the listener.  Both hold ``callback``, so it must
        not reach this hypervisor, or every host is a reference cycle.
        """
        self._fs.listener = callback
        self.ksm.change_listener = callback

    def memory_snapshot(self) -> MemorySnapshot:
        stats = self.memory.stats()
        ksm_stats = self.ksm.stats()
        fs_bytes = self._fs.bytes
        return MemorySnapshot(
            used_bytes=stats.used_bytes + fs_bytes,
            guest_ram_bytes=stats.guest_allocated_bytes,
            fs_bytes=fs_bytes,
            ksm_pages_sharing=ksm_stats.pages_sharing,
            ksm_pages_saved=ksm_stats.pages_saved,
        )

    def expected_bytes_per_nymbox(
        self, anon_spec: VmSpec, comm_spec: VmSpec
    ) -> int:
        """The Figure 3 dashed line: nominal RAM+disk cost of one nymbox."""
        return (
            anon_spec.ram_bytes
            + comm_spec.ram_bytes
            + anon_spec.writable_fs_bytes
            + comm_spec.writable_fs_bytes
        )

    def __repr__(self) -> str:
        return (
            f"Hypervisor(vms={len(self._vms)}, "
            f"ram={self.memory.stats().used_bytes // MIB}MiB used)"
        )
