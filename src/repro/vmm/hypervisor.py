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
from repro.vmm.vm import MIB, VirtualMachine, VmRole, VmSpec


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
        zygote_cache: bool = True,
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

        # Host-side capture: the Wireshark vantage point of §5.1.
        self.host_capture = PacketCapture(timeline, name="host-uplink-capture")
        self.public_ip = Ipv4Address.parse(self.host.public_ip)
        self.lan_nic = VirtualNic("host-eth0", MacAddress.parse(self.host.lan_mac))

        self._vms: Dict[str, VirtualMachine] = {}
        self._nats: Dict[str, MasqueradeNat] = {}
        self._wires: List[VirtualWire] = []
        # O(1) wire teardown: wires registered through the factory methods
        # below are indexed by endpoint NIC and by position in ``_wires``.
        self._wire_slots: Dict[int, int] = {}
        self._wires_by_nic: Dict[VirtualNic, VirtualWire] = {}
        self._vm_counter = itertools.count(1)
        self.emergency_halted = False
        self.tamper_log: List[str] = []
        # Writable-FS bytes across all resident VMs, maintained by delta
        # listeners on each VM's top layer — keeps memory_snapshot() O(1).
        self._fs_ram_bytes = 0
        self._accounting_listener = None

        #: Flash-clone launch path: pre-booted memory images and shared
        #: read-only mount layers, keyed per (spec, role, anonymizer, image).
        self.zygote_cache = zygote_cache
        self._zygote_memories: Dict[tuple, GuestMemory] = {}
        self._layer_cache: Dict[tuple, tuple] = {}
        # flash_clone resolves a template's mount layers + zygote memories
        # once and reuses them for every clone; keyed by template identity
        # (the template itself is stored so a recycled id can't alias).
        self._template_prep: Dict[int, tuple] = {}

        #: The host LAN wire, built once on the first DHCP handshake and
        #: kept (torn down) between handshakes instead of leaking a fresh
        #: server + tapped wire per call.
        self._lan_wire: Optional[VirtualWire] = None
        self._lan_client: Optional[DhcpClient] = None

    # -- host bring-up ------------------------------------------------------

    def acquire_lan_address(self) -> Ipv4Address:
        """Run the host's DHCP handshake on a captured LAN wire.

        The wire, DHCP server, and client are created once and reused for
        subsequent handshakes (the server's lease table hands the same
        address back); the wire is severed after each handshake so the
        host is not left holding an open LAN link.
        """
        if self._lan_wire is None:
            server_nic = VirtualNic(
                "lan-dhcp-server", MacAddress.parse("00:16:3e:00:00:01"),
                Ipv4Address.parse("192.168.1.1"),
            )
            self._lan_wire = VirtualWire(
                self.timeline, self.lan_nic, server_nic, name="host-lan"
            )
            self._lan_wire.add_tap(self.host_capture)
            DhcpServer(self.timeline, server_nic, Ipv4Address.parse("192.168.1.100"))
            self._lan_client = DhcpClient(self.timeline, self.lan_nic)
        else:
            self._lan_wire.bring_up(quiet=True)
        try:
            return self._lan_client.acquire()
        finally:
            self._lan_wire.take_down()

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

        Built once by replaying exactly the map/dirty sequence a cold boot
        performs, on a synthetic guest that is *not* registered with host
        memory or KSM — it represents no resident VM, so Figure 3
        accounting never sees it.  Clones adopt its content runs
        copy-on-write at boot.
        """
        key = (spec, image_id)
        zygote = self._zygote_memories.get(key)
        if zygote is None:
            zygote = GuestMemory(f"zygote({spec.role.value})", spec.ram_bytes)
            if spec.image_cache_bytes:
                zygote.map_image(image_id, spec.image_cache_bytes)
            if spec.boot_dirty_bytes:
                zygote.dirty(spec.boot_dirty_bytes)
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
        key = (role, anonymizer, id(base))
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

        Returns ``(anonvm, commvm, wire)``.  With the zygote cache enabled
        the pair shares the template's mount layers and flash-adopts its
        pre-booted memory at boot; with it disabled this is exactly the
        cold-boot construction sequence — either way the resulting nymbox
        is semantically identical.
        """
        anon_prep = comm_prep = None
        if self.zygote_cache:
            cached = self._template_prep.get(id(template))
            if cached is not None and cached[0] is template:
                _, anon_prep, comm_prep = cached
            else:
                anon_prep = (
                    self._mount_layers(template.anon_spec.role, "", self.base_layer),
                    self._zygote_memory(template.anon_spec, template.image_id),
                )
                comm_prep = (
                    self._mount_layers(
                        template.comm_spec.role,
                        template.anonymizer,
                        self.base_layer,
                    ),
                    self._zygote_memory(template.comm_spec, template.image_id),
                )
                self._template_prep[id(template)] = (template, anon_prep, comm_prep)
        anonvm = self.create_vm(
            template.anon_spec,
            name=f"{name}-anon",
            image_id=template.image_id,
            prepared=anon_prep,
        )
        try:
            commvm = self.create_vm(
                template.comm_spec,
                name=f"{name}-comm",
                anonymizer=template.anonymizer,
                image_id=template.image_id,
                prepared=comm_prep,
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
        base_layer: Optional[Layer] = None,
        image_id: str = NYMIX_IMAGE_ID,
        prepared: Optional[tuple] = None,
    ) -> VirtualMachine:
        """``prepared`` is flash_clone's pre-resolved ``((config, bottom),
        zygote)`` bundle for this flavour — exactly what the zygote-cache
        branch below would look up, minus the per-clone cache probes."""
        if self.emergency_halted:
            raise HypervisorError("hypervisor is halted (base image tamper detected)")
        vm_id = name or f"{spec.role.value}-{next(self._vm_counter)}"
        if vm_id in self._vms:
            raise HypervisorError(f"VM id {vm_id!r} already exists")
        guest_memory = self.memory.allocate_guest(vm_id, spec.ram_bytes)
        base = base_layer if base_layer is not None else self.base_layer
        template_memory: Optional[GuestMemory] = None
        if prepared is not None:
            (config, bottom), template_memory = prepared
            fs = build_vm_mount(
                role=spec.role,
                tmpfs_bytes=spec.writable_fs_bytes,
                base=base,
                anonymizer=anonymizer,
                config=config,
                bottom=bottom,
            )
        elif self.zygote_cache:
            config, bottom = self._mount_layers(spec.role, anonymizer, base)
            fs = build_vm_mount(
                role=spec.role,
                tmpfs_bytes=spec.writable_fs_bytes,
                base=base,
                anonymizer=anonymizer,
                config=config,
                bottom=bottom,
            )
            template_memory = self._zygote_memory(spec, image_id)
        else:
            fs = build_vm_mount(
                role=spec.role,
                tmpfs_bytes=spec.writable_fs_bytes,
                base=base,
                anonymizer=anonymizer,
                merkle_root=self.merkle_root if self.verify_base_image else None,
                on_tamper=self._on_tamper,
            )
        vm = VirtualMachine(
            timeline=self.timeline,
            vm_id=vm_id,
            spec=spec,
            memory=guest_memory,
            fs=fs,
            image_id=image_id,
            template_memory=template_memory,
        )
        self._vms[vm_id] = vm
        if vm.fs.writable:
            self._fs_ram_bytes += vm.fs.top.used_bytes
            vm.fs.top.set_delta_listener(self._on_fs_delta)
        obs = self.timeline.obs
        if obs.enabled:
            obs.metrics.counter("vmm.vm.created").inc()
            obs.metrics.gauge("vmm.vms_live").set(len(self._vms))
        return vm

    def _on_fs_delta(self, delta: int) -> None:
        self._fs_ram_bytes += delta
        if self._accounting_listener is not None:
            self._accounting_listener()

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Shut down and securely erase a VM (the amnesia step of §3.4)."""
        if vm.state.value in ("running", "paused", "created"):
            vm.shutdown()
        vm.fs.discard_changes()
        if vm.fs.writable:
            # discard_changes cleared the top layer (the listener saw the
            # delta); stop tracking it and drop any residual bytes.
            vm.fs.top.set_delta_listener(None)
            self._fs_ram_bytes -= vm.fs.top.used_bytes
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
        obs = self.timeline.obs
        obs.metrics.counter("vmm.vm.destroyed").inc()
        obs.metrics.gauge("vmm.vms_live").set(len(self._vms))
        obs.event("vm.destroyed", vm=vm.vm_id, role=vm.spec.role.value)

    def vm(self, vm_id: str) -> VirtualMachine:
        return self._vms[vm_id]

    def vms(self) -> List[VirtualMachine]:
        return list(self._vms.values())

    # -- wire registry ------------------------------------------------------------

    def _register_wire(self, wire: VirtualWire) -> None:
        self._wire_slots[id(wire)] = len(self._wires)
        self._wires.append(wire)
        for nic in wire.endpoints:
            self._wires_by_nic[nic] = wire

    def _unregister_wire(self, wire: VirtualWire) -> None:
        """Drop a registered wire in O(1) (swap-remove from ``_wires``)."""
        for nic in wire.endpoints:
            if self._wires_by_nic.get(nic) is wire:
                del self._wires_by_nic[nic]
        slot = self._wire_slots.pop(id(wire), None)
        if slot is None:
            # Not registered through the factory methods (tests poke
            # ``_wires`` directly); fall back to a linear removal.
            if wire in self._wires:
                self._wires.remove(wire)
                self._wire_slots = {
                    id(w): i for i, w in enumerate(self._wires)
                    if id(w) in self._wire_slots
                }
            return
        last = self._wires.pop()
        if last is not wire:
            self._wires[slot] = last
            self._wire_slots[id(last)] = slot

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
        return (self.memory._allocated_pages, self.ksm.version, self._fs_ram_bytes)

    def set_accounting_listener(self, callback) -> None:
        """Call ``callback()`` after every change to :meth:`accounting_token`.

        KSM reports its version bumps and the writable-FS delta listener
        reports FS bytes.  Guest allocations need no hook of their own:
        every allocation or release (un)registers a KSM guest, which bumps
        the version.  ``None`` detaches the listener.
        """
        self._accounting_listener = callback
        self.ksm.change_listener = callback

    def memory_snapshot(self) -> MemorySnapshot:
        stats = self.memory.stats()
        ksm_stats = self.ksm.stats()
        fs_bytes = self._fs_ram_bytes
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
