"""Virtual machines: lifecycle, resources, and the homogenized fingerprint."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional

from repro.errors import VmStateError
from repro.memory.pages import GuestMemory
from repro.net.nic import VirtualNic
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.clock import Timeline
from repro.unionfs.mount import UnionMount
from repro.vmm.virtfs import SharedFolder

MIB = 1024 * 1024


class VmRole(enum.Enum):
    """The four guest roles of the Nymix architecture (Figure 2)."""

    ANONVM = "anonvm"
    COMMVM = "commvm"
    SANIVM = "sanivm"
    HOSTOS = "hostos"  # installed OS booted as a nym (§3.7)


class VmState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    SHUTDOWN = "shutdown"
    CRASHED = "crashed"


@dataclass(frozen=True)
class VmSpec:
    """Resource allocation for one VM (defaults follow §4.2/§5.2)."""

    role: VmRole
    ram_bytes: int
    writable_fs_bytes: int
    # How much of the shared base image this role's boot leaves resident in
    # the page cache — the KSM-shareable portion of guest memory.
    image_cache_bytes: int
    # Memory privately dirtied during boot (kernel, services, UI).
    boot_dirty_bytes: int
    boot_seconds: float
    vcpus: int = 1

    @classmethod
    def anonvm(cls, ram_bytes: int = 384 * MIB, disk_bytes: int = 128 * MIB) -> "VmSpec":
        return cls(
            role=VmRole.ANONVM,
            ram_bytes=ram_bytes,
            writable_fs_bytes=disk_bytes,
            image_cache_bytes=24 * MIB,
            boot_dirty_bytes=150 * MIB,
            boot_seconds=9.5,
        )

    @classmethod
    def commvm(cls, ram_bytes: int = 128 * MIB, disk_bytes: int = 16 * MIB) -> "VmSpec":
        return cls(
            role=VmRole.COMMVM,
            ram_bytes=ram_bytes,
            writable_fs_bytes=disk_bytes,
            image_cache_bytes=8 * MIB,
            boot_dirty_bytes=48 * MIB,
            boot_seconds=4.0,
        )

    @classmethod
    def sanivm(cls, ram_bytes: int = 256 * MIB, disk_bytes: int = 64 * MIB) -> "VmSpec":
        return cls(
            role=VmRole.SANIVM,
            ram_bytes=ram_bytes,
            writable_fs_bytes=disk_bytes,
            image_cache_bytes=16 * MIB,
            boot_dirty_bytes=96 * MIB,
            boot_seconds=5.0,
        )

    @classmethod
    def hostos(
        cls,
        ram_bytes: int = 1024 * MIB,
        disk_bytes: int = 512 * MIB,
        boot_seconds: float = 40.0,
    ) -> "VmSpec":
        return cls(
            role=VmRole.HOSTOS,
            ram_bytes=ram_bytes,
            writable_fs_bytes=disk_bytes,
            image_cache_bytes=0,  # the installed OS image is not the Nymix base
            boot_dirty_bytes=400 * MIB,
            boot_seconds=boot_seconds,
        )


def replay_boot(memory: GuestMemory, spec: VmSpec, image_id: str) -> None:
    """The boot-time page churn of one ``spec`` guest on ``memory``.

    The boot leaves part of the base image in the page cache (the
    KSM-shareable pages), then privately dirties the rest.  A zygote
    records this sequence once; a VM booted without one replays it.
    """
    if spec.image_cache_bytes:
        memory.map_image(image_id, spec.image_cache_bytes)
    if spec.boot_dirty_bytes:
        memory.dirty(spec.boot_dirty_bytes)


# Every Nymix VM advertises exactly this hardware, regardless of host
# (§4.2: "we want Nymix to run the same on every machine").
HOMOGENIZED_RESOLUTION = (1024, 768)
HOMOGENIZED_CPU = "QEMU Virtual CPU version 2.0.0"


@dataclass
class VmFingerprint:
    """Guest-observable identity surface; identical for all nymbox VMs."""

    cpu_model: str
    cpu_count: int
    resolution: tuple
    mac: str
    ip: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "cpu_model": self.cpu_model,
            "cpu_count": self.cpu_count,
            "resolution": self.resolution,
            "mac": self.mac,
            "ip": self.ip,
        }


class VmmInstruments:
    """The vmm layer's hot instruments, held by a hypervisor and its VMs.

    Each is looked up by name at its first update and held after that,
    so a name enters the metrics snapshot exactly when a lookup per
    update would put it there: ``vmm.vm.dirtied_bytes`` stays absent
    until some guest dirties memory.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics

    @cached_property
    def created(self) -> Counter:
        return self._metrics.counter("vmm.vm.created")

    @cached_property
    def destroyed(self) -> Counter:
        return self._metrics.counter("vmm.vm.destroyed")

    @cached_property
    def vms_live(self) -> Gauge:
        return self._metrics.gauge("vmm.vms_live")

    @cached_property
    def boots(self) -> Counter:
        return self._metrics.counter("vmm.vm.boots")

    @cached_property
    def boot_phase_s(self) -> Histogram:
        return self._metrics.histogram("vmm.boot.phase_s")

    @cached_property
    def dirtied_bytes(self) -> Counter:
        return self._metrics.counter("vmm.vm.dirtied_bytes")


class VirtualMachine:
    """One guest: RAM, a union-FS root, NICs, and a lifecycle."""

    def __init__(
        self,
        timeline: Timeline,
        vm_id: str,
        spec: VmSpec,
        memory: GuestMemory,
        fs: UnionMount,
        image_id: str,
        template_memory: Optional[GuestMemory] = None,
        instruments: Optional[VmmInstruments] = None,
    ) -> None:
        self.timeline = timeline
        self.vm_id = vm_id
        self.spec = spec
        self.memory = memory
        self.fs = fs
        self.image_id = image_id
        #: Pre-booted memory image to flash-adopt at boot time instead of
        #: calling :func:`replay_boot` (the hypervisor's zygote).
        self.template_memory = template_memory
        # Shared with the creating hypervisor and its other VMs.
        self._instruments = (
            instruments if instruments is not None
            else VmmInstruments(timeline.obs.metrics)
        )
        self.state = VmState.CREATED
        self.nics: List[VirtualNic] = []
        self.shared_folders: Dict[str, SharedFolder] = {}
        self.booted_at: Optional[float] = None
        self.last_boot_seconds: Optional[float] = None

    # -- state machine ------------------------------------------------------

    def _require(self, *states: VmState) -> None:
        if self.state not in states:
            allowed = ", ".join(s.value for s in states)
            raise VmStateError(
                f"VM {self.vm_id!r} is {self.state.value}; operation requires {allowed}"
            )

    def boot(self, jitter_rng=None, advance: bool = True) -> float:
        """Boot the guest: advances time, populates memory.  Returns seconds.

        With ``advance=False`` the boot consumes no timeline time — used
        when this boot overlaps a longer concurrent boot (the nymbox boots
        its AnonVM and CommVM in parallel, so the pair costs the max).
        The boot opens no span: a caller whose trace someone reads (the
        Nym Manager) wraps it in a ``vm.boot`` span.
        """
        self._require(VmState.CREATED)
        duration = self.spec.boot_seconds
        if jitter_rng is not None:
            duration = jitter_rng.jitter(duration, 0.08)
        if advance:
            self.timeline.sleep(duration)
        template = self.template_memory
        if template is not None and self.memory.can_adopt(template):
            # Flash clone: take the template's post-boot content runs
            # copy-on-write — equivalent to replaying the boot
            # sequence, without the per-boot run construction.
            self.memory.adopt_template(template)
        else:
            replay_boot(self.memory, self.spec, self.image_id)
        self.state = VmState.RUNNING
        self.booted_at = self.timeline.now
        self.last_boot_seconds = duration
        instruments = self._instruments
        instruments.boots.inc()
        instruments.boot_phase_s.observe(duration)
        self.timeline.obs.event(
            "vm.boot",
            vm=self.vm_id,
            role=self.spec.role.value,
            seconds=round(duration, 6),
            overlapped=not advance,
        )
        return duration

    def pause(self) -> None:
        self._require(VmState.RUNNING)
        self.state = VmState.PAUSED

    def resume(self) -> None:
        self._require(VmState.PAUSED)
        self.state = VmState.RUNNING

    def shutdown(self) -> None:
        """Stop the guest.  Memory erase happens at hypervisor release."""
        self._require(VmState.RUNNING, VmState.PAUSED, VmState.CREATED)
        self.state = VmState.SHUTDOWN

    def crash(self) -> None:
        """The guest dies without a clean shutdown (fault injection).

        Unlike :meth:`shutdown`, nothing inside the guest gets to run;
        recovery means relaunching from quasi-persistent state (§3.5).
        """
        self._require(VmState.RUNNING, VmState.PAUSED)
        self.state = VmState.CRASHED
        self.timeline.obs.metrics.counter("vmm.vm.crashes").inc()
        self.timeline.obs.event("vm.crashed", vm=self.vm_id, role=self.spec.role.value)

    @property
    def running(self) -> bool:
        return self.state is VmState.RUNNING

    # -- resources ------------------------------------------------------------

    def attach_nic(self, nic: VirtualNic) -> VirtualNic:
        self.nics.append(nic)
        return nic

    @property
    def primary_nic(self) -> VirtualNic:
        if not self.nics:
            raise VmStateError(f"VM {self.vm_id!r} has no NIC attached")
        return self.nics[0]

    def mount_shared(self, folder: SharedFolder) -> None:
        self.shared_folders[folder.name] = folder

    def touch_memory(self, dirty_bytes: int) -> None:
        """Guest workload dirties private pages (browsing, JS heaps...)."""
        self._require(VmState.RUNNING)
        self.memory.dirty(dirty_bytes)
        self._instruments.dirtied_bytes.inc(dirty_bytes)

    # -- observability -------------------------------------------------------

    def fingerprint(self) -> VmFingerprint:
        """What in-guest software can learn about "the hardware"."""
        nic = self.nics[0] if self.nics else None
        return VmFingerprint(
            cpu_model=HOMOGENIZED_CPU,
            cpu_count=self.spec.vcpus,
            resolution=HOMOGENIZED_RESOLUTION,
            mac=str(nic.mac) if nic else "",
            ip=str(nic.ip) if nic and nic.ip else "",
        )

    @property
    def fs_ram_bytes(self) -> int:
        """RAM consumed by the writable file-system layer."""
        return self.fs.ram_bytes

    def __repr__(self) -> str:
        return (
            f"VirtualMachine({self.vm_id!r}, {self.spec.role.value}, "
            f"{self.state.value}, ram={self.spec.ram_bytes // MIB}MiB)"
        )
