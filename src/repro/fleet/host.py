"""One host in the fleet: a `Hypervisor` plus scheduling bookkeeping."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.vmm.hypervisor import Hypervisor, MemorySnapshot


class HostHandle:
    """The fleet scheduler's view of one physical machine.

    Wraps the host's :class:`Hypervisor` with what placement decisions
    need: who lives here (``residents``), which base images those nyms
    run (``images``), how much RAM is committed, and whether the host has
    crashed.  All byte figures come from the hypervisor's own accounting
    so the scheduler can never disagree with the memory model.

    Accounting reads are cached against the hypervisor's
    ``accounting_token()``: placement policies, pressure checks and wave
    planning read ``used_bytes`` / ``free_ram_bytes`` of hosts that
    mostly haven't changed since the last read — the cached
    :class:`MemorySnapshot` is served until the token moves.
    """

    def __init__(self, host_id: str, hypervisor: Hypervisor) -> None:
        self.host_id = host_id
        self.hypervisor = hypervisor
        self.residents: Dict[str, "FleetNymbox"] = {}  # noqa: F821 (fleet.py)
        self.crashed = False
        #: Draining hosts stay up (their residents evacuate live) but take
        #: no new placements; cleared by ``Fleet.undrain_host``.
        self.draining = False
        #: Placements booting here right now.  A boot advances the clock
        #: before the nym becomes a resident, so scale-down must not take
        #: a host whose count is non-zero for empty.
        self.booting = 0
        self._snapshot: Optional[MemorySnapshot] = None
        self._snapshot_token: Optional[tuple] = None
        # Per-image resident counts, maintained by add/pop_resident so
        # KsmAware placement never walks the resident dict per score.
        self._image_counts: Dict[str, int] = {}

    # -- capacity ------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.hypervisor.memory.total_bytes

    @property
    def free_ram_bytes(self) -> int:
        """RAM headroom for admission (guest allocations, before KSM)."""
        snap = self.memory_snapshot()
        return self.total_bytes - (snap.used_bytes - snap.fs_bytes)

    @property
    def used_bytes(self) -> int:
        """Host RAM in use: guests + writable FS − KSM savings."""
        return self.memory_snapshot().used_bytes

    @property
    def pressure(self) -> float:
        """Fraction of physical RAM in use (the watermark input)."""
        return self.used_bytes / self.total_bytes

    @property
    def ksm_saved_bytes(self) -> int:
        return self.hypervisor.ksm.stats().bytes_saved

    def memory_snapshot(self) -> MemorySnapshot:
        token = self.hypervisor.accounting_token()
        if token != self._snapshot_token:
            self._snapshot = self.hypervisor.memory_snapshot()
            self._snapshot_token = token
        return self._snapshot

    # -- residency -----------------------------------------------------------

    def add_resident(self, box: "FleetNymbox") -> None:  # noqa: F821
        self.residents[box.name] = box
        self._image_counts[box.image_id] = self._image_counts.get(box.image_id, 0) + 1

    def pop_resident(self, name: str) -> Optional["FleetNymbox"]:  # noqa: F821
        box = self.residents.pop(name, None)
        if box is not None:
            remaining = self._image_counts.get(box.image_id, 0) - 1
            if remaining > 0:
                self._image_counts[box.image_id] = remaining
            else:
                self._image_counts.pop(box.image_id, None)
        return box

    def images(self) -> Set[str]:
        """Base images currently resident on this host."""
        return set(self._image_counts)

    def image_count(self, image_id: str) -> int:
        return self._image_counts.get(image_id, 0)

    def image_counts(self) -> Dict[str, int]:
        """Copy of the per-image resident counts (for wave planning)."""
        return dict(self._image_counts)

    def resident_names(self) -> List[str]:
        return sorted(self.residents)

    def admits(self, need_ram_bytes: int) -> bool:
        return (
            not self.crashed
            and not self.draining
            and self.free_ram_bytes >= need_ram_bytes
        )

    @property
    def serving(self) -> bool:
        """Up and accepting placements."""
        return not self.crashed and not self.draining

    def __repr__(self) -> str:
        state = (
            "crashed" if self.crashed
            else "draining" if self.draining
            else f"{len(self.residents)} nyms"
        )
        return f"HostHandle({self.host_id}, {state}, pressure={self.pressure:.2f})"
