"""Host memory remanence after VM shutdown (§3.4's Dunn discussion).

"Nymix and all other existing production solutions retain traces of that
state until reboot; however, because the hypervisor cannot be accessed
without live confiscation, such state is likely to be inaccessible."

Nymix securely erases the *guest-visible* pages at nym teardown, but
host-side copies — kernel page-cache lines, DMA bounce buffers, QEMU heap
fragments — survive in free host RAM until reboot or until Dunn-style
ephemeral-channel scrubbing [18] reclaims them.  This module accounts for
those traces and models the two adversaries: one with live physical
access (cold-boot / DMA) and one who only gets the machine after a
power-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import MemoryError_
from repro.obs import Observability


class AdversaryAccess(enum.Enum):
    """When the adversary gets their hands on the machine."""

    LIVE = "live"  # running system confiscated: can image host RAM
    AFTER_SHUTDOWN = "after-shutdown"  # powered off: RAM contents are gone


@dataclass(frozen=True)
class ResidualTrace:
    """One batch of host-side bytes still attributable to a dead nym."""

    nym_name: str
    kind: str  # "page-cache", "dma-buffer", "vmm-heap"
    residual_bytes: int


class RemanenceTracker:
    """Accounts for host-side traces of destroyed nyms until reboot.

    ``residual_fraction`` is the share of a guest's footprint that leaves
    host-side copies despite guest-page erasure; ``ephemeral_channels``
    models Dunn's mitigation, which scrubs DMA and VMM copies as they are
    released (at some compute/hardware cost, which is why the paper
    defers it).
    """

    _KIND_SHARES = {"page-cache": 0.55, "dma-buffer": 0.15, "vmm-heap": 0.30}

    def __init__(
        self,
        residual_fraction: float = 0.02,
        ephemeral_channels: bool = False,
        obs=None,
    ) -> None:
        if not 0 <= residual_fraction <= 1:
            raise MemoryError_(f"residual fraction out of range: {residual_fraction}")
        self.residual_fraction = residual_fraction
        self.ephemeral_channels = ephemeral_channels
        self._traces: List[ResidualTrace] = []
        #: the sum of every trace's bytes, kept as traces are added so a
        #: teardown costs O(1) however many nyms died since the reboot
        self._residual_bytes = 0
        self.reboots = 0
        self.obs = Observability() if obs is None else obs
        self._obs_residual = self.obs.metrics.gauge("mem.remanence.residual_bytes")

    # -- lifecycle hooks ----------------------------------------------------------

    def record_nym_teardown(self, nym_name: str, guest_footprint_bytes: int) -> int:
        """Called when a nym is destroyed.  Returns residual bytes left."""
        if guest_footprint_bytes < 0:
            raise MemoryError_(f"negative footprint: {guest_footprint_bytes}")
        residual = int(guest_footprint_bytes * self.residual_fraction)
        if self.ephemeral_channels:
            # Dunn-style scrubbing eliminates DMA and VMM copies; only a
            # sliver of page-cache metadata survives.
            residual = int(residual * 0.02)
            if residual:
                self._add_trace(ResidualTrace(nym_name, "page-cache", residual))
        else:
            for kind, share in self._KIND_SHARES.items():
                portion = int(residual * share)
                if portion:
                    self._add_trace(ResidualTrace(nym_name, kind, portion))
        self._obs_residual.set(self._residual_bytes)
        self.obs.event(
            "remanence.teardown",
            nym=nym_name,
            residual_bytes=residual,
            scrubbed=self.ephemeral_channels,
        )
        return residual

    def _add_trace(self, trace: ResidualTrace) -> None:
        self._traces.append(trace)
        self._residual_bytes += trace.residual_bytes

    def reboot(self) -> int:
        """Power cycle: volatile RAM loses everything.  Returns bytes cleared."""
        cleared = self._residual_bytes
        self._traces.clear()
        self._residual_bytes = 0
        self.reboots += 1
        self._obs_residual.set(0)
        self.obs.metrics.counter("mem.remanence.reboots").inc()
        self.obs.event("remanence.reboot", cleared_bytes=cleared)
        return cleared

    # -- the adversary's view ------------------------------------------------------

    @property
    def total_residual_bytes(self) -> int:
        return self._residual_bytes

    def traces_for(self, nym_name: str) -> List[ResidualTrace]:
        return [t for t in self._traces if t.nym_name == nym_name]

    def recoverable_bytes(self, access: AdversaryAccess) -> int:
        """How much dead-nym data an adversary can image."""
        if access is AdversaryAccess.LIVE:
            return self.total_residual_bytes
        return 0  # power-off loses volatile RAM

    def evidence_of_nym(self, nym_name: str, access: AdversaryAccess) -> bool:
        """Could forensics prove this nym existed?"""
        if access is AdversaryAccess.AFTER_SHUTDOWN:
            return False
        return bool(self.traces_for(nym_name))

    def summary(self) -> Dict[str, int]:
        by_kind: Dict[str, int] = {}
        for trace in self._traces:
            by_kind[trace.kind] = by_kind.get(trace.kind, 0) + trace.residual_bytes
        return by_kind
