"""Packet capture and leak analysis (the §5.1 Wireshark methodology).

The paper validates Nymix by tunnelling the hypervisor's traffic to a NAT
on an outer host and watching it with Wireshark: an idle Nymix client must
emit only DHCP and anonymizer traffic, and the AnonVM must emit nothing at
all.  :class:`PacketCapture` is the tap; :class:`LeakAnalyzer` encodes the
"what is this traffic allowed to be" policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.frame import EthernetFrame
from repro.sim.clock import Timeline


@dataclass(frozen=True)
class CaptureEntry:
    """One observed frame (or summarized flow) on a tapped link."""

    time: float
    where: str  # wire or uplink name
    sender: str  # NIC name
    summary: str
    label: str  # protocol tag: "dhcp", "anonymizer", "dns", "" for unknown
    size: int
    flow_bytes: int = 0  # nonzero when this entry summarizes a bulk flow


class PacketCapture:
    """A promiscuous tap that can be attached to wires and NAT uplinks."""

    def __init__(self, timeline: Timeline, name: str = "capture") -> None:
        self.timeline = timeline
        self.name = name
        self.entries: List[CaptureEntry] = []

    def observe(self, wire: object, sender: object, frame: EthernetFrame) -> None:
        label = frame.packet.label if frame.packet is not None else "raw-ethernet"
        self.entries.append(
            CaptureEntry(
                time=self.timeline.now,
                where=getattr(wire, "name", str(wire)),
                sender=getattr(sender, "name", str(sender)),
                summary=frame.describe(),
                label=label,
                size=frame.size,
            )
        )

    def record_flow(
        self, where: str, sender: str, label: str, payload_bytes: int, summary: str = ""
    ) -> None:
        """Record a summarized bulk flow (data plane)."""
        self.entries.append(
            CaptureEntry(
                time=self.timeline.now,
                where=where,
                sender=sender,
                summary=summary or f"flow [{label}] ({payload_bytes} B)",
                label=label,
                size=0,
                flow_bytes=payload_bytes,
            )
        )

    def clear(self) -> None:
        self.entries.clear()

    def by_label(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.label] = counts.get(entry.label, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class LeakReport:
    """Outcome of scanning a capture against an allowed-traffic policy."""

    total_entries: int
    allowed_labels: Sequence[str]
    counts_by_label: Dict[str, int]
    leaks: List[CaptureEntry] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.leaks

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.leaks)} LEAK(S)"
        labels = ", ".join(
            f"{label or '<unlabeled>'}={count}"
            for label, count in sorted(self.counts_by_label.items())
        )
        return f"{status}: {self.total_entries} entries ({labels})"


class LeakAnalyzer:
    """Classifies captured traffic as expected or leaking.

    The §5.1 policy for the host uplink: DHCP and anonymizer traffic only.
    Any raw Ethernet, unlabeled IP, or application-labelled traffic that
    bypassed the anonymizer counts as a leak.
    """

    DEFAULT_ALLOWED = ("dhcp", "anonymizer")

    def __init__(self, allowed_labels: Optional[Sequence[str]] = None) -> None:
        self.allowed_labels = tuple(
            allowed_labels if allowed_labels is not None else self.DEFAULT_ALLOWED
        )

    def analyze(self, capture: PacketCapture) -> LeakReport:
        counts: Dict[str, int] = {}
        leaks: List[CaptureEntry] = []
        for entry in capture.entries:
            counts[entry.label] = counts.get(entry.label, 0) + 1
            if entry.label not in self.allowed_labels:
                leaks.append(entry)
        return LeakReport(
            total_entries=len(capture.entries),
            allowed_labels=self.allowed_labels,
            counts_by_label=counts,
            leaks=leaks,
        )
