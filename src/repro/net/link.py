"""Point-to-point virtual wires.

The hypervisor connects each AnonVM to its CommVM with a UDP-socket
"virtual wire" that only hypervisor-resident endpoints can touch (§4.2).
A :class:`VirtualWire` carries frames between exactly two NICs, applying
propagation latency; taps (packet captures) may observe both directions.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

from repro.errors import NetworkError
from repro.net.frame import EthernetFrame
from repro.net.nic import VirtualNic
from repro.sim.clock import Timeline


class VirtualWire:
    """A two-endpoint wire with propagation latency and optional taps."""

    def __init__(
        self,
        timeline: Timeline,
        a: VirtualNic,
        b: VirtualNic,
        latency_s: float = 0.0001,
        name: str = "",
    ) -> None:
        if a is b:
            raise NetworkError("a wire needs two distinct endpoints")
        if latency_s < 0:
            raise NetworkError(f"negative latency: {latency_s}")
        self.timeline = timeline
        self.name = name or f"wire({a.name}<->{b.name})"
        self.latency_s = latency_s
        # Each attached NIC holds this wire, so the wire holds its NICs
        # only weakly: strong both ways, every wire is a reference cycle.
        self._a = weakref.ref(a)
        self._b = weakref.ref(b)
        self._taps: List[object] = []
        self._up = True
        a.attach(self)
        b.attach(self)
        metrics = timeline.obs.metrics
        self._obs_frames = metrics.counter("net.link.frames")
        self._obs_bytes = metrics.counter("net.link.bytes")
        self._obs_dropped = metrics.counter("net.link.dropped_frames")

    @property
    def endpoints(self) -> tuple:
        return (self._a(), self._b())

    @property
    def up(self) -> bool:
        return self._up

    def take_down(self) -> None:
        """Sever the wire (nym teardown)."""
        self._up = False
        for nic in self.endpoints:
            if nic is not None:
                nic.detach()

    def bring_up(self) -> None:
        """Restore a downed wire: both NICs re-attach and frames flow again."""
        if self._up:
            return
        for nic in self.endpoints:
            if nic is not None:
                nic.attach(self)
        self._up = True
        self.timeline.obs.event("net.link.up", wire=self.name)

    def flap(self, down_for_s: float) -> None:
        """Take the wire down now and bring it back ``down_for_s`` later.

        The recovery rides the timeline, so it fires during whatever sleep
        the affected workload is in — a transient outage, not teardown.
        """
        if down_for_s <= 0:
            raise NetworkError(f"flap duration must be positive: {down_for_s!r}")
        self.take_down()
        self.timeline.obs.event(
            "net.link.flap", wire=self.name, down_for_s=round(down_for_s, 6)
        )
        self.timeline.obs.metrics.counter("net.link.flaps").inc()
        self.timeline.after(down_for_s, self.bring_up)

    def add_tap(self, tap: object) -> None:
        """Attach a capture object with an ``observe(wire, sender, frame)`` method."""
        self._taps.append(tap)

    def carry(self, sender: VirtualNic, frame: EthernetFrame) -> None:
        """Propagate ``frame`` from ``sender`` to the far end after latency."""
        if not self._up:
            sender.dropped_frames += 1
            self._obs_dropped.inc()
            return
        a = self._a()
        if sender is a:
            receiver: Optional[VirtualNic] = self._b()
        elif sender is self._b():
            receiver = a
        else:
            raise NetworkError(f"{sender!r} is not an endpoint of {self.name}")
        self._obs_frames.inc()
        self._obs_bytes.inc(frame.size)
        for tap in self._taps:
            tap.observe(self, sender, frame)  # type: ignore[attr-defined]
        if self.latency_s == 0:
            receiver.deliver(frame)
        else:
            self.timeline.after(self.latency_s, lambda: receiver.deliver(frame))

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"VirtualWire({self.name}, {state}, latency={self.latency_s * 1000:.2f}ms)"
