"""Virtual network interfaces."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import UnreachableError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.frame import EthernetFrame, Ipv4Packet

FrameHandler = Callable[[EthernetFrame], None]


class VirtualNic:
    """A guest-visible NIC: one MAC, optionally one IPv4 address, one wire.

    Frames sent with no wire attached vanish (the "no-response, as if the
    host did not exist" behaviour the paper's validation observed when
    probing across isolation boundaries).
    """

    def __init__(self, name: str, mac: MacAddress, ip: Optional[Ipv4Address] = None) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self._wire = None  # type: Optional[object]
        self._handlers: List[FrameHandler] = []
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.dropped_frames = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, wire: object) -> None:
        self._wire = wire

    def detach(self) -> None:
        self._wire = None

    @property
    def connected(self) -> bool:
        return self._wire is not None

    def on_receive(self, handler: FrameHandler) -> None:
        self._handlers.append(handler)

    def clear_handlers(self) -> None:
        self._handlers.clear()

    # -- data path -----------------------------------------------------------

    def send(self, frame: EthernetFrame, strict: bool = False) -> bool:
        """Transmit a frame.  Returns whether it was carried anywhere.

        With ``strict=True`` an unconnected NIC raises instead of silently
        dropping — used by tests that assert isolation failures loudly.
        """
        self.tx_frames += 1
        self.tx_bytes += frame.size
        if self._wire is None:
            self.dropped_frames += 1
            if strict:
                raise UnreachableError(f"NIC {self.name!r} has no wire attached")
            return False
        self._wire.carry(self, frame)  # type: ignore[attr-defined]
        return True

    def send_packet(self, packet: Ipv4Packet, dst_mac: MacAddress, strict: bool = False) -> bool:
        frame = EthernetFrame(src_mac=self.mac, dst_mac=dst_mac, packet=packet)
        return self.send(frame, strict=strict)

    def deliver(self, frame: EthernetFrame) -> None:
        """Called by the wire when a frame arrives for this NIC."""
        if frame.dst_mac != self.mac and not frame.is_broadcast:
            self.dropped_frames += 1
            return
        self.rx_frames += 1
        self.rx_bytes += frame.size
        for handler in self._handlers:
            handler(frame)

    def __repr__(self) -> str:
        ip = str(self.ip) if self.ip else "-"
        return f"VirtualNic({self.name!r}, mac={self.mac}, ip={ip})"
