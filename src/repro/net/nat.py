"""Masquerade NAT: the CommVM's only road to the Internet.

QEMU user-mode networking (slirp) gives a guest a private 10.0.2.0/24
world and rewrites outbound connections to the host's public address.  The
CommVM's outer NIC talks to an instance of this NAT; the NAT's translated
traffic is what a host-side Wireshark (our :class:`PacketCapture`) sees.

The NAT enforces the second half of the §5.1 isolation result: guests can
reach the Internet through it, but never local intranets (RFC 1918 space)
or other guests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import UnreachableError
from repro.net.addresses import Ipv4Address
from repro.net.frame import Ipv4Packet, Protocol, TcpSegment, UdpDatagram
from repro.net.internet import Internet
from repro.net.pcap import PacketCapture
from repro.sim.clock import Timeline

_FIRST_EPHEMERAL_PORT = 49152


@dataclass(frozen=True)
class NatBinding:
    guest_ip: Ipv4Address
    guest_port: int
    dst_ip: Ipv4Address
    dst_port: int
    protocol: Protocol


class MasqueradeNat:
    """Per-nymbox user-mode NAT between a guest and the Internet."""

    def __init__(
        self,
        timeline: Timeline,
        name: str,
        public_ip: Ipv4Address,
        internet: Internet,
        host_capture: PacketCapture,
    ) -> None:
        self.timeline = timeline
        self.name = name
        self.public_ip = public_ip
        self.internet = internet
        self.host_capture = host_capture
        self._bindings: Dict[NatBinding, int] = {}
        self._next_port = _FIRST_EPHEMERAL_PORT
        self.translated_packets = 0
        self.blocked_packets = 0
        metrics = timeline.obs.metrics
        self._obs_translated = metrics.counter("net.nat.translated_packets")
        self._obs_blocked = metrics.counter("net.nat.blocked_packets")
        self._obs_stream_bytes = metrics.counter("net.nat.stream_bytes")

    # -- translation table ------------------------------------------------------

    def _bind(self, binding: NatBinding) -> int:
        port = self._bindings.get(binding)
        if port is None:
            port = self._next_port
            self._next_port += 1
            self._bindings[binding] = port
        return port

    @property
    def active_bindings(self) -> int:
        return len(self._bindings)

    # -- packet path (control plane) -----------------------------------------------

    def forward(self, packet: Ipv4Packet) -> Ipv4Packet:
        """Translate and deliver one outbound packet; return the translated form.

        Raises :class:`UnreachableError` for destinations the NAT refuses
        to carry (private address space — local intranets are off-limits
        to nymboxes) or that do not exist.
        """
        if packet.dst.is_private():
            self.blocked_packets += 1
            self._obs_blocked.inc()
            raise UnreachableError(
                f"{self.name}: NAT refuses guest traffic to private address {packet.dst}"
            )
        # Destination must exist; the lookup raises UnreachableError otherwise.
        self.internet.server_at(packet.dst)

        transport = packet.transport
        if isinstance(transport, (UdpDatagram, TcpSegment)):
            binding = NatBinding(
                guest_ip=packet.src,
                guest_port=transport.src_port,
                dst_ip=packet.dst,
                dst_port=transport.dst_port,
                protocol=packet.protocol,
            )
            public_port = self._bind(binding)
            if isinstance(transport, UdpDatagram):
                translated_transport = UdpDatagram(
                    src_port=public_port,
                    dst_port=transport.dst_port,
                    payload=transport.payload,
                    label=transport.label,
                )
            else:
                translated_transport = TcpSegment(
                    src_port=public_port,
                    dst_port=transport.dst_port,
                    seq=transport.seq,
                    flags=transport.flags,
                    payload=transport.payload,
                    label=transport.label,
                )
        else:
            translated_transport = transport

        translated = Ipv4Packet(
            src=self.public_ip,
            dst=packet.dst,
            transport=translated_transport,
            ttl=packet.ttl - 1,
        )
        self.translated_packets += 1
        self._obs_translated.inc()
        self.record_flow(packet.label, packet.size, summary=translated.describe())
        return translated

    # -- flow path (data plane) ----------------------------------------------------

    def stream(
        self,
        dst: Ipv4Address,
        payload_bytes: int,
        label: str,
        overhead_factor: float = 1.0,
    ) -> float:
        """Carry a bulk flow to ``dst`` over the shared uplink.

        Returns the flow duration (the caller advances the timeline; batch
        parallelism is handled at the uplink by the caller instead).
        """
        if dst.is_private():
            self.blocked_packets += 1
            self._obs_blocked.inc()
            raise UnreachableError(
                f"{self.name}: NAT refuses guest traffic to private address {dst}"
            )
        self.internet.server_at(dst)
        flow = self.internet.uplink.transfer(payload_bytes, overhead_factor)
        self._obs_stream_bytes.inc(flow.wire_bytes)
        self.record_flow(label, flow.wire_bytes)
        return flow.duration_s

    def record_flow(self, label: str, payload_bytes: int, summary: str = "") -> None:
        """Show one flow on this uplink to the host capture (§5.1).

        Every uplink entry of the capture is written here: translated
        packets, bulk streams, and the flows and directory fetches that
        an anonymizer carries over this NAT.
        """
        self.host_capture.record_flow(
            where=f"uplink({self.name})",
            sender=self.name,
            label=label,
            payload_bytes=payload_bytes,
            summary=summary,
        )

    def __repr__(self) -> str:
        return f"MasqueradeNat({self.name!r}, public={self.public_ip})"
