"""The simulated Internet: addressable servers behind a shared uplink."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import NetworkError, UnreachableError
from repro.net.addresses import Ipv4Address
from repro.net.bandwidth import BandwidthPool, FlowResult
from repro.sim.clock import Timeline


@dataclass(frozen=True)
class HttpResponse:
    """What a simulated server hands back for one request."""

    status: int
    body_bytes: int
    cacheable_bytes: int = 0  # portion a browser would keep in its cache
    set_cookie_bytes: int = 0


class Server:
    """A network service at a fixed address.

    Subclasses (websites, cloud providers, directory authorities, download
    mirrors) override :meth:`handle` to describe their responses.
    """

    def __init__(self, hostname: str, ip: Ipv4Address) -> None:
        self.hostname = hostname
        self.ip = ip
        self.requests_served = 0
        self.seen_client_ips: List[Ipv4Address] = []

    def record_client(self, src_ip: Optional[Ipv4Address]) -> None:
        """Log the address this server observes for a request (tracking!)."""
        if src_ip is not None:
            self.seen_client_ips.append(src_ip)

    def handle(self, path: str, request_bytes: int = 500) -> HttpResponse:
        self.requests_served += 1
        return HttpResponse(status=200, body_bytes=10_000)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.hostname!r} @ {self.ip})"


class Internet:
    """Address and name registry plus the shared host uplink.

    The paper's testbed: a 10 Mbit/s, 80 ms RTT path between the Nymix
    host and everything beyond it (DeterLab plus the real Internet).
    """

    def __init__(
        self,
        timeline: Timeline,
        uplink_bps: float = 10_000_000.0,
        rtt_s: float = 0.080,
    ) -> None:
        self.timeline = timeline
        self.rtt_s = rtt_s
        self.uplink = BandwidthPool(
            capacity_bps=uplink_bps, rtt_s=rtt_s, obs=timeline.obs
        )
        self._by_ip: Dict[Ipv4Address, Server] = {}
        self._by_name: Dict[str, Ipv4Address] = {}

    # -- registry ------------------------------------------------------------

    def add_server(self, server: Server) -> Server:
        if server.ip in self._by_ip:
            raise NetworkError(f"address {server.ip} already in use")
        if server.hostname in self._by_name:
            raise NetworkError(f"hostname {server.hostname!r} already registered")
        self._by_ip[server.ip] = server
        self._by_name[server.hostname] = server.ip
        return server

    def resolve(self, hostname: str) -> Ipv4Address:
        try:
            return self._by_name[hostname]
        except KeyError:
            raise UnreachableError(f"NXDOMAIN: {hostname!r}") from None

    def server_at(self, ip: Ipv4Address) -> Server:
        try:
            return self._by_ip[ip]
        except KeyError:
            raise UnreachableError(f"no route to host {ip}") from None

    def server_named(self, hostname: str) -> Server:
        return self.server_at(self.resolve(hostname))

    # -- data plane ---------------------------------------------------------

    def fetch(
        self,
        hostname: str,
        path: str = "/",
        overhead_factor: float = 1.0,
        extra_rtts: float = 1.0,
        src_ip: Optional[Ipv4Address] = None,
        per_flow_ceiling_bps: float = float("inf"),
    ) -> "FetchResult":
        """One request/response exchange, advancing the timeline.

        ``extra_rtts`` counts handshake round trips beyond the request
        itself (TCP connect, TLS, SOCKS negotiation through an anonymizer).
        ``src_ip`` is the address the destination server observes — the
        client's real public IP for direct traffic, the exit relay's for
        Tor traffic.
        """
        server = self.server_named(hostname)
        server.record_client(src_ip)
        response = server.handle(path)
        flow = self.uplink.transfer(
            response.body_bytes, overhead_factor, per_flow_ceiling_bps
        )
        total = flow.duration_s + self.rtt_s * extra_rtts
        self.timeline.sleep(total)
        return FetchResult(response=response, flow=flow, duration_s=total)


@dataclass(frozen=True)
class FetchResult:
    response: HttpResponse
    flow: Optional[FlowResult]
    duration_s: float
