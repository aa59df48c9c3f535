"""The anonymizer contract.

An anonymizer runs inside a CommVM and carries every byte between the
AnonVM and the Internet.  The contract captures what the rest of Nymix
needs to know about a transport:

* how long it takes to **start** (Figure 7's "Start Tor" phase),
* its **wire overhead** and **path latency** (Figures 5 and 7),
* whether it actually hides the client's network identity (incognito
  does not),
* its exportable **state** — the piece of a nym snapshot that preserves
  Tor entry guards across sessions (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import AnonymizerError
from repro.net.addresses import Ipv4Address
from repro.net.internet import Internet
from repro.net.nat import MasqueradeNat
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng


@dataclass
class AnonymizerState:
    """Opaque-but-serializable transport state stored with a persistent nym."""

    kind: str
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class TransferPlan:
    """How a payload of N bytes will be carried by this transport."""

    overhead_factor: float  # bytes-on-wire / payload bytes
    path_latency_s: float  # one-way relay-path latency added per round trip
    handshake_rtts: float  # connection setup round trips (SOCKS, circuits)
    #: transport's own throughput ceiling (DC-net round pacing etc.)
    per_flow_ceiling_bps: float = float("inf")


class Anonymizer:
    """Base class for pluggable transports.

    Concrete classes must set :attr:`kind` and implement :meth:`start`
    and :meth:`plan`.  The common :meth:`fetch` composes the plan with
    the shared uplink to produce page-load / download timings, and routes
    destination-visible addressing correctly (exit address vs client
    address).
    """

    kind = "abstract"
    #: does the destination see something other than the client's IP?
    protects_network_identity = True
    #: traffic label the host capture sees for this transport's uplink flows
    traffic_label = "anonymizer"

    def __init__(
        self,
        timeline: Timeline,
        internet: Internet,
        nat: MasqueradeNat,
        rng: SeededRng,
    ) -> None:
        self.timeline = timeline
        self.internet = internet
        self.nat = nat
        self.rng = rng
        self.started = False
        self.startup_seconds: Optional[float] = None
        self.bytes_carried = 0
        #: owning tenant for ingress shaping; empty = untenanted (no
        #: shaping).  Set by the manager when a nym is created with a
        #: tenant binding; consulted against ``timeline.tenancy``.
        self.tenant = ""

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> float:
        """Bootstrap the transport; returns elapsed seconds."""
        raise NotImplementedError

    def stop(self) -> None:
        self.started = False

    def _require_started(self) -> None:
        if not self.started:
            raise AnonymizerError(f"{self.kind} anonymizer has not been started")

    # -- data path -----------------------------------------------------------

    def plan(self, payload_bytes: int) -> TransferPlan:
        """Cost model for carrying ``payload_bytes``."""
        raise NotImplementedError

    def exit_address(self) -> Ipv4Address:
        """The address destinations observe.  Defaults to the NAT public IP."""
        return self.nat.public_ip

    def resolve(self, hostname: str) -> Ipv4Address:
        """Anonymized DNS (Tor's built-in resolver, Dissent's UDP proxying)."""
        self._require_started()
        return self.internet.resolve(hostname)

    def fetch(self, hostname: str, path: str = "/"):
        """Carry one request/response through this transport.

        Returns the :class:`~repro.net.internet.FetchResult`; the timeline
        advances by the full transfer time including handshakes and relay
        path latency.
        """
        self._require_started()
        # Tenant ingress shaping: wait out any token-bucket debt and
        # strict-priority queueing before the send starts.  ``shape("")``
        # answers 0.0, so untenanted traffic pays nothing and the sleep
        # below never fires for it (journal-neutral).
        throttle_s = self.timeline.tenancy.shape(self.tenant)
        if throttle_s > 0.0:
            self.timeline.sleep(throttle_s)
        plan = self.plan(0)
        result = self.internet.fetch(
            hostname,
            path=path,
            overhead_factor=plan.overhead_factor,
            extra_rtts=plan.handshake_rtts,
            src_ip=self.exit_address(),
            per_flow_ceiling_bps=plan.per_flow_ceiling_bps,
        )
        # Relay-path latency applies on top of the uplink RTT already counted.
        extra = plan.path_latency_s * (plan.handshake_rtts + 1)
        self.timeline.sleep(extra)
        self.bytes_carried += result.response.body_bytes
        self.nat.record_flow(
            self.traffic_label, int(result.response.body_bytes * plan.overhead_factor)
        )
        # Charge the completed transfer against the tenant's rate state
        # (debt-based: the *next* send absorbs any overdraft as delay).
        self.timeline.tenancy.record_sent(self.tenant, result.response.body_bytes)
        return result

    # -- quasi-persistent state (§3.5) ------------------------------------------

    def export_state(self) -> AnonymizerState:
        """State worth persisting with the nym (guards, keys).  May be empty."""
        return AnonymizerState(kind=self.kind)

    def import_state(self, state: AnonymizerState) -> None:
        """Restore previously exported state before :meth:`start`."""
        if state.kind != self.kind:
            raise AnonymizerError(
                f"cannot import {state.kind!r} state into a {self.kind!r} anonymizer"
            )

    def __repr__(self) -> str:
        status = "started" if self.started else "stopped"
        return f"{type(self).__name__}({status})"
