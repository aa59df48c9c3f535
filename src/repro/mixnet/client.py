"""The ``"mixnet"`` anonymizer: a client of the stratified mix deployment.

Forward packets cross one node per layer with an exponential (Poisson
process) delay per hop; replies come back through a pre-built single-use
reply block.  Independently of user traffic, the client emits loop and
drop cover packets on a Poisson clock, so an observer at the entry layer
sees transmissions whether or not the user is active — the property the
traffic-confirmation attack in :mod:`repro.attacks` measures.

Cover ticks run as timeline events: they do their crypto synchronously
and schedule a delivery event at the packet's modelled arrival time
(never sleeping inside the callback — event handlers must not advance
the clock).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.anonymizers.base import Anonymizer, AnonymizerState, TransferPlan
from repro.errors import MixnetError
from repro.faults.retry import RetryPolicy, retry_call
from repro.mixnet.packet import (
    PAYLOAD_BYTES,
    build_packet,
    build_reply_block,
    encode_body,
    open_body,
    open_reply,
    packet_bytes,
)
from repro.mixnet.topology import MixNode, MixTopology
from repro.net.addresses import Ipv4Address
from repro.net.internet import Internet
from repro.net.nat import MasqueradeNat
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng

#: one-way latency of each inter-mix (and client/exit edge) link
LINK_LATENCY_S = 0.020
#: directory refresh + SURB management traffic beyond packetization
CONTROL_OVERHEAD = 0.04
#: client send pacing: packets per second a single flow may emit
SEND_RATE_PPS = 64.0

_PROCESS_LAUNCH_S = 0.6
_DIRECTORY_SETTLE_S = 0.8
_LOOP_PAYLOAD = b"mixnet-loop-cover"


class MixnetClient(Anonymizer):
    """One nym's mixnet client (fresh per CommVM, like the Tor client)."""

    kind = "mixnet"

    def __init__(
        self,
        timeline: Timeline,
        internet: Internet,
        nat: MasqueradeNat,
        rng: SeededRng,
        topology: MixTopology,
        cover_rate_pps: float = 1.0,
        mean_hop_delay_s: float = 0.05,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(timeline, internet, nat, rng)
        if cover_rate_pps < 0:
            raise MixnetError(f"cover rate must be >= 0, got {cover_rate_pps}")
        if mean_hop_delay_s < 0:
            raise MixnetError(f"hop delay must be >= 0, got {mean_hop_delay_s}")
        self.topology = topology
        self.cover_rate_pps = cover_rate_pps
        self.mean_hop_delay_s = mean_hop_delay_s
        self.retry_policy = retry_policy or RetryPolicy()
        self._path: Optional[List[MixNode]] = None
        self._cover_event = None
        self._cover_inflight = 0
        self._topology_cached = False
        self.cover_packets_sent = 0
        self.cover_bytes_sent = 0
        self.reroutes = 0

    # -- bootstrap -------------------------------------------------------

    def start(self) -> float:
        obs = self.timeline.obs
        begin = self.timeline.now
        with obs.span("mixnet.start"):
            self.timeline.sleep(self.rng.jitter(_PROCESS_LAUNCH_S, 0.1))
            if not self._topology_cached:
                doc_bytes = self.topology.document_bytes()
                duration = self.internet.uplink.transfer(doc_bytes).duration_s
                self.nat.record_flow(
                    "anonymizer", doc_bytes, summary="mixnet directory fetch"
                )
                self.timeline.sleep(
                    duration + self.rng.jitter(_DIRECTORY_SETTLE_S, 0.15)
                )
            self._path = self.topology.sample_path(self.rng)
            # Prime the route with one loop cover packet: real crypto end
            # to end, proving the path before user traffic rides it.
            echo = self._round_trip(_LOOP_PAYLOAD)
            if echo != _LOOP_PAYLOAD:
                raise MixnetError("mixnet loop cover failed to round-trip")
        self.started = True
        self.startup_seconds = self.timeline.now - begin
        obs.metrics.histogram("mixnet.start_s").observe(self.startup_seconds)
        obs.event(
            "mixnet.started",
            warm=self._topology_cached,
            layers=self.topology.num_layers,
            cover_rate_pps=round(self.cover_rate_pps, 6),
            seconds=round(self.startup_seconds, 6),
        )
        self._schedule_cover()
        return self.startup_seconds

    def stop(self) -> None:
        if self._cover_event is not None:
            self._cover_event.cancel()
            self._cover_event = None
        self._path = None
        super().stop()

    # -- path maintenance (churn -> reroute) ------------------------------

    def _live_path(self) -> List[MixNode]:
        if self._path is not None:
            dead = [node.name for node in self._path if not node.alive]
            if dead:
                self._path = None
                self.reroutes += 1
                self.timeline.obs.metrics.counter("mixnet.reroutes").inc()
                self.timeline.obs.event("mixnet.rerouted", dead=",".join(dead))
        if self._path is None:
            self._path = self.topology.sample_path(self.rng)
        return self._path

    # -- timing model -----------------------------------------------------

    def _hop_delay(self) -> float:
        """Exponential per-hop mixing delay (a Poisson mix in expectation)."""
        return LINK_LATENCY_S - math.log(1.0 - self.rng.random()) * self.mean_hop_delay_s

    # -- the real data path (layered crypto through live nodes) -----------

    def _relay_forward(
        self, path: List[MixNode], packet: bytes, advance: bool
    ) -> Tuple[bytes, float]:
        """Walk ``packet`` through ``path``; returns (peeled body, total delay)."""
        obs = self.timeline.obs
        total = 0.0
        for index, node in enumerate(path):
            next_hop, packet = node.process(packet)
            expected = path[index + 1].name if index + 1 < len(path) else None
            if next_hop != expected:
                raise MixnetError(
                    f"routing mismatch at {node.name}: {next_hop!r} != {expected!r}"
                )
            delay = self._hop_delay()
            obs.metrics.histogram(f"mixnet.layer{index}.delay_s").observe(delay)
            total += delay
            if advance:
                queue = obs.metrics.gauge(f"mixnet.layer{index}.queue")
                queue.set(1)
                self.timeline.sleep(delay)
                queue.set(0)
        total += LINK_LATENCY_S  # exit -> destination edge
        if advance:
            self.timeline.sleep(LINK_LATENCY_S)
        return packet, total

    def _relay_reply(
        self,
        reply_path: List[MixNode],
        header: bytes,
        body: bytes,
        advance: bool,
    ) -> Tuple[bytes, float]:
        obs = self.timeline.obs
        total = 0.0
        for index, node in enumerate(reply_path):
            next_hop, header, body = node.process_reply(header, body)
            expected = (
                reply_path[index + 1].name if index + 1 < len(reply_path) else None
            )
            if next_hop != expected:
                raise MixnetError(
                    f"reply routing mismatch at {node.name}: "
                    f"{next_hop!r} != {expected!r}"
                )
            delay = self._hop_delay()
            obs.metrics.histogram(f"mixnet.layer{index}.delay_s").observe(delay)
            total += delay
            if advance:
                self.timeline.sleep(delay)
        total += LINK_LATENCY_S  # last reply mix -> client edge
        if advance:
            self.timeline.sleep(LINK_LATENCY_S)
        return body, total

    def _round_trip(self, plaintext: bytes, advance: bool = True) -> bytes:
        """Forward onion out, exit echoes through a fresh reply block."""
        obs = self.timeline.obs
        path = self._live_path()
        reply_path = self.topology.sample_path(self.rng)
        block = build_reply_block(self.rng, reply_path)
        packet = build_packet(self.rng, path, plaintext)
        obs.metrics.counter("mixnet.packets.sent").inc()
        body, _ = self._relay_forward(path, packet, advance)
        payload = open_body(body)
        echo = encode_body(payload, self.rng.token_bytes(8))
        body, _ = self._relay_reply(reply_path, block.header, echo, advance)
        response = open_reply(block, body)
        obs.metrics.counter("mixnet.packets.delivered").inc()
        return response

    def send_payload(self, plaintext: bytes) -> bytes:
        """Round-trip a payload through real layered crypto (for validation).

        Mix-node churn mid-flight raises :class:`MixnetError`; the retry
        re-samples the path from the survivors of each layer.
        """
        self._require_started()
        if len(plaintext) > PAYLOAD_BYTES:
            raise MixnetError(
                f"payload exceeds packet capacity "
                f"({len(plaintext)} > {PAYLOAD_BYTES})"
            )
        return retry_call(
            self.timeline,
            lambda: self._round_trip(plaintext),
            policy=self.retry_policy,
            retryable=MixnetError,
            site="mixnet.send",
            reraise=True,
        )

    # -- cover traffic (loop + drop, Poisson clock) ------------------------

    def _schedule_cover(self) -> None:
        if self.cover_rate_pps <= 0:
            return
        gap = -math.log(1.0 - self.rng.random()) / self.cover_rate_pps
        self._cover_event = self.timeline.after(gap, self._cover_tick)

    def _cover_tick(self) -> None:
        self._cover_event = None
        if not self.started:
            return
        obs = self.timeline.obs
        is_loop = self.rng.random() < 0.5
        try:
            path = self.topology.sample_path(self.rng)
            if is_loop:
                # A loop returns to the client through a reply block; the
                # crypto runs now, delivery lands at the modelled arrival.
                reply_path = self.topology.sample_path(self.rng)
                block = build_reply_block(self.rng, reply_path)
                packet = build_packet(self.rng, path, _LOOP_PAYLOAD)
                body, fwd = self._relay_forward(path, packet, advance=False)
                echo = encode_body(open_body(body), self.rng.token_bytes(8))
                body, back = self._relay_reply(
                    reply_path, block.header, echo, advance=False
                )
                if open_reply(block, body) != _LOOP_PAYLOAD:
                    raise MixnetError("loop cover packet came back corrupted")
                total = fwd + back
                obs.metrics.counter("mixnet.cover.loop").inc()
            else:
                # A drop packet dies at the exit, unobservably.
                packet = build_packet(self.rng, path, b"")
                _, total = self._relay_forward(path, packet, advance=False)
                obs.metrics.counter("mixnet.cover.drop").inc()
            self.cover_packets_sent += 1
            self.cover_bytes_sent += packet_bytes(len(path))
            self._cover_inflight += 1
            obs.metrics.gauge("mixnet.cover.inflight").set(self._cover_inflight)
            self.timeline.after(total, self._cover_delivered)
        except MixnetError:
            obs.metrics.counter("mixnet.cover.skipped").inc()
        self._schedule_cover()

    def _cover_delivered(self) -> None:
        obs = self.timeline.obs
        self._cover_inflight -= 1
        obs.metrics.gauge("mixnet.cover.inflight").set(self._cover_inflight)
        obs.metrics.counter("mixnet.cover.delivered").inc()

    # -- transport contract ------------------------------------------------

    def plan(self, payload_bytes: int) -> TransferPlan:
        path = self._live_path()
        layers = len(path)
        wire_factor = packet_bytes(layers) / PAYLOAD_BYTES
        return TransferPlan(
            overhead_factor=wire_factor * (1.0 + CONTROL_OVERHEAD),
            path_latency_s=(layers + 1) * LINK_LATENCY_S
            + layers * self.mean_hop_delay_s,
            handshake_rtts=1.0,  # SURB delivery before the first response
            per_flow_ceiling_bps=PAYLOAD_BYTES * 8 * SEND_RATE_PPS,
        )

    def exit_address(self) -> Ipv4Address:
        """Destinations see the deployment's exit gateway, never the client."""
        return self.topology.gateway_ip

    def resolve(self, hostname: str) -> Ipv4Address:
        """DNS resolves at the exit gateway, one round trip away."""
        self._require_started()
        answer = self.internet.resolve(hostname)
        plan = self.plan(0)
        self.timeline.sleep(2 * plan.path_latency_s)
        return answer

    # -- quasi-persistent state (§3.5) -------------------------------------

    def export_state(self) -> AnonymizerState:
        return AnonymizerState(
            kind=self.kind,
            payload={"topology_cached": True},
        )

    def import_state(self, state: AnonymizerState) -> None:
        super().import_state(state)
        self._topology_cached = bool(state.payload.get("topology_cached"))
