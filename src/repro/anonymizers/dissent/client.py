"""Dissent as a pluggable CommVM anonymizer."""

from __future__ import annotations

from typing import Optional

from repro.anonymizers.base import Anonymizer, TransferPlan
from repro.anonymizers.dissent.dcnet import DcNetDeployment, DcNetRound
from repro.errors import AnonymizerError
from repro.net.addresses import Ipv4Address
from repro.net.internet import Internet
from repro.net.nat import MasqueradeNat
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng

#: One anytrust server fronts the deployment's traffic toward destinations.
_FRONT_SERVER_IP = Ipv4Address.parse("198.51.102.1")


class DissentClient(Anonymizer):
    """Anytrust DC-net transport: strong anonymity, round-paced throughput.

    Every member transmits every round (cover traffic), so goodput is the
    slot size divided by the round time regardless of demand, and latency
    is at least one round.  Dissent supports UDP proxying (§4.1), so DNS
    needs no special-casing.
    """

    kind = "dissent"

    ROUND_SECONDS = 0.45
    SLOT_BYTES = 48 * 1024

    def __init__(
        self,
        timeline: Timeline,
        internet: Internet,
        nat: MasqueradeNat,
        rng: SeededRng,
        deployment: Optional[DcNetDeployment] = None,
        client_index: int = 0,
    ) -> None:
        super().__init__(timeline, internet, nat, rng)
        self.deployment = deployment or DcNetDeployment(rng, num_clients=8, num_servers=3)
        if not 0 <= client_index < self.deployment.num_clients:
            raise AnonymizerError(
                f"client index {client_index} out of range for "
                f"{self.deployment.num_clients}-client deployment"
            )
        self.client_index = client_index
        self.rounds_run = 0

    @property
    def client_name(self) -> str:
        return self.deployment.clients[self.client_index].name

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> float:
        begin = self.timeline.now
        # Key agreement with every anytrust server (one RTT each, pipelined)
        # plus scheduling into the next round.
        self.timeline.sleep(self.rng.jitter(0.8, 0.1))
        self.timeline.sleep(self.deployment.num_servers * 2 * self.internet.rtt_s)
        self.timeline.sleep(self.ROUND_SECONDS)  # wait for a round boundary
        self.started = True
        self.startup_seconds = self.timeline.now - begin
        return self.startup_seconds

    # -- transport contract ------------------------------------------------------

    def plan(self, payload_bytes: int) -> TransferPlan:
        # Upstream cover traffic: every client transmits a full slot each
        # round.  The *client's own* wire cost per useful byte stays modest
        # (servers do the N-fold work), but round pacing caps throughput.
        ceiling = self.SLOT_BYTES * 8 / self.ROUND_SECONDS
        return TransferPlan(
            overhead_factor=1.30,
            path_latency_s=self.ROUND_SECONDS,  # at least a round boundary
            handshake_rtts=1.0,
            per_flow_ceiling_bps=ceiling,
        )

    def exit_address(self) -> Ipv4Address:
        return _FRONT_SERVER_IP

    # -- protocol-level round (for validation and examples) -------------------------

    def transmit_anonymously(self, message: bytes) -> bytes:
        """Send one slot through a real DC-net round; returns the output.

        The returned plaintext equals ``message`` (padded), yet no single
        ciphertext reveals the sender — asserted by the protocol tests.
        """
        self._require_started()
        if len(message) > self.SLOT_BYTES:
            raise AnonymizerError(
                f"message exceeds slot size ({len(message)} > {self.SLOT_BYTES})"
            )
        round_obj = DcNetRound(
            round_id=self.rounds_run,
            slot_bytes=max(len(message), 1),
            owner=self.client_name,
            message=message,
        )
        self.rounds_run += 1
        self.timeline.sleep(self.ROUND_SECONDS)
        return self.deployment.run_round(round_obj)
