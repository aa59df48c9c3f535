"""End-to-end traffic confirmation against the simulated transports.

A global passive adversary watches both edges of the anonymity network:
the access links of every potential sender (ingress) and the link from
the network's exit to the destination (egress).  For each packet seen
leaving the exit it asks *which senders transmitted at a time consistent
with this packet's network transit delay?* and intersects the candidate
sets across packets.  The attack is decided entirely by the transport's
delay distribution and by how much the transport's cover traffic makes
every sender look busy:

* **tor** — low-latency onion routing adds only per-hop jitter, so the
  consistency window is narrow and idle senders drop out of the
  candidate set within a couple of packets (the classic result: Tor
  does not resist a global passive adversary).
* **dissent** — every group member transmits in every DC-net round by
  construction, so the candidate set never shrinks below the group.
* **mixnet** — the window widens with layer count and mean hop delay
  (an Erlang sum of exponentials), and loop/drop cover makes senders
  stochastically present; anonymity rises with both knobs, bought with
  latency and bandwidth.  This is the tradeoff the sweep harness charts.

Everything is driven by a :class:`SeededRng`, so the same seed yields
the same verdicts — the attack can sit inside journal-compared runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.errors import SimulationError
from repro.obs import Observability
from repro.sim.rng import SeededRng

#: delay-model samples the adversary takes to learn the transit window
_CALIBRATION_DRAWS = 200
#: per-hop wire latency mirrored from the transport simulations
_LINK_LATENCY_S = 0.020
#: how often an idle-but-subscribed user sends real traffic (1 per 30 s)
_USER_SEND_RATE_PPS = 1.0 / 30.0

TRANSPORTS = ("tor", "dissent", "mixnet")


@dataclass
class ConfirmationReport:
    """What the confirmation adversary concluded about one transport."""

    transport: str
    senders: int
    packets_observed: int
    window_s: float
    mean_delay_s: float
    candidate_counts: List[int] = field(default_factory=list)
    anonymity_set_size: int = 0
    confirmed: bool = False

    @property
    def mean_candidates(self) -> float:
        if not self.candidate_counts:
            return 0.0
        return sum(self.candidate_counts) / len(self.candidate_counts)

    def export(self) -> dict:
        return {
            "transport": self.transport,
            "senders": self.senders,
            "packets_observed": self.packets_observed,
            "window_s": round(self.window_s, 6),
            "mean_delay_s": round(self.mean_delay_s, 6),
            "mean_candidates": round(self.mean_candidates, 3),
            "anonymity_set_size": self.anonymity_set_size,
            "confirmed": self.confirmed,
        }


class TrafficConfirmationAttack:
    """A seeded global passive adversary correlating ingress with egress.

    ``senders`` is the population sharing the transport (the target is
    sender 0); ``packets`` is how many target packets the adversary gets
    to observe before rendering a verdict.
    """

    def __init__(
        self,
        rng: SeededRng,
        obs=None,
        senders: int = 20,
        packets: int = 10,
    ) -> None:
        if senders < 2:
            raise SimulationError(f"need at least two senders: {senders!r}")
        if packets < 1:
            raise SimulationError(f"need at least one packet: {packets!r}")
        self.rng = rng
        self.obs = Observability() if obs is None else obs
        self.senders = senders
        self.packets = packets

    # -- per-transport delay models -------------------------------------------

    def _delay(
        self,
        transport: str,
        rng: SeededRng,
        layers: int,
        mean_hop_delay_s: float,
        round_s: float,
    ) -> float:
        if transport == "tor":
            # Three hops of queueing jitter on top of the wire; no mixing.
            return rng.jitter(4 * _LINK_LATENCY_S, 0.5) + rng.jitter(0.15, 0.5)
        if transport == "dissent":
            # The packet waits for its round boundary, then the round runs.
            return rng.uniform(0.0, round_s) + round_s
        if transport == "mixnet":
            # Erlang: the sum of one exponential mixing delay per layer.
            total = (layers + 1) * _LINK_LATENCY_S
            for _ in range(layers):
                total += -math.log(1.0 - rng.random()) * mean_hop_delay_s
            return total
        raise SimulationError(
            f"unknown transport {transport!r} (known: {', '.join(TRANSPORTS)})"
        )

    # -- the attack -----------------------------------------------------------

    def run(
        self,
        transport: str,
        *,
        layers: int = 3,
        mean_hop_delay_s: float = 0.05,
        cover_rate_pps: float = 0.0,
        round_s: float = 0.45,
    ) -> ConfirmationReport:
        """Correlate the target's packets; returns the adversary's report.

        ``layers``/``mean_hop_delay_s``/``cover_rate_pps`` shape the
        mixnet model; ``round_s`` shapes Dissent's.  For Dissent every
        member transmits in every round regardless of ``cover_rate_pps``.
        """
        draw = self.rng.fork(f"confirm:{transport}")

        # Calibration: the adversary samples the transit-delay law and
        # uses the observed spread as its consistency window.
        samples = sorted(
            self._delay(transport, draw, layers, mean_hop_delay_s, round_s)
            for _ in range(_CALIBRATION_DRAWS)
        )
        lo, hi = samples[0], samples[-1]
        width = hi - lo
        mean_delay = sum(samples) / len(samples)

        # Probability an uninvolved sender emits *something* inside one
        # consistency window: real traffic plus the transport's cover.
        if transport == "dissent":
            presence = 1.0  # every member transmits every round
        else:
            rate = _USER_SEND_RATE_PPS + max(0.0, cover_rate_pps)
            presence = 1.0 - math.exp(-rate * width)

        candidates: Set[int] = set(range(self.senders))
        counts: List[int] = []
        for _ in range(self.packets):
            observed = {0}  # the target really did send this packet
            for sender in range(1, self.senders):
                if draw.random() < presence:
                    observed.add(sender)
            candidates &= observed
            counts.append(len(candidates))

        report = ConfirmationReport(
            transport=transport,
            senders=self.senders,
            packets_observed=self.packets,
            window_s=width,
            mean_delay_s=mean_delay,
            candidate_counts=counts,
            anonymity_set_size=len(candidates),
            confirmed=candidates == {0},
        )
        self.obs.metrics.counter("attack.confirmation.runs").inc()
        self.obs.event(
            "confirmation.result",
            transport=transport,
            anonymity_set=report.anonymity_set_size,
            confirmed=report.confirmed,
        )
        return report


def anonymity_after_packets(
    senders: int, presence: float, packets: int
) -> float:
    """Expected surviving candidates: 1 + (senders-1) * presence^packets."""
    return 1.0 + (senders - 1) * (presence ** packets)
