"""Incognito mode: iptables-masquerade relaying, minimal overhead.

The paper's lightweight option (§3.3/§4.1): the CommVM simply NATs the
AnonVM onto the Internet.  It still gives the structural benefits of a
nymbox (ephemeral state, browser isolation, fixed fingerprint) but offers
**no network-level tracking protection** — destinations see the user's
real public address.
"""

from __future__ import annotations

from repro.anonymizers.base import Anonymizer, TransferPlan
from repro.net.addresses import Ipv4Address


class IncognitoMode(Anonymizer):
    """NAT passthrough: fast, unprotected."""

    kind = "incognito"
    protects_network_identity = False
    # Traffic exits as plain NAT'd flows; the §5.1 leak policy still counts
    # it as sanctioned CommVM traffic, so it keeps the anonymizer label.
    traffic_label = "anonymizer"

    _STARTUP_S = 0.4  # one iptables rule install

    def start(self) -> float:
        self.timeline.sleep(self.rng.jitter(self._STARTUP_S, 0.2))
        self.started = True
        self.startup_seconds = self._STARTUP_S
        return self.startup_seconds

    def plan(self, payload_bytes: int) -> TransferPlan:
        return TransferPlan(
            overhead_factor=1.01,  # NAT/TCP bookkeeping only
            path_latency_s=0.0,
            handshake_rtts=1.0,  # plain TCP connect
        )

    def exit_address(self) -> Ipv4Address:
        # The whole point of the weak mode: the destination sees *you*.
        return self.nat.public_ip
