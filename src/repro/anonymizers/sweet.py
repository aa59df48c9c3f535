"""SWEET: serving the web by exploiting email tunnels.

The paper's authors built their own SWEET implementation for Nymix (§4.1):
web traffic is smuggled through an ordinary email account, which censors
are reluctant to block wholesale.  Store-and-forward mail delivery makes
it extremely high-latency and low-throughput — a circumvention tool of
last resort, not a browsing transport.
"""

from __future__ import annotations

from repro.anonymizers.base import Anonymizer, TransferPlan
from repro.net.addresses import Ipv4Address

_MAIL_PROVIDER_IP = Ipv4Address.parse("198.51.103.1")


class SweetTunnel(Anonymizer):
    """Web-over-email tunnelling."""

    kind = "sweet"

    #: one mail round trip: submission, relay queues, polling the reply
    MAIL_ROUND_TRIP_S = 4.0
    #: MIME + base64 + headers roughly half again the payload
    MIME_OVERHEAD = 1.55
    #: mail-provider throttling caps effective throughput
    THROUGHPUT_CEILING_BPS = 256_000.0

    def start(self) -> float:
        begin = self.timeline.now
        # Log in to the mail account and prime the tunnel with a probe mail.
        self.timeline.sleep(self.rng.jitter(1.0, 0.1))
        self.timeline.sleep(self.MAIL_ROUND_TRIP_S)
        self.started = True
        self.startup_seconds = self.timeline.now - begin
        return self.startup_seconds

    def plan(self, payload_bytes: int) -> TransferPlan:
        return TransferPlan(
            overhead_factor=self.MIME_OVERHEAD,
            path_latency_s=self.MAIL_ROUND_TRIP_S,
            handshake_rtts=1.0,
            per_flow_ceiling_bps=self.THROUGHPUT_CEILING_BPS,
        )

    def exit_address(self) -> Ipv4Address:
        return _MAIL_PROVIDER_IP
