"""Flow-level bandwidth accounting for bulk transfers.

Downloads (Figure 5's Linux-kernel fetches, nym-state uploads) are modelled
as flows over a capacity-limited pool — the 10 Mbit/s rate-limited uplink
of the paper's DeterLab testbed.  Completion times come from the exact
processor-sharing model in :mod:`repro.sim.sharing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import NetworkError
from repro.obs import Observability
from repro.sim.sharing import processor_sharing_times


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one flow in a transfer batch."""

    payload_bytes: int
    wire_bytes: int  # payload plus protocol/anonymizer overhead
    duration_s: float

    @property
    def goodput_bps(self) -> float:
        if self.duration_s == 0:
            return float("inf")
        return self.payload_bytes * 8 / self.duration_s


class BandwidthPool:
    """A shared uplink of fixed capacity.

    ``rtt_s`` models per-flow handshake cost (one round trip to open the
    connection, as with the 80 ms RTT DeterLab path in §5.2).
    """

    def __init__(self, capacity_bps: float, rtt_s: float = 0.0, obs=None) -> None:
        if capacity_bps <= 0:
            raise NetworkError(f"capacity must be positive, got {capacity_bps}")
        if rtt_s < 0:
            raise NetworkError(f"negative RTT: {rtt_s}")
        self.capacity_bps = capacity_bps
        self.rtt_s = rtt_s
        self.total_wire_bytes = 0
        self.obs = Observability() if obs is None else obs
        self._obs_flows = self.obs.metrics.counter("net.uplink.flows")
        self._obs_wire_bytes = self.obs.metrics.counter("net.uplink.wire_bytes")
        self._obs_flow_s = self.obs.metrics.histogram("net.uplink.flow_s")

    def transfer_batch(
        self,
        payload_bytes: Sequence[int],
        overhead_factors: Sequence[float] = (),
        per_flow_ceiling_bps: float = float("inf"),
    ) -> List[FlowResult]:
        """Run a set of flows that start simultaneously and share the pool.

        Args:
            payload_bytes: Useful bytes each flow must deliver.
            overhead_factors: Per-flow multiplier >= 1 converting payload to
                bytes-on-wire (anonymizer cells, TLS, retransmits).  Defaults
                to 1.0 for every flow.
            per_flow_ceiling_bps: Rate cap a single flow cannot exceed even
                when alone (e.g. an exit relay's own bandwidth).
        """
        if not payload_bytes:
            return []
        if overhead_factors and len(overhead_factors) != len(payload_bytes):
            raise NetworkError("overhead_factors length mismatch")
        factors = list(overhead_factors) or [1.0] * len(payload_bytes)
        for factor in factors:
            if factor < 1.0:
                raise NetworkError(f"overhead factor below 1.0: {factor}")
        wire_bits = [size * 8 * factor for size, factor in zip(payload_bytes, factors)]
        times = processor_sharing_times(
            wire_bits, self.capacity_bps, max_share=per_flow_ceiling_bps
        )
        results = []
        for size, factor, bits, elapsed in zip(payload_bytes, factors, wire_bits, times):
            wire_bytes = int(bits / 8)
            self.total_wire_bytes += wire_bytes
            self._obs_flows.inc()
            self._obs_wire_bytes.inc(wire_bytes)
            self._obs_flow_s.observe(elapsed + self.rtt_s)
            results.append(
                FlowResult(
                    payload_bytes=size,
                    wire_bytes=wire_bytes,
                    duration_s=elapsed + self.rtt_s,
                )
            )
        return results

    def transfer(
        self,
        payload_bytes: int,
        overhead_factor: float = 1.0,
        per_flow_ceiling_bps: float = float("inf"),
    ) -> FlowResult:
        """Run one flow alone on the pool."""
        return self.transfer_batch(
            [payload_bytes], [overhead_factor], per_flow_ceiling_bps
        )[0]
