"""The Tor client: bootstrap, circuits, SOCKS front-end, DNS.

One ``TorClient`` runs inside each nymbox's CommVM — a fresh instance per
nym, so circuits and exit addresses are never shared across nyms (§3.3:
shared anonymizer state like Tor circuits "cannot accidentally reveal the
links between different nyms").
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.anonymizers.base import Anonymizer, AnonymizerState, TransferPlan
from repro.anonymizers.socks import (
    AUTH_NONE,
    REPLY_SUCCESS,
    build_connect,
    build_greeting,
    build_method_selection,
    build_reply,
    parse_connect,
    parse_greeting,
    parse_reply,
)
from repro.anonymizers.tor.cells import CELL_OVERHEAD_FACTOR
from repro.anonymizers.tor.circuit import Circuit
from repro.anonymizers.tor.directory import Consensus, DirectoryAuthority
from repro.anonymizers.tor.guard import GuardManager
from repro.anonymizers.tor.policy import CircuitPool, IsolationPolicy
from repro.errors import AnonymizerError, CircuitError
from repro.faults.retry import RetryPolicy, retry_call
from repro.net.addresses import Ipv4Address
from repro.net.internet import Internet
from repro.net.nat import MasqueradeNat
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng

#: Control traffic (directory refresh, padding, circuit management) beyond
#: cell framing; together with CELL_OVERHEAD_FACTOR this yields the ~12%
#: fixed overhead of Figure 5.
CONTROL_OVERHEAD = 0.085

_PROCESS_LAUNCH_S = 1.2
_DESCRIPTOR_FETCH_S = 1.5
_FRESH_SETTLE_S = 2.5
_WARM_SETTLE_S = 0.6


class TorClient(Anonymizer):
    """Tor inside the CommVM: the paper's default anonymizer."""

    kind = "tor"

    def __init__(
        self,
        timeline: Timeline,
        internet: Internet,
        nat: MasqueradeNat,
        rng: SeededRng,
        directory: DirectoryAuthority,
        guard_manager: Optional[GuardManager] = None,
        num_hops: int = 3,
        retry_policy: Optional[RetryPolicy] = None,
        circuit_build_timeout_s: float = 60.0,
    ) -> None:
        super().__init__(timeline, internet, nat, rng)
        if num_hops < 1:
            raise AnonymizerError(f"need at least one hop, got {num_hops}")
        self.directory = directory
        self.guard_manager = guard_manager or GuardManager(rng.fork("guards"))
        self.num_hops = num_hops
        self.retry_policy = retry_policy or RetryPolicy()
        self.circuit_build_timeout_s = circuit_build_timeout_s
        self.consensus: Optional[Consensus] = None
        self._consensus_cached = False
        self.circuits: List[Circuit] = []
        # Circuit RNG labels must never repeat, even after destroyed
        # circuits are pruned from ``self.circuits`` — a monotonic counter,
        # not the list length, names each fork.
        self._circuit_counter = itertools.count()
        self._current: Optional[Circuit] = None
        self._pool: Optional[CircuitPool] = None

    # -- bootstrap (the Figure 7 "Start Tor" phase) --------------------------------

    def start(self) -> float:
        obs = self.timeline.obs
        begin = self.timeline.now
        with obs.span("tor.start"):
            self.timeline.sleep(self.rng.jitter(_PROCESS_LAUNCH_S, 0.1))
            self.consensus = self.directory.consensus(self.timeline.now)
            if not self._consensus_cached:
                # Fetch the consensus document plus relay descriptors through
                # the (not yet anonymized) directory connection.
                doc_bytes = self.consensus.document_bytes()
                duration = self.internet.uplink.transfer(doc_bytes).duration_s
                self.nat.record_flow(
                    "anonymizer", doc_bytes, summary="tor consensus fetch"
                )
                self.timeline.sleep(duration + self.rng.jitter(_DESCRIPTOR_FETCH_S, 0.15))
            had_guards = self.guard_manager.has_guards
            before = self.guard_manager.guards
            guards = self.guard_manager.ensure_guards(self.consensus, self.timeline.now)
            if guards != before:
                obs.metrics.counter("tor.guard.selections").inc()
                obs.event(
                    "tor.guard.selected",
                    guards=",".join(guards),
                    rotation=had_guards,
                )
            self._current = self._build_circuit()
            settle = _WARM_SETTLE_S if (had_guards and self._consensus_cached) else _FRESH_SETTLE_S
            self.timeline.sleep(self.rng.jitter(settle, 0.2))
        self.started = True
        self.startup_seconds = self.timeline.now - begin
        obs.metrics.histogram("tor.start_s").observe(self.startup_seconds)
        obs.event(
            "tor.started",
            warm=bool(had_guards and self._consensus_cached),
            seconds=round(self.startup_seconds, 6),
        )
        return self.startup_seconds

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.flush()
        for circuit in self.circuits:
            circuit.destroy()
        self.circuits.clear()
        self._current = None
        super().stop()

    # -- circuits ---------------------------------------------------------------

    def _pick_path(self) -> List:
        assert self.consensus is not None
        guard_nick = self.rng.choice(self.guard_manager.guards)
        guard = self.directory.relay(guard_nick)
        exits = [d for d in self.consensus.exits() if d.nickname != guard_nick]
        if not exits:
            if self.num_hops == 1 and guard.descriptor.is_exit:
                return [guard]
            raise CircuitError("no usable exit relays in consensus")
        exit_desc = self.rng.choice(exits)
        if self.num_hops == 1:
            # A 1-hop path must still terminate at an Exit-flagged relay,
            # or exit_address() reports a relay that may not carry the
            # Exit flag and was never drawn from consensus.exits().
            if guard.descriptor.is_exit:
                return [guard]
            return [self.directory.relay(exit_desc.nickname)]
        path = [guard]
        middles = [
            d
            for d in self.consensus.middles()
            if d.nickname not in (guard_nick, exit_desc.nickname)
        ]
        for _ in range(self.num_hops - 2):
            if not middles:
                break
            middle = self.rng.choice(middles)
            middles = [d for d in middles if d.nickname != middle.nickname]
            path.append(self.directory.relay(middle.nickname))
        if self.num_hops >= 2:
            path.append(self.directory.relay(exit_desc.nickname))
        return path

    def _refresh_network_view(self, failures: int, exc: BaseException) -> None:
        """Between circuit-build attempts: re-fetch the consensus and let the
        guard manager drop/replace guards that churned out of it."""
        self.consensus = self.directory.consensus(self.timeline.now)
        self.guard_manager.ensure_guards(self.consensus, self.timeline.now)

    def _build_circuit(self) -> Circuit:
        def attempt() -> Circuit:
            self.timeline.faults.maybe_fail("tor.circuit_build")
            circuit = Circuit(
                self.timeline,
                self.rng.fork(f"circuit:{next(self._circuit_counter)}"),
            )
            try:
                circuit.build(self._pick_path())
            except AnonymizerError:
                circuit.destroy()
                raise
            if circuit.build_seconds > self.circuit_build_timeout_s:
                circuit.destroy()
                raise CircuitError(
                    f"circuit build took {circuit.build_seconds:.1f}s, "
                    f"over the {self.circuit_build_timeout_s:.0f}s timeout"
                )
            return circuit

        circuit = retry_call(
            self.timeline,
            attempt,
            policy=self.retry_policy,
            retryable=AnonymizerError,
            site="tor.circuit_build",
            on_retry=self._refresh_network_view,
            reraise=True,
        )
        self.circuits.append(circuit)
        return circuit

    @property
    def current_circuit(self) -> Circuit:
        previous = self._current
        if previous is not None and previous.built and not previous.usable:
            # A relay on the path died: the circuit is unusable even though
            # it still holds hop state.  Tear it down and rebuild.
            previous.destroy()
        if self._current is None or not self._current.built:
            self.circuits = [c for c in self.circuits if c.built]
            self._current = self._build_circuit()
            if previous is not None:
                self.timeline.obs.metrics.counter("tor.circuit.rebuilds").inc()
                self.timeline.obs.event("tor.circuit.rebuilt", reason="unusable")
        return self._current

    def new_identity(self) -> Circuit:
        """Rotate to a fresh circuit (Tor's NEWNYM).

        NEWNYM severs *everything* pre-rotation: the current circuit dies,
        an installed pool is flushed (it must not keep handing out old
        circuits), and destroyed circuits are pruned from ``self.circuits``
        so repeated rotations don't grow it without bound.
        """
        if self._current is not None:
            self._current.destroy()
        if self._pool is not None:
            self._pool.flush()
        self.circuits = [c for c in self.circuits if c.built]
        self.timeline.obs.metrics.counter("tor.newnym").inc()
        self._current = self._build_circuit()
        return self._current

    def enable_stream_isolation(self, policy: Optional[IsolationPolicy] = None) -> CircuitPool:
        """Install a circuit pool applying ``policy`` to SOCKS streams."""
        self._pool = CircuitPool(
            self.timeline, self._build_circuit, policy or IsolationPolicy()
        )
        return self._pool

    def exit_address(self) -> Ipv4Address:
        return self.current_circuit.exit.descriptor.ip

    # -- SOCKS front end ------------------------------------------------------------

    def socks_connect(self, hostname: str, port: int = 443) -> bytes:
        """Run the full SOCKS5 negotiation as the CommVM-side proxy would.

        Returns the success reply the AnonVM's browser receives.  Also
        opens a stream on the current circuit (the real effect).
        """
        self._require_started()
        methods = parse_greeting(build_greeting())
        if AUTH_NONE not in methods:
            raise AnonymizerError("client offered no supported SOCKS auth method")
        build_method_selection(AUTH_NONE)
        request = parse_connect(build_connect(hostname, port))
        target = f"{request.hostname}:{request.port}"

        def open_stream() -> None:
            # current_circuit and the pool's sweep both replace circuits
            # that died (teardown, relay churn) since the last stream.
            if self._pool is not None:
                circuit = self._pool.circuit_for_stream(request.hostname)
                circuit.open_stream(target)
            else:
                self.current_circuit.open_stream(target)

        retry_call(
            self.timeline,
            open_stream,
            policy=self.retry_policy,
            retryable=CircuitError,
            site="tor.stream_open",
            reraise=True,
        )
        reply = build_reply(REPLY_SUCCESS, Ipv4Address.parse("0.0.0.0"), 0)
        code, _, _ = parse_reply(reply)
        if code != REPLY_SUCCESS:
            raise AnonymizerError(f"SOCKS connect failed with code {code}")
        return reply

    # -- transport contract ------------------------------------------------------------

    def plan(self, payload_bytes: int) -> TransferPlan:
        return TransferPlan(
            overhead_factor=CELL_OVERHEAD_FACTOR * (1.0 + CONTROL_OVERHEAD),
            path_latency_s=self.current_circuit.path_latency_s,
            handshake_rtts=2.0,  # SOCKS negotiation + RELAY_BEGIN round trip
        )

    def resolve(self, hostname: str) -> Ipv4Address:
        """Tor's built-in DNS: resolve at the exit, never locally (§4.1)."""
        self._require_started()
        answer = self.internet.resolve(hostname)
        self.timeline.sleep(2 * self.current_circuit.path_latency_s)
        return answer

    def send_payload(self, plaintext: bytes) -> bytes:
        """Round-trip a payload through real onion crypto (for validation)."""
        self._require_started()
        circuit = self.current_circuit
        onion = circuit.onion_encrypt(plaintext)
        if onion == plaintext:
            raise AnonymizerError("onion encryption produced identity transform")
        at_exit = circuit.relay_forward(onion)
        response = circuit.relay_backward(at_exit)
        return circuit.onion_decrypt(response)

    # -- quasi-persistent state (§3.5) ---------------------------------------------------

    def export_state(self) -> AnonymizerState:
        return AnonymizerState(
            kind=self.kind,
            payload={
                "guards": self.guard_manager.export_state(),
                "consensus_cached": True,
            },
        )

    def import_state(self, state: AnonymizerState) -> None:
        super().import_state(state)
        guards = state.payload.get("guards")
        if guards:
            self.guard_manager.import_state(guards)  # type: ignore[arg-type]
        self._consensus_cached = bool(state.payload.get("consensus_cached"))
