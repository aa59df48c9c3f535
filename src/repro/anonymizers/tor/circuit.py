"""Circuits: telescoping construction and real onion encryption."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from repro.anonymizers.tor.relay import Relay
from repro.crypto.chacha20 import chacha20_combined_keystream, xor_bytes
from repro.crypto.x25519 import x25519, x25519_keypair
from repro.errors import CircuitError
from repro.obs.metrics import Counter
from repro.runtime import ProcessCache
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng

_NONCE = b"\x00" * 12

_circuit_ids = itertools.count(0x1000)


#: Process-global client side of the ntor handshake, keyed by relay onion
#: key: ``(client public key, hop keys)``.  The exchange is a pure
#: function of (client keypair, relay onion key).  A relay's onion key is
#: derived from the deployment seed, so two relays with the same key are
#: the *same* relay for handshake purposes and the client may reuse one
#: ephemeral keypair and its derived hop keys against it.  The RNG draw
#: for the ephemeral key is still made on every handshake, so the seeded
#: stream — and therefore the event journal — is byte-identical whether
#: the cache is warm or cold.  Bounded so a long-lived process crossing
#: many deployments cannot grow it without limit.
NTOR_CLIENT_CACHE = ProcessCache("tor.ntor_keyshares", max_entries=65_536)


@dataclass
class _ClientHop:
    relay: Relay
    forward_key: bytes
    backward_key: bytes


class Circuit:
    """A three-hop (or longer) circuit built by one Tor client.

    Construction telescopes: CREATE2 to the guard, then EXTEND2 cells
    carried through already-built hops.  Each handshake is a real X25519
    exchange deriving per-hop ChaCha20 keys; :meth:`onion_encrypt` wraps
    payloads in all layers and relays peel them in path order.
    """

    #: one-way latency per relay link in the testbed deployment
    HOP_LATENCY_S = 0.025

    def __init__(self, timeline: Timeline, rng: SeededRng) -> None:
        self.timeline = timeline
        self.rng = rng
        self.circ_id = next(_circuit_ids)
        self._hops: List[_ClientHop] = []
        # Combined (XOR-folded) keystreams across all hop layers, cached per
        # direction: hop keys are fixed once built, so wrapping/unwrapping a
        # whole onion is a single XOR against these.
        self._onion_keystreams = {"forward": b"", "backward": b""}
        self.built_at = None  # type: float
        self.build_seconds = 0.0
        self.streams_opened = 0

    @cached_property
    def _obs_cells_relayed(self) -> Counter:
        # Looked up at the first relayed cell and held after that, so the
        # name enters the metrics snapshot only once a cell was relayed.
        return self.timeline.obs.metrics.counter("tor.cells.relayed")

    # -- construction ---------------------------------------------------------

    def _handshake(self, relay: Relay) -> Tuple[bytes, bytes]:
        onion_key = relay.descriptor.onion_public_key
        cached = NTOR_CLIENT_CACHE.get(onion_key)
        if cached is not None:
            # Burn the ephemeral-key draw so the seeded RNG stream is
            # identical to a cold handshake, then replay the cached
            # exchange; the relay still installs fresh circuit state.
            self.rng.token_bytes(32)
            client_public, keys = cached
            relay.handle_create(self.circ_id, client_public)
            return keys
        private, public = x25519_keypair(self.rng)
        relay_public = relay.handle_create(self.circ_id, public)
        shared = x25519(private, relay_public)
        keys = Relay.derive_keys(shared)
        NTOR_CLIENT_CACHE.put(onion_key, (public, keys))
        return keys

    def build(self, path: List[Relay]) -> float:
        """Extend through ``path`` in order.  Returns elapsed seconds."""
        if len(path) < 1:
            raise CircuitError("a circuit needs at least one hop")
        if self._hops:
            raise CircuitError(f"circuit {self.circ_id} is already built")
        nicknames = [r.descriptor.nickname for r in path]
        if len(set(nicknames)) != len(nicknames):
            raise CircuitError(f"circuit path repeats a relay: {nicknames}")
        obs = self.timeline.obs
        start = self.timeline.now
        with obs.span("tor.circuit.build", hops=len(path)):
            for position, relay in enumerate(path):
                forward, backward = self._handshake(relay)
                self._hops.append(_ClientHop(relay, forward, backward))
                if position > 0:
                    path[position - 1].link_next_hop(self.circ_id, relay)
                # The CREATE/EXTEND round trip traverses every built hop.
                round_trip = 2 * self.HOP_LATENCY_S * (position + 1)
                self.timeline.sleep(round_trip)
        self.built_at = self.timeline.now
        self.build_seconds = self.timeline.now - start
        obs.metrics.counter("tor.circuit.built").inc()
        obs.metrics.histogram("tor.circuit.build_s").observe(self.build_seconds)
        # The journal deliberately omits ``circ_id``: circuit ids come from a
        # process-global counter, and journal bytes must depend only on the
        # seed and scenario.
        obs.event(
            "tor.circuit.built",
            hops=len(path),
            path="->".join(nicknames),
            seconds=round(self.build_seconds, 6),
        )
        return self.build_seconds

    @property
    def built(self) -> bool:
        return bool(self._hops)

    @property
    def usable(self) -> bool:
        """Built *and* every relay on the path is still alive."""
        return bool(self._hops) and all(hop.relay.alive for hop in self._hops)

    @property
    def path_nicknames(self) -> List[str]:
        return [hop.relay.descriptor.nickname for hop in self._hops]

    @property
    def guard(self) -> Relay:
        self._require_built()
        return self._hops[0].relay

    @property
    def exit(self) -> Relay:
        self._require_built()
        return self._hops[-1].relay

    def _require_built(self) -> None:
        if not self._hops:
            raise CircuitError(f"circuit {self.circ_id} is not built")

    # -- latency ---------------------------------------------------------------

    @property
    def path_latency_s(self) -> float:
        """One-way latency across all hops."""
        return self.HOP_LATENCY_S * len(self._hops)

    # -- onion crypto -----------------------------------------------------------

    def _combined_keystream(self, direction: str, length: int) -> bytes:
        """Length-`length` prefix of the XOR of every hop's keystream."""
        cached = self._onion_keystreams[direction]
        if len(cached) < length:
            attr = "forward_key" if direction == "forward" else "backward_key"
            keys = [getattr(hop, attr) for hop in self._hops]
            rounded = max(4096, -(-length // 64) * 64)
            cached = chacha20_combined_keystream(keys, _NONCE, rounded)
            self._onion_keystreams[direction] = cached
        return cached[:length]

    def onion_encrypt(self, plaintext: bytes) -> bytes:
        """Wrap a forward payload in every hop's layer (exit layer innermost).

        Layering is XOR under per-hop keystreams, so all layers collapse
        into one XOR against the cached combined keystream — bit-identical
        to peeling per hop, and what each relay's single-layer removal
        undoes in path order.
        """
        self._require_built()
        if not plaintext:
            return b""
        return xor_bytes(plaintext, self._combined_keystream("forward", len(plaintext)))

    def relay_forward(self, onion: bytes) -> bytes:
        """Let each relay on the path peel its layer; returns the plaintext."""
        self._require_built()
        data = onion
        for hop in self._hops:
            data = hop.relay.peel_forward(self.circ_id, data)
        self._obs_cells_relayed.inc(len(self._hops))
        return data

    def relay_backward(self, plaintext: bytes) -> bytes:
        """Relays wrap a response from the exit back toward the client."""
        self._require_built()
        data = plaintext
        for hop in reversed(self._hops):
            data = hop.relay.wrap_backward(self.circ_id, data)
        return data

    def onion_decrypt(self, onion: bytes) -> bytes:
        """Client removes every backward layer from a response."""
        self._require_built()
        if not onion:
            return b""
        return xor_bytes(onion, self._combined_keystream("backward", len(onion)))

    # -- streams -----------------------------------------------------------------

    def open_stream(self, target: str) -> float:
        """RELAY_BEGIN through the circuit; the exit records the stream.

        Returns the full-path round-trip time the BEGIN/CONNECTED pair costs.
        """
        self._require_built()
        begin = self.onion_encrypt(f"BEGIN {target}".encode())
        peeled = self.relay_forward(begin)
        if not peeled.startswith(b"BEGIN "):
            raise CircuitError("onion layers failed to peel to the BEGIN cell")
        self.exit.open_stream(self.circ_id, peeled[6:].decode())
        self.streams_opened += 1
        self.timeline.obs.metrics.counter("tor.streams.opened").inc()
        round_trip = 2 * self.path_latency_s
        self.timeline.sleep(round_trip)
        return round_trip

    def destroy(self) -> None:
        for hop in self._hops:
            hop.relay.destroy_circuit(self.circ_id)
        self._hops.clear()
        self._onion_keystreams = {"forward": b"", "backward": b""}

    def __repr__(self) -> str:
        path = " -> ".join(self.path_nicknames) if self._hops else "<unbuilt>"
        return f"Circuit({self.circ_id:#x}, {path})"
