"""Tor relays: descriptors, onion keys, and per-hop cell processing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.crypto.chacha20 import chacha20_keystream, xor_bytes
from repro.crypto.kdf import hkdf
from repro.crypto.x25519 import x25519, x25519_keypair
from repro.errors import CircuitError
from repro.net.addresses import Ipv4Address
from repro.sim.rng import SeededRng

_KEY_INFO = b"nymix-tor-ntor-v1"
_NONCE = b"\x00" * 12  # per-hop keys are single-use directions in this model


@dataclass(frozen=True)
class RelayDescriptor:
    """The consensus entry for one relay."""

    nickname: str
    ip: Ipv4Address
    or_port: int
    bandwidth_bps: float
    flags: FrozenSet[str]
    onion_public_key: bytes

    @property
    def is_guard(self) -> bool:
        return "Guard" in self.flags

    @property
    def is_exit(self) -> bool:
        return "Exit" in self.flags

    def summary_line(self) -> str:
        """The consensus wire form (sizes the directory download)."""
        flag_text = ",".join(sorted(self.flags))
        return (
            f"r {self.nickname} {self.ip}:{self.or_port} "
            f"bw={int(self.bandwidth_bps)} {flag_text} "
            f"ntor={self.onion_public_key.hex()}"
        )


#: Keystream caches grow in whole cells' worth of bytes.
_KEYSTREAM_CHUNK = 4096


@dataclass
class _CircuitHopState:
    forward_key: bytes
    backward_key: bytes
    next_hop: Optional["Relay"] = None
    streams: List[str] = field(default_factory=list)
    # Cached ChaCha20 keystream per direction.  Hop keys are single-use
    # directions under a fixed nonce/counter in this model, so the stream
    # bytes never change — caching them turns per-cell onion processing
    # into a single XOR instead of a full 20-round cipher evaluation.
    forward_keystream: bytes = b""
    backward_keystream: bytes = b""

    def keystream(self, forward: bool, length: int, nonce: bytes) -> bytes:
        cached = self.forward_keystream if forward else self.backward_keystream
        if len(cached) < length:
            rounded = -(-length // _KEYSTREAM_CHUNK) * _KEYSTREAM_CHUNK
            key = self.forward_key if forward else self.backward_key
            cached = chacha20_keystream(key, nonce, rounded)
            if forward:
                self.forward_keystream = cached
            else:
                self.backward_keystream = cached
        return cached[:length]


class Relay:
    """A running relay: static onion key plus per-circuit hop state."""

    def __init__(
        self,
        nickname: str,
        ip: Ipv4Address,
        bandwidth_bps: float,
        flags: FrozenSet[str],
        rng: SeededRng,
        or_port: int = 9001,
    ) -> None:
        private, public = x25519_keypair(rng.fork(f"relay:{nickname}"))
        self._onion_private_key = private
        self.descriptor = RelayDescriptor(
            nickname=nickname,
            ip=ip,
            or_port=or_port,
            bandwidth_bps=bandwidth_bps,
            flags=flags,
            onion_public_key=public,
        )
        self._circuits: Dict[int, _CircuitHopState] = {}
        self._ntor_memo: Dict[bytes, Tuple[bytes, bytes]] = {}
        self.cells_processed = 0
        #: cleared when the relay churns out of the deployment; dead relays
        #: refuse new circuits and have forgotten their hop state
        self.alive = True

    # -- handshake ------------------------------------------------------------

    @staticmethod
    def derive_keys(shared_secret: bytes) -> Tuple[bytes, bytes]:
        material = hkdf(shared_secret, salt=b"", info=_KEY_INFO, length=64)
        return material[:32], material[32:]

    def handle_create(self, circ_id: int, client_public_key: bytes) -> bytes:
        """CREATE2: complete the DH handshake, install hop keys.

        Returns the relay's handshake reply (its onion public key echo —
        the client derives the same shared secret from it).
        """
        if not self.alive:
            raise CircuitError(f"{self.descriptor.nickname}: relay is gone")
        if circ_id in self._circuits:
            raise CircuitError(
                f"{self.descriptor.nickname}: circuit id {circ_id} already in use"
            )
        # The ntor exchange is deterministic given (relay onion key, client
        # public key), so a repeat CREATE2 from the same ephemeral key
        # skips the scalar multiply and the HKDF.
        keys = self._ntor_memo.get(client_public_key)
        if keys is None:
            shared = x25519(self._onion_private_key, client_public_key)
            keys = self.derive_keys(shared)
            self._ntor_memo[client_public_key] = keys
        self._circuits[circ_id] = _CircuitHopState(*keys)
        return self.descriptor.onion_public_key

    def link_next_hop(self, circ_id: int, next_hop: "Relay") -> None:
        self._hop(circ_id).next_hop = next_hop

    def _hop(self, circ_id: int) -> _CircuitHopState:
        if not self.alive:
            raise CircuitError(f"{self.descriptor.nickname}: relay is gone")
        try:
            return self._circuits[circ_id]
        except KeyError:
            raise CircuitError(
                f"{self.descriptor.nickname}: unknown circuit {circ_id}"
            ) from None

    # -- onion processing ----------------------------------------------------------

    def peel_forward(self, circ_id: int, data: bytes) -> bytes:
        """Remove this hop's forward onion layer."""
        hop = self._hop(circ_id)
        self.cells_processed += 1
        return xor_bytes(data, hop.keystream(True, len(data), _NONCE))

    def wrap_backward(self, circ_id: int, data: bytes) -> bytes:
        """Add this hop's backward onion layer (responses toward the client)."""
        hop = self._hop(circ_id)
        self.cells_processed += 1
        return xor_bytes(data, hop.keystream(False, len(data), _NONCE))

    def open_stream(self, circ_id: int, target: str) -> None:
        """RELAY_BEGIN arrives fully peeled at the exit: record the stream."""
        self._hop(circ_id).streams.append(target)

    def streams_on_circuit(self, circ_id: int) -> List[str]:
        return list(self._hop(circ_id).streams)

    def destroy_circuit(self, circ_id: int) -> None:
        self._circuits.pop(circ_id, None)

    def retire(self) -> None:
        """The relay leaves the network: all its circuits die with it."""
        self.alive = False
        self._circuits.clear()
        self._ntor_memo.clear()

    @property
    def active_circuits(self) -> int:
        return len(self._circuits)

    def __repr__(self) -> str:
        return f"Relay({self.descriptor.nickname!r}, circuits={self.active_circuits})"
