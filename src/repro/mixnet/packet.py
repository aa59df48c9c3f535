"""The fixed-size layered packet format (Outfox-style).

Every packet a client emits is the same size for a given layer count:
an innermost fixed-width body (length prefix + packet id + payload +
zero padding) wrapped in one AEAD layer per hop.  Each layer is

    eph_pub(32) || ChaCha20-Poly1305(key, routing(16) || inner)

where ``key`` comes from an X25519 exchange between a client ephemeral
keypair and the mix node's long-term key, expanded through HKDF.  A mix
peels exactly one layer: it learns the next hop (or that it is the exit)
and nothing else.  The Poly1305 tag doubles as the replay-detection
handle — a node that sees the same tag twice rejects the packet.

Reply blocks (single-use, Sphinx-SURB-style) carry the return path: the
client pre-builds an onion *header* whose per-hop plaintext holds the
next hop plus a payload key; each node peels its header layer and
stream-encrypts the attached body with that key.  The client, holding
all payload keys, removes every stratum at once.  A reply block spends
itself on first use.

Two process caches (:class:`~repro.runtime.ProcessCache`) and a per-node
memo keep the hot path fast without touching the seeded RNG stream
(mirroring the ntor client cache / relay memo pair):

* :data:`SENDER_KEY_CACHE` — client side, keyed by node public key.  A
  hit still burns the 32-byte ephemeral draw, so journals are identical
  whether the cache is warm or cold.
* the per-node peel memo, keyed by client ephemeral.
* :data:`MIX_STREAM_CACHE` — the ChaCha20 keystream and Poly1305
  one-time key per layer key.  Layer keys are stable (see above) and the
  nonce is fixed, so every packet under a key XORs against the *same*
  keystream; caching it turns each wrap/peel into one XOR plus one MAC.
  Cold entries for a whole path fill in a single vectorized dispatch
  (:func:`repro.crypto.chacha20.chacha20_keystreams`).  Outputs equal
  the plain AEAD's byte for byte (pinned by
  tests/test_mixnet_stream_cache.py).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.aead import aead_tag
from repro.crypto.chacha20 import (
    chacha20_keystream,
    chacha20_keystreams,
    chacha20_xor,
    chacha20_xor_layers,
    xor_bytes,
)
from repro.crypto.kdf import hkdf
from repro.crypto.poly1305 import constant_time_equal
from repro.crypto.x25519 import x25519, x25519_keypair
from repro.errors import AuthenticationError, MixnetError
from repro.runtime import ProcessCache
from repro.sim.rng import SeededRng

#: AEAD nonce — every layer key is single-purpose, so a fixed nonce is sound.
_NONCE = b"\x00" * 12
_KEY_INFO = b"nymix-mixnet-outfox-v1"

#: maximum payload carried by one packet
PAYLOAD_BYTES = 1024
#: length prefix + packet id ahead of the payload in the innermost body
_LEN_BYTES = 4
_PID_BYTES = 8
BODY_BYTES = _LEN_BYTES + _PID_BYTES + PAYLOAD_BYTES

#: per-hop routing field: 1 flag byte + up to 15 bytes of node name
ROUTING_BYTES = 16
_EPH_BYTES = 32
_TAG_BYTES = 16
#: what one onion layer adds: ephemeral key + AEAD tag + routing field
LAYER_OVERHEAD_BYTES = _EPH_BYTES + _TAG_BYTES + ROUTING_BYTES
#: extra field in a reply-block header layer: the hop's payload key
_PAYLOAD_KEY_BYTES = 32


def packet_bytes(layers: int) -> int:
    """On-wire size of a forward packet crossing ``layers`` mixes."""
    return BODY_BYTES + layers * LAYER_OVERHEAD_BYTES


# -- process caches ----------------------------------------------------------


#: Client side of the per-node key exchange, keyed by node public key:
#: ``(client ephemeral public key, layer key)``.  The derived layer key
#: is a pure function of (client ephemeral, node long-term key); node
#: keys come from the deployment seed, so reusing one ephemeral against
#: the same node is sound for the simulation.  The ephemeral draw is
#: still burned on every derivation, keeping the seeded stream — and the
#: event journal — byte-identical whether the cache is warm or cold.
SENDER_KEY_CACHE = ProcessCache("mixnet.sender_keys", max_entries=65_536)

#: ``(Poly1305 one-time key, ChaCha20 keystream)`` per layer key.  Every
#: AEAD under a layer key uses the fixed :data:`_NONCE`, so its counter-0
#: block (the MAC's one-time key) and counter-1.. stream (the cipher
#: bytes) never change across packets.  Entries hold whole keystreams
#: (KiBs each), so the bound is tight.
MIX_STREAM_CACHE = ProcessCache("mixnet.streams", max_entries=8_192)


def _stream_entry(key: bytes, length: int) -> Tuple[bytes, bytes]:
    """``(otk, keystream)`` for ``key``, regrown when ``length`` outruns it."""
    entry = MIX_STREAM_CACHE.get(key)
    if entry is None or len(entry[1]) < length:
        raw = chacha20_keystream(key, _NONCE, 64 + length, counter=0)
        entry = MIX_STREAM_CACHE.put(key, (raw[:32], raw[64:]))
    return entry


def _prefill_streams(keys: Sequence[bytes], length: int) -> None:
    """Warm every missing or short entry of ``keys`` in one vectorized dispatch."""
    missing = [
        key
        for key in dict.fromkeys(keys)
        if key not in MIX_STREAM_CACHE or len(MIX_STREAM_CACHE[key][1]) < length
    ]
    if not missing:
        return
    for key, raw in zip(
        missing, chacha20_keystreams(missing, _NONCE, 64 + length, counter=0)
    ):
        MIX_STREAM_CACHE.put(key, (raw[:32], raw[64:]))


def _expand_key(shared: bytes) -> bytes:
    return hkdf(shared, salt=b"", info=_KEY_INFO, length=32)


def derive_sender_key(rng: SeededRng, node_public: bytes) -> Tuple[bytes, bytes]:
    """(ephemeral public, layer key) for one hop, via the sender cache."""
    cached = SENDER_KEY_CACHE.get(node_public)
    if cached is not None:
        rng.token_bytes(32)  # burn the ephemeral draw: stream stays identical
        return cached
    private, public = x25519_keypair(rng)
    key = _expand_key(x25519(private, node_public))
    SENDER_KEY_CACHE.put(node_public, (public, key))
    return public, key


def derive_node_key(
    node_private: bytes, eph_public: bytes, memo: Optional[Dict[bytes, bytes]]
) -> bytes:
    """The mix node's side of the exchange, through its peel memo."""
    if memo is not None:
        key = memo.get(eph_public)
        if key is None:
            key = _expand_key(x25519(node_private, eph_public))
            memo[eph_public] = key
        return key
    return _expand_key(x25519(node_private, eph_public))


# -- routing fields ----------------------------------------------------------


def _encode_routing(next_hop: Optional[str]) -> bytes:
    if next_hop is None:
        return b"\x00" * ROUTING_BYTES
    encoded = next_hop.encode()
    if len(encoded) > ROUTING_BYTES - 1:
        raise MixnetError(f"mix node name too long for routing field: {next_hop!r}")
    return b"\x01" + encoded.ljust(ROUTING_BYTES - 1, b"\x00")


def _decode_routing(routing: bytes) -> Optional[str]:
    if routing[0] == 0:
        return None
    return routing[1:].rstrip(b"\x00").decode()


# -- forward packets ---------------------------------------------------------


def encode_body(payload: bytes, packet_id: bytes) -> bytes:
    """The innermost fixed-width body: length || packet id || payload || pad."""
    if len(payload) > PAYLOAD_BYTES:
        raise MixnetError(
            f"payload exceeds packet capacity ({len(payload)} > {PAYLOAD_BYTES})"
        )
    if len(packet_id) != _PID_BYTES:
        raise MixnetError(f"packet id must be {_PID_BYTES} bytes")
    body = struct.pack(">I", len(payload)) + packet_id + payload
    return body + b"\x00" * (BODY_BYTES - len(body))


def open_body(body: bytes) -> bytes:
    """Recover the payload from a fully peeled body."""
    if len(body) != BODY_BYTES:
        raise MixnetError(f"malformed packet body ({len(body)} bytes)")
    (length,) = struct.unpack(">I", body[:_LEN_BYTES])
    if length > PAYLOAD_BYTES:
        raise MixnetError(f"packet body claims {length} payload bytes")
    start = _LEN_BYTES + _PID_BYTES
    return body[start : start + length]


def _seal(key: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """``ChaCha20Poly1305(key).encrypt(_NONCE, ...)`` via the stream cache."""
    otk, stream = _stream_entry(key, len(plaintext))
    ciphertext = xor_bytes(plaintext, stream[: len(plaintext)])
    return ciphertext + aead_tag(otk, ciphertext, aad)


def _open(key: bytes, sealed: bytes, aad: bytes) -> bytes:
    """``ChaCha20Poly1305(key).decrypt(_NONCE, ...)`` via the stream cache."""
    if len(sealed) < _TAG_BYTES:
        raise AuthenticationError("ciphertext shorter than the AEAD tag")
    otk, stream = _stream_entry(key, len(sealed) - _TAG_BYTES)
    ciphertext, tag = sealed[:-_TAG_BYTES], sealed[-_TAG_BYTES:]
    if not constant_time_equal(tag, aead_tag(otk, ciphertext, aad)):
        raise AuthenticationError("AEAD tag verification failed")
    return xor_bytes(ciphertext, stream[: len(ciphertext)])


def _wrap_layer(eph_public: bytes, key: bytes, routing: bytes, inner: bytes) -> bytes:
    return eph_public + _seal(key, routing + inner, aad=eph_public)


def peel_layer(
    node_private: bytes,
    packet: bytes,
    memo: Optional[Dict[bytes, bytes]] = None,
) -> Tuple[Optional[str], bytes, bytes]:
    """One mix's work: (next hop or None, inner packet, replay tag)."""
    if len(packet) < _EPH_BYTES + _TAG_BYTES + ROUTING_BYTES:
        raise MixnetError(f"packet too short to peel ({len(packet)} bytes)")
    eph_public = packet[:_EPH_BYTES]
    sealed = packet[_EPH_BYTES:]
    key = derive_node_key(node_private, eph_public, memo)
    try:
        plain = _open(key, sealed, aad=eph_public)
    except AuthenticationError as exc:
        raise MixnetError(f"packet failed authentication: {exc}") from exc
    routing = plain[:ROUTING_BYTES]
    return _decode_routing(routing), plain[ROUTING_BYTES:], sealed[-_TAG_BYTES:]


def build_packet(rng: SeededRng, hops: Sequence, payload: bytes) -> bytes:
    """Wrap ``payload`` for a forward path (one layer per hop, exit innermost).

    ``hops`` are mix-node-like objects exposing ``name`` and
    ``public_key``; the layer addressed to hop *i* routes to hop *i+1*,
    and the last hop sees the terminal marker.  Every call draws a fresh
    packet id, so two packets with identical payloads never share AEAD
    tags (replay detection stays sound under caching).
    """
    if not hops:
        raise MixnetError("a mixnet packet needs at least one hop")
    packet = encode_body(payload, rng.token_bytes(_PID_BYTES))
    # Derive every hop key first (innermost-first: the RNG draw order of
    # the layer-at-a-time loop), then warm the stream cache for the whole
    # path in one vectorized dispatch before wrapping.
    derived = [
        derive_sender_key(rng, hops[index].public_key)
        for index in range(len(hops) - 1, -1, -1)
    ]
    derived.reverse()  # back to hop order
    outermost = ROUTING_BYTES + BODY_BYTES + (len(hops) - 1) * LAYER_OVERHEAD_BYTES
    _prefill_streams([key for _, key in derived], outermost)
    for index in range(len(hops) - 1, -1, -1):
        next_hop = hops[index + 1].name if index + 1 < len(hops) else None
        eph_public, key = derived[index]
        packet = _wrap_layer(eph_public, key, _encode_routing(next_hop), packet)
    return packet


# -- reply blocks (single-use, §"bidirectional flows") -----------------------


@dataclass
class ReplyBlock:
    """A pre-built return path the exit can use without learning the client.

    ``header`` is the onion the reply travels with: each node peels its
    layer, learns the next hop and its payload key, and stream-encrypts
    the body.  ``payload_keys`` stay with the client.  Single-use: the
    second :func:`open_reply` raises.
    """

    first_hop: str
    header: bytes
    payload_keys: Tuple[bytes, ...] = field(repr=False)
    used: bool = False


def build_reply_block(rng: SeededRng, hops: Sequence) -> ReplyBlock:
    """Pre-compute a return path through ``hops`` (entry first)."""
    if not hops:
        raise MixnetError("a reply block needs at least one hop")
    payload_keys: List[bytes] = []
    derived: List[Tuple[bytes, bytes]] = []
    # First pass keeps the exact RNG draw order (payload key then hop key,
    # innermost-first); the second pass wraps with a prefilled cache.
    for index in range(len(hops) - 1, -1, -1):
        payload_keys.insert(0, rng.token_bytes(_PAYLOAD_KEY_BYTES))
        derived.insert(0, derive_sender_key(rng, hops[index].public_key))
    layer_plain = ROUTING_BYTES + _PAYLOAD_KEY_BYTES
    outermost = layer_plain + (len(hops) - 1) * (layer_plain + _EPH_BYTES + _TAG_BYTES)
    _prefill_streams([key for _, key in derived], outermost)
    header = b""
    for index in range(len(hops) - 1, -1, -1):
        next_hop = hops[index + 1].name if index + 1 < len(hops) else None
        eph_public, key = derived[index]
        header = _wrap_layer(
            eph_public, key, _encode_routing(next_hop), payload_keys[index] + header
        )
    return ReplyBlock(
        first_hop=hops[0].name, header=header, payload_keys=tuple(payload_keys)
    )


def peel_reply_layer(
    node_private: bytes,
    header: bytes,
    body: bytes,
    memo: Optional[Dict[bytes, bytes]] = None,
) -> Tuple[Optional[str], bytes, bytes, bytes]:
    """One mix's reply work: (next hop, rest of header, re-encrypted body, tag)."""
    next_hop, inner, tag = peel_layer(node_private, header, memo)
    if len(inner) < _PAYLOAD_KEY_BYTES:
        raise MixnetError("reply header layer too short for a payload key")
    payload_key = inner[:_PAYLOAD_KEY_BYTES]
    rest = inner[_PAYLOAD_KEY_BYTES:]
    return next_hop, rest, chacha20_xor(payload_key, _NONCE, body), tag


def open_reply(block: ReplyBlock, body: bytes) -> bytes:
    """Client-side unwrap of a reply body; spends the block."""
    if block.used:
        raise MixnetError("reply block already used (single-use)")
    block.used = True
    # XOR is commutative: all strata come off in one combined-keystream
    # dispatch instead of one pass per hop.
    return open_body(chacha20_xor_layers(block.payload_keys, _NONCE, body))
