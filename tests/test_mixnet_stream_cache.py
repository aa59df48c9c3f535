"""The per-layer-key stream cache must never change a single byte.

Layer keys are stable (sender key cache) and the AEAD nonce is fixed, so
`MIX_STREAM_CACHE` can serve each layer's ChaCha20 keystream and Poly1305
one-time key from memory.  These tests pin cold and warm builds and peels
against each other and against the cache-free seed mode, the cached AEAD
framing against the reference `ChaCha20Poly1305`, and tampering detection
through the cached path.
"""

import pytest

from repro.crypto.aead import ChaCha20Poly1305
from repro.errors import MixnetError
from repro.mixnet import packet as packet_mod
from repro.mixnet.packet import (
    _NONCE,
    MIX_STREAM_CACHE,
    _open,
    _seal,
    build_packet,
    build_reply_block,
    open_body,
    open_reply,
    peel_layer,
)
from repro.mixnet.topology import MixTopology
from repro.perfbench.legacy import seed_mixnet_mode
from repro.sim.rng import SeededRng


@pytest.fixture(autouse=True)
def fresh_cache():
    MIX_STREAM_CACHE.clear()
    yield
    MIX_STREAM_CACHE.clear()


def _path(seed=41):
    topology = MixTopology(SeededRng(seed), layers=3, nodes_per_layer=2)
    return topology, topology.sample_path(SeededRng(seed + 1))


class TestSealOpenFraming:
    KEY = bytes(range(32))

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 300, 1100])
    def test_seal_matches_reference_aead(self, size):
        plaintext = bytes((i * 13 + 5) & 0xFF for i in range(size))
        aad = b"associated-data"
        reference = ChaCha20Poly1305(self.KEY).encrypt(_NONCE, plaintext, aad)
        assert _seal(self.KEY, plaintext, aad) == reference  # cold
        assert _seal(self.KEY, plaintext, aad) == reference  # warm
        with seed_mixnet_mode():
            assert packet_mod._seal(self.KEY, plaintext, aad) == reference  # seed

    def test_open_round_trips_and_rejects_tampering(self):
        plaintext = b"the quick brown fox" * 20
        sealed = _seal(self.KEY, plaintext, b"aad")
        assert _open(self.KEY, sealed, b"aad") == plaintext
        from repro.errors import AuthenticationError

        tampered = sealed[:-1] + bytes([sealed[-1] ^ 1])
        with pytest.raises(AuthenticationError):
            _open(self.KEY, tampered, b"aad")
        with pytest.raises(AuthenticationError):
            _open(self.KEY, sealed, b"wrong-aad")

    def test_entry_regrows_for_longer_messages(self):
        short = _seal(self.KEY, b"x" * 32, b"")
        longer_plain = b"y" * 4096
        reference = ChaCha20Poly1305(self.KEY).encrypt(_NONCE, longer_plain, b"")
        assert _seal(self.KEY, longer_plain, b"") == reference
        assert _open(self.KEY, short, b"") == b"x" * 32


class TestPacketIdentity:
    def test_cold_warm_disabled_packets_identical(self):
        topology, path = _path()
        payload = b"hello mixnet" * 40

        def pump(seed):
            rng = SeededRng(seed)
            packet = build_packet(rng, path, payload)
            wire = packet
            # Peel directly (node.process would flag the same-seed packet
            # as a replay — the tags are identical by construction).
            for node in path:
                _next, wire, _tag = peel_layer(node.private_key, wire)
            return packet, open_body(wire)

        MIX_STREAM_CACHE.clear()
        cold_packet, cold_out = pump(7)
        warm_packet, warm_out = pump(7)
        with seed_mixnet_mode():
            off_packet, off_out = pump(7)
        assert cold_packet == warm_packet == off_packet
        assert cold_out == warm_out == off_out == payload

    def test_reply_block_identity_and_round_trip(self):
        topology, path = _path(seed=90)

        def build(seed):
            return build_reply_block(SeededRng(seed), path)

        MIX_STREAM_CACHE.clear()
        cold = build(3)
        warm = build(3)
        with seed_mixnet_mode():
            off = build(3)
        assert cold.header == warm.header == off.header
        assert cold.payload_keys == warm.payload_keys == off.payload_keys

        # Round-trip a reply through the nodes, then unwrap client-side.
        from repro.mixnet.packet import encode_body, peel_reply_layer

        body = encode_body(b"reply payload", b"\x07" * 8)
        header = cold.header
        by_name = {node.name: node for node in path}
        hop = cold.first_hop
        while hop is not None:
            node = by_name[hop]
            hop, header, body, _tag = peel_reply_layer(
                node.private_key, header, body
            )
        assert open_reply(cold, body) == b"reply payload"
        with pytest.raises(MixnetError):
            open_reply(cold, body)  # single-use

    def test_peel_rejects_corrupted_packet_via_cache(self):
        _, path = _path(seed=55)
        packet = build_packet(SeededRng(8), path, b"payload")
        corrupted = packet[:40] + bytes([packet[40] ^ 0xFF]) + packet[41:]
        with pytest.raises(MixnetError):
            peel_layer(path[0].private_key, corrupted)
