"""Equivalence tests for the vectorized/batched crypto fast paths.

Every fast path must be bit-identical to the straightforward scalar
evaluation: the sizes straddle the block and dispatch boundaries
(0, 1, 63, 64, 65, 255, 256, 257 bytes and the vectorization threshold).
"""

import random
import struct

import pytest

from repro.crypto.chacha20 import (
    chacha20_block,
    chacha20_combined_keystream,
    chacha20_keystream,
    chacha20_xor,
    chacha20_xor_layers,
    xor_bytes,
)
from repro.crypto.poly1305 import Poly1305, poly1305_mac
from repro.errors import CryptoError

from tests.seed_oracles import legacy_poly1305_mac

KEY = bytes(range(32))
KEY2 = bytes(range(100, 132))
KEY3 = bytes(range(200, 232))
NONCE = bytes(range(12))

#: Straddles block boundaries and the scalar->vectorized dispatch point
#: in chacha20_xor (4 * 64 = 256 bytes) and the Poly1305 batch threshold.
BOUNDARY_SIZES = [0, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1024]


def _pattern(length: int) -> bytes:
    return bytes((i * 31 + 7) & 0xFF for i in range(length))


def _scalar_keystream(key: bytes, nonce: bytes, length: int, counter: int = 0) -> bytes:
    n_blocks = (length + 63) // 64
    stream = b"".join(chacha20_block(key, counter + i, nonce) for i in range(n_blocks))
    return stream[:length]


class TestChaCha20Vectorized:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_xor_matches_scalar_blocks(self, size):
        data = _pattern(size)
        expected = xor_bytes(data, _scalar_keystream(KEY, NONCE, size))
        assert chacha20_xor(KEY, NONCE, data) == expected

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_keystream_matches_scalar_blocks(self, size):
        assert chacha20_keystream(KEY, NONCE, size) == _scalar_keystream(
            KEY, NONCE, size
        )

    def test_keystream_honours_counter(self):
        offset = chacha20_keystream(KEY, NONCE, 640, counter=3)
        assert offset == _scalar_keystream(KEY, NONCE, 640, counter=3)

    def test_keystream_negative_length_rejected(self):
        with pytest.raises(CryptoError):
            chacha20_keystream(KEY, NONCE, -1)

    def test_keystream_zero_length_still_validates(self):
        with pytest.raises(CryptoError):
            chacha20_keystream(b"short", NONCE, 0)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_combined_keystream_is_xor_of_streams(self, size):
        keys = [KEY, KEY2, KEY3]
        expected = _scalar_keystream(keys[0], NONCE, size)
        for key in keys[1:]:
            expected = xor_bytes(expected, _scalar_keystream(key, NONCE, size))
        assert chacha20_combined_keystream(keys, NONCE, size) == expected

    def test_combined_keystream_single_key(self):
        assert chacha20_combined_keystream([KEY], NONCE, 300) == chacha20_keystream(
            KEY, NONCE, 300
        )

    def test_combined_keystream_needs_a_key(self):
        with pytest.raises(CryptoError):
            chacha20_combined_keystream([], NONCE, 16)

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_xor_layers_equals_sequential_layering(self, size):
        keys = [KEY, KEY2, KEY3]
        data = _pattern(size)
        expected = data
        for key in keys:
            expected = chacha20_xor(key, NONCE, expected)
        assert chacha20_xor_layers(keys, NONCE, data) == expected

    def test_xor_layers_round_trips(self):
        keys = [KEY, KEY2, KEY3]
        data = _pattern(700)
        wrapped = chacha20_xor_layers(keys, NONCE, data)
        assert wrapped != data
        assert chacha20_xor_layers(list(reversed(keys)), NONCE, wrapped) == data

    def test_xor_bytes_length_mismatch_rejected(self):
        with pytest.raises(CryptoError):
            xor_bytes(b"abc", b"ab")

    def test_xor_bytes_is_involutive(self):
        data, stream = _pattern(129), _scalar_keystream(KEY, NONCE, 129)
        assert xor_bytes(xor_bytes(data, stream), stream) == data


class TestPoly1305Batched:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES + [2048, 4096, 10_000])
    def test_matches_seed_per_block_loop(self, size):
        message = _pattern(size)
        assert poly1305_mac(KEY, message) == legacy_poly1305_mac(KEY, message)

    @pytest.mark.parametrize("chunks", [
        [0, 1, 15, 16, 17, 100],
        [512, 512, 512],
        [1, 1, 1, 1],
        [700, 3],
    ])
    def test_streaming_chunking_is_irrelevant(self, chunks):
        pieces = [_pattern(size) for size in chunks]
        message = b"".join(pieces)
        mac = Poly1305(KEY)
        for piece in pieces:
            mac.update(piece)
        assert mac.tag() == poly1305_mac(KEY, message)

    def test_rfc8439_vector(self):
        # RFC 8439 section 2.5.2
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a8"
            "0103808afb0db2fd4abff6af4149f51b"
        )
        message = b"Cryptographic Forum Research Group"
        expected = bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")
        assert poly1305_mac(key, message) == expected

    def test_rfc8439_aead_tag_vector(self):
        # RFC 8439 section 2.8.2: the full AEAD construction end to end.
        from repro.crypto.aead import ChaCha20Poly1305

        key = bytes(range(0x80, 0xA0))
        nonce = bytes.fromhex("070000004041424344454647")
        aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        sealed = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        assert sealed[-16:] == bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")
        assert ChaCha20Poly1305(key).decrypt(nonce, sealed, aad) == plaintext

    def test_tag_is_one_shot(self):
        mac = Poly1305(KEY)
        mac.update(b"data")
        mac.tag()
        with pytest.raises(CryptoError):
            mac.tag()
        with pytest.raises(CryptoError):
            mac.update(b"more")

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError) as excinfo:
            Poly1305(b"short")
        assert "Poly1305 key must be 32 bytes, got 5" in str(excinfo.value)

    def test_batch_threshold_boundary_sizes(self):
        # Exactly around _BATCH_THRESHOLD_BYTES and _BATCH_BLOCKS * 16.
        for size in [496, 511, 512, 513, 528, 1023, 1040]:
            message = _pattern(size)
            assert poly1305_mac(KEY, message) == legacy_poly1305_mac(KEY, message)


class TestAeadFraming:
    def test_streamed_tag_matches_concat_framing(self):
        """The streamed MAC must equal MAC(pad16(aad)||pad16(ct)||lens)."""
        from repro.crypto.aead import ChaCha20Poly1305

        key = bytes(range(32, 64))
        nonce = bytes(range(12))
        for aad_len, pt_len in [(0, 0), (1, 1), (12, 100), (16, 256), (7, 1000)]:
            aad, plaintext = _pattern(aad_len), _pattern(pt_len)
            aead = ChaCha20Poly1305(key)
            sealed = aead.encrypt(nonce, plaintext, aad)
            ciphertext = sealed[:-16]

            def pad16(data):
                return data + b"\x00" * ((16 - len(data) % 16) % 16)

            otk = chacha20_block(key, 0, nonce)[:32]
            mac_data = (
                pad16(aad)
                + pad16(ciphertext)
                + struct.pack("<QQ", len(aad), len(ciphertext))
            )
            assert sealed[-16:] == legacy_poly1305_mac(otk, mac_data)


class TestPoly1305LimbPath:
    """The radix-2^26 limb path and widened batch window stay exact."""

    @pytest.mark.parametrize(
        "size",
        # Straddle the limb-path dispatch (1024 B) and the 512-block
        # batch window (8192 B), plus a multi-batch tail.
        [1008, 1023, 1024, 1025, 1040, 8176, 8191, 8192, 8193, 8208, 20_000],
    )
    def test_limb_path_matches_seed_per_block_loop(self, size):
        message = _pattern(size)
        assert poly1305_mac(KEY, message) == legacy_poly1305_mac(KEY, message)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_keys_and_sizes_match_seed(self, seed):
        import random

        rng = random.Random(seed)
        for _ in range(20):
            key = bytes(rng.randrange(256) for _ in range(32))
            size = rng.randrange(0, 12_000)
            message = bytes(rng.randrange(256) for _ in range(size))
            assert poly1305_mac(key, message) == legacy_poly1305_mac(key, message)

    def test_streaming_across_the_limb_threshold(self):
        message = _pattern(5000)
        mac = Poly1305(KEY)
        mac.update(message[:700])     # scalar batch
        mac.update(message[700:703])  # tail carry
        mac.update(message[703:4000])  # limb path with carried tail
        mac.update(message[4000:])
        assert mac.tag() == legacy_poly1305_mac(KEY, message)

    def test_power_table_shared_across_instances(self):
        from repro.crypto.poly1305 import _POWER_CACHE

        _POWER_CACHE.clear()
        message = _pattern(4096)
        first = poly1305_mac(KEY, message)
        assert len(_POWER_CACHE) == 1
        assert poly1305_mac(KEY, message) == first
        assert len(_POWER_CACHE) == 1  # second MAC reused the same table


class TestMultiKeyKeystreams:
    def test_matches_per_key_keystream(self):
        from repro.crypto.chacha20 import chacha20_keystream, chacha20_keystreams

        keys = [KEY, KEY2, KEY3]
        for length in (0, 1, 64, 65, 300, 1024):
            batched = chacha20_keystreams(keys, NONCE, length, counter=5)
            singles = [
                chacha20_keystream(key, NONCE, length, counter=5) for key in keys
            ]
            assert batched == singles, length

    def test_empty_key_list(self):
        from repro.crypto.chacha20 import chacha20_keystreams

        assert chacha20_keystreams([], NONCE, 100) == []


class TestLargeInputs:
    """Inputs that span several ChaCha20 tiles and Poly1305 batches.

    A kernel that is wrong the same way when sealing and opening still
    round-trips, so every check here is against the scalar block function
    or the seed's per-block MAC loop.
    """

    COUNTER = 7

    @staticmethod
    def _tile_edge_blocks(n_blocks):
        """First and last block of every tile, and the final block."""
        from repro.crypto.chacha20 import _TILE_LANES

        blocks = {n_blocks - 1}
        for first in range(0, n_blocks, _TILE_LANES):
            blocks.update((first, min(first + _TILE_LANES, n_blocks) - 1))
        return sorted(blocks)

    def _three_tiles_and_a_tail(self):
        from repro.crypto.chacha20 import _TILE_LANES

        size = 3 * _TILE_LANES * 64 + 100
        return size, (size + 63) // 64

    def test_xor_over_three_tiles_matches_scalar_blocks(self):
        size, n_blocks = self._three_tiles_and_a_tail()
        data = (bytes(range(251)) * (size // 251 + 1))[:size]
        sealed = chacha20_xor(KEY, NONCE, data, counter=self.COUNTER)
        assert len(sealed) == size
        for block in self._tile_edge_blocks(n_blocks):
            lo = block * 64
            chunk = data[lo : lo + 64]
            stream = chacha20_block(KEY, self.COUNTER + block, NONCE)[: len(chunk)]
            assert sealed[lo : lo + 64] == xor_bytes(chunk, stream), block

    def test_keystream_over_three_tiles_matches_scalar_blocks(self):
        size, n_blocks = self._three_tiles_and_a_tail()
        stream = chacha20_keystream(KEY, NONCE, size, counter=self.COUNTER)
        assert len(stream) == size
        for block in self._tile_edge_blocks(n_blocks):
            lo = block * 64
            expected = chacha20_block(KEY, self.COUNTER + block, NONCE)
            assert stream[lo : lo + 64] == expected[: len(stream[lo : lo + 64])]
        assert chacha20_xor(KEY, NONCE, bytes(size), counter=self.COUNTER) == stream

    def test_keystreams_with_a_tile_boundary_inside_one_key(self):
        from repro.crypto.chacha20 import _TILE_LANES, chacha20_keystreams

        keys = [KEY, KEY2, KEY3]
        n_blocks = _TILE_LANES // 2 + 100
        length = n_blocks * 64 - 9
        # Lanes run key-major: the first tile ends inside KEY2's lanes.
        boundary = _TILE_LANES - n_blocks
        assert 0 < boundary < n_blocks
        streams = chacha20_keystreams(keys, NONCE, length, counter=self.COUNTER)
        assert [len(stream) for stream in streams] == [length] * 3
        for key, stream in zip(keys, streams):
            for block in (0, boundary - 1, boundary, n_blocks - 1):
                lo = block * 64
                expected = chacha20_block(key, self.COUNTER + block, NONCE)
                assert stream[lo : lo + 64] == expected[: len(stream[lo : lo + 64])]
            assert stream == chacha20_keystream(key, NONCE, length, counter=self.COUNTER)
        combined = chacha20_combined_keystream(keys, NONCE, length, counter=self.COUNTER)
        assert combined == xor_bytes(xor_bytes(streams[0], streams[1]), streams[2])

    def test_poly1305_over_full_batches_in_uneven_chunks(self):
        from repro.crypto.poly1305 import _BATCH_BLOCKS

        batch_bytes = _BATCH_BLOCKS * 16
        # Not periodic: batches with equal bytes would hide a batch mix-up.
        message = random.Random(33).randbytes(4 * batch_bytes + 16 * 37 + 5)
        # The second chunk starts mid-block and holds three full batches
        # plus a short batch and a ragged end.
        cuts = [5, 5 + 3 * batch_bytes + 16 * 20 + 3, 5 + 3 * batch_bytes + 16 * 20 + 4]
        mac = Poly1305(KEY)
        for lo, hi in zip([0] + cuts, cuts + [len(message)]):
            mac.update(message[lo:hi])
        expected = legacy_poly1305_mac(KEY, message)
        assert mac.tag() == expected
        assert poly1305_mac(KEY, message) == expected

    def test_multi_mib_aead_round_trip_and_tamper(self):
        from repro.crypto.aead import ChaCha20Poly1305
        from repro.errors import AuthenticationError

        aead = ChaCha20Poly1305(KEY)
        plaintext = (bytes(range(253)) * (2 * 4096 + 1))[: 2 * 1024 * 1024 + 7]
        sealed = aead.encrypt(NONCE, plaintext, b"header")
        assert len(sealed) == len(plaintext) + 16
        assert aead.decrypt(NONCE, sealed, b"header") == plaintext
        last_block = (len(plaintext) - 1) // 64 * 64
        for index in (last_block + 3, len(sealed) - 1):  # ciphertext, tag
            tampered = bytearray(sealed)
            tampered[index] ^= 0x10
            with pytest.raises(AuthenticationError):
                aead.decrypt(NONCE, bytes(tampered), b"header")
