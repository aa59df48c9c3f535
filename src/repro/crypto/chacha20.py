"""ChaCha20 stream cipher (RFC 8439, section 2).

Pure-Python implementation used for nym state encryption and for the
layered onion encryption in the Tor simulator.  Matches the RFC 8439 test
vectors (exercised in the test suite).

Beyond the scalar block function there are three fast paths, all
bit-identical to the scalar 20-round function (pinned by the test suite):

* :func:`_chacha20_xor_vectorized` — all of one key's keystream blocks at
  once via numpy uint32 lanes;
* :func:`chacha20_keystream` — raw keystream bytes, which the Tor layer
  caches per hop (this simulator's hop keys are single-use directions with
  a fixed nonce, so the stream never changes);
* :func:`chacha20_combined_keystream` — the XOR of several keys' streams
  computed in one batched dispatch, which collapses whole-onion
  encryption into a single XOR.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

from repro.errors import CryptoError

_MASK32 = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: List[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    if len(key) != 32:
        raise CryptoError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise CryptoError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if not 0 <= counter <= _MASK32:
        raise CryptoError(f"ChaCha20 counter out of range: {counter}")

    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8L", key))
    state.append(counter)
    state.extend(struct.unpack("<3L", nonce))

    working = state.copy()
    for _ in range(10):  # 20 rounds: 10 column+diagonal double-rounds
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)

    output = [(working[i] + state[i]) & _MASK32 for i in range(16)]
    return struct.pack("<16L", *output)


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` (XOR with the ChaCha20 keystream).

    Small inputs use the scalar block function; larger ones a vectorized
    implementation of the same 20-round function that computes all blocks'
    keystreams at once (bit-identical output, checked by the test suite).
    """
    if len(data) > 4 * 64:
        return _chacha20_xor_vectorized(key, nonce, data, counter)
    out = bytearray(len(data))
    for block_index in range(0, len(data), 64):
        keystream = chacha20_block(key, counter + block_index // 64, nonce)
        chunk = data[block_index : block_index + 64]
        for offset, byte in enumerate(chunk):
            out[block_index + offset] = byte ^ keystream[offset]
    return bytes(out)


def _keystream_words_vectorized(
    keys: Sequence[bytes], nonce: bytes, n_blocks: int, counter: int
):
    """20-round keystream for every (key, block) lane at once.

    Returns a numpy uint32 array of shape ``(n_keys, n_blocks, 16)`` whose
    words match :func:`chacha20_block` exactly.
    """
    if counter + n_blocks - 1 > _MASK32:
        raise CryptoError("ChaCha20 counter overflow")
    if counter < 0:
        raise CryptoError(f"ChaCha20 counter out of range: {counter}")
    for key in keys:
        if len(key) != 32:
            raise CryptoError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise CryptoError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")

    n_keys = len(keys)
    lanes = n_keys * n_blocks
    state = np.empty((16, lanes), dtype=np.uint32)
    state[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    key_words = np.stack([np.frombuffer(key, dtype="<u4") for key in keys])
    state[4:12] = np.repeat(key_words.T, n_blocks, axis=1)
    counters = np.arange(counter, counter + n_blocks, dtype=np.uint64).astype(np.uint32)
    state[12] = np.tile(counters, n_keys)
    state[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]

    x = state.copy()

    def rotl(v, c):
        return (v << np.uint32(c)) | (v >> np.uint32(32 - c))

    def quarter(a, b, c, d):
        x[a] += x[b]
        x[d] = rotl(x[d] ^ x[a], 16)
        x[c] += x[d]
        x[b] = rotl(x[b] ^ x[c], 12)
        x[a] += x[b]
        x[d] = rotl(x[d] ^ x[a], 8)
        x[c] += x[d]
        x[b] = rotl(x[b] ^ x[c], 7)

    with np.errstate(over="ignore"):
        for _ in range(10):
            quarter(0, 4, 8, 12)
            quarter(1, 5, 9, 13)
            quarter(2, 6, 10, 14)
            quarter(3, 7, 11, 15)
            quarter(0, 5, 10, 15)
            quarter(1, 6, 11, 12)
            quarter(2, 7, 8, 13)
            quarter(3, 4, 9, 14)
        x += state

    # (16, lanes) words -> (n_keys, n_blocks, 16), block-major per key.
    return x.reshape(16, n_keys, n_blocks).transpose(1, 2, 0)


def _chacha20_xor_vectorized(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
    """All keystream blocks at once via numpy uint32 lanes."""
    n_blocks = (len(data) + 63) // 64
    words = _keystream_words_vectorized([key], nonce, n_blocks, counter)
    keystream = words.astype("<u4").tobytes()[: len(data)]
    buffer = np.frombuffer(data, dtype=np.uint8)
    ks = np.frombuffer(keystream, dtype=np.uint8)
    return (buffer ^ ks).tobytes()


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings (single big-int op, no numpy)."""
    if len(data) != len(keystream):
        raise CryptoError(
            f"xor_bytes length mismatch: {len(data)} vs {len(keystream)}"
        )
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(keystream, "little")
    ).to_bytes(len(data), "little")


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 0) -> bytes:
    """Produce ``length`` bytes of raw keystream (for caching layers)."""
    if length < 0:
        raise CryptoError(f"negative keystream length: {length}")
    if length == 0:
        chacha20_block(key, counter, nonce)  # still validate the inputs
        return b""
    n_blocks = (length + 63) // 64
    if n_blocks <= 4:
        stream = b"".join(
            chacha20_block(key, counter + index, nonce) for index in range(n_blocks)
        )
    else:
        stream = _keystream_words_vectorized([key], nonce, n_blocks, counter).astype(
            "<u4"
        ).tobytes()
    return stream[:length]


def chacha20_keystreams(
    keys: Sequence[bytes], nonce: bytes, length: int, counter: int = 0
) -> List[bytes]:
    """Every key's raw keystream in one batched dispatch (not folded).

    Identical per-key output to calling :func:`chacha20_keystream` once per
    key, but all ``len(keys) * n_blocks`` lanes run through the 20 rounds
    in a single vectorized pass — the mixnet stream cache prefills a whole
    circuit's layer streams with one call.
    """
    if not keys:
        return []
    if length < 0:
        raise CryptoError(f"negative keystream length: {length}")
    n_blocks = (length + 63) // 64
    if length == 0 or len(keys) * n_blocks <= 4:
        return [chacha20_keystream(key, nonce, length, counter) for key in keys]
    words = _keystream_words_vectorized(list(keys), nonce, n_blocks, counter)
    raw = words.astype("<u4").tobytes()
    stride = n_blocks * 64
    return [raw[i * stride : i * stride + length] for i in range(len(keys))]


def chacha20_combined_keystream(
    keys: Sequence[bytes], nonce: bytes, length: int, counter: int = 0
) -> bytes:
    """XOR of every key's keystream — one batched dispatch for all layers.

    XOR-ing data with this combined stream equals applying
    :func:`chacha20_xor` once per key in any order (XOR is associative and
    commutative), which is exactly the onion layering.
    """
    if not keys:
        raise CryptoError("combined keystream needs at least one key")
    if len(keys) == 1 or length * len(keys) <= 4 * 64:
        combined = chacha20_keystream(keys[0], nonce, length, counter)
        for key in keys[1:]:
            combined = xor_bytes(combined, chacha20_keystream(key, nonce, length, counter))
        return combined
    n_blocks = (length + 63) // 64
    words = _keystream_words_vectorized(list(keys), nonce, n_blocks, counter)
    folded = np.bitwise_xor.reduce(words, axis=0)
    return folded.astype("<u4").tobytes()[:length]


def chacha20_xor_layers(
    keys: Sequence[bytes], nonce: bytes, data: bytes, counter: int = 0
) -> bytes:
    """Encrypt/decrypt through every layer key at once (bit-identical to
    sequentially applying :func:`chacha20_xor` per key)."""
    if not data:
        chacha20_combined_keystream(keys, nonce, 0, counter)
        return b""
    return xor_bytes(data, chacha20_combined_keystream(keys, nonce, len(data), counter))
