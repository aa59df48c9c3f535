"""ChaCha20 stream cipher (RFC 8439, section 2).

Pure-Python implementation used for nym state encryption and for the
layered onion encryption in the Tor simulator.  Matches the RFC 8439 test
vectors (exercised in the test suite).

Beyond the scalar block function there are three fast paths, all
bit-identical to the scalar 20-round function (pinned by the test suite):

* :func:`_chacha20_xor_vectorized` — all of one key's keystream blocks at
  once via numpy uint32 lanes, XORed into the data in place;
* :func:`chacha20_keystream` — raw keystream bytes, which the Tor layer
  caches per hop (this simulator's hop keys are single-use directions with
  a fixed nonce, so the stream never changes);
* :func:`chacha20_combined_keystream` — the XOR of several keys' streams
  computed in one batched dispatch, which collapses whole-onion
  encryption into a single XOR.

All three run :func:`_keystream_words_vectorized`: every (key, block)
pair is one lane, lanes run key-major in tiles of ``_TILE_LANES``, and a
tile is a ``(16, lanes)`` uint32 array whose 20 rounds run in place on
the rows of the 4x4 state matrix (four words of every lane per op), with
``out=`` ufuncs and one scratch row.  A tile stays cache-resident through
its 80 steps, and each finished tile is transposed straight into the
block-major output.
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


#: Lanes per tile.  The 20 rounds run in place on one (16, _TILE_LANES)
#: uint32 tile (1 MiB) at a time, which stays cache-resident through all
#: 80 quarter-round steps instead of streaming the whole state through
#: memory once per step.
_TILE_LANES = 16384

_WORD_SHIFTS = {
    count: (np.uint32(count), np.uint32(32 - count)) for count in (16, 12, 8, 7)
}


def _word_runs(dst: int, src: int):
    """Word slices pairing word ``i + dst`` with word ``i + src`` (mod 4).

    Returns ``((dst_words, src_words), ...)``, one pair per run of ``i``
    in which neither index wraps past word 3.
    """
    runs = []
    i = 0
    while i < 4:
        d, s = (i + dst) % 4, (i + src) % 4
        n = min(4 - d, 4 - s, 4 - i)
        runs.append((slice(d, d + n), slice(s, s + n)))
        i += n
    return tuple(runs)


def _round_runs(a: int, b: int, c: int, d: int):
    """Word runs of the steps ``a += b``, ``d ^= a``, ``c += d``,
    ``b ^= c`` of a round whose quarter ``i`` takes word ``i + a`` of row
    a, ``i + b`` of row b, and so on (mod 4)."""
    return (_word_runs(a, b), _word_runs(d, a), _word_runs(c, d), _word_runs(b, c))


# The state is a 4x4 matrix of words whose rows a, b, c, d are words
# 0-3, 4-7, 8-11 and 12-15 of every lane.  A column round's quarters take
# word i of each row, so each of its steps is one op on whole rows; a
# diagonal round's take a[i], b[i+1], c[i+2], d[i+3], so each step runs
# once per unwrapped run of words (two or three ops).
_COLUMN_RUNS = _round_runs(0, 0, 0, 0)
_DIAGONAL_RUNS = _round_runs(0, 1, 2, 3)


def _apply(op, dst, src, runs) -> None:
    for dst_words, src_words in runs:
        view = dst[dst_words]
        op(view, src[src_words], out=view)


def _rotl(row, scratch, count: int) -> None:
    left, right = _WORD_SHIFTS[count]
    np.left_shift(row, left, out=scratch)
    np.right_shift(row, right, out=row)
    np.bitwise_or(row, scratch, out=row)


def _round(a, b, c, d, scratch, runs) -> None:
    """One column or diagonal round over rows ``a``-``d``, in place."""
    ab, da, cd, bc = runs
    for first, second in ((16, 12), (8, 7)):
        _apply(np.add, a, b, ab)
        _apply(np.bitwise_xor, d, a, da)
        _rotl(d, scratch, first)
        _apply(np.add, c, d, cd)
        _apply(np.bitwise_xor, b, c, bc)
        _rotl(b, scratch, second)


def _keystream_words_vectorized(
    keys: Sequence[bytes], nonce: bytes, n_blocks: int, counter: int
):
    """20-round keystream for every (key, block) lane at once.

    Returns a numpy ``<u4`` array of shape ``(n_keys, n_blocks, 16)``
    whose words match :func:`chacha20_block` exactly.  Lanes run key-major
    in tiles of :data:`_TILE_LANES`; a tile may span several keys.
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
    key_words = [np.frombuffer(key, dtype="<u4")[:, None] for key in keys]
    out = np.empty((lanes, 16), dtype="<u4")
    width = min(lanes, _TILE_LANES)
    # A tile's starting state, its working state and one scratch row.
    start = np.empty((16, width), dtype=np.uint32)
    start[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    start[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    state = np.empty_like(start)
    scratch = np.empty((4, width), dtype=np.uint32)
    for lo in range(0, lanes, _TILE_LANES):
        hi = min(lo + _TILE_LANES, lanes)
        n = hi - lo
        # Key and counter words, one run of lanes per key in the tile.
        for index in range(lo // n_blocks, (hi - 1) // n_blocks + 1):
            first = max(lo, index * n_blocks)
            last = min(hi, (index + 1) * n_blocks)
            lanes_of_key = slice(first - lo, last - lo)
            block = counter + first - index * n_blocks
            start[4:12, lanes_of_key] = key_words[index]
            start[12, lanes_of_key] = np.arange(
                block, block + last - first, dtype=np.uint32
            )
        x = state[:, :n]
        np.copyto(x, start[:, :n])
        a, b, c, d = x[0:4], x[4:8], x[8:12], x[12:16]
        tmp = scratch[:, :n]
        for _ in range(10):
            _round(a, b, c, d, tmp, _COLUMN_RUNS)
            _round(a, b, c, d, tmp, _DIAGONAL_RUNS)
        np.add(x, start[:, :n], out=x)
        out[lo:hi] = x.T

    # (lanes, 16) words, block-major per key.
    return out.reshape(n_keys, n_blocks, 16)


def _stream_view(words, length: int):
    """The first ``length`` little-endian bytes of a uint32 word array, as
    a uint8 view (no copy unless the host is big-endian)."""
    return words.astype("<u4", copy=False).reshape(-1).view(np.uint8)[:length]


def _chacha20_xor_vectorized(key: bytes, nonce: bytes, data: bytes, counter: int) -> bytes:
    """XOR ``data`` into its keystream in place, then copy out once."""
    n_blocks = (len(data) + 63) // 64
    words = _keystream_words_vectorized([key], nonce, n_blocks, counter)
    stream = _stream_view(words, len(data))
    np.bitwise_xor(stream, np.frombuffer(data, dtype=np.uint8), out=stream)
    return stream.tobytes()


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
        words = _keystream_words_vectorized([key], nonce, n_blocks, counter)
        stream = _stream_view(words, length).tobytes()
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
    raw = words.tobytes()
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
    return _stream_view(np.bitwise_xor.reduce(words, axis=0), length).tobytes()


def chacha20_xor_layers(
    keys: Sequence[bytes], nonce: bytes, data: bytes, counter: int = 0
) -> bytes:
    """Encrypt/decrypt through every layer key at once (bit-identical to
    sequentially applying :func:`chacha20_xor` per key)."""
    if not data:
        chacha20_combined_keystream(keys, nonce, 0, counter)
        return b""
    return xor_bytes(data, chacha20_combined_keystream(keys, nonce, len(data), counter))
