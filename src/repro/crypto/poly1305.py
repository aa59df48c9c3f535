"""Poly1305 one-time authenticator (RFC 8439, section 2.5).

The core is block-batched: instead of one 130-bit modular reduction per
16-byte block (the textbook Horner loop), whole batches of up to
``_BATCH_BLOCKS`` blocks are absorbed with precomputed powers of ``r`` and
a single reduction per batch.  Power tables are cached per clamped ``r``
in a process cache (``crypto.poly1305_powers``, emptied when a session
closes), so repeated MACs under the same one-time key (the mixnet wraps
the same per-hop keys packet after packet) pay the r^2..r^n
precomputation once, not per message.

Inputs of 1 KiB and up take a vectorized path: blocks are split into
five 26-bit limbs (the classic radix-2^26 representation), stored
limb-major as a ``(5, n_blocks)`` uint64 array.  One batched matmul
gives every full batch's 5x5 block x power limb-pair sums, numpy folds
each batch's 25 sums to 9 diagonals, and one ``tolist()`` hands them to
the per-batch Horner step, the only part left in Python ints.  A short
final batch takes one 5x5 product of its own.  ``update`` absorbs a bulk
input through a ``memoryview``, so a message whose length is not a
multiple of 16 is not copied to split off its tail.  All paths are exact
integer arithmetic, so tags are bit-identical to the straight per-block
evaluation — the test suite pins all of them against each other and
against the RFC vectors.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as _np

from repro.errors import CryptoError
from repro.runtime import ProcessCache

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_PAD_BIT = 1 << 128  # the 0x01 byte appended to every full 16-byte block
_M26 = (1 << 26) - 1

#: Widest batch absorbed per modular reduction (and power-table depth).
#: Each limb-pair dot product sums ``batch`` values < 2^52, and a diagonal
#: adds up to five of them, so anything below 3276 blocks fits uint64;
#: 512 keeps the table build cheap.
_BATCH_BLOCKS = 512
#: Below this many bytes the plain Horner loop wins (no table lookup).
_BATCH_THRESHOLD_BYTES = 512
#: At or above this many bytes the limb-matrix path beats the scalar batch.
_VECTOR_THRESHOLD_BYTES = 1024


class _PowerTable:
    """Powers ``[r^1, r^2, ...]`` of one clamped ``r``, grown on demand.

    Also carries the radix-2^26 limb decomposition of those powers as a
    ``(n, 5)`` uint64 array for the vectorized absorb path.
    """

    __slots__ = ("powers", "_limbs")

    def __init__(self, r: int) -> None:
        self.powers: List[int] = [r % _P]
        self._limbs = None

    def extend_to(self, n: int) -> List[int]:
        powers = self.powers
        if len(powers) < n:
            r = self.powers[0]
            acc = powers[-1]
            for _ in range(n - len(powers)):
                acc = (acc * r) % _P
                powers.append(acc)
        return powers

    def limbs(self, n: int):
        """``(n, 5)`` uint64 array: row ``i`` holds the limbs of ``r^(i+1)``."""
        if self._limbs is None or len(self._limbs) < n:
            powers = self.extend_to(n)
            arr = _np.empty((n, 5), dtype=_np.uint64)
            for i in range(n):
                p = powers[i]
                arr[i, 0] = p & _M26
                arr[i, 1] = (p >> 26) & _M26
                arr[i, 2] = (p >> 52) & _M26
                arr[i, 3] = (p >> 78) & _M26
                arr[i, 4] = p >> 104
            self._limbs = arr
        return self._limbs[:n]


#: Power table per clamped ``r``, bounded by the distinct one-time keys
#: a run keeps MACing under.
_POWER_CACHE = ProcessCache("crypto.poly1305_powers", max_entries=256)


def _power_table(r: int) -> _PowerTable:
    table = _POWER_CACHE.get(r)
    if table is None:
        table = _POWER_CACHE.put(r, _PowerTable(r))
    return table


class Poly1305:
    """Incremental Poly1305: ``update()`` in any chunking, then ``tag()``.

    Streaming avoids concatenating multi-megabyte MAC inputs (the AEAD's
    aad || ciphertext || lengths framing) just to authenticate them.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) != 32:
            raise CryptoError(f"Poly1305 key must be 32 bytes, got {len(key)}")
        self._r = int.from_bytes(key[:16], "little") & _R_CLAMP
        self._s = int.from_bytes(key[16:], "little")
        self._acc = 0
        self._tail = b""
        self._table: Optional[_PowerTable] = None
        self._finalized = False

    # -- absorbing ---------------------------------------------------------

    def update(self, data: bytes) -> "Poly1305":
        if self._finalized:
            raise CryptoError("Poly1305 tag already produced")
        start = 0
        if self._tail:
            # Complete the pending block on its own, so ``data`` is never
            # prefixed (copied) to absorb it.
            start = 16 - len(self._tail)
            self._tail += data[:start]
            if len(self._tail) < 16:
                return self
            self._absorb_blocks(self._tail)
        end = len(data) - (len(data) - start) % 16
        self._tail = data[end:]
        if end - start >= _VECTOR_THRESHOLD_BYTES:
            data = memoryview(data)  # absorb a bulk input in place
        if end > start:
            self._absorb_blocks(data[start:end])
        return self

    def _absorb_blocks(self, data: bytes) -> None:
        """Absorb ``data`` (a multiple of 16 bytes) into the accumulator."""
        if len(data) >= _VECTOR_THRESHOLD_BYTES:
            self._absorb_blocks_limbs(data)
            return
        r = self._r
        acc = self._acc
        offset = 0
        n_blocks = len(data) // 16
        if len(data) >= _BATCH_THRESHOLD_BYTES:
            if self._table is None:
                self._table = _power_table(r)
            while n_blocks:
                batch = min(n_blocks, _BATCH_BLOCKS)
                powers = self._table.extend_to(batch)
                # acc_new = acc*r^K + b_1*r^K + b_2*r^(K-1) + ... + b_K*r^1
                total = 0
                for exponent in range(batch - 1, -1, -1):
                    block = (
                        int.from_bytes(data[offset : offset + 16], "little")
                        | _PAD_BIT
                    )
                    total += block * powers[exponent]
                    offset += 16
                acc = (acc * powers[batch - 1] + total) % _P
                n_blocks -= batch
        for _ in range(n_blocks):
            block = int.from_bytes(data[offset : offset + 16], "little") | _PAD_BIT
            acc = ((acc + block) * r) % _P
            offset += 16
        self._acc = acc

    def _absorb_blocks_limbs(self, data: bytes) -> None:
        """Vectorized absorb: 5x5 limb matmuls, one reduction per batch.

        For a batch of K blocks,
        ``acc_new = (acc*r^K + sum_i block_i * r^(K-i)) mod P``.  Blocks
        and powers are split into five 26-bit limbs; the cross sum becomes
        ``S = B @ W`` where ``B`` is the (5, K) limb-major block array and
        ``W`` the (K, 5) reversed power limbs, and the exact integer is
        ``sum S[a][b] << 26*(a+b)``.  Every pair product is < 2^52 and K
        <= 512, so each sum is < 2^61.

        Every full batch's 5x5 sums come from one batched matmul and fold
        to nine diagonals ``D[k] = sum_{a+b=k} S[a][b]`` (at most five
        sums, so still uint64).  A short final batch takes one 5x5
        product of its own, so a message under one batch (every mixnet
        packet) pays none of the batched set-up.  Only the Horner step
        runs per batch, in Python ints.
        """
        if self._table is None:
            self._table = _power_table(self._r)
        table = self._table
        words = _np.frombuffer(data, dtype="<u8").reshape(-1, 2)
        lo = words[:, 0]
        hi = words[:, 1]
        n_blocks = len(words)
        limbs = _np.empty((5, n_blocks), dtype=_np.uint64)
        b0, b1, b2, b3, b4 = limbs
        m26 = _np.uint64(_M26)
        _np.bitwise_and(lo, m26, out=b0)
        _np.right_shift(lo, _np.uint64(26), out=b1)
        _np.bitwise_and(b1, m26, out=b1)
        _np.right_shift(lo, _np.uint64(52), out=b2)
        _np.left_shift(hi, _np.uint64(12), out=b3)  # b3 as scratch
        _np.bitwise_or(b2, b3, out=b2)
        _np.bitwise_and(b2, m26, out=b2)
        _np.right_shift(hi, _np.uint64(14), out=b3)
        _np.bitwise_and(b3, m26, out=b3)
        # bits 104.. plus the 2^128 pad bit (bit 24 of this limb)
        _np.right_shift(hi, _np.uint64(40), out=b4)
        _np.bitwise_or(b4, _np.uint64(1 << 24), out=b4)

        acc = self._acc
        n_full = n_blocks // _BATCH_BLOCKS
        if n_full:
            # Powers r^K .. r^1: ascending table rows 0..K-1 reversed.
            weights = table.limbs(_BATCH_BLOCKS)[::-1]
            batches = limbs[:, : n_full * _BATCH_BLOCKS].reshape(5, n_full, -1)
            pair_sums = _np.matmul(batches.transpose(1, 0, 2), weights)
            diagonals = _np.zeros((n_full, 9), dtype=_np.uint64)
            for a in range(5):
                diagonals[:, a : a + 5] += pair_sums[:, a, :]
            r_batch = table.powers[_BATCH_BLOCKS - 1]
            for d0, d1, d2, d3, d4, d5, d6, d7, d8 in diagonals.tolist():
                total = (
                    d0
                    + (d1 << 26)
                    + (d2 << 52)
                    + (d3 << 78)
                    + (d4 << 104)
                    + (d5 << 130)
                    + (d6 << 156)
                    + (d7 << 182)
                    + (d8 << 208)
                )
                acc = (acc * r_batch + total) % _P
        pos = n_full * _BATCH_BLOCKS
        if pos < n_blocks:
            batch = n_blocks - pos
            weights = table.limbs(batch)[::-1]
            pair_sums = limbs[:, pos:] @ weights
            total = 0
            for a in range(5):
                row = pair_sums[a]
                for b in range(5):
                    total += int(row[b]) << (26 * (a + b))
            acc = (acc * table.powers[batch - 1] + total) % _P
        self._acc = acc

    # -- finalizing --------------------------------------------------------

    def tag(self) -> bytes:
        """Produce the 16-byte tag.  The instance is one-shot."""
        if self._finalized:
            raise CryptoError("Poly1305 tag already produced")
        self._finalized = True
        acc = self._acc
        if self._tail:
            block = int.from_bytes(self._tail + b"\x01", "little")
            acc = ((acc + block) * self._r) % _P
        result = (acc + self._s) & ((1 << 128) - 1)
        return result.to_bytes(16, "little")


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key."""
    return Poly1305(key).update(message).tag()

