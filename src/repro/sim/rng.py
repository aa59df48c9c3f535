"""Deterministic randomness for the simulation.

The substrate never touches ``os.urandom`` or wall-clock entropy; all
randomness flows from a seed so that experiments are reproducible.  Key
material for the crypto layer is drawn from the same stream — acceptable
because the "adversary" here is also part of the simulation.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import List, Sequence, TypeVar

import numpy as _np

T = TypeVar("T")

#: Below this many bytes the pure-python path wins (state sync overhead).
_NUMPY_CONTENT_MIN_BYTES = 4096

#: One reusable MT19937 bit generator; its state is overwritten from the
#: caller's ``random.Random`` on every draw, so sharing it between
#: independent streams is safe (and cheap — seeding a fresh generator per
#: call would dominate the draw).
_MT_SCRATCH = _np.random.MT19937(0)

#: Persistent word buffer for draws up to 1 MiB.  ``random_raw`` always
#: allocates its output, so large single draws churn the allocator (the
#: multi-hundred-KiB temporaries mmap/munmap every call, which costs more
#: than the generation itself on small-cache machines); drawing in
#: modest chunks into one reused buffer keeps every per-call allocation
#: allocator-pool sized.
_MT_BUFFER = _np.empty(1 << 18, dtype=_np.uint32)

#: Words per random_raw chunk (256 KiB) — measured sweet spot between
#: python loop overhead and temporary-allocation churn.
_MT_CHUNK_WORDS = 1 << 16


def _numpy_randbytes(py_random: random.Random, n: int) -> bytes:
    """``py_random.randbytes(n)``, computed by numpy's MT19937.

    CPython's ``random.Random`` and numpy's MT19937 are the same
    generator, so mirroring the 624-word state across, drawing the raw
    32-bit outputs vectorized, and mirroring the advanced state back
    produces the *identical* byte string and leaves ``py_random``
    exactly where the pure-python draw would have — journals cannot
    tell the difference.  ``randbytes`` is ``getrandbits(8n)`` rendered
    little-endian: one raw word per 32 bits, the top word right-shifted
    to the remaining bit count.
    """
    version, state, gauss_next = py_random.getstate()
    mt_state = _MT_SCRATCH.state
    mt_state["state"] = {
        "key": _np.asarray(state[:-1], dtype=_np.uint32),
        "pos": state[-1],
    }
    _MT_SCRATCH.state = mt_state
    bits = 8 * n
    words = (bits + 31) // 32
    buf = (
        _MT_BUFFER
        if words <= len(_MT_BUFFER)
        else _np.empty(words, dtype=_np.uint32)
    )
    for offset in range(0, words, _MT_CHUNK_WORDS):
        count = min(_MT_CHUNK_WORDS, words - offset)
        buf[offset : offset + count] = _MT_SCRATCH.random_raw(count)
    if bits % 32:
        buf[words - 1] >>= _np.uint32(32 - bits % 32)
    if sys.byteorder == "little":
        data = buf.view(_np.uint8)[:n].tobytes()
    else:  # pragma: no cover - no big-endian CI runner
        data = buf[:words].astype("<u4").tobytes()[:n]
    advanced = _MT_SCRATCH.state["state"]
    key = advanced["key"].tolist()
    key.append(int(advanced["pos"]))
    py_random.setstate((version, tuple(key), gauss_next))
    return data


class SeededRng:
    """A seeded random stream with helpers used across the substrate."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream from this one.

        Forking by label (rather than drawing a child seed from the parent
        stream) keeps child streams stable even if the parent's consumption
        pattern changes.
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SeededRng(int.from_bytes(digest[:8], "big"))

    # -- primitives ------------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._random.sample(seq, k)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def token_bytes(self, n: int) -> bytes:
        """``n`` deterministic pseudo-random bytes (key material, nonces)."""
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def token_hex(self, n: int) -> str:
        return self.token_bytes(n).hex()

    def content_bytes(self, n: int) -> bytes:
        """Fast bulk pseudo-random (incompressible) content, e.g. cache files.

        Large draws route through numpy's MT19937 (bit-identical bytes,
        bit-identical stream position — see :func:`_numpy_randbytes`);
        small draws take the pure-python path.  Either way the result is
        exactly ``randbytes(n)``.
        """
        if n >= _NUMPY_CONTENT_MIN_BYTES:
            return _numpy_randbytes(self._random, n)
        return self._random.randbytes(n)

    # -- distributions used by the timing models --------------------------

    def jitter(self, base: float, fraction: float = 0.05) -> float:
        """``base`` seconds perturbed by a uniform ±``fraction`` jitter.

        Used by timing models so repeated measurements show realistic
        variance while remaining deterministic for a given seed.
        """
        if base < 0:
            raise ValueError(f"negative base duration: {base!r}")
        return base * (1.0 + self.uniform(-fraction, fraction))

    def positive_gauss(self, mu: float, sigma: float, floor: float = 0.0) -> float:
        """Gaussian sample clamped below at ``floor`` (durations, sizes)."""
        return max(floor, self.gauss(mu, sigma))
