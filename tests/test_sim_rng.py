"""Tests for the deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import SeededRng
from repro.sim.rng import _NUMPY_CONTENT_MIN_BYTES


class TestSeededRng:
    def test_deterministic_for_seed(self):
        assert SeededRng(5).random() == SeededRng(5).random()

    def test_different_seeds_differ(self):
        assert SeededRng(5).token_bytes(16) != SeededRng(6).token_bytes(16)

    def test_fork_independent_of_parent_consumption(self):
        parent_a = SeededRng(5)
        parent_b = SeededRng(5)
        parent_b.random()  # consume from one parent only
        assert parent_a.fork("x").token_bytes(8) == parent_b.fork("x").token_bytes(8)

    def test_fork_labels_differ(self):
        parent = SeededRng(5)
        assert parent.fork("a").token_bytes(8) != parent.fork("b").token_bytes(8)

    def test_token_bytes_length(self):
        assert len(SeededRng(1).token_bytes(33)) == 33

    def test_token_bytes_zero(self):
        assert SeededRng(1).token_bytes(0) == b""

    def test_content_bytes_incompressible(self):
        import zlib

        data = SeededRng(1).content_bytes(100_000)
        assert len(zlib.compress(data)) > 90_000

    def test_jitter_bounds(self):
        rng = SeededRng(1)
        for _ in range(100):
            value = rng.jitter(10.0, 0.05)
            assert 9.5 <= value <= 10.5

    def test_jitter_rejects_negative_base(self):
        with pytest.raises(ValueError):
            SeededRng(1).jitter(-1.0)

    def test_positive_gauss_floor(self):
        rng = SeededRng(1)
        for _ in range(200):
            assert rng.positive_gauss(0.0, 10.0, floor=0.5) >= 0.5

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=64))
    def test_token_bytes_always_right_length(self, seed, n):
        assert len(SeededRng(seed).token_bytes(n)) == n

    def test_sample_returns_distinct(self):
        rng = SeededRng(2)
        picked = rng.sample(list(range(100)), 10)
        assert len(set(picked)) == 10


class TestNumpyContentPath:
    """The vectorized content_bytes path must be invisible in the bytes.

    ``_numpy_randbytes`` mirrors the CPython MT19937 state into numpy,
    draws raw words vectorized, and mirrors the advanced state back —
    so for any size the bytes AND the stream position must match the
    pure-python ``randbytes`` exactly.  Anything less would make journal
    bytes depend on which path a draw took.
    """

    SIZES = [
        _NUMPY_CONTENT_MIN_BYTES,        # threshold: first numpy-routed size
        _NUMPY_CONTENT_MIN_BYTES + 1,    # odd tail byte within a word
        12_345,                          # non-word-aligned
        734_003,                         # the browser-cache chunk size
        (1 << 20) + 7,                   # past the persistent buffer
    ]

    @pytest.mark.parametrize("n", SIZES)
    def test_bytes_match_pure_python(self, n):
        fast, slow = SeededRng(11), SeededRng(11)
        assert fast.content_bytes(n) == slow._random.randbytes(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_stream_position_matches_pure_python(self, n):
        # The draw after a numpy-routed draw must continue exactly where
        # the pure-python stream would be: same 624-word state, same pos.
        fast, slow = SeededRng(13), SeededRng(13)
        slow._random.randbytes(n)
        tail = slow.token_bytes(32), slow.random()
        fast.content_bytes(n)
        assert (fast.token_bytes(32), fast.random()) == tail

    def test_small_draws_stay_on_python_path_and_agree(self):
        n = _NUMPY_CONTENT_MIN_BYTES - 1
        assert SeededRng(17).content_bytes(n) == SeededRng(17)._random.randbytes(n)
