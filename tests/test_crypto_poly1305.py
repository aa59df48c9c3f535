"""Poly1305 against RFC 8439 plus tag properties."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import poly1305_mac
from repro.errors import CryptoError


class TestPoly1305:
    def test_rfc8439_vector(self):
        """RFC 8439 section 2.5.2."""
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        tag = poly1305_mac(key, b"Cryptographic Forum Research Group")
        assert tag == bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")

    def test_tag_is_16_bytes(self):
        assert len(poly1305_mac(b"\x01" * 32, b"hello")) == 16

    def test_empty_message(self):
        assert len(poly1305_mac(b"\x01" * 32, b"")) == 16

    def test_different_messages_different_tags(self):
        key = b"\x07" * 32
        assert poly1305_mac(key, b"message-a") != poly1305_mac(key, b"message-b")

    def test_different_keys_different_tags(self):
        assert poly1305_mac(b"\x01" * 32, b"msg") != poly1305_mac(b"\x02" * 32, b"msg")

    def test_bad_key_size(self):
        with pytest.raises(CryptoError):
            poly1305_mac(b"short", b"msg")

    @given(st.binary(max_size=200))
    def test_deterministic(self, message):
        key = b"\x0a" * 32
        assert poly1305_mac(key, message) == poly1305_mac(key, message)

    @given(st.binary(min_size=1, max_size=100))
    def test_single_bit_flip_changes_tag(self, message):
        key = b"\x0b" * 32
        flipped = bytes([message[0] ^ 0x01]) + message[1:]
        assert poly1305_mac(key, message) != poly1305_mac(key, flipped)

