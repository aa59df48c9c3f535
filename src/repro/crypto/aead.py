"""ChaCha20-Poly1305 AEAD (RFC 8439, section 2.8) and a password box.

:class:`ChaCha20Poly1305` is the low-level AEAD; :class:`SealedBox` is the
convenience wrapper the persistence layer uses to encrypt nym state under a
user password (PBKDF2 key derivation + random salt/nonce framing).
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass

from repro.crypto.chacha20 import chacha20_block, chacha20_xor
from repro.crypto.kdf import pbkdf2_sha256
from repro.crypto.poly1305 import Poly1305
from repro.errors import AuthenticationError, CryptoError
from repro.sim.rng import SeededRng


def _pad16_tail(length: int) -> bytes:
    """Zero padding that extends ``length`` bytes to a 16-byte boundary."""
    return b"\x00" * ((16 - length % 16) % 16)


def aead_tag(otk: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """The RFC 8439 AEAD tag of ``aad`` and ``ciphertext`` under the
    Poly1305 one-time key ``otk``.

    Streams the aad || pad || ciphertext || pad || lengths framing
    through the MAC instead of concatenating a copy of the (possibly
    multi-megabyte) ciphertext just to authenticate it.
    """
    mac = Poly1305(otk)
    mac.update(aad)
    mac.update(_pad16_tail(len(aad)))
    mac.update(ciphertext)
    mac.update(_pad16_tail(len(ciphertext)))
    mac.update(struct.pack("<QQ", len(aad), len(ciphertext)))
    return mac.tag()


class ChaCha20Poly1305:
    """AEAD cipher: confidentiality + integrity for nym state and cells."""

    KEY_SIZE = 32
    NONCE_SIZE = 12
    TAG_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_SIZE:
            raise CryptoError(f"AEAD key must be {self.KEY_SIZE} bytes, got {len(key)}")
        self._key = key

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        return aead_tag(chacha20_block(self._key, 0, nonce)[:32], ciphertext, aad)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ``ciphertext || 16-byte tag``."""
        if len(nonce) != self.NONCE_SIZE:
            raise CryptoError(f"nonce must be {self.NONCE_SIZE} bytes, got {len(nonce)}")
        ciphertext = chacha20_xor(self._key, nonce, plaintext, counter=1)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext."""
        if len(nonce) != self.NONCE_SIZE:
            raise CryptoError(f"nonce must be {self.NONCE_SIZE} bytes, got {len(nonce)}")
        if len(sealed) < self.TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than the AEAD tag")
        ciphertext, tag = sealed[: -self.TAG_SIZE], sealed[-self.TAG_SIZE :]
        expected = self._tag(nonce, ciphertext, aad)
        if not hmac.compare_digest(tag, expected):
            raise AuthenticationError("AEAD tag verification failed")
        return chacha20_xor(self._key, nonce, ciphertext, counter=1)


@dataclass(frozen=True)
class SealedBlob:
    """Self-describing password-encrypted blob: salt, nonce, ciphertext."""

    salt: bytes
    nonce: bytes
    sealed: bytes

    MAGIC = b"NYMX"

    def to_bytes(self) -> bytes:
        return (
            self.MAGIC
            + struct.pack("<HH", len(self.salt), len(self.nonce))
            + self.salt
            + self.nonce
            + self.sealed
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBlob":
        if len(data) < 8 or data[:4] != cls.MAGIC:
            raise CryptoError("not a Nymix sealed blob")
        salt_len, nonce_len = struct.unpack("<HH", data[4:8])
        offset = 8
        salt = data[offset : offset + salt_len]
        offset += salt_len
        nonce = data[offset : offset + nonce_len]
        offset += nonce_len
        if len(salt) != salt_len or len(nonce) != nonce_len:
            raise CryptoError("truncated sealed blob header")
        return cls(salt=salt, nonce=nonce, sealed=data[offset:])


class SealedBox:
    """Password-based authenticated encryption for quasi-persistent nyms.

    The Nym Manager uses this to seal compressed VM images before handing
    them to cloud storage: the provider sees only a :class:`SealedBlob`.
    """

    SALT_SIZE = 16
    # Low by production standards, but the KDF cost is simulated separately
    # by the persistence timing model; keeping iterations small keeps the
    # test suite fast while still exercising real PBKDF2.
    PBKDF2_ITERATIONS = 1_000

    def __init__(self, password: str, rng: SeededRng) -> None:
        if not password:
            raise CryptoError("empty password")
        self._password = password
        self._rng = rng

    def seal(self, plaintext: bytes, aad: bytes = b"") -> SealedBlob:
        salt = self._rng.token_bytes(self.SALT_SIZE)
        nonce = self._rng.token_bytes(ChaCha20Poly1305.NONCE_SIZE)
        key = pbkdf2_sha256(
            self._password.encode(), salt, self.PBKDF2_ITERATIONS, ChaCha20Poly1305.KEY_SIZE
        )
        sealed = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
        return SealedBlob(salt=salt, nonce=nonce, sealed=sealed)

    def open(self, blob: SealedBlob, aad: bytes = b"") -> bytes:
        key = pbkdf2_sha256(
            self._password.encode(), blob.salt, self.PBKDF2_ITERATIONS, ChaCha20Poly1305.KEY_SIZE
        )
        return ChaCha20Poly1305(key).decrypt(blob.nonce, blob.sealed, aad)
