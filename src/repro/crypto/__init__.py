"""Cryptographic primitives for nym state encryption and onion routing.

Implemented from scratch (pure Python) where the standard library has no
equivalent:

* :mod:`repro.crypto.chacha20` — the ChaCha20 stream cipher (RFC 8439).
* :mod:`repro.crypto.poly1305` — the Poly1305 one-time authenticator.
* :mod:`repro.crypto.aead` — ChaCha20-Poly1305 AEAD composition.
* :mod:`repro.crypto.x25519` — Curve25519 Diffie-Hellman (RFC 7748).
* :mod:`repro.crypto.kdf` — HKDF and PBKDF2 (HMAC-SHA256 from stdlib).
* :mod:`repro.crypto.merkle` — Merkle trees for base-image verification.

These are real algorithms producing RFC test-vector-correct output, not
placeholders: nym state really is encrypted, onion layers really do peel.
"""

from importlib import import_module

from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract, pbkdf2_sha256
from repro.crypto.merkle import MerkleTree
from repro.crypto.x25519 import X25519_BASE_POINT, x25519, x25519_keypair

#: The numpy-backed ciphers and the module that defines each, loaded on
#: first access (PEP 562), so a process that needs only Merkle trees or
#: key agreement (a fleet shard worker) never imports numpy.  The
#: stdlib-only exports above stay eager, and ``x25519`` must: importing
#: the submodule ``repro.crypto.x25519`` binds the package attribute
#: ``x25519`` to the module, and only the eager ``from`` import above
#: rebinds it to the function.
_LAZY = {
    "ChaCha20Poly1305": "repro.crypto.aead",
    "SealedBox": "repro.crypto.aead",
    "chacha20_block": "repro.crypto.chacha20",
    "chacha20_xor": "repro.crypto.chacha20",
    "poly1305_mac": "repro.crypto.poly1305",
}

__all__ = [
    "ChaCha20Poly1305",
    "SealedBox",
    "chacha20_block",
    "chacha20_xor",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "pbkdf2_sha256",
    "MerkleTree",
    "poly1305_mac",
    "X25519_BASE_POINT",
    "x25519",
    "x25519_keypair",
]


def __getattr__(name: str):
    """Import a lazy export on first access and keep it as a global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
