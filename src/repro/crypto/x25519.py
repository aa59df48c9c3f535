"""X25519 Diffie-Hellman over Curve25519 (RFC 7748).

Used by the Tor simulator's circuit handshake: the client performs an
ntor-style exchange with each relay to derive per-hop onion keys.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import CryptoError
from repro.sim.rng import SeededRng

_P = 2**255 - 19
_A24 = 121665

X25519_BASE_POINT = (9).to_bytes(32, "little")


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != 32:
        raise CryptoError(f"X25519 scalar must be 32 bytes, got {len(scalar)}")
    raw = bytearray(scalar)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(raw, "little")


def _decode_u(u: bytes) -> int:
    if len(u) != 32:
        raise CryptoError(f"X25519 point must be 32 bytes, got {len(u)}")
    raw = bytearray(u)
    raw[31] &= 127  # mask the high bit per RFC 7748
    return int.from_bytes(raw, "little") % _P


def x25519(scalar: bytes, point: bytes) -> bytes:
    """Scalar multiplication on Curve25519 via the Montgomery ladder."""
    k = _decode_scalar(scalar)
    u = _decode_u(point)

    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for bit_index in reversed(range(255)):
        bit = (k >> bit_index) & 1
        swap ^= bit
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit

        a = (x2 + z2) % _P
        aa = (a * a) % _P
        b = (x2 - z2) % _P
        bb = (b * b) % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = (d * a) % _P
        cb = (c * b) % _P
        x3 = pow(da + cb, 2, _P)
        z3 = (x1 * pow(da - cb, 2, _P)) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2

    result = (x2 * pow(z2, _P - 2, _P)) % _P
    return result.to_bytes(32, "little")


# -- fixed-base scalar multiplication -------------------------------------------
#
# Keypair generation always multiplies the *same* base point, so the 255
# ladder steps above can be replaced with table lookups.  We work on the
# birationally-equivalent edwards25519 curve (-x^2 + y^2 = 1 + d x^2 y^2,
# extended coordinates) with a radix-16 comb: the clamped scalar is split
# into 64 nibbles c_i and k*B = sum c_i * (16^i * B), where every
# [j * 16^i]B for j in 1..15 comes from a table built once per process.
# The Edwards result maps back to the Montgomery u-coordinate via
# u = (Z + Y) / (Z - Y).  Clamped scalars are in [2^254, 2^255) and
# divisible by 8, so k*B is never the identity or a small-order point and
# the division is always defined.

_D = 37095705934669439343138083508754565189542113879843219016388785533085940283555
_2D = (2 * _D) % _P
_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BY = 46316835694926478169428394003475163141307993866256225615783033603165251855960

# table[i][j-1] = [j * 16^i]B as a precomputed triple (Y-X, Y+X, 2d*X*Y),
# built lazily on first fixed-base multiply (~1k point ops, one batch
# inversion) and reused for every keypair afterwards.
_COMB_TABLE: list = []


def _ed_add(p1: Tuple[int, int, int, int], p2: Tuple[int, int, int, int]):
    """Unified extended-coordinate addition on edwards25519 (a = -1)."""
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (t1 * _2D % _P) * t2 % _P
    d = 2 * z1 * z2 % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _build_comb_table() -> None:
    # Projective multiples first, then one batched inversion to affine.
    base = (_BX, _BY, 1, (_BX * _BY) % _P)
    rows = []
    point = base
    for _ in range(64):
        row = [point]
        for _ in range(14):
            row.append(_ed_add(row[-1], point))
        rows.append(row)
        point = _ed_add(row[-1], point)  # 16^(i+1) * B

    # Montgomery's trick: invert all 960 Z coordinates at once.
    flat = [pt for row in rows for pt in row]
    prefix = [1] * (len(flat) + 1)
    for i, pt in enumerate(flat):
        prefix[i + 1] = prefix[i] * pt[2] % _P
    inv = pow(prefix[-1], _P - 2, _P)
    z_invs = [0] * len(flat)
    for i in range(len(flat) - 1, -1, -1):
        z_invs[i] = prefix[i] * inv % _P
        inv = inv * flat[i][2] % _P

    for i, pt in enumerate(flat):
        x = pt[0] * z_invs[i] % _P
        y = pt[1] * z_invs[i] % _P
        _COMB_TABLE.append(((y - x) % _P, (y + x) % _P, x * y % _P * _2D % _P))


def _ed_madd(p1: Tuple[int, int, int, int], idx: int):
    """Mixed addition: extended point + precomputed affine triple."""
    x1, y1, z1, t1 = p1
    ymx, ypx, xy2d = _COMB_TABLE[idx]
    a = ((y1 - x1) * ymx) % _P
    b = ((y1 + x1) * ypx) % _P
    c = (t1 * xy2d) % _P
    d = 2 * z1 % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def x25519_base(scalar: bytes) -> bytes:
    """k * basepoint via the precomputed edwards25519 comb table."""
    if not _COMB_TABLE:
        _build_comb_table()
    k = _decode_scalar(scalar)
    acc = (0, 1, 1, 0)  # identity; the unified formulas handle it
    for i in range(64):
        nibble = (k >> (4 * i)) & 15
        if nibble:
            acc = _ed_madd(acc, i * 15 + nibble - 1)
    _, y, z, _ = acc
    u = (z + y) * pow(z - y, _P - 2, _P) % _P
    return u.to_bytes(32, "little")


def x25519_keypair(rng: SeededRng) -> Tuple[bytes, bytes]:
    """Generate a (private, public) X25519 keypair from the seeded RNG."""
    private = rng.token_bytes(32)
    return private, x25519_base(private)
