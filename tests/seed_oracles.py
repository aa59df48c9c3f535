"""Frozen seed code that equivalence tests compare the live code against.

The original ("seed") path normalisation, journal line encoder,
per-page accounting, KSM rescan, per-block Poly1305 loop and per-arrival
fleet host walk are kept here, next to the tests that use them, as
behavioural oracles: the rewritten paths must produce the same answers.

The two ``*_CACHE_OFF`` lists turn the handshake and mixnet caches off
from outside, and ``COLD_BOOT`` turns off the flash-clone launch path.
Each entry is an ``(owner, name, value)`` patch; apply a list through
``monkeypatch`` (see :func:`apply`), which restores every original when
the test or ``monkeypatch.context()`` block ends.  Production modules
carry no switches for this.
"""

from __future__ import annotations

import importlib
import json
from typing import Dict, Iterator, Sequence, Tuple

from repro.anonymizers.tor.circuit import NTOR_CLIENT_CACHE
from repro.anonymizers.tor.relay import Relay, _CircuitHopState
from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.x25519 import X25519_BASE_POINT, x25519
from repro.errors import CircuitError, FileSystemError, MemoryError_
from repro.memory.pages import (
    ContentTag,
    ZERO_TAG,
    bytes_to_pages,
    image_tag,
    is_mergeable,
    pages_to_bytes,
    unique_tag,
)
from repro.mixnet import packet as packet_mod
from repro.mixnet.packet import SENDER_KEY_CACHE
from repro.unionfs.verify import VerifiedLayer
from repro.vmm.baseimage import build_config_layer
from repro.vmm.hypervisor import Hypervisor


def apply(monkeypatch, patches) -> None:
    """Set every ``(owner, name, value)`` in ``patches`` through ``monkeypatch``."""
    for owner, name, value in patches:
        monkeypatch.setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Seed path normalisation: every path, canonical or not, goes through the
# component loop.
# ---------------------------------------------------------------------------


def seed_normalize_path(path: str) -> str:
    """The seed ``normalize_path``: canonicalize to an absolute path with no dots."""
    if not path:
        raise FileSystemError("empty path")
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if not parts:
                raise FileSystemError(f"path escapes root: {path!r}")
            parts.pop()
        else:
            parts.append(part)
    return "/" + "/".join(parts)


# ---------------------------------------------------------------------------
# Seed journal line: a fresh dict per record, sorted again by json.dumps.
# ---------------------------------------------------------------------------


def seed_event_json(record) -> str:
    """The seed ``EventRecord.to_json``."""
    return json.dumps(record.export(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Seed GuestMemory: one dict entry per page content tag (unique pages get an
# entry *each*, so dirtying 1 GiB allocates ~262k entries).
# ---------------------------------------------------------------------------


class LegacyGuestMemory:
    """The seed page-accounting model: a multiset of per-page content tags."""

    def __init__(self, owner_id: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise MemoryError_(f"guest memory must be positive, got {size_bytes}")
        self.owner_id = owner_id
        self._pages: Dict[ContentTag, int] = {ZERO_TAG: bytes_to_pages(size_bytes)}
        self._unique_serial = 0
        self._erased = False

    @property
    def total_pages(self) -> int:
        return sum(self._pages.values())

    @property
    def erased(self) -> bool:
        return self._erased

    def page_groups(self) -> Iterator[Tuple[ContentTag, int]]:
        return iter(self._pages.items())

    @property
    def clean_bytes(self) -> int:
        clean = sum(n for tag, n in self._pages.items() if tag[0] != "unique")
        return pages_to_bytes(clean)

    def stats(self) -> Tuple[int, int, int, int]:
        """(total, zero, image, unique) page counts — tuple form for tests."""
        zero = self._pages.get(ZERO_TAG, 0)
        image = sum(n for tag, n in self._pages.items() if tag[0] == "image")
        unique = sum(n for tag, n in self._pages.items() if tag[0] == "unique")
        return (self.total_pages, zero, image, unique)

    def _take_pages(self, count: int) -> None:
        remaining = count
        for tag in sorted(self._pages, key=lambda t: (t[0] != "zero", t)):
            if remaining == 0:
                break
            if tag[0] == "unique":
                continue
            take = min(self._pages[tag], remaining)
            self._pages[tag] -= take
            if self._pages[tag] == 0:
                del self._pages[tag]
            remaining -= take
        if remaining:
            raise MemoryError_(
                f"guest {self.owner_id}: cannot repurpose {count} pages "
                f"({remaining} short; all pages privately dirtied)"
            )

    def map_image(self, image_id: str, size_bytes: int, first_block: int = 0) -> None:
        pages = bytes_to_pages(size_bytes)
        self._take_pages(pages)
        for block in range(first_block, first_block + pages):
            tag = image_tag(image_id, block)
            self._pages[tag] = self._pages.get(tag, 0) + 1

    def dirty(self, size_bytes: int) -> None:
        pages = bytes_to_pages(size_bytes)
        self._take_pages(pages)
        for _ in range(pages):
            tag = unique_tag(self.owner_id, self._unique_serial)
            self._unique_serial += 1
            self._pages[tag] = 1

    def dirty_pages(self, pages: int) -> None:
        self.dirty(pages_to_bytes(pages))

    def secure_erase(self) -> int:
        wiped = self.total_pages
        self._pages = {ZERO_TAG: wiped}
        self._erased = True
        return wiped


# ---------------------------------------------------------------------------
# Seed KSM accounting: a full O(total pages) rescan of every guest's page
# groups on every stats() call.
# ---------------------------------------------------------------------------


def legacy_merge_candidates(
    guests: Sequence[LegacyGuestMemory],
) -> Dict[ContentTag, int]:
    """Mergeable content tags mapped to their total page counts (>= 2)."""
    counts: Dict[ContentTag, int] = {}
    for guest in guests:
        for tag, count in guest.page_groups():
            if not is_mergeable(tag) or tag[0] == "zero":
                continue
            counts[tag] = counts.get(tag, 0) + count
    return {tag: count for tag, count in counts.items() if count >= 2}


def legacy_ksm_stats(
    guests: Sequence[LegacyGuestMemory], coverage: float = 1.0
) -> Tuple[int, int, int]:
    """Seed (pages_shared, pages_sharing, pages_saved), truncation bias and all."""
    candidates = legacy_merge_candidates(guests)
    shared = len(candidates)
    sharing = sum(candidates.values())
    shared_now = int(shared * coverage)
    sharing_now = int(sharing * coverage)
    return (shared_now, sharing_now, max(0, sharing_now - shared_now))


# ---------------------------------------------------------------------------
# Seed Poly1305: one big-int multiply *and* one 130-bit modular reduction per
# 16-byte block.
# ---------------------------------------------------------------------------

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def legacy_poly1305_mac(key: bytes, message: bytes) -> bytes:
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    for start in range(0, len(message), 16):
        chunk = message[start : start + 16]
        block = int.from_bytes(chunk + b"\x01", "little")
        accumulator = ((accumulator + block) * r) % _P
    tag = (accumulator + s) & ((1 << 128) - 1)
    return tag.to_bytes(16, "little")


# ---------------------------------------------------------------------------
# Seed fleet admission: every arrival walks every host in id order and
# re-derives the full watermark arithmetic (no change-driven verdicts).
# Patch it over `Fleet._candidates`, or call it for the expected answer.
# ---------------------------------------------------------------------------


def seed_fleet_candidates(self, exclude=None):
    admissible = [
        h
        for h in (self.hosts[hid] for hid in sorted(self.hosts))
        if h.host_id != exclude and h.admits(self.need_ram_bytes)
    ]
    calm = [
        h
        for h in admissible
        if (h.used_bytes + self.footprint_bytes) / h.total_bytes
        <= self.high_watermark
    ]
    return calm or admissible


# ---------------------------------------------------------------------------
# Cache-off patches and the cold boot.
# ---------------------------------------------------------------------------


def _no_cache(*args) -> None:
    """Seed code had no cache: every lookup misses, every store is dropped.

    Patched onto a class it receives ``self`` first; onto a cache
    instance, the key (and value) alone.
    """
    return None


def _seed_x25519_base(scalar: bytes) -> bytes:
    """The seed keygen: a full Montgomery ladder from the base point."""
    return x25519(scalar, X25519_BASE_POINT)


def _seed_relay_handle_create(self, circ_id: int, client_public_key: bytes) -> bytes:
    """The seed CREATE2: a fresh exchange and HKDF on every handshake."""
    if not self.alive:
        raise CircuitError(f"{self.descriptor.nickname}: relay is gone")
    if circ_id in self._circuits:
        raise CircuitError(
            f"{self.descriptor.nickname}: circuit id {circ_id} already in use"
        )
    shared = x25519(self._onion_private_key, client_public_key)
    self._circuits[circ_id] = _CircuitHopState(*self.derive_keys(shared))
    return self.descriptor.onion_public_key


#: The seed ntor handshake: ladder keygen, no relay-side memo and no
#: client-side keyshare cache.
NTOR_CACHE_OFF = [
    (importlib.import_module("repro.crypto.x25519"), "x25519_base", _seed_x25519_base),
    (Relay, "handle_create", _seed_relay_handle_create),
    (NTOR_CLIENT_CACHE, "get", _no_cache),
    (NTOR_CLIENT_CACHE, "put", _no_cache),
]


def _seed_derive_node_key(node_private: bytes, eph_public: bytes, memo) -> bytes:
    """The seed peel: a fresh exchange per layer, the node memo unused."""
    return packet_mod._expand_key(x25519(node_private, eph_public))


def _seed_seal(key: bytes, plaintext: bytes, aad: bytes) -> bytes:
    return ChaCha20Poly1305(key).encrypt(packet_mod._NONCE, plaintext, aad)


def _seed_open(key: bytes, sealed: bytes, aad: bytes) -> bytes:
    return ChaCha20Poly1305(key).decrypt(packet_mod._NONCE, sealed, aad)


#: The seed mixnet packet path: a fresh x25519 exchange per layer on the
#: sender (no ephemeral-key cache) and per peel on every node (no node
#: memo), and a fresh ChaCha20 keystream and Poly1305 one-time key per
#: AEAD (no per-layer-key stream cache).
MIXNET_CACHE_OFF = [
    (SENDER_KEY_CACHE, "get", _no_cache),
    (SENDER_KEY_CACHE, "put", _no_cache),
    (packet_mod, "_prefill_streams", _no_cache),
    (packet_mod, "derive_node_key", _seed_derive_node_key),
    (packet_mod, "_seal", _seed_seal),
    (packet_mod, "_open", _seed_open),
]


def _seed_mount_layers(self, role, anonymizer: str, base):
    """The seed mount: a fresh config layer and, with verified boot on, a
    fresh ``VerifiedLayer`` (and its Merkle proof index) for every VM."""
    bottom = base
    if self.verify_base_image:
        bottom = VerifiedLayer(base, self.merkle_root, on_tamper=self._on_tamper)
    return build_config_layer(role, anonymizer), bottom


#: The seed launch path: no zygote, so every boot replays the boot
#: sequence itself, and no mount layer shared between VMs.
COLD_BOOT = [
    (Hypervisor, "_zygote_memory", _no_cache),
    (Hypervisor, "_mount_layers", _seed_mount_layers),
]
