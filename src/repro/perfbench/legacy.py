"""Frozen pre-overhaul ("seed") implementations of the hot paths.

These are byte-for-byte behavioural copies of the implementations the
repository shipped before the O(Δ) accounting / vectorized-crypto
overhaul.  They exist for two reasons:

* **Equivalence tests** pin the rewritten `GuestMemory`/`Ksm`/Poly1305/
  onion paths against the seed semantics (`tests/test_memory_equivalence.py`,
  `tests/test_crypto_vectorized.py`).
* **Honest speedups**: `repro bench` measures *this* code next to the live
  code in the same process on the same machine, so the before/after
  numbers recorded in ``BENCH_hotpaths.json`` are never stale hard-coded
  constants.

Nothing here is wired into the simulator; importing this module has no
side effects on the production paths.  The ``seed_*_mode`` context
managers patch frozen code in from outside for the duration of a
``with`` block; production modules carry no switches for them.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as _np

from repro.anonymizers.tor.circuit import NtorClientCache
from repro.anonymizers.tor.relay import Relay, _CircuitHopState
from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.x25519 import X25519_BASE_POINT, x25519
from repro.errors import CircuitError, MemoryError_
from repro.fleet.fleet import Fleet
from repro.memory.ksm import Ksm, _sweep_duplicates
from repro.memory.pages import (
    PAGE_SIZE,
    ContentTag,
    ZERO_TAG,
    bytes_to_pages,
    image_tag,
    is_mergeable,
    pages_to_bytes,
    unique_tag,
)
from repro.memory.physmem import HostMemory
from repro.mixnet import packet as packet_mod
from repro.mixnet.packet import MixKeyCache, MixStreamCache
from repro.sim.rng import SeededRng
from repro.unionfs.layer import Layer
from repro.vmm.hypervisor import Hypervisor

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
    guests: Sequence[LegacyGuestMemory], merge_zero_pages: bool = False
) -> Dict[ContentTag, int]:
    """Mergeable content tags mapped to their total page counts (>= 2)."""
    counts: Dict[ContentTag, int] = {}
    for guest in guests:
        for tag, count in guest.page_groups():
            if not is_mergeable(tag):
                continue
            if tag[0] == "zero" and not merge_zero_pages:
                continue
            counts[tag] = counts.get(tag, 0) + count
    return {tag: count for tag, count in counts.items() if count >= 2}


def legacy_ksm_stats(
    guests: Sequence[LegacyGuestMemory],
    coverage: float = 1.0,
    merge_zero_pages: bool = False,
) -> Tuple[int, int, int]:
    """Seed (pages_shared, pages_sharing, pages_saved), truncation bias and all."""
    candidates = legacy_merge_candidates(guests, merge_zero_pages)
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
# Seed onion path: every layer is a fresh ChaCha20 keystream computation —
# 2*(hops+1) full cipher evaluations per relayed round trip.
# ---------------------------------------------------------------------------


def legacy_onion_round_trip(
    forward_keys: Sequence[bytes],
    backward_keys: Sequence[bytes],
    nonce: bytes,
    plaintext: bytes,
) -> bytes:
    """Client wraps, each relay peels/wraps, client unwraps — seed style."""
    from repro.crypto.chacha20 import chacha20_xor

    data = plaintext
    for key in reversed(forward_keys):  # client onion_encrypt
        data = chacha20_xor(key, nonce, data)
    for key in forward_keys:  # relays peel forward
        data = chacha20_xor(key, nonce, data)
    for key in reversed(backward_keys):  # relays wrap backward
        data = chacha20_xor(key, nonce, data)
    for key in backward_keys:  # client onion_decrypt
        data = chacha20_xor(key, nonce, data)
    return data


# ---------------------------------------------------------------------------
# Seed launch path: context managers that patch frozen seed code over the
# live caches and O(Δ) accounting *from outside*, so the `nym_launch` /
# `fleet_arrival` baselines run the real manager and fleet code with only
# the optimizations reverted.
# ---------------------------------------------------------------------------


@contextmanager
def _patched(*patches: Tuple[object, str, object]) -> Iterator[None]:
    """Set each ``(owner, name, value)`` for the body, then put the
    original objects back, also when the body raises.  ``name`` must be
    defined on ``owner`` itself, so a moved target fails loudly here
    instead of leaving a stray attribute behind."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _seed_no_cache(self, *args) -> None:
    """Seed code had no cache: every lookup misses, every store is dropped."""
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


@contextmanager
def seed_crypto_mode():
    """Run with the seed handshake costs: scalar-ladder keygen on every
    ntor handshake, no relay-side memo, no client-side keyshare cache."""
    with _patched(
        (importlib.import_module("repro.crypto.x25519"), "x25519_base",
         _seed_x25519_base),
        (Relay, "handle_create", _seed_relay_handle_create),
        (NtorClientCache, "lookup", _seed_no_cache),
        (NtorClientCache, "store", _seed_no_cache),
    ):
        yield


def _seed_layer_used_bytes(self) -> int:
    return sum(len(data) for data in self._files.values())


def _seed_hypervisor_memory_snapshot(self):
    from repro.vmm.hypervisor import MemorySnapshot

    stats = self.memory.stats()
    ksm_stats = self.ksm.stats()
    fs_bytes = sum(vm.fs_ram_bytes for vm in self._vms.values())
    return MemorySnapshot(
        used_bytes=stats.used_bytes + fs_bytes,
        guest_ram_bytes=stats.guest_allocated_bytes,
        fs_bytes=fs_bytes,
        ksm_pages_sharing=ksm_stats.pages_sharing,
        ksm_pages_saved=ksm_stats.pages_saved,
    )


_seed_token_serial = 0


def _seed_accounting_token(self):
    # Always fresh: the host snapshot cache keyed on the token misses on
    # each read, restoring the seed per-query accounting cost.
    global _seed_token_serial
    _seed_token_serial += 1
    return (_seed_token_serial,)


def _seed_host_memory_stats(self):
    from repro.memory.physmem import HostMemoryStats

    allocated = pages_to_bytes(sum(g.total_pages for g in self._guests.values()))
    return HostMemoryStats(
        total_bytes=self.total_bytes,
        base_used_bytes=self.base_used_bytes,
        guest_allocated_bytes=allocated,
        ksm_saved_bytes=self.ksm.stats().bytes_saved,
    )


def _seed_physmem_used_bytes_now(self) -> int:
    # The seed admission check built the full stats snapshot per launch.
    return _seed_host_memory_stats(self).used_bytes


def _seed_ksm_total_guest_pages(self) -> int:
    return sum(guest.total_pages for guest in self._guests)


#: Below this many (lo, hi, mult) runs the scalar sweep wins (no array setup).
_VECTOR_SWEEP_THRESHOLD = 24


def _seed_sweep_duplicates_grouped(
    group_ids: List[int], los: List[int], his: List[int], mults: List[int]
) -> Tuple[int, int]:
    """The seed index's duplicate sweep over *all* content groups at once.

    Each run ``i`` belongs to group ``group_ids[i]`` (one group per image
    id); runs of different groups never merge.  The event sweep runs as
    one lexsort + cumsum over the concatenated per-group event lists: a
    group's deltas sum to zero, so depth returns to 0 at every group
    boundary and the boundary mask only guards against negative widths.
    Below ``_VECTOR_SWEEP_THRESHOLD`` runs it sweeps each group in turn.
    """
    if len(los) < _VECTOR_SWEEP_THRESHOLD:
        per_group: Dict[int, List[Tuple[int, int, int]]] = {}
        for gid, lo, hi, mult in zip(group_ids, los, his, mults):
            per_group.setdefault(gid, []).append((lo, hi, mult))
        shared = 0
        sharing = 0
        for runs in per_group.values():
            run_shared, run_sharing = _sweep_duplicates(runs)
            shared += run_shared
            sharing += run_sharing
        return shared, sharing
    n = len(los)
    group = _np.fromiter(group_ids, dtype=_np.int64, count=n)
    lo_arr = _np.fromiter(los, dtype=_np.int64, count=n)
    hi_arr = _np.fromiter(his, dtype=_np.int64, count=n)
    mult_arr = _np.fromiter(mults, dtype=_np.int64, count=n)
    points = _np.concatenate([lo_arr, hi_arr])
    deltas = _np.concatenate([mult_arr, -mult_arr])
    groups2 = _np.concatenate([group, group])
    order = _np.lexsort((points, groups2))
    points = points[order]
    groups2 = groups2[order]
    depth = _np.cumsum(deltas[order])[:-1]
    widths = points[1:] - points[:-1]
    covered = (depth >= 2) & (groups2[1:] == groups2[:-1])
    shared = int(widths[covered].sum())
    sharing = int((widths[covered] * depth[covered]).sum())
    return shared, sharing


def _seed_ksm_rebuild_index(ksm) -> Tuple[int, int]:
    """The seed index rebuild: every registered guest's runs, every time."""
    zero_total = 0
    image_index: Dict[str, int] = {}
    group_ids: List[int] = []
    los: List[int] = []
    his: List[int] = []
    mults: List[int] = []
    for guest in ksm._guests:
        zero_total += guest.zero_pages
        for image_id, lo, hi, mult in guest.image_segments():
            gid = image_index.setdefault(image_id, len(image_index))
            group_ids.append(gid)
            los.append(lo)
            his.append(hi)
            mults.append(mult)
    shared, sharing = _seed_sweep_duplicates_grouped(group_ids, los, his, mults)
    if ksm.merge_zero_pages and zero_total >= 2:
        shared += 1
        sharing += zero_total
    return shared, sharing


def _seed_ksm_stats(self):
    """The seed `Ksm.stats`: no version memo and no zero-coverage gate; a
    dirty-epoch walk over every guest per call, and an all-guest rebuild
    whenever any guest's epoch (or the guest set) moved."""
    from repro.memory.ksm import KsmStats

    if not self.enabled:
        return KsmStats(pages_shared=0, pages_sharing=0, pages_saved=0)
    epochs = {guest: guest.dirty_epoch for guest in self._guests}
    index = self.__dict__.get("_seed_index")
    if index is None or index[0] != epochs:
        index = (epochs,) + _seed_ksm_rebuild_index(self)
        self._seed_index = index
    _, shared, sharing = index
    fraction = self.coverage
    shared_now = int(shared * fraction)
    sharing_now = int(sharing * fraction)
    if sharing_now and not shared_now:
        shared_now = 1
    return KsmStats(
        pages_shared=shared_now,
        pages_sharing=sharing_now,
        pages_saved=max(0, sharing_now - shared_now),
    )


@contextmanager
def seed_accounting_mode():
    """Run with the seed O(N) accounting sums: `Layer.used_bytes` walks
    every file, `HostMemory.stats` and `Ksm.total_guest_pages` walk every
    guest, `Ksm.stats` re-walks dirty epochs per call and rebuilds its
    index from every guest on any change (no memo, no zero-coverage
    gate), `Hypervisor.memory_snapshot` re-sums writable FS bytes over
    every VM, and the accounting token is always fresh (defeating the
    host snapshot cache)."""
    with _patched(
        (Layer, "used_bytes", property(_seed_layer_used_bytes)),
        (HostMemory, "stats", _seed_host_memory_stats),
        (HostMemory, "_used_bytes_now", _seed_physmem_used_bytes_now),
        (Ksm, "total_guest_pages", property(_seed_ksm_total_guest_pages)),
        (Ksm, "stats", _seed_ksm_stats),
        (Hypervisor, "memory_snapshot", _seed_hypervisor_memory_snapshot),
        (Hypervisor, "accounting_token", _seed_accounting_token),
    ):
        yield


def _seed_fleet_host_list(self):
    return [self.hosts[hid] for hid in sorted(self.hosts)]


def _seed_fleet_candidates(self, exclude=None):
    admissible = [
        h
        for h in _seed_fleet_host_list(self)
        if h.host_id != exclude and h.admits(self.need_ram_bytes)
    ]
    calm = [
        h
        for h in admissible
        if (h.used_bytes + self.footprint_bytes) / h.total_bytes
        <= self.high_watermark
    ]
    return calm or admissible


@contextmanager
def seed_admission_mode():
    """The seed fleet-admission path: host lists rebuilt and the full
    watermark arithmetic re-derived on every arrival (no change-driven
    verdicts, no wave batching reaches `_candidates`), on top of the
    seed accounting sums."""
    with _patched(
        (Fleet, "host_list", _seed_fleet_host_list),
        (Fleet, "_candidates", _seed_fleet_candidates),
    ), seed_accounting_mode():
        yield


def _seed_derive_node_key(node_private: bytes, eph_public: bytes, memo) -> bytes:
    """The seed peel: a fresh exchange per layer, the node memo unused."""
    return packet_mod._expand_key(x25519(node_private, eph_public))


def _seed_seal(key: bytes, plaintext: bytes, aad: bytes) -> bytes:
    return ChaCha20Poly1305(key).encrypt(packet_mod._NONCE, plaintext, aad)


def _seed_open(key: bytes, sealed: bytes, aad: bytes) -> bytes:
    return ChaCha20Poly1305(key).decrypt(packet_mod._NONCE, sealed, aad)


@contextmanager
def seed_mixnet_mode():
    """Run the mixnet packet path with seed costs: a fresh x25519
    exchange per layer on the sender (no ephemeral-key cache), a fresh
    exchange per peel on every node (no per-node memo), and a fresh
    ChaCha20 keystream + Poly1305 one-time key per AEAD (no per-layer-key
    stream cache)."""
    with _patched(
        (MixKeyCache, "lookup", _seed_no_cache),
        (MixKeyCache, "store", _seed_no_cache),
        (MixStreamCache, "prefill", _seed_no_cache),
        (packet_mod, "derive_node_key", _seed_derive_node_key),
        (packet_mod, "_seal", _seed_seal),
        (packet_mod, "_open", _seed_open),
    ):
        yield


def _seed_content_bytes(self, n: int) -> bytes:
    return self._random.randbytes(n)


@contextmanager
def seed_content_mode():
    """Draw bulk pseudo-random content through the seed pure-python
    ``random.Random.randbytes`` path instead of the vectorized numpy
    MT19937 mirror.  The byte stream and the generator's stream position
    are identical either way — only the wall-clock cost differs."""
    with _patched((SeededRng, "content_bytes", _seed_content_bytes)):
        yield


@contextmanager
def seed_launch_mode():
    """The full pre-flash-clone launch path: seed crypto plus seed
    accounting plus seed bulk-content draws (callers additionally pass
    ``flash_clone=False`` so the zygote cache is off and every launch
    cold-boots)."""
    with seed_crypto_mode(), seed_accounting_mode(), seed_content_mode():
        yield


__all__ = [
    "LegacyGuestMemory",
    "legacy_merge_candidates",
    "legacy_ksm_stats",
    "legacy_poly1305_mac",
    "legacy_onion_round_trip",
    "seed_crypto_mode",
    "seed_accounting_mode",
    "seed_admission_mode",
    "seed_content_mode",
    "seed_launch_mode",
    "seed_mixnet_mode",
    "PAGE_SIZE",
]
