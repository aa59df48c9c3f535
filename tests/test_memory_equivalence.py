"""The run-length GuestMemory/Ksm must match the seed per-page semantics.

The seed implementation kept one dict entry per page; the live code keeps
run-length groups.  These tests expand the runs back to per-page multisets
and drive both implementations through identical operation sequences.
"""

import random

import pytest

from repro.errors import MemoryError_
from repro.memory.ksm import Ksm
from repro.memory.pages import (
    PAGE_SIZE,
    ZERO_TAG,
    GuestMemory,
    image_tag,
    unique_tag,
)

from tests.seed_oracles import LegacyGuestMemory, legacy_ksm_stats

MIB = 1024 * 1024


def expand_to_multiset(guest: GuestMemory):
    """Per-page content-tag counts, in the seed's representation."""
    pages = {}
    for tag, count in guest.page_groups():
        if tag[0] == "zero":
            pages[ZERO_TAG] = pages.get(ZERO_TAG, 0) + count
        elif tag[0] == "image":
            _, image_id, lo, hi = tag
            mult = count // (hi - lo)
            for block in range(lo, hi):
                key = image_tag(image_id, block)
                pages[key] = pages.get(key, 0) + mult
        else:
            _, owner, lo, hi = tag
            for serial in range(lo, hi):
                pages[unique_tag(owner, serial)] = 1
    return pages


def random_ops(rng, steps):
    """A reproducible operation script both implementations replay."""
    ops = []
    for _ in range(steps):
        kind = rng.choice(["map", "map", "dirty", "dirty", "dirty", "erase"])
        if kind == "map":
            image = rng.choice(["osA", "osB"])
            pages = rng.randint(0, 40)
            first = rng.randint(0, 30)
            ops.append(("map", image, pages * PAGE_SIZE, first))
        elif kind == "dirty":
            ops.append(("dirty", rng.randint(0, 50) * PAGE_SIZE))
        else:
            ops.append(("erase",))
    return ops


def apply_op(guest, op):
    if op[0] == "map":
        guest.map_image(op[1], op[2], first_block=op[3])
    elif op[0] == "dirty":
        guest.dirty(op[1])
    else:
        guest.secure_erase()


class TestGuestMemoryEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_op_sequences_match_seed_semantics(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 200) * PAGE_SIZE
        new = GuestMemory("g", size)
        old = LegacyGuestMemory("g", size)
        for op in random_ops(rng, steps=30):
            new_err = old_err = None
            try:
                apply_op(new, op)
            except MemoryError_ as exc:
                new_err = str(exc)
            try:
                apply_op(old, op)
            except MemoryError_ as exc:
                old_err = str(exc)
            assert new_err == old_err, op
            if new_err is not None:
                # The seed implementation corrupts its own state on failure
                # (it consumes pages before raising); the live code is
                # atomic.  Equal errors are required, further comparison
                # of a corrupted multiset is not meaningful.
                return
            assert expand_to_multiset(new) == dict(old.page_groups()), op
            assert new.total_pages == old.total_pages
            assert new.clean_bytes == old.clean_bytes

    def test_failed_take_is_atomic(self):
        guest = GuestMemory("g", 10 * PAGE_SIZE)
        guest.dirty(8 * PAGE_SIZE)
        before = guest.stats()
        with pytest.raises(MemoryError_, match="1 short"):
            guest.dirty(3 * PAGE_SIZE)
        assert guest.stats() == before  # unlike the seed, nothing leaked

    def test_error_message_matches_seed_format(self):
        new = GuestMemory("g", 4 * PAGE_SIZE)
        old = LegacyGuestMemory("g", 4 * PAGE_SIZE)
        with pytest.raises(MemoryError_) as new_exc:
            new.dirty(9 * PAGE_SIZE)
        with pytest.raises(MemoryError_) as old_exc:
            old.dirty(9 * PAGE_SIZE)
        assert str(new_exc.value) == str(old_exc.value)


def _fig3_guest_set(cls):
    """The §5.2 guest mix: anon/comm/sani VMs page-caching one base image."""
    sizes = [("anon", 64 * MIB, 24 * MIB), ("comm", 32 * MIB, 8 * MIB),
             ("sani", 48 * MIB, 16 * MIB), ("anon2", 64 * MIB, 24 * MIB)]
    guests = []
    for name, ram, image in sizes:
        guest = cls(name, ram)
        guest.map_image("NYMIX_IMAGE_ID", image)
        guest.dirty(ram // 16)
        guests.append(guest)
    return guests


class TestKsmEquivalence:
    def test_fig3_scenario_matches_seed_accounting(self):
        guests = _fig3_guest_set(GuestMemory)
        legacy_guests = _fig3_guest_set(LegacyGuestMemory)
        ksm = Ksm(enabled=True)
        for guest in guests:
            ksm.register(guest)
        ksm.run_to_completion()
        stats = ksm.stats()
        shared, sharing, saved = legacy_ksm_stats(legacy_guests, coverage=1.0)
        assert (stats.pages_shared, stats.pages_sharing, stats.pages_saved) == (
            shared,
            sharing,
            saved,
        )
        # Pinned absolute numbers: the 8 MiB prefix is cached by all four
        # guests, 16 MiB by three, 24 MiB by the two anon VMs.
        assert stats.pages_shared == 6144  # 24 MiB of distinct duplicated blocks
        assert stats.pages_sharing == 18432
        assert stats.pages_saved == 12288

    @pytest.mark.parametrize("coverage", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_partial_coverage_matches_seed_truncation(self, coverage):
        guests = _fig3_guest_set(GuestMemory)
        legacy_guests = _fig3_guest_set(LegacyGuestMemory)
        ksm = Ksm(enabled=True, pages_per_scan=1)
        for guest in guests:
            ksm.register(guest)
        total = ksm.total_guest_pages
        ksm.scan(passes=int(total * coverage))
        stats = ksm.stats()
        shared, sharing, saved = legacy_ksm_stats(legacy_guests, ksm.coverage)
        if sharing and not shared:
            shared = 1  # the live code's truncation-bias fix
            saved = max(0, sharing - shared)
        assert (stats.pages_shared, stats.pages_sharing, stats.pages_saved) == (
            shared,
            sharing,
            saved,
        )

    def test_incremental_index_tracks_mutations(self):
        """Cached stats must invalidate when any guest's memory changes."""
        guests = _fig3_guest_set(GuestMemory)
        ksm = Ksm(enabled=True)
        for guest in guests:
            ksm.register(guest)
        ksm.run_to_completion()
        before = ksm.stats()
        assert ksm.stats() == before  # cached, no change

        # Dirtying repurposes image pages -> fewer duplicates.
        guests[0].dirty(guests[0].clean_bytes)
        after_dirty = ksm.run_to_completion()
        assert after_dirty.pages_sharing < before.pages_sharing

        legacy_guests = _fig3_guest_set(LegacyGuestMemory)
        legacy_guests[0].dirty(legacy_guests[0].clean_bytes)
        assert (
            after_dirty.pages_shared,
            after_dirty.pages_sharing,
            after_dirty.pages_saved,
        ) == legacy_ksm_stats(legacy_guests, ksm.coverage)

    def test_unregister_invalidates_index(self):
        guests = _fig3_guest_set(GuestMemory)
        ksm = Ksm(enabled=True)
        for guest in guests:
            ksm.register(guest)
        ksm.run_to_completion()
        with_all = ksm.stats()
        ksm.unregister(guests[0])
        without_anon = ksm.run_to_completion()
        assert without_anon.pages_sharing < with_all.pages_sharing

    def test_scan_progress_clamped_to_guest_footprint(self):
        guest = GuestMemory("g", 4 * MIB)
        ksm = Ksm(enabled=True, pages_per_scan=10_000_000)
        ksm.register(guest)
        ksm.scan(passes=50)
        assert ksm._scanned_pages == guest.total_pages
        assert ksm.coverage == 1.0
        # Registering more memory later must require fresh coverage.
        late = GuestMemory("late", 4 * MIB)
        ksm.register(late)
        assert ksm.coverage == pytest.approx(0.5)


class TestGroupedSweepEquivalence:
    """The stats gates that skip the merge index: a zero-coverage host
    reports nothing, and the version moves only when accounting does."""

    def test_zero_coverage_stats_gate_is_exact(self):
        guests = _fig3_guest_set(GuestMemory)
        ksm = Ksm(enabled=True, pages_per_scan=1)
        for guest in guests:
            ksm.register(guest)
        gated = ksm.stats()  # coverage 0.0: fast path, nothing folded yet
        assert (gated.pages_shared, gated.pages_sharing, gated.pages_saved) == (
            0,
            0,
            0,
        )
        legacy_guests = _fig3_guest_set(LegacyGuestMemory)
        assert legacy_ksm_stats(legacy_guests, coverage=0.0) == (0, 0, 0)

    def test_version_tracks_accounting_changes(self):
        guest = GuestMemory("g", 4 * MIB)
        ksm = Ksm(enabled=True)
        before = ksm.version
        ksm.register(guest)
        assert ksm.version > before
        before = ksm.version
        guest.dirty(PAGE_SIZE)
        assert ksm.version > before
        before = ksm.version
        ksm.run_to_completion()
        assert ksm.version > before
        before = ksm.version
        ksm.run_to_completion()  # coverage already complete: no change
        assert ksm.version == before


class _Twin:
    """One script guest: the live guest and its seed-model mirror."""

    def __init__(self, live, legacy):
        self.live = live
        self.legacy = legacy


def _legacy_copy(template: LegacyGuestMemory, owner_id: str) -> LegacyGuestMemory:
    """The seed-model equivalent of ``clone``/``adopt_template``."""
    size = template.total_pages * PAGE_SIZE
    twin = LegacyGuestMemory(owner_id, size)
    twin._pages = dict(template._pages)
    twin._unique_serial = template._unique_serial
    return twin


class TestKsmIndexScripts:
    """Random scripts over several guests: after every step the
    incremental merge index must report exactly the seed full rescan."""

    IMAGES = ("osA", "osB", "osC")

    def _expected(self, ksm, registered):
        shared, sharing, saved = legacy_ksm_stats(
            [twin.legacy for twin in registered], ksm.coverage
        )
        if sharing and not shared:
            shared = 1  # the live code's truncation-bias fix
            saved = max(0, sharing - shared)
        return shared, sharing, saved

    def _step(self, rng, ksm, twins, registered):
        """Apply one random operation to both models."""
        kind = rng.choice(
            ["map", "map", "map", "dirty", "dirty", "erase", "clone", "adopt",
             "register", "unregister", "scan"]
        )
        twin = rng.choice(twins)
        clean_pages = twin.live.clean_bytes // PAGE_SIZE
        if kind == "map" and clean_pages:
            image = rng.choice(self.IMAGES)
            size = rng.randint(1, clean_pages) * PAGE_SIZE
            first = rng.randint(0, 40)
            twin.live.map_image(image, size, first_block=first)
            twin.legacy.map_image(image, size, first_block=first)
        elif kind == "dirty" and clean_pages:
            size = rng.randint(1, clean_pages) * PAGE_SIZE
            twin.live.dirty(size)
            twin.legacy.dirty(size)
        elif kind == "erase":
            twin.live.secure_erase()
            twin.legacy.secure_erase()
        elif kind == "clone":
            name = f"clone-{len(twins)}"
            twins.append(
                _Twin(twin.live.clone(name), _legacy_copy(twin.legacy, name))
            )
            if rng.random() < 0.7:
                ksm.register(twins[-1].live)
                registered.append(twins[-1])
        elif kind == "adopt":
            # The flash-clone order: register the pristine guest, then
            # adopt the (possibly unregistered) template's runs.
            name = f"adopt-{len(twins)}"
            fresh = _Twin(
                GuestMemory(name, twin.live.total_pages * PAGE_SIZE),
                _legacy_copy(twin.legacy, name),
            )
            ksm.register(fresh.live)
            fresh.live.adopt_template(twin.live)
            twins.append(fresh)
            registered.append(fresh)
        elif kind == "register" and twin not in registered:
            ksm.register(twin.live)
            registered.append(twin)
        elif kind == "unregister" and twin in registered:
            ksm.unregister(twin.live)
            registered.remove(twin)
        elif kind == "scan":
            ksm.scan(passes=rng.randint(1, 3))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_scripts_match_seed_rescan(self, seed):
        rng = random.Random(seed)
        ksm = Ksm(enabled=True, pages_per_scan=rng.randint(20, 200))
        twins = []
        registered = []
        for index in range(rng.randint(2, 5)):
            pages = rng.randint(40, 160)
            twin = _Twin(GuestMemory(f"g{index}", pages * PAGE_SIZE),
                         LegacyGuestMemory(f"g{index}", pages * PAGE_SIZE))
            twins.append(twin)
            if rng.random() < 0.8:
                ksm.register(twin.live)
                registered.append(twin)
        steps = 80
        for step in range(steps):
            self._step(rng, ksm, twins, registered)
            stats = ksm.stats()
            assert (stats.pages_shared, stats.pages_sharing, stats.pages_saved) == (
                self._expected(ksm, registered)
            ), (seed, step)
        ksm.run_to_completion()
        stats = ksm.stats()
        assert (stats.pages_shared, stats.pages_sharing, stats.pages_saved) == (
            self._expected(ksm, registered)
        )

    def test_unchanged_guests_are_not_refolded(self):
        guests = _fig3_guest_set(GuestMemory)
        ksm = Ksm(enabled=True)
        for guest in guests:
            ksm.register(guest)
        ksm.run_to_completion()
        assert not ksm._queued
        guests[1].dirty(PAGE_SIZE)
        assert list(ksm._queued) == [guests[1]]
        ksm.stats()
        assert not ksm._queued and not ksm._stale_images
