"""Kernel samepage merging behaviour (the Figure 3 mechanism)."""

from repro.memory import GuestMemory, Ksm

MIB = 1024 * 1024
PAGES_PER_MIB = 256


def _guest_with_image(name, ram_mib=64, image_mib=16):
    guest = GuestMemory(name, ram_mib * MIB)
    guest.map_image("nymix-base", image_mib * MIB)
    return guest


class TestKsmMerging:
    def test_no_sharing_with_one_guest(self):
        ksm = Ksm()
        ksm.register(_guest_with_image("vm1"))
        stats = ksm.run_to_completion()
        assert stats.pages_sharing == 0

    def test_identical_images_share(self):
        ksm = Ksm()
        for name in ("vm1", "vm2"):
            ksm.register(_guest_with_image(name))
        stats = ksm.run_to_completion()
        assert stats.pages_sharing == 2 * 16 * PAGES_PER_MIB
        assert stats.pages_shared == 16 * PAGES_PER_MIB
        assert stats.pages_saved == 16 * PAGES_PER_MIB

    def test_savings_scale_with_guests(self):
        ksm = Ksm()
        for index in range(8):
            ksm.register(_guest_with_image(f"vm{index}"))
        stats = ksm.run_to_completion()
        # 8 copies of the same 16 MiB: 7/8 of the duplicated pages reclaimed.
        assert stats.pages_saved == 7 * 16 * PAGES_PER_MIB

    def test_unique_pages_never_merge(self):
        ksm = Ksm()
        for name in ("vm1", "vm2"):
            guest = GuestMemory(name, 64 * MIB)
            guest.dirty(16 * MIB)
            ksm.register(guest)
        assert ksm.run_to_completion().pages_sharing == 0

    def test_zero_pages_skipped_by_default(self):
        ksm = Ksm()
        for name in ("vm1", "vm2"):
            ksm.register(GuestMemory(name, 64 * MIB))  # all-zero guests
        assert ksm.run_to_completion().pages_saved == 0

    def test_disabled_ksm_reports_nothing(self):
        ksm = Ksm(enabled=False)
        for name in ("vm1", "vm2"):
            ksm.register(_guest_with_image(name))
        assert ksm.run_to_completion().pages_saved == 0

    def test_unregister_removes_contribution(self):
        ksm = Ksm()
        a = _guest_with_image("vm1")
        b = _guest_with_image("vm2")
        ksm.register(a)
        ksm.register(b)
        ksm.run_to_completion()
        ksm.unregister(b)
        assert ksm.stats().pages_sharing == 0

    def test_double_register_is_idempotent(self):
        ksm = Ksm()
        guest = _guest_with_image("vm1")
        ksm.register(guest)
        ksm.register(guest)
        assert ksm.run_to_completion().pages_sharing == 0


class TestKsmRateLimiting:
    def test_sharing_ramps_with_scan_passes(self):
        ksm = Ksm(pages_per_scan=1000)
        for name in ("vm1", "vm2"):
            ksm.register(_guest_with_image(name, ram_mib=64, image_mib=32))
        early = ksm.scan(passes=1)
        later = ksm.scan(passes=10)
        assert early.pages_saved < later.pages_saved

    def test_coverage_caps_at_one(self):
        ksm = Ksm(pages_per_scan=10**9)
        ksm.register(_guest_with_image("vm1"))
        ksm.scan()
        assert ksm.coverage == 1.0

    def test_reset_coverage(self):
        ksm = Ksm()
        for name in ("vm1", "vm2"):
            ksm.register(_guest_with_image(name))
        ksm.run_to_completion()
        ksm.reset_coverage()
        assert ksm.stats().pages_saved == 0

    def test_coverage_with_no_guests(self):
        assert Ksm().coverage == 1.0

    def test_bytes_saved(self):
        ksm = Ksm()
        for name in ("vm1", "vm2"):
            ksm.register(_guest_with_image(name, image_mib=4))
        assert ksm.run_to_completion().bytes_saved == 4 * MIB
