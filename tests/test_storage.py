"""Block devices, base images and COW overlays."""

import pytest

from repro.errors import ReadOnlyError, StorageError
from repro.storage import BLOCK_SIZE, BaseImage, CowOverlay, RamDisk


def _block(byte):
    return bytes([byte]) * BLOCK_SIZE


class TestRamDisk:
    def test_unwritten_blocks_read_zero(self):
        disk = RamDisk(16)
        assert disk.read_block(0) == b"\x00" * BLOCK_SIZE

    def test_write_read_roundtrip(self):
        disk = RamDisk(16)
        disk.write_block(3, _block(0xAB))
        assert disk.read_block(3) == _block(0xAB)

    def test_zero_write_stays_sparse(self):
        disk = RamDisk(16)
        disk.write_block(3, _block(0xAB))
        disk.write_block(3, b"\x00" * BLOCK_SIZE)
        assert disk.allocated_blocks == 0

    def test_out_of_range_rejected(self):
        disk = RamDisk(16)
        with pytest.raises(StorageError):
            disk.read_block(16)

    def test_partial_block_rejected(self):
        disk = RamDisk(16)
        with pytest.raises(StorageError):
            disk.write_block(0, b"short")

    def test_read_only_rejected(self):
        disk = RamDisk(16, read_only=True)
        with pytest.raises(ReadOnlyError):
            disk.write_block(0, _block(1))

    def test_wipe(self):
        disk = RamDisk(16)
        disk.write_block(0, _block(1))
        disk.write_block(1, _block(2))
        assert disk.wipe() == 2
        assert disk.used_bytes == 0

    def test_used_bytes(self):
        disk = RamDisk(16)
        disk.write_block(0, _block(1))
        assert disk.used_bytes == BLOCK_SIZE

    def test_zero_block_count_rejected(self):
        with pytest.raises(StorageError):
            RamDisk(0)


class TestBaseImage:
    def test_deterministic_content(self):
        a = BaseImage("nymix", 32)
        b = BaseImage("nymix", 32)
        assert a.read_block(7) == b.read_block(7)

    def test_different_images_differ(self):
        assert BaseImage("a", 8).read_block(0) != BaseImage("b", 8).read_block(0)

    def test_different_blocks_differ(self):
        image = BaseImage("nymix", 8)
        assert image.read_block(0) != image.read_block(1)

    def test_block_size(self):
        assert len(BaseImage("nymix", 8).read_block(0)) == BLOCK_SIZE

    def test_immutable(self):
        with pytest.raises(ReadOnlyError):
            BaseImage("nymix", 8).write_block(0, _block(1))

    def test_empty_id_rejected(self):
        with pytest.raises(StorageError):
            BaseImage("", 8)

    def test_merkle_tree_covers_all_blocks(self):
        image = BaseImage("nymix", 8)
        tree = image.merkle_tree()
        assert tree.leaf_count == 8
        from repro.crypto import MerkleTree

        assert MerkleTree.verify(tree.root, image.read_block(5), tree.proof(5))


class TestCowOverlay:
    def test_reads_fall_through(self):
        base = BaseImage("nymix", 16)
        overlay = CowOverlay(base)
        assert overlay.read_block(2) == base.read_block(2)

    def test_writes_stay_local(self):
        base = BaseImage("nymix", 16)
        overlay = CowOverlay(base)
        overlay.write_block(2, _block(0xCD))
        assert overlay.read_block(2) == _block(0xCD)
        assert base.read_block(2) != _block(0xCD)

    def test_dirty_accounting(self):
        overlay = CowOverlay(BaseImage("nymix", 16))
        overlay.write_block(1, _block(1))
        overlay.write_block(2, _block(2))
        overlay.write_block(1, _block(3))  # rewrite: still one dirty block
        assert overlay.dirty_blocks == 2
        assert overlay.used_bytes == 2 * BLOCK_SIZE

    def test_discard_changes_reverts(self):
        base = BaseImage("nymix", 16)
        overlay = CowOverlay(base)
        overlay.write_block(2, _block(0xCD))
        dropped = overlay.discard_changes()
        assert dropped == 1
        assert overlay.read_block(2) == base.read_block(2)

    def test_geometry_mismatch_rejected(self):
        with pytest.raises(StorageError):
            CowOverlay(BaseImage("nymix", 16), RamDisk(8))

    def test_explicit_zero_write_shadows_base(self):
        """Writing zeros must hide the base content, not fall through."""
        base = BaseImage("nymix", 16)
        overlay = CowOverlay(base)
        overlay.write_block(2, b"\x00" * BLOCK_SIZE)
        assert overlay.read_block(2) == b"\x00" * BLOCK_SIZE
