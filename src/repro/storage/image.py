"""Base images and copy-on-write overlays."""

from __future__ import annotations

import hashlib
from typing import Optional, Set

from repro.crypto.merkle import MerkleTree
from repro.errors import ReadOnlyError, StorageError
from repro.storage.block import BLOCK_SIZE, BlockDevice, RamDisk


class BaseImage(BlockDevice):
    """A read-only OS image with deterministic, content-addressed blocks.

    Real base images are gigabytes of installed OS; here each block's
    content derives from ``(image_id, index)`` so two devices created from
    the same image id are bit-identical (the property Nymix relies on when
    it boots hypervisor, AnonVMs and CommVMs all from one USB partition).
    """

    def __init__(self, image_id: str, block_count: int) -> None:
        super().__init__(block_count, read_only=True)
        if not image_id:
            raise StorageError("image id must be non-empty")
        self.image_id = image_id

    def read_block(self, index: int) -> bytes:
        self._check_index(index)
        seed = hashlib.sha256(f"{self.image_id}:{index}".encode()).digest()
        # Expand the 32-byte digest to a full block deterministically.
        reps = BLOCK_SIZE // len(seed)
        return seed * reps

    def write_block(self, index: int, data: bytes) -> None:
        raise ReadOnlyError(f"base image {self.image_id!r} is immutable")

    def merkle_tree(self) -> MerkleTree:
        """Commit to the whole image (the §3.4 verified-boot proposal)."""
        return MerkleTree([self.read_block(i) for i in range(self.block_count)])

    def __repr__(self) -> str:
        return f"BaseImage(id={self.image_id!r}, blocks={self.block_count})"


class CowOverlay(BlockDevice):
    """Copy-on-write device: reads fall through to a base, writes stay local.

    This is both the qcow2-style VM disk and the installed-OS COW disk of
    §3.7 — no write ever reaches the underlying base device.
    """

    def __init__(self, base: BlockDevice, writable: Optional[RamDisk] = None) -> None:
        super().__init__(base.block_count, read_only=False)
        self.base = base
        self.writable = writable if writable is not None else RamDisk(base.block_count)
        if self.writable.block_count != base.block_count:
            raise StorageError("overlay and base geometries differ")
        self._dirty: Set[int] = set(
            index for index, _ in self.writable.iter_allocated()
        )

    def read_block(self, index: int) -> bytes:
        self._check_index(index)
        if index in self._dirty:
            return self.writable.read_block(index)
        return self.base.read_block(index)

    def write_block(self, index: int, data: bytes) -> None:
        self._check_write(index, data)
        self.writable.write_block(index, data)
        self._dirty.add(index)

    @property
    def dirty_blocks(self) -> int:
        return len(self._dirty)

    @property
    def used_bytes(self) -> int:
        """RAM consumed by the writable layer (what Figure 6 measures)."""
        return self.dirty_blocks * BLOCK_SIZE

    def discard_changes(self) -> int:
        """Throw away every write, reverting to the pristine base."""
        dropped = len(self._dirty)
        self.writable.wipe()
        self._dirty.clear()
        return dropped

    def __repr__(self) -> str:
        return f"CowOverlay(base={self.base!r}, dirty={self.dirty_blocks})"
