"""Block-level storage: devices, base images, copy-on-write overlays.

Every VM disk in Nymix is a copy-on-write overlay above a read-only base
image — the USB stick's OS partition for nymboxes (§3.4), or the machine's
physical disk for installed-OS nyms (§3.7).  Writable layers are sparse and
RAM-backed, which is exactly how the paper accounts for them ("the host
allocates disk and RAM from its own stash of RAM").
"""

from repro.storage.block import BLOCK_SIZE, BlockDevice, RamDisk
from repro.storage.image import BaseImage, CowOverlay

__all__ = [
    "BLOCK_SIZE",
    "BlockDevice",
    "RamDisk",
    "BaseImage",
    "CowOverlay",
]
