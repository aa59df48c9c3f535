"""Union file system: OverlayFS-style stacked layers with copy-on-write.

Nymix differentiates one shared base OS image into hypervisor, AnonVM,
CommVM and SaniVM roles by stacking three layers (§3.4):

1. the read-only **base** layer (the USB stick's OS partition),
2. a read-only **configuration** layer masking role-specific files
   (network config, ``/etc/rc.local``, window-manager startup),
3. a RAM-backed writable **tmpfs** layer receiving all writes.

:class:`UnionMount` implements the stack; :class:`VerifiedLayer` adds the
§3.4 Merkle-tree check that shuts the system down if a base block was
tampered with while the USB stick was out of the user's control.
"""

from repro.unionfs.layer import DeferredContent, Layer, TmpfsLayer
from repro.unionfs.mount import UnionMount
from repro.unionfs.verify import TamperDetected, VerifiedLayer

__all__ = [
    "DeferredContent",
    "Layer",
    "TmpfsLayer",
    "UnionMount",
    "VerifiedLayer",
    "TamperDetected",
]
