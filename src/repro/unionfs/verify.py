"""Merkle-verified base layer (the §3.4 tamper-detection proposal).

The Nymix host partition must stay byte-identical to the published
distribution: any modification — even mount-time metadata — would mark
every AnonVM created from it and become a tracking vector.  Nymix cannot
stop *other* operating systems from writing to the USB stick, so §3.4
proposes checking all blocks loaded from the host partition against a
well-known Merkle tree and shutting down on mismatch.  This module
implements that check at file granularity.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import IntegrityError
from repro.unionfs.layer import Layer


class TamperDetected(IntegrityError):
    """A verified read found content not matching the published Merkle root."""


def commit_layer(layer: Layer) -> MerkleTree:
    """Build the published Merkle tree over a layer's (path, content) pairs."""
    leaves = [path.encode() + b"\x00" + data for path, data in layer.items()]
    return MerkleTree(leaves)


class VerifiedLayer(Layer):
    """A read-only layer whose every read is checked against a Merkle root.

    ``on_tamper`` is the safe-shutdown hook: the hypervisor registers a
    callback that halts all nymboxes before the corrupted bytes can be
    used.  The callback fires before :class:`TamperDetected` propagates.
    """

    def __init__(
        self,
        inner: Layer,
        root: bytes,
        on_tamper: Optional[Callable[[str], None]] = None,
    ) -> None:
        super().__init__(name=f"verified({inner.name})", read_only=True)
        self._inner = inner
        self._root = root
        self._on_tamper = on_tamper
        # Proof index built once from the layer as distributed.
        self._proofs: Dict[str, MerkleProof] = {}
        tree = commit_layer(inner)
        for leaf_index, (path, _) in enumerate(inner.items()):
            self._proofs[path] = tree.proof(leaf_index)

    # -- delegated queries ---------------------------------------------------

    def _has(self, path: str) -> bool:
        return self._inner._has(path)

    def _size(self, path: str) -> int:
        return self._inner._size(path)

    def _whited_out(self, path: str) -> bool:
        return self._inner._whited_out(path)

    def paths(self):
        return self._inner.paths()

    def items(self):
        return self._inner.items()

    def whiteouts(self):
        return self._inner.whiteouts()

    @property
    def file_count(self) -> int:
        return self._inner.file_count

    @property
    def used_bytes(self) -> int:
        return self._inner.used_bytes

    # -- the verified read path ---------------------------------------------

    def _read(self, path: str) -> bytes:
        data = self._inner._read(path)
        proof = self._proofs.get(path)
        leaf = path.encode() + b"\x00" + data
        if proof is None or not MerkleTree.verify(self._root, leaf, proof):
            if self._on_tamper is not None:
                self._on_tamper(path)
            raise TamperDetected(
                f"{path}: base image block does not match the published Merkle root"
            )
        return data
