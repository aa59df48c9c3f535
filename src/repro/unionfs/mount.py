"""The union mount: stacked layers with copy-on-write semantics."""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import FileSystemError, ReadOnlyError
from repro.unionfs.layer import Content, Layer, normalize_path


class UnionMount:
    """A stack of layers, topmost first; only the top layer may be writable.

    Reads return the file from the highest layer that has it, stopping at
    whiteouts.  Writes always land in the top layer (copy-on-write).
    Deletes remove from the top layer and, if a lower layer still has the
    file, record a whiteout so it stays hidden.  Each public method
    canonicalises its path once and passes it to the layers' canonical-path
    twins (``Layer._has``, ``Layer._read``, ...).
    """

    def __init__(self, layers: List[Layer]) -> None:
        if not layers:
            raise FileSystemError("a union mount needs at least one layer")
        for lower in layers[1:]:
            if not lower.read_only:
                raise FileSystemError(
                    f"lower layer {lower.name!r} must be read-only"
                )
        self.layers = list(layers)

    @property
    def top(self) -> Layer:
        return self.layers[0]

    @property
    def writable(self) -> bool:
        return not self.top.read_only

    # -- reads ------------------------------------------------------------------

    def _serving_layer(self, path: str) -> Optional[Layer]:
        """The layer a read of the normalized ``path`` is served from."""
        for layer in self.layers:
            if layer._has(path):
                return layer
            if layer._whited_out(path):
                return None
        return None

    def _require_layer(self, path: str) -> Layer:
        layer = self._serving_layer(path)
        if layer is None:
            raise FileSystemError(f"{path}: no such file in union mount")
        return layer

    def exists(self, path: str) -> bool:
        return self._serving_layer(normalize_path(path)) is not None

    def read(self, path: str) -> bytes:
        path = normalize_path(path)
        return self._require_layer(path)._read(path)

    def size(self, path: str) -> int:
        """Length of the file a read would return, without reading it."""
        path = normalize_path(path)
        return self._require_layer(path)._size(path)

    def source_layer(self, path: str) -> Optional[str]:
        """Name of the layer a read of ``path`` would be served from."""
        layer = self._serving_layer(normalize_path(path))
        return None if layer is None else layer.name

    def listdir(self, directory: str) -> List[str]:
        """Immediate children (files and sub-directories) of ``directory``."""
        directory = normalize_path(directory)
        prefix = directory.rstrip("/") + "/" if directory != "/" else "/"
        children: Set[str] = set()
        hidden: Set[str] = set()
        for layer in self.layers:
            for path in layer.whiteouts():
                hidden.add(path)
            for path in layer.paths():
                if path in hidden or not path.startswith(prefix):
                    continue
                remainder = path[len(prefix) :]
                children.add(remainder.split("/", 1)[0])
        return sorted(children)

    def walk(self) -> List[str]:
        """Every visible file path in the mount."""
        visible: List[str] = []
        hidden: Set[str] = set()
        seen: Set[str] = set()
        for layer in self.layers:
            for path in layer.whiteouts():
                hidden.add(path)
            for path in layer.paths():
                if path not in hidden and path not in seen:
                    visible.append(path)
                    seen.add(path)
            # files in this layer also shadow lower ones
            hidden.update(layer.paths())
        return sorted(visible)

    # -- writes ------------------------------------------------------------------

    def write(self, path: str, data: Content) -> None:
        top = self.layers[0]
        if top.read_only:
            raise ReadOnlyError("union mount has no writable top layer")
        top._write(normalize_path(path), data)

    def remove(self, path: str) -> None:
        if not self.writable:
            raise ReadOnlyError("union mount has no writable top layer")
        path = normalize_path(path)
        if self._serving_layer(path) is None:
            # Covers both never-existed and already-whited-out paths.
            raise FileSystemError(f"{path}: no such file in union mount")
        top = self.top
        if top._has(path):
            top._remove(path)
        if any(layer._has(path) for layer in self.layers[1:]):
            top._add_whiteout(path)

    # -- accounting ----------------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """Bytes of RAM consumed by the writable top layer."""
        return self.top.used_bytes if self.writable else 0

    def discard_changes(self) -> int:
        """Drop every write (ephemeral-nym teardown).  Returns bytes freed."""
        if not self.writable:
            return 0
        return self.top.clear()

    def __repr__(self) -> str:
        names = " -> ".join(layer.name for layer in self.layers)
        return f"UnionMount({names})"
