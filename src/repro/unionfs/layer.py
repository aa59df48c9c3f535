"""File-system layers: the building blocks of a union mount."""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple, Union

from repro.errors import FileSystemError, ReadOnlyError


def normalize_path(path: str) -> str:
    """Canonicalize to an absolute, ``/``-separated path with no dots."""
    if (
        path[:1] == "/"
        and "//" not in path
        and "/./" not in path
        and "/../" not in path
        and not path.endswith(("/", "/.", "/.."))
    ):
        # Every component is a plain name, so the loop would rebuild
        # ``path`` itself.
        return path
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


class DeferredContent:
    """File content whose length is known now and whose bytes come later.

    A layer stores one as it is: its ``len()`` is the file's size for
    every account (``used_bytes``, tmpfs capacity, the hypervisor's FS
    total).  The first ``read`` or ``items`` calls :meth:`resolve` and
    keeps the returned bytes, exactly ``len()`` of them, in its place.
    """

    __slots__ = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def resolve(self) -> bytes:
        raise NotImplementedError


Content = Union[bytes, DeferredContent]


class Layer:
    """One layer of a union mount: a flat map of paths to file contents.

    Directories are implicit (any path prefix of a stored file).  A layer
    can also carry *whiteouts* — markers that hide a lower layer's file,
    which is how deletes work without touching read-only layers.  A
    file's content may be :class:`DeferredContent` until it is read.

    The public methods take any path and canonicalise it.  Each has an
    underscore twin (``_has``, ``_read``, ``_write``, ...) that takes a
    path already in the form :func:`normalize_path` returns, so a
    :class:`~repro.unionfs.mount.UnionMount` normalises a path once and
    hands it through every layer.  Subclasses override the twins.
    """

    #: Writes past this many used bytes fail; only a tmpfs sets one.
    capacity_bytes: Optional[int] = None

    def __init__(
        self,
        name: str,
        files: Optional[Dict[str, bytes]] = None,
        read_only: bool = False,
    ) -> None:
        self.name = name
        self.read_only = read_only
        self._files: Dict[str, Content] = {}
        self._whiteouts: Set[str] = set()
        self._used_bytes = 0
        # Optional single observer of used-byte deltas.  The hypervisor
        # attaches one to each VM's writable top layer so host-wide FS
        # accounting stays O(1) per snapshot instead of O(VMs).
        self._delta_listener = None
        for path, data in (files or {}).items():
            self._write(normalize_path(path), data)

    # -- queries ---------------------------------------------------------------

    def has_file(self, path: str) -> bool:
        return self._has(normalize_path(path))

    def is_whited_out(self, path: str) -> bool:
        return self._whited_out(normalize_path(path))

    def read(self, path: str) -> bytes:
        return self._read(normalize_path(path))

    def size(self, path: str) -> int:
        """Length of a file, without resolving deferred content."""
        return self._size(normalize_path(path))

    def _has(self, path: str) -> bool:
        return path in self._files

    def _whited_out(self, path: str) -> bool:
        return path in self._whiteouts

    def _read(self, path: str) -> bytes:
        if path not in self._files:
            raise FileSystemError(f"{path}: not present in layer {self.name!r}")
        return self._resolved(path)

    def _size(self, path: str) -> int:
        if path not in self._files:
            raise FileSystemError(f"{path}: not present in layer {self.name!r}")
        return len(self._files[path])

    def _resolved(self, path: str) -> bytes:
        data = self._files[path]
        if isinstance(data, DeferredContent):
            data = self._files[path] = data.resolve()
        return data

    def paths(self) -> Iterator[str]:
        return iter(sorted(self._files))

    def items(self) -> Iterator[Tuple[str, bytes]]:
        return iter([(path, self._resolved(path)) for path in sorted(self._files)])

    def whiteouts(self) -> Iterator[str]:
        return iter(sorted(self._whiteouts))

    @property
    def file_count(self) -> int:
        return len(self._files)

    @property
    def used_bytes(self) -> int:
        # Maintained incrementally by the mutators below: placement and
        # admission decisions poll this per candidate host, so it must not
        # cost O(files).
        return self._used_bytes

    # -- mutation ------------------------------------------------------------

    def set_delta_listener(self, listener) -> None:
        """Register (or clear, with ``None``) the used-bytes delta observer."""
        self._delta_listener = listener

    def _notify(self, delta: int) -> None:
        if delta and self._delta_listener is not None:
            self._delta_listener(delta)

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(f"layer {self.name!r} is read-only")

    def write(self, path: str, data: Content) -> None:
        self._check_writable()
        self._write(normalize_path(path), data)

    def remove(self, path: str) -> None:
        self._check_writable()
        self._remove(normalize_path(path))

    def add_whiteout(self, path: str) -> None:
        self._check_writable()
        self._add_whiteout(normalize_path(path))

    # The mutating twins leave the writability check to their caller.

    def _write(self, path: str, data: Content) -> None:
        previous = self._files.get(path)
        delta = len(data) - (0 if previous is None else len(previous))
        if self.capacity_bytes is not None:
            projected = self._used_bytes + delta
            if projected > self.capacity_bytes:
                raise FileSystemError(
                    f"tmpfs {self.name!r} full: {projected} > {self.capacity_bytes} bytes"
                )
        self._files[path] = data if isinstance(data, DeferredContent) else bytes(data)
        self._used_bytes += delta
        self._whiteouts.discard(path)
        self._notify(delta)

    def _remove(self, path: str) -> None:
        if path not in self._files:
            raise FileSystemError(f"{path}: not present in layer {self.name!r}")
        freed = len(self._files[path])
        self._used_bytes -= freed
        del self._files[path]
        self._notify(-freed)

    def _add_whiteout(self, path: str) -> None:
        previous = self._files.pop(path, None)
        if previous is not None:
            self._used_bytes -= len(previous)
            self._notify(-len(previous))
        self._whiteouts.add(path)

    def clear(self) -> int:
        """Drop all files and whiteouts (tmpfs teardown).  Returns bytes freed."""
        self._check_writable()
        freed = self._used_bytes
        self._files.clear()
        self._whiteouts.clear()
        self._used_bytes = 0
        self._notify(-freed)
        return freed

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return f"Layer({self.name!r}, {mode}, files={self.file_count})"


class TmpfsLayer(Layer):
    """A RAM-backed writable layer with a capacity limit.

    Nymix gives each VM a fixed writable-image budget (e.g. 128 MB for an
    AnonVM in §5.2); writes past the budget fail like a full tmpfs would.
    """

    def __init__(self, name: str, capacity_bytes: int) -> None:
        super().__init__(name, read_only=False)
        if capacity_bytes <= 0:
            raise FileSystemError(f"tmpfs capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
