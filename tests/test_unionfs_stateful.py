"""Stateful property test: a union mount must behave like a plain dict.

Hypothesis drives random sequences of writes (some of deferred content),
reads, deletes and listings against both a three-layer union mount and a
reference dict model seeded with the lower layers' initial contents; any
divergence is a COW, whiteout or tmpfs accounting bug.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.errors import FileSystemError
from repro.unionfs import DeferredContent, Layer, TmpfsLayer, UnionMount

_PATHS = st.sampled_from(
    [
        "/etc/hosts",
        "/etc/motd",
        "/usr/bin/tor",
        "/home/user/a",
        "/home/user/b",
        "/home/user/cache/one",
        "/tmp/x",
    ]
)
_DATA = st.binary(min_size=0, max_size=32)
_CAPACITY = 1 << 20


class _Deferred(DeferredContent):
    """Content a layer can only get at through ``resolve``."""

    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = data

    def __len__(self):
        return len(self._data)

    def resolve(self):
        return self._data


class UnionMountMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        base = Layer(
            "base",
            files={"/etc/hosts": b"base-hosts", "/etc/motd": b"hello", "/usr/bin/tor": b"elf"},
            read_only=True,
        )
        config = Layer("config", files={"/etc/hosts": b"config-hosts"}, read_only=True)
        self.mount = UnionMount([TmpfsLayer("tmpfs", _CAPACITY), config, base])
        # The reference model: what a plain directory tree would hold.
        self.model = {
            "/etc/hosts": b"config-hosts",
            "/etc/motd": b"hello",
            "/usr/bin/tor": b"elf",
        }
        # ... and the size of each file the tmpfs holds.
        self.tmpfs_sizes = {}

    def _write(self, path, value, data):
        used = sum(self.tmpfs_sizes.values())
        if used - self.tmpfs_sizes.get(path, 0) + len(data) > _CAPACITY:
            with pytest.raises(FileSystemError):
                self.mount.write(path, value)
            return
        self.mount.write(path, value)
        self.model[path] = data
        self.tmpfs_sizes[path] = len(data)

    @rule(path=_PATHS, data=_DATA)
    def write(self, path, data):
        self._write(path, data, data)

    @rule(
        path=_PATHS,
        size=st.integers(min_value=0, max_value=_CAPACITY // 2),
        byte=st.integers(min_value=0, max_value=255),
    )
    def write_deferred(self, path, size, byte):
        data = bytes([byte]) * size
        self._write(path, _Deferred(data), data)

    @rule(path=_PATHS)
    def remove(self, path):
        if path in self.model:
            self.mount.remove(path)
            del self.model[path]
            self.tmpfs_sizes.pop(path, None)
        else:
            with pytest.raises(FileSystemError):
                self.mount.remove(path)

    @rule(path=_PATHS)
    def read(self, path):
        if path in self.model:
            assert self.mount.read(path) == self.model[path]
        else:
            assert not self.mount.exists(path)
            with pytest.raises(FileSystemError):
                self.mount.read(path)

    @invariant()
    def walk_matches_model(self):
        assert self.mount.walk() == sorted(self.model)

    @invariant()
    def tmpfs_used_bytes_match_model(self):
        assert self.mount.top.used_bytes == sum(self.tmpfs_sizes.values())

    @invariant()
    def base_layers_untouched(self):
        base = self.mount.layers[-1]
        assert base.read("/etc/motd") == b"hello"
        assert base.read("/usr/bin/tor") == b"elf"


TestUnionMountStateful = UnionMountMachine.TestCase
TestUnionMountStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
