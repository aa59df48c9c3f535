"""Union file system: layers, copy-on-write, whiteouts, tmpfs limits."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileSystemError, ReadOnlyError
from repro.guest import browser
from repro.unionfs import DeferredContent, Layer, TmpfsLayer, UnionMount
from repro.unionfs.layer import normalize_path
from repro.vmm.baseimage import build_base_layer

from tests.seed_oracles import seed_normalize_path


def _outcome(normalize, path):
    """What ``normalize(path)`` returns, or the type and message it raises."""
    try:
        return normalize(path)
    except FileSystemError as exc:
        return type(exc), str(exc)


class TestNormalizePath:
    def test_absolute(self):
        assert normalize_path("/a/b") == "/a/b"

    def test_relative_becomes_absolute(self):
        assert normalize_path("a/b") == "/a/b"

    def test_collapses_dots_and_slashes(self):
        assert normalize_path("/a//./b/../c") == "/a/c"

    def test_root(self):
        assert normalize_path("/") == "/"

    def test_escape_rejected(self):
        with pytest.raises(FileSystemError):
            normalize_path("/../etc/passwd")

    def test_empty_rejected(self):
        with pytest.raises(FileSystemError):
            normalize_path("")

    def test_matches_the_seed_loop_on_every_short_string(self):
        """All 21,845 strings of length <= 7 over ``/``, ``.``, ``a`` and
        ``b``: canonical or not, escaping or empty, the live function
        returns or raises exactly what the seed loop does."""
        differ = [
            path
            for length in range(8)
            for path in map("".join, itertools.product("/.ab", repeat=length))
            if _outcome(normalize_path, path) != _outcome(seed_normalize_path, path)
        ]
        assert differ == []

    def test_the_browsers_paths_are_canonical(self):
        paths = [
            browser._HISTORY_FILE,
            browser._COOKIES_FILE,
            browser._LOGIN_FILE,
            *(f"{browser._CACHE_DIR}/f_{serial:06x}" for serial in (0, 1, 0xABCDEF)),
            *build_base_layer().paths(),
        ]
        for path in paths:
            assert normalize_path(path) == seed_normalize_path(path) == path


class TestLayer:
    def test_write_read(self):
        layer = Layer("rw")
        layer.write("/etc/hosts", b"hosts")
        assert layer.read("/etc/hosts") == b"hosts"

    def test_read_only_rejects_write(self):
        layer = Layer("ro", read_only=True)
        with pytest.raises(ReadOnlyError):
            layer.write("/x", b"data")

    def test_missing_file(self):
        with pytest.raises(FileSystemError):
            Layer("rw").read("/missing")

    def test_whiteout_clears_file(self):
        layer = Layer("rw")
        layer.write("/x", b"1")
        layer.add_whiteout("/x")
        assert not layer.has_file("/x")
        assert layer.is_whited_out("/x")

    def test_write_clears_whiteout(self):
        layer = Layer("rw")
        layer.add_whiteout("/x")
        layer.write("/x", b"back")
        assert not layer.is_whited_out("/x")

    def test_used_bytes(self):
        layer = Layer("rw")
        layer.write("/a", b"12345")
        layer.write("/b", b"123")
        assert layer.used_bytes == 8

    def test_clear(self):
        layer = Layer("rw")
        layer.write("/a", b"12345")
        assert layer.clear() == 5
        assert layer.file_count == 0


class _Deferred(DeferredContent):
    """Content handed over only through ``resolve``, which it counts."""

    __slots__ = ("_data", "resolves")

    def __init__(self, data):
        self._data = data
        self.resolves = 0

    def __len__(self):
        return len(self._data)

    def resolve(self):
        self.resolves += 1
        return self._data


class TestDeferredContent:
    def test_stored_unresolved_and_accounted_by_length(self):
        layer = Layer("rw")
        deltas = []
        layer.set_delta_listener(deltas.append)
        value = _Deferred(b"12345")
        layer.write("/a", value)
        assert layer.used_bytes == 5
        assert layer.size("/a") == 5
        assert deltas == [5]
        assert value.resolves == 0

    def test_first_read_resolves_once_and_keeps_the_bytes(self):
        layer = Layer("rw")
        value = _Deferred(b"12345")
        layer.write("/a", value)
        assert layer.read("/a") == b"12345"
        assert layer.read("/a") == b"12345"
        assert value.resolves == 1
        assert layer.used_bytes == 5

    def test_items_resolves(self):
        layer = Layer("rw")
        layer.write("/a", _Deferred(b"abc"))
        layer.write("/b", b"de")
        assert list(layer.items()) == [("/a", b"abc"), ("/b", b"de")]

    def test_removal_and_clear_never_resolve(self):
        layer = Layer("rw")
        value = _Deferred(b"12345")
        layer.write("/a", value)
        layer.remove("/a")
        layer.write("/b", value)
        assert layer.clear() == 5
        assert value.resolves == 0

    def test_tmpfs_capacity_counts_the_length(self):
        tmpfs = TmpfsLayer("t", capacity_bytes=10)
        tmpfs.write("/a", _Deferred(b"12345"))
        with pytest.raises(FileSystemError):
            tmpfs.write("/b", _Deferred(b"123456"))


class TestTmpfsLayer:
    def test_capacity_enforced(self):
        tmpfs = TmpfsLayer("t", capacity_bytes=10)
        tmpfs.write("/a", b"12345")
        with pytest.raises(FileSystemError):
            tmpfs.write("/b", b"123456")

    def test_overwrite_reuses_space(self):
        tmpfs = TmpfsLayer("t", capacity_bytes=10)
        tmpfs.write("/a", b"1234567890")
        tmpfs.write("/a", b"abcde")  # shrinking rewrite is fine
        assert tmpfs.read("/a") == b"abcde"

    def test_zero_capacity_rejected(self):
        with pytest.raises(FileSystemError):
            TmpfsLayer("t", capacity_bytes=0)


def _stack():
    base = Layer(
        "base",
        files={"/etc/hosts": b"base-hosts", "/usr/bin/tor": b"tor-bin", "/etc/motd": b"hi"},
        read_only=True,
    )
    config = Layer("config", files={"/etc/hosts": b"config-hosts"}, read_only=True)
    tmpfs = TmpfsLayer("tmpfs", capacity_bytes=1024 * 1024)
    return UnionMount([tmpfs, config, base]), tmpfs, config, base


class TestUnionMount:
    def test_top_layer_wins(self):
        mount, tmpfs, _, _ = _stack()
        assert mount.read("/etc/hosts") == b"config-hosts"
        tmpfs.write("/etc/hosts", b"tmpfs-hosts")
        assert mount.read("/etc/hosts") == b"tmpfs-hosts"

    def test_fallthrough_to_base(self):
        mount, _, _, _ = _stack()
        assert mount.read("/usr/bin/tor") == b"tor-bin"

    def test_writes_land_in_top(self):
        mount, tmpfs, _, base = _stack()
        mount.write("/home/user/file", b"data")
        assert tmpfs.has_file("/home/user/file")
        assert not base.has_file("/home/user/file")

    def test_cow_overwrite_of_base_file(self):
        mount, tmpfs, _, base = _stack()
        mount.write("/usr/bin/tor", b"patched")
        assert mount.read("/usr/bin/tor") == b"patched"
        assert base.read("/usr/bin/tor") == b"tor-bin"

    def test_size_is_that_of_the_visible_file(self):
        mount, tmpfs, _, _ = _stack()
        assert mount.size("/etc/hosts") == len(b"config-hosts")
        assert mount.size("/usr/bin/tor") == len(b"tor-bin")
        mount.write("/etc/hosts", _Deferred(b"1234"))
        assert mount.size("/etc/hosts") == 4
        assert tmpfs.size("/etc/hosts") == 4

    def test_size_of_missing_or_whited_out_file_rejected(self):
        mount, _, _, _ = _stack()
        mount.remove("/etc/motd")
        for path in ("/etc/motd", "/missing"):
            with pytest.raises(FileSystemError):
                mount.size(path)

    def test_source_layer(self):
        mount, _, _, _ = _stack()
        assert mount.source_layer("/etc/hosts") == "config"
        assert mount.source_layer("/usr/bin/tor") == "base"
        assert mount.source_layer("/nope") is None

    def test_remove_base_file_uses_whiteout(self):
        mount, tmpfs, _, base = _stack()
        mount.remove("/etc/motd")
        assert not mount.exists("/etc/motd")
        assert base.has_file("/etc/motd")  # base untouched
        assert tmpfs.is_whited_out("/etc/motd")

    def test_remove_top_only_file(self):
        mount, _, _, _ = _stack()
        mount.write("/tmp/x", b"1")
        mount.remove("/tmp/x")
        assert not mount.exists("/tmp/x")

    def test_remove_missing_rejected(self):
        mount, _, _, _ = _stack()
        with pytest.raises(FileSystemError):
            mount.remove("/missing")

    def test_rewrite_after_remove(self):
        mount, _, _, _ = _stack()
        mount.remove("/etc/motd")
        mount.write("/etc/motd", b"new")
        assert mount.read("/etc/motd") == b"new"

    def test_walk_shows_visible_files(self):
        mount, _, _, _ = _stack()
        mount.write("/new", b"x")
        files = mount.walk()
        assert "/new" in files
        assert "/etc/hosts" in files
        assert files.count("/etc/hosts") == 1

    def test_walk_hides_whiteouts(self):
        mount, _, _, _ = _stack()
        mount.remove("/etc/motd")
        assert "/etc/motd" not in mount.walk()

    def test_listdir(self):
        mount, _, _, _ = _stack()
        assert mount.listdir("/etc") == ["hosts", "motd"]
        assert mount.listdir("/") == ["etc", "usr"]

    def test_ram_bytes_tracks_top_layer(self):
        mount, _, _, _ = _stack()
        assert mount.ram_bytes == 0
        mount.write("/x", b"12345")
        assert mount.ram_bytes == 5

    def test_discard_changes(self):
        mount, _, _, _ = _stack()
        mount.write("/x", b"12345")
        mount.remove("/etc/motd")
        mount.discard_changes()
        assert not mount.exists("/x")
        assert mount.read("/etc/motd") == b"hi"  # whiteout gone too

    def test_lower_layers_must_be_read_only(self):
        with pytest.raises(FileSystemError):
            UnionMount([Layer("top"), Layer("lower")])

    def test_empty_stack_rejected(self):
        with pytest.raises(FileSystemError):
            UnionMount([])

    def test_read_only_mount_rejects_writes(self):
        mount = UnionMount([Layer("only", files={"/a": b"1"}, read_only=True)])
        with pytest.raises(ReadOnlyError):
            mount.write("/a", b"2")

    @given(
        st.dictionaries(
            st.from_regex(r"/[a-z]{1,8}(/[a-z]{1,8}){0,2}", fullmatch=True),
            st.binary(max_size=64),
            max_size=12,
        )
    )
    @settings(max_examples=30)
    def test_write_read_roundtrip_property(self, files):
        mount, _, _, _ = _stack()
        for path, data in files.items():
            mount.write(path, data)
        for path, data in files.items():
            assert mount.read(path) == data
