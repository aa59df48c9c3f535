"""The Merkle-verified base layer (§3.4 tamper detection)."""

import pytest

from repro.unionfs import Layer, TamperDetected, UnionMount, VerifiedLayer
from repro.unionfs.layer import TmpfsLayer
from repro.unionfs.verify import commit_layer


def _base():
    return Layer(
        "base",
        files={"/etc/hosts": b"hosts", "/usr/bin/tor": b"tor-binary"},
        read_only=True,
    )


class TestVerifiedLayer:
    def test_untampered_reads_succeed(self):
        base = _base()
        verified = VerifiedLayer(base, commit_layer(base).root)
        assert verified.read("/etc/hosts") == b"hosts"
        assert verified.read("/usr/bin/tor") == b"tor-binary"

    def test_tampered_content_detected(self):
        base = _base()
        root = commit_layer(base).root
        # The USB stick was modified by another OS after the root shipped.
        tampered = Layer(
            "base",
            files={"/etc/hosts": b"EVIL", "/usr/bin/tor": b"tor-binary"},
            read_only=True,
        )
        verified = VerifiedLayer(tampered, root)
        with pytest.raises(TamperDetected):
            verified.read("/etc/hosts")

    def test_untampered_files_still_fail_against_wrong_root(self):
        base = _base()
        other = Layer("other", files={"/etc/hosts": b"different"}, read_only=True)
        verified = VerifiedLayer(base, commit_layer(other).root)
        with pytest.raises(TamperDetected):
            verified.read("/etc/hosts")

    def test_tamper_callback_fires_before_raise(self):
        base = _base()
        root = commit_layer(base).root
        tampered = Layer("base", files={"/etc/hosts": b"EVIL"}, read_only=True)
        halted = []
        verified = VerifiedLayer(tampered, root, on_tamper=halted.append)
        with pytest.raises(TamperDetected):
            verified.read("/etc/hosts")
        assert halted == ["/etc/hosts"]

    def test_verified_layer_in_union_mount(self):
        base = _base()
        verified = VerifiedLayer(base, commit_layer(base).root)
        mount = UnionMount([TmpfsLayer("t", 1024), verified])
        assert mount.read("/etc/hosts") == b"hosts"
        # Writes land in tmpfs and bypass verification (they're ours).
        mount.write("/etc/hosts", b"local")
        assert mount.read("/etc/hosts") == b"local"

    def test_is_read_only(self):
        base = _base()
        verified = VerifiedLayer(base, commit_layer(base).root)
        assert verified.read_only

    def test_delegates_metadata(self):
        base = _base()
        verified = VerifiedLayer(base, commit_layer(base).root)
        assert verified.file_count == base.file_count
        assert list(verified.paths()) == list(base.paths())
        assert verified.used_bytes == base.used_bytes
        assert verified.size("/usr/bin/tor") == base.size("/usr/bin/tor")

    def test_commit_root_stable(self):
        assert commit_layer(_base()).root == commit_layer(_base()).root
