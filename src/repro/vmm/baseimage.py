"""The Nymix distribution image and the per-role configuration layers.

One OS partition on the USB stick serves as host OS, AnonVM root, CommVM
root, and SaniVM root (§3.4).  Roles are differentiated by a thin
read-only *configuration layer* masking a handful of files — network
configuration, ``/etc/rc.local``, and the window-manager autostart — atop
the shared base; all writes land in a RAM-backed tmpfs layer above both.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.unionfs.layer import Layer, TmpfsLayer
from repro.unionfs.mount import UnionMount
from repro.unionfs.verify import commit_layer
from repro.vmm.vm import VmRole

NYMIX_IMAGE_ID = "nymix-ubuntu-14.04-amd64"


def build_base_layer(image_id: str = NYMIX_IMAGE_ID) -> Layer:
    """The distribution's file tree, identical on every Nymix USB stick."""
    files: Dict[str, bytes] = {}

    def add(path: str, text: str) -> None:
        files[path] = text.encode()

    add("/etc/os-release", f'NAME="Nymix"\nID=nymix\nBASE="{image_id}"\n')
    add("/etc/hostname", "nymix\n")
    add("/etc/hosts", "127.0.0.1 localhost\n127.0.1.1 nymix\n")
    add("/etc/resolv.conf", "nameserver 127.0.0.1\n")
    add("/etc/network/interfaces", "auto lo\niface lo inet loopback\n")
    add("/etc/rc.local", "#!/bin/sh\nexit 0\n")
    add("/etc/xdg/autostart/nymix.desktop", "[Desktop Entry]\nExec=true\n")
    add("/etc/fstab", "overlay / overlay defaults 0 0\n")
    # Binaries shared by every role: the same bits back hypervisor, AnonVMs
    # and CommVMs, which is what makes KSM effective across nymboxes.
    for name in (
        "bash", "busybox", "chromium", "tor", "dissent", "qemu-system-x86_64",
        "openvpn", "mat", "python3", "Xorg", "openbox",
    ):
        add(f"/usr/bin/{name}", f"#!ELF simulated binary: {name}\n" + "x" * 2048)
    for name in ("libc.so.6", "libssl.so", "libevent.so", "libqt5.so"):
        add(f"/usr/lib/{name}", f"#!ELF simulated library: {name}\n" + "y" * 4096)
    add("/usr/share/nymix/VERSION", "Nymix 1.0 (reproduction)\n")
    return Layer(name=f"base({image_id})", files=files, read_only=True)


def build_config_layer(role: VmRole, anonymizer: str = "") -> Layer:
    """The role-specific mask layer inserted between base and tmpfs."""
    files: Dict[str, bytes] = {}

    def add(path: str, text: str) -> None:
        files[path] = text.encode()

    if role is VmRole.ANONVM:
        add(
            "/etc/network/interfaces",
            "auto eth0\niface eth0 inet static\n"
            "  address 10.0.2.15\n  gateway 10.0.2.2\n",
        )
        add("/etc/resolv.conf", "nameserver 10.0.2.3\n")
        add("/etc/rc.local", "#!/bin/sh\nxrandr --size 1024x768\nexit 0\n")
        add(
            "/etc/xdg/autostart/nymix.desktop",
            "[Desktop Entry]\nExec=chromium --proxy-server=socks5://10.0.2.2:9050\n",
        )
    elif role is VmRole.COMMVM:
        add(
            "/etc/network/interfaces",
            "auto eth0 eth1\niface eth0 inet static\n  address 10.0.2.2\n"
            "iface eth1 inet dhcp\n",
        )
        add(
            "/etc/rc.local",
            f"#!/bin/sh\nnymix-anonymizer --start {anonymizer or 'tor'}\nexit 0\n",
        )
        add("/etc/sysctl.d/forwarding.conf", "net.ipv4.ip_forward=1\n")
    elif role is VmRole.SANIVM:
        # No network configuration at all: the SaniVM is air-gapped.
        add("/etc/network/interfaces", "auto lo\niface lo inet loopback\n")
        add("/etc/rc.local", "#!/bin/sh\nnymix-scrubd --watch /srv/transfer\nexit 0\n")
    layer_name = f"config({role.value}{':' + anonymizer if anonymizer else ''})"
    return Layer(name=layer_name, files=files, read_only=True)


def build_vm_mount(
    role: VmRole,
    tmpfs_bytes: int,
    base: Layer,
    anonymizer: str = "",
    config: Optional[Layer] = None,
) -> UnionMount:
    """Assemble the three-layer stack for one VM.

    ``base`` is the bottom layer: the distribution image, or the
    hypervisor's ``VerifiedLayer`` over it (the verified read path of
    §3.4).  Callers that launch many VMs may pass a pre-built ``config``
    layer; both lower layers are read-only, so sharing them across
    mounts is safe (the hypervisor does this).  Only the tmpfs top is
    always fresh.
    """
    if config is None:
        config = build_config_layer(role, anonymizer)
    tmpfs = TmpfsLayer(name=f"tmpfs({role.value})", capacity_bytes=tmpfs_bytes)
    return UnionMount([tmpfs, config, base])


def published_merkle_root(base: Layer) -> bytes:
    """The well-known root hash shipped with the Nymix distribution."""
    return commit_layer(base).root
