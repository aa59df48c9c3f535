"""The perfbench seed modes patch frozen code in and always take it out.

Each ``seed_*_mode`` swaps pre-optimisation code over live attributes for
the body of a ``with`` block.  One leaked patch would silently run every
later test on seed code, so every patched attribute must be the original
object again after the block, whether the body returns or raises.
"""

import sys

import pytest

from repro.anonymizers.tor.circuit import NtorClientCache
from repro.anonymizers.tor.relay import Relay
from repro.fleet.fleet import Fleet
from repro.memory.ksm import Ksm
from repro.memory.physmem import HostMemory
from repro.mixnet import packet as packet_mod
from repro.mixnet.packet import MixKeyCache, MixStreamCache
from repro.perfbench import legacy
from repro.sim.rng import SeededRng
from repro.unionfs.layer import Layer
from repro.vmm.hypervisor import Hypervisor

X25519 = sys.modules["repro.crypto.x25519"]

CRYPTO = {
    (X25519, "x25519_base"),
    (Relay, "handle_create"),
    (NtorClientCache, "lookup"),
    (NtorClientCache, "store"),
}
MIXNET = {
    (MixKeyCache, "lookup"),
    (MixKeyCache, "store"),
    (MixStreamCache, "prefill"),
    (packet_mod, "derive_node_key"),
    (packet_mod, "_seal"),
    (packet_mod, "_open"),
}
CONTENT = {(SeededRng, "content_bytes")}
ACCOUNTING = {
    (Layer, "used_bytes"),
    (HostMemory, "stats"),
    (HostMemory, "_used_bytes_now"),
    (Ksm, "total_guest_pages"),
    (Ksm, "stats"),
    (Hypervisor, "memory_snapshot"),
    (Hypervisor, "accounting_token"),
}

#: mode -> every (owner, attribute) it patches
MODES = {
    "seed_crypto_mode": CRYPTO,
    "seed_mixnet_mode": MIXNET,
    "seed_content_mode": CONTENT,
    "seed_accounting_mode": ACCOUNTING,
    "seed_admission_mode": ACCOUNTING | {(Fleet, "host_list"), (Fleet, "_candidates")},
    "seed_launch_mode": CRYPTO | ACCOUNTING | CONTENT,
}

OWNERS = {owner for targets in MODES.values() for owner, _ in targets}

_MISSING = object()


def _snapshot():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def _changed(before):
    """Every (owner, attribute) added, removed or rebound since ``before``."""
    changed = set()
    for owner, attrs in before.items():
        now = vars(owner)
        for name in set(attrs) | set(now):
            if now.get(name, _MISSING) is not attrs.get(name, _MISSING):
                changed.add((owner, name))
    return changed


@pytest.mark.parametrize("mode", sorted(MODES))
def test_seed_mode_restores_every_patched_attribute(mode):
    before = _snapshot()
    with getattr(legacy, mode)():
        assert _changed(before) == MODES[mode]
    assert _changed(before) == set()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_seed_mode_restores_every_patched_attribute_after_an_exception(mode):
    before = _snapshot()
    with pytest.raises(RuntimeError, match="body failed"):
        with getattr(legacy, mode)():
            assert _changed(before) == MODES[mode]
            raise RuntimeError("body failed")
    assert _changed(before) == set()


def test_a_missing_patch_target_fails_before_anything_is_patched():
    before = _snapshot()
    with pytest.raises(KeyError, match="no_such_method"):
        with legacy._patched(
            (SeededRng, "content_bytes", None),
            (SeededRng, "no_such_method", None),
        ):
            pass  # pragma: no cover - never entered
    assert _changed(before) == set()
