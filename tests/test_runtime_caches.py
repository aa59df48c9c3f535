"""Process-global cache bounds, deterministic eviction, and session reset.

The caches under test memoize values that are pure functions of seeded
key material, so none of them may influence a single journal byte — not
when warm, not when cold, and not while evicting under a tiny bound.
"""

import pytest

import repro.fleet.fleet  # noqa: F401  (registers the base-image cache)
from repro.anonymizers.tor.circuit import NTOR_CLIENT_CACHE
from repro.api import NymixSession
from repro.core.config import NymixConfig
from repro.crypto.poly1305 import _POWER_CACHE
from repro.mixnet.packet import (
    MIX_STREAM_CACHE,
    SENDER_KEY_CACHE,
    build_packet,
    open_body,
    peel_layer,
)
from repro.mixnet.topology import MixTopology
from repro.runtime import (
    ProcessCache,
    process_cache_sizes,
    registered_cache_names,
    reset_process_caches,
)
from repro.sim.rng import SeededRng

from tests.seed_oracles import MIXNET_CACHE_OFF, apply


@pytest.fixture(autouse=True)
def pristine_caches():
    reset_process_caches()
    saved = (
        SENDER_KEY_CACHE.max_entries,
        MIX_STREAM_CACHE.max_entries,
        NTOR_CLIENT_CACHE.max_entries,
    )
    yield
    SENDER_KEY_CACHE.max_entries = saved[0]
    MIX_STREAM_CACHE.max_entries = saved[1]
    NTOR_CLIENT_CACHE.max_entries = saved[2]
    reset_process_caches()


def _mix_run(seed=17, packets=6):
    """Build and fully peel a few packets.

    Returns the sender RNG's end-of-run fingerprint: cache state (warm,
    cold, bounded, disabled) must never shift the seeded stream — that
    is exactly the property that keeps same-seed journals byte-identical.
    """
    topology = MixTopology(SeededRng(seed), layers=3, nodes_per_layer=3)
    rng = SeededRng(seed + 1)
    for index in range(packets):
        path = topology.sample_path(SeededRng(seed + 2 + index))
        packet = build_packet(rng, path, b"payload-%d" % index * 20)
        for hop in path:
            _, packet, _ = peel_layer(hop.private_key, packet, memo={})
        assert open_body(packet) == b"payload-%d" % index * 20
    return rng.token_bytes(32)


def _store_a_browsed_nym(nx):
    """Browse with a fresh nym, then seal it to the cloud."""
    nx.create_cloud_account("dropbox.com", "anon991", "cloud-pw")
    nymbox = nx.create_nym(name="alice")
    nx.timed_browse(nymbox, "bbc.co.uk")
    nx.store_nym(
        nymbox, password="pw", provider_host="dropbox.com",
        account_username="anon991",
    )


@pytest.fixture
def scratch_cache():
    cache = ProcessCache("test.scratch", max_entries=4)
    yield cache
    from repro import runtime

    runtime._PROCESS_CACHES.pop("test.scratch", None)


class TestProcessCache:
    def test_fifo_and_deterministic(self, scratch_cache):
        for key in "abcdef":
            assert scratch_cache.put(key, key.upper()) == key.upper()
        assert list(scratch_cache) == ["c", "d", "e", "f"]
        assert scratch_cache.evictions == 2
        scratch_cache.put("d", "again")  # an update keeps its place
        assert list(scratch_cache) == ["c", "d", "e", "f"]
        assert scratch_cache.evictions == 2

    def test_registry_lists_the_builtin_caches(self):
        assert registered_cache_names() == [
            "crypto.poly1305_powers",
            "fleet.base_image",
            "mixnet.sender_keys",
            "mixnet.streams",
            "obs.line_templates",
            "sim.numpy_scratch",
            "tor.ntor_keyshares",
        ]


class TestBoundedMixCaches:
    def test_sender_key_cache_respects_bound(self):
        SENDER_KEY_CACHE.max_entries = 4
        _mix_run()
        assert len(SENDER_KEY_CACHE) <= 4
        assert SENDER_KEY_CACHE.evictions > 0

    def test_stream_cache_respects_bound(self):
        MIX_STREAM_CACHE.max_entries = 2
        _mix_run()
        assert len(MIX_STREAM_CACHE) <= 2
        assert MIX_STREAM_CACHE.evictions > 0

    def test_bounded_warm_cold_bytes_identical(self, monkeypatch):
        """Eviction churn must not change packet bytes (and therefore
        journal bytes, which record packet-derived fields)."""
        unbounded = _mix_run()
        reset_process_caches()
        SENDER_KEY_CACHE.max_entries = 2
        MIX_STREAM_CACHE.max_entries = 1
        bounded = _mix_run()
        reset_process_caches()
        with monkeypatch.context() as patch:
            apply(patch, MIXNET_CACHE_OFF)
            disabled = _mix_run()
        assert unbounded == bounded == disabled


class TestSessionResetHook:
    def test_close_resets_process_caches(self):
        _mix_run()
        assert len(SENDER_KEY_CACHE) > 0
        with NymixSession(seed=3) as nx:
            nx.create_nym(name="alice")
        assert len(SENDER_KEY_CACHE) == 0
        assert len(NTOR_CLIENT_CACHE) == 0
        assert process_cache_sizes()["mixnet.streams"] == 0

    def test_warm_vs_post_reset_session_journals_identical(self):
        def run():
            with NymixSession(seed=11) as nx:
                nymbox = nx.create_nym(name="alice")
                nx.timed_browse(nymbox, "bbc.co.uk")
                return nx.obs.journal.export_jsonl()

        first = run()  # cold caches
        _mix_run()  # unrelated warm state in the same process
        second = run()  # caches warm from first run? no — reset at close
        assert first == second

    def test_bounded_mixnet_session_journal_identical(self):
        """Tiny cache bounds (constant eviction churn) must not move a
        single journal byte of a mixnet-backed session."""

        def run():
            config = NymixConfig(seed=23, default_anonymizer="mixnet")
            with NymixSession(config) as nx:
                nymbox = nx.create_nym(name="carol")
                nx.timed_browse(nymbox, "bbc.co.uk")
                return nx.obs.journal.export_jsonl()

        baseline = run()
        SENDER_KEY_CACHE.max_entries = 1
        MIX_STREAM_CACHE.max_entries = 1
        NTOR_CLIENT_CACHE.max_entries = 1
        bounded = run()
        assert baseline == bounded

    def test_reset_returns_prior_sizes(self, scratch_cache):
        for key in "abc":
            scratch_cache.put(key, key)
        sizes = reset_process_caches()
        assert sizes["test.scratch"] == 3
        assert len(scratch_cache) == 0

    def test_close_empties_the_poly1305_power_tables(self):
        # Sealing a browsed nym's blob MACs it under a one-time Poly1305
        # key; the power table of that key must not outlive the session.
        with NymixSession(seed=3) as nx:
            _store_a_browsed_nym(nx)
            assert len(_POWER_CACHE) > 0
        assert process_cache_sizes()["crypto.poly1305_powers"] == 0

    def test_close_empties_the_numpy_scratch_generator(self):
        # Storing the nym reads its cache content, drawn in bulk through
        # numpy's MT19937 from the nym's own stream; the generator's
        # advanced state and drawn words must not outlive the session.
        with NymixSession(seed=3) as nx:
            _store_a_browsed_nym(nx)
            assert process_cache_sizes()["sim.numpy_scratch"] == 1
        assert process_cache_sizes()["sim.numpy_scratch"] == 0
