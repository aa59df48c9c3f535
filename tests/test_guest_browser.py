"""The Chromium model: cache, cookies, history, credentials, fingerprint."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import NymixSession
from repro.guest.browser import Browser, BrowserFingerprint, FetchOutcome
from repro.guest.websites import FIGURE3_VISIT_ORDER, WEBSITE_CATALOG
from repro.memory import GuestMemory
from repro.net.internet import HttpResponse
from repro.sim import SeededRng, Timeline
from repro.unionfs.layer import TmpfsLayer
from repro.unionfs.mount import UnionMount
from repro.vmm.baseimage import build_base_layer, build_vm_mount
from repro.vmm.vm import MIB, VmSpec, VirtualMachine


class FakeFetcher:
    """Deterministic fetcher standing in for the anonymizer path."""

    def __init__(self):
        self.visits = {}

    def fetch(self, hostname, client_token):
        count = self.visits.get(hostname, 0)
        self.visits[hostname] = count + 1
        site = WEBSITE_CATALOG[hostname]
        if count == 0:
            response = HttpResponse(
                200, site.first_visit_bytes, site.cacheable_first_bytes, site.cookie_bytes
            )
        else:
            response = HttpResponse(200, site.revisit_bytes, site.cacheable_revisit_bytes, 0)
        return FetchOutcome(response=response, duration_s=2.0)


_CACHE_PREFIX = "/home/user/.cache/chromium/Cache/"

_LOREM = (
    b"<html><head><title>cached document</title></head><body>"
    b"lorem ipsum dolor sit amet consectetur adipiscing elit " * 16
)


def _cache_content(rng, size):
    """The oracle: a cache file's bytes as the eager browser drew them
    at write time, frozen from before the draw was deferred."""
    incompressible = int(size * 0.7)
    compressible = size - incompressible
    text = (_LOREM * (compressible // len(_LOREM) + 1))[:compressible]
    return rng.content_bytes(incompressible) + text


def _record_content_draws(monkeypatch):
    """Record the size of every ``SeededRng.content_bytes`` draw from now on."""
    sizes = []
    draw = SeededRng.content_bytes

    def recording(rng, n):
        sizes.append(n)
        return draw(rng, n)

    monkeypatch.setattr(SeededRng, "content_bytes", recording)
    return sizes


def _browser(cache_limit=Browser.DEFAULT_CACHE_LIMIT):
    timeline = Timeline()
    spec = VmSpec.anonvm()
    vm = VirtualMachine(
        timeline,
        "anon-test",
        spec,
        GuestMemory("anon-test", spec.ram_bytes),
        build_vm_mount(spec.role, spec.writable_fs_bytes, build_base_layer()),
        "nymix-base",
    )
    vm.boot()
    return Browser(vm, FakeFetcher(), SeededRng(5), "profile:test", cache_limit), vm


class TestBrowsing:
    def test_visit_populates_cache_history_cookies(self):
        browser, vm = _browser()
        load = browser.visit("gmail.com")
        assert load.payload_bytes == WEBSITE_CATALOG["gmail.com"].first_visit_bytes
        assert browser.cache_bytes == WEBSITE_CATALOG["gmail.com"].cacheable_first_bytes
        assert browser.history[-1].endswith("gmail.com")
        assert "gmail.com" in browser.cookies

    def test_revisit_smaller_than_first(self):
        browser, _ = _browser()
        first = browser.visit("twitter.com")
        second = browser.visit("twitter.com")
        assert second.payload_bytes < first.payload_bytes
        assert second.cached_bytes_written < first.cached_bytes_written

    def test_cache_grows_across_revisits(self):
        browser, _ = _browser()
        browser.visit("facebook.com")
        size1 = browser.cache_bytes
        browser.visit("facebook.com")
        assert browser.cache_bytes > size1

    def test_cache_cap_enforced_with_eviction(self):
        browser, _ = _browser(cache_limit=10 * MIB)
        for _ in range(4):
            browser.visit("youtube.com")
        assert browser.cache_bytes <= 10 * MIB
        assert browser.cache_bytes > 0

    def test_visit_dirties_guest_memory(self):
        browser, vm = _browser()
        before = vm.memory.stats().unique_pages
        browser.visit("gmail.com")
        assert vm.memory.stats().unique_pages > before

    def test_memory_dirtying_respects_headroom(self):
        browser, vm = _browser()
        for hostname in WEBSITE_CATALOG:
            browser.visit(hostname)
        # Must never exhaust guest RAM entirely.
        assert vm.memory.clean_bytes >= 0

    def test_visit_requires_running_vm(self):
        browser, vm = _browser()
        vm.pause()
        with pytest.raises(Exception):
            browser.visit("gmail.com")

    def test_state_lives_in_vm_fs(self):
        browser, vm = _browser()
        browser.visit("gmail.com")
        assert vm.fs.exists("/home/user/.config/chromium/History")
        assert vm.fs.exists("/home/user/.config/chromium/Cookies")
        cache_files = [p for p in vm.fs.walk() if ".cache/chromium" in p]
        assert cache_files


class TestCredentials:
    def test_login_remembered(self):
        browser, vm = _browser()
        browser.login("twitter.com", "dissident", "secret-pw")
        assert browser.has_credentials_for("twitter.com")
        assert vm.fs.exists("/home/user/.config/chromium/Login Data")

    def test_login_not_remembered(self):
        browser, vm = _browser()
        browser.login("twitter.com", "dissident", "secret-pw", remember=False)
        assert not browser.has_credentials_for("twitter.com")

    def test_profile_restores_from_fs(self, monkeypatch):
        """A new Browser over the same VM state sees the old profile —
        exactly what happens when a persistent nym is restored.  The
        rebuild takes the cache files' sizes without drawing them."""
        browser, vm = _browser()
        browser.visit("gmail.com")
        browser.login("gmail.com", "alice", "pw")
        draws = _record_content_draws(monkeypatch)
        rebuilt = Browser(vm, FakeFetcher(), SeededRng(6), "profile:test")
        assert draws == []
        assert rebuilt.has_credentials_for("gmail.com")
        assert rebuilt.history == browser.history
        assert rebuilt.cache_bytes == browser.cache_bytes

    def test_rebuilt_profile_names_new_cache_files_past_the_restored_ones(self):
        """After an eviction, a rebuilt browser must not reuse the name of
        a live cache file for its next write."""
        browser, vm = _browser(cache_limit=4 * MIB)
        browser._store_in_cache(5 * MIB)  # evicts f_000000
        rebuilt = Browser(vm, FakeFetcher(), SeededRng(6), "profile:test", 4 * MIB)
        rebuilt._store_in_cache(1 * MIB)  # evicts f_000001
        indexed = [path for path, _ in rebuilt._cache_files]
        live = [p for p in vm.fs.walk() if p.startswith(_CACHE_PREFIX)]
        assert indexed == live == [f"{_CACHE_PREFIX}f_{n:06x}" for n in range(2, 6)]
        assert rebuilt.cache_bytes == sum(vm.fs.size(p) for p in live) == 4 * MIB


class _SizedFetcher:
    """Serves each page with the cacheable size the test sets next."""

    def __init__(self):
        self.cacheable_bytes = 0

    def fetch(self, hostname, client_token):
        response = HttpResponse(200, self.cacheable_bytes, self.cacheable_bytes, 0)
        return FetchOutcome(response=response, duration_s=1.0)


class _EagerOracle:
    """Spies on cache writes and draws each file's bytes at write time,
    in write order, from a twin of the browser's stream."""

    def __init__(self, fs, seed):
        self.rng = SeededRng(seed)
        self.expected = {}
        write = fs.write

        def spy(path, data):
            if path.startswith(_CACHE_PREFIX):
                self.expected[path] = _cache_content(self.rng, len(data))
            write(path, data)

        fs.write = spy


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("visit"), st.integers(min_value=MIB // 2, max_value=3 * MIB)),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=1 << 16)),
    ),
    max_size=10,
)


class TestDeferredContent:
    @given(limit_mib=st.integers(min_value=1, max_value=3), steps=_STEPS)
    @settings(max_examples=30, deadline=None)
    def test_reads_match_the_eager_draw(self, limit_mib, steps):
        """Under evictions, any read of a live cache file returns the
        bytes the eager browser wrote there, and a full read leaves the
        browser's stream where the eager one left it."""
        browser, vm = _browser(cache_limit=limit_mib * MIB)
        browser.fetcher = fetcher = _SizedFetcher()
        oracle = _EagerOracle(vm.fs, seed=5)
        for kind, arg in steps:
            live = [p for p in vm.fs.walk() if p.startswith(_CACHE_PREFIX)]
            assert browser.cache_bytes == sum(vm.fs.size(p) for p in live)
            if kind == "visit":
                fetcher.cacheable_bytes = arg
                browser.visit("example.org")
            elif live:
                path = live[arg % len(live)]
                assert vm.fs.read(path) == oracle.expected[path]
        for path, data in vm.fs.top.items():
            if path.startswith(_CACHE_PREFIX):
                assert data == oracle.expected[path]
        assert browser.rng._random.getstate() == oracle.rng._random.getstate()

    def test_ephemeral_session_draws_no_content(self, monkeypatch):
        """Create, browse the eight Figure 3 sites and discard: the cache
        is never read, so none of it is drawn."""
        draws = _record_content_draws(monkeypatch)
        with NymixSession(seed=7) as nx:
            nymbox = nx.create_nym(name="ephemeral")
            for site in FIGURE3_VISIT_ORDER:
                nx.timed_browse(nymbox, site)
            assert nymbox.browser.cache_bytes > 0
            nx.discard_nym(nymbox)
        assert draws == []


class TestFingerprint:
    def test_identical_across_browsers(self):
        a, _ = _browser()
        b, _ = _browser()
        assert a.fingerprint.as_tuple() == b.fingerprint.as_tuple()

    def test_fixed_surface(self):
        fp = BrowserFingerprint()
        assert fp.screen == (1024, 768)
        assert fp.plugins == ()

    def test_profile_summary(self):
        browser, _ = _browser()
        browser.visit("gmail.com")
        browser.login("gmail.com", "a", "b")
        summary = browser.profile_summary()
        assert summary["history_entries"] == 1
        assert summary["stored_credentials"] == 1
        assert summary["cache_bytes"] > 0
