"""The Chromium model: cache, cookies, history, credentials, fingerprint.

Everything the browser persists lands in the AnonVM's union file system —
so a nym snapshot automatically carries it, and discarding an ephemeral
nym automatically destroys it.  The cache is capped (83 MB, Chromium's
default noted in §5.3) with LRU eviction; cached content is mostly
incompressible (images, compressed transfers), which is why encrypted nym
snapshots in Figure 6 track cache growth nearly 1:1.

A cache file's bytes are drawn on its first read, not when it is
written: an ephemeral nym is discarded with its cache unread, and only
the §3.5 store path reads it.  The draws still run in write order, so
every byte is what an eager draw would have produced.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import NymixError
from repro.guest.websites import WEBSITE_CATALOG, Website
from repro.net.internet import HttpResponse
from repro.sim.rng import SeededRng
from repro.unionfs.layer import DeferredContent
from repro.vmm.vm import VirtualMachine

MIB = 1024 * 1024

_CACHE_DIR = "/home/user/.cache/chromium/Cache"
_CONFIG_DIR = "/home/user/.config/chromium"
_HISTORY_FILE = f"{_CONFIG_DIR}/History"
_COOKIES_FILE = f"{_CONFIG_DIR}/Cookies"
_LOGIN_FILE = f"{_CONFIG_DIR}/Login Data"

_LOREM = (
    b"<html><head><title>cached document</title></head><body>"
    b"lorem ipsum dolor sit amet consectetur adipiscing elit " * 16
)


@dataclass(frozen=True)
class BrowserFingerprint:
    """The Panopticlick-visible surface; identical in every nymbox."""

    user_agent: str = "Mozilla/5.0 (X11; Linux x86_64) Chromium/34.0.1847.116"
    screen: Tuple[int, int] = (1024, 768)
    timezone: str = "UTC"
    language: str = "en-US"
    fonts: Tuple[str, ...] = ("DejaVu Sans", "DejaVu Serif", "DejaVu Sans Mono")
    plugins: Tuple[str, ...] = ()

    def as_tuple(self) -> Tuple:
        return (
            self.user_agent,
            self.screen,
            self.timezone,
            self.language,
            self.fonts,
            self.plugins,
        )


@dataclass(frozen=True)
class FetchOutcome:
    """What the network path (anonymizer) reports back for one request."""

    response: HttpResponse
    duration_s: float


@dataclass(frozen=True)
class PageLoad:
    """One completed page visit as the user experiences it."""

    hostname: str
    duration_s: float
    payload_bytes: int
    cached_bytes_written: int


@dataclass
class StoredCredential:
    hostname: str
    username: str
    password: str


class _CacheFile(DeferredContent):
    """One cache file: its size at write time, its bytes on first read."""

    __slots__ = ("_size", "_stream", "_data", "__weakref__")

    def __init__(self, stream: "_ContentStream", size: int) -> None:
        self._size = size
        self._stream = stream
        self._data: Optional[bytes] = None

    def __len__(self) -> int:
        return self._size

    def resolve(self) -> bytes:
        if self._data is None:
            self._stream.draw_through(self)
        return self._data


class _ContentStream:
    """The browser's private content stream, drawn lazily in write order.

    Each cache file takes its bytes from ``rng`` in the order the files
    were written, whether or not it is still live, so a file's bytes do
    not depend on when, or whether, any file is read.
    """

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng
        # (file, size) per undrawn file, in write order; the weak reference
        # lets an evicted or discarded file go while its draw still waits.
        self._pending: Deque[Tuple[weakref.ref, int]] = deque()

    def defer(self, size: int) -> _CacheFile:
        file = _CacheFile(self, size)
        self._pending.append((weakref.ref(file), size))
        return file

    def draw_through(self, target: _CacheFile) -> None:
        """Draw every pending file up to and including ``target``."""
        while True:
            ref, size = self._pending.popleft()
            data = self._draw(size)
            file = ref()
            if file is None:
                continue  # evicted or overwritten: drawn, then dropped
            file._data = data
            if file is target:
                return

    def _draw(self, size: int) -> bytes:
        """Mostly incompressible bytes with a compressible HTML fraction."""
        incompressible = int(size * 0.7)
        compressible = size - incompressible
        text = (_LOREM * (compressible // len(_LOREM) + 1))[:compressible]
        return self.rng.content_bytes(incompressible) + text


class Browser:
    """A Chromium profile living inside one AnonVM.

    ``fetcher`` is the only way out: an object with
    ``fetch(hostname, client_token) -> FetchOutcome`` provided by the
    nymbox, which routes the request through the CommVM's anonymizer.
    """

    DEFAULT_CACHE_LIMIT = 83 * MIB  # Chromium's default, per §5.3

    def __init__(
        self,
        vm: VirtualMachine,
        fetcher,
        rng: SeededRng,
        profile_token: str,
        cache_limit_bytes: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        self.vm = vm
        self.fetcher = fetcher
        self.rng = rng
        self.profile_token = profile_token
        self.cache_limit_bytes = cache_limit_bytes
        self.fingerprint = BrowserFingerprint()
        self.history: List[str] = []
        self.cookies: Dict[str, int] = {}  # hostname -> cookie bytes
        self.credentials: Dict[str, StoredCredential] = {}
        self._cache_files: Deque[Tuple[str, int]] = deque()  # (path, size), LRU order
        self._cache_total = 0  # sum of the sizes in _cache_files
        self._cache_serial = 0
        self._content = _ContentStream(rng)
        self._restore_profile()

    # -- profile persistence in the union FS ----------------------------------

    def _restore_profile(self) -> None:
        """Rehydrate in-memory indexes from a restored file system."""
        fs = self.vm.fs
        if fs.exists(_HISTORY_FILE):
            self.history = fs.read(_HISTORY_FILE).decode().splitlines()
        if fs.exists(_COOKIES_FILE):
            for line in fs.read(_COOKIES_FILE).decode().splitlines():
                hostname, _, size = line.partition("\t")
                if size:
                    self.cookies[hostname] = int(size)
        if fs.exists(_LOGIN_FILE):
            for line in fs.read(_LOGIN_FILE).decode().splitlines():
                parts = line.split("\t")
                if len(parts) == 3:
                    self.credentials[parts[0]] = StoredCredential(*parts)
        prefix = _CACHE_DIR + "/f_"
        for path in fs.walk():
            if path.startswith(prefix):
                size = fs.size(path)
                self._cache_files.append((path, size))
                self._cache_total += size
                # Past the highest restored serial, not the file count:
                # after an eviction the count names a live file.
                serial = int(path[len(prefix):], 16)
                self._cache_serial = max(self._cache_serial, serial + 1)

    def _write_history(self) -> None:
        self.vm.fs.write(_HISTORY_FILE, ("\n".join(self.history)).encode())

    def _write_cookies(self) -> None:
        lines = [f"{host}\t{size}" for host, size in sorted(self.cookies.items())]
        self.vm.fs.write(_COOKIES_FILE, ("\n".join(lines)).encode())

    def _write_credentials(self) -> None:
        lines = [
            f"{cred.hostname}\t{cred.username}\t{cred.password}"
            for cred in self.credentials.values()
        ]
        self.vm.fs.write(_LOGIN_FILE, ("\n".join(lines)).encode())

    # -- the cache ------------------------------------------------------------

    @property
    def cache_bytes(self) -> int:
        return self._cache_total

    def _store_in_cache(self, total_bytes: int) -> int:
        """Write ``total_bytes`` of new cache entries, evicting LRU as needed."""
        written = 0
        remaining = total_bytes
        while remaining > 0:
            chunk = min(remaining, 1 * MIB)
            if self._cache_total + chunk > self.cache_limit_bytes:
                self._evict_for(chunk)
            path = f"{_CACHE_DIR}/f_{self._cache_serial:06x}"
            self._cache_serial += 1
            self.vm.fs.write(path, self._content.defer(chunk))
            self._cache_files.append((path, chunk))
            self._cache_total += chunk
            written += chunk
            remaining -= chunk
        return written

    def _evict_for(self, incoming: int) -> None:
        while self._cache_files and self._cache_total + incoming > self.cache_limit_bytes:
            path, size = self._cache_files.popleft()
            self._cache_total -= size
            if self.vm.fs.exists(path):
                self.vm.fs.remove(path)

    # -- browsing ------------------------------------------------------------

    def visit(self, hostname: str) -> PageLoad:
        """Load a page through the anonymizer and absorb its side effects."""
        if not self.vm.running:
            raise NymixError(f"browser's VM {self.vm.vm_id!r} is not running")
        outcome: FetchOutcome = self.fetcher.fetch(hostname, self.profile_token)
        response = outcome.response
        cached = self._store_in_cache(response.cacheable_bytes)
        if response.set_cookie_bytes:
            self.cookies[hostname] = (
                self.cookies.get(hostname, 0) + response.set_cookie_bytes
            )
            self._write_cookies()
        self.history.append(f"{self.vm.timeline.now:.3f} {hostname}")
        self._write_history()
        site: Optional[Website] = WEBSITE_CATALOG.get(hostname)
        if site is not None:
            # Rendering and JS heaps dirty guest RAM; revisits mostly reuse
            # already-dirty pages, so only dirty what head-room allows.
            want = site.session_dirty_bytes
            head_room = max(0, self.vm.memory.clean_bytes - 16 * MIB)
            self.vm.memory.dirty(min(want, head_room))
        return PageLoad(
            hostname=hostname,
            duration_s=outcome.duration_s,
            payload_bytes=response.body_bytes,
            cached_bytes_written=cached,
        )

    def set_cookie(self, key: str, size_bytes: int) -> None:
        """Store a cookie (first- or third-party) and persist the jar."""
        self.cookies[key] = size_bytes
        self._write_cookies()

    def login(self, hostname: str, username: str, password: str, remember: bool = True) -> None:
        """Sign in; with ``remember`` the credentials bind to this nym's state."""
        if remember:
            self.credentials[hostname] = StoredCredential(hostname, username, password)
            self._write_credentials()

    def has_credentials_for(self, hostname: str) -> bool:
        return hostname in self.credentials

    # -- introspection ---------------------------------------------------------

    def profile_summary(self) -> Dict[str, int]:
        return {
            "history_entries": len(self.history),
            "cookie_hosts": len(self.cookies),
            "stored_credentials": len(self.credentials),
            "cache_bytes": self.cache_bytes,
        }
