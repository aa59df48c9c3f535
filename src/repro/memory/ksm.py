"""Kernel samepage merging across registered guests.

KSM scans guest pages, hashing their contents and collapsing identical
pages into a single copy-on-write physical page.  Our guests expose page
*content groups*, so a scan is exact: every page content appearing in more
than one place collapses to a single physical page.

The scanner is rate-limited like the kernel's (``pages_per_scan``), so
sharing ramps up over time instead of appearing instantaneously — this is
why Figure 3 shows shared pages growing between the "before" and "after"
measurements of each nym.

Accounting is incremental: per image, the index sums each ``(lo, hi)``
block run's multiplicity over every registered guest.  A guest's dirty
listener only queues that guest; ``stats()`` folds each queued guest's
change into the sums and re-sweeps only the images whose runs changed,
so a ksmd wakeup or an admission check costs O(what changed), not
O(guests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.memory.pages import GuestMemory, pages_to_bytes
from repro.obs import NULL_OBS

#: What one guest contributes to the merge index: its zero pages and its
#: ``(image_id, block_lo, block_hi, multiplicity)`` runs.
Contribution = Tuple[int, Tuple[Tuple[str, int, int, int], ...]]

#: The contribution of a guest not yet folded into the index.
_NOTHING: Contribution = (0, ())


@dataclass(frozen=True)
class KsmStats:
    """Mirror of the kernel's /sys/kernel/mm/ksm counters (the ones we need)."""

    pages_shared: int  # physical pages backing merged content
    pages_sharing: int  # guest pages mapped onto a shared physical page
    pages_saved: int  # pages_sharing - pages_shared

    @property
    def bytes_saved(self) -> int:
        return pages_to_bytes(self.pages_saved)


#: Shared "nothing merged" result: the gated fast paths below return it
#: on every pre-scan stats() call, so it must never be mutated.
_ZERO_STATS = KsmStats(pages_shared=0, pages_sharing=0, pages_saved=0)


def _sweep_duplicates(runs: Iterable[Tuple[int, int, int]]) -> Tuple[int, int]:
    """Count duplicated blocks across ``(lo, hi, multiplicity)`` runs.

    Returns ``(shared, sharing)``: for every block covered by total
    multiplicity ``d >= 2`` across all runs, one physical page backs ``d``
    guest pages — identical to counting per-block content tags.
    """
    events: List[Tuple[int, int]] = []
    for lo, hi, mult in runs:
        events.append((lo, mult))
        events.append((hi, -mult))
    events.sort()
    shared = 0
    sharing = 0
    depth = 0
    prev_point = None
    for point, delta in events:
        if prev_point is not None and depth >= 2 and point > prev_point:
            width = point - prev_point
            shared += width
            sharing += depth * width
        depth += delta
        prev_point = point
    return shared, sharing


class Ksm:
    """Samepage-merging scanner over a set of guests.

    ``coverage`` models how much of guest memory the scanner has visited:
    each :meth:`scan` pass advances coverage toward 1.0, and only covered
    duplicate pages count as merged.  A full scan (``run_to_completion``)
    merges everything mergeable.
    """

    def __init__(
        self,
        enabled: bool = True,
        pages_per_scan: int = 25_000,
        merge_zero_pages: bool = False,
        obs=NULL_OBS,
    ) -> None:
        self.enabled = enabled
        self.pages_per_scan = pages_per_scan
        # Real KSM deduplicates only madvise(MERGEABLE) regions, and guest
        # free-page churn keeps zero pages out of stable trees in practice —
        # the paper measured only ~5% total savings.  Zero-page merging is
        # left switchable for the ablation benchmark.
        self.merge_zero_pages = merge_zero_pages
        #: Registered guests, each mapped to the contribution last folded
        #: into the merge index.
        self._guests: Dict[GuestMemory, Contribution] = {}
        self._total_pages = 0
        self._scanned_pages = 0
        # The merge index.  Guests whose memory changed since their last
        # fold wait in ``_queued``; images whose run sums changed since
        # their last sweep wait in ``_stale_images``.
        self._queued: Dict[GuestMemory, None] = {}
        self._image_runs: Dict[str, Dict[Tuple[int, int], int]] = {}
        self._image_sweeps: Dict[str, Tuple[int, int]] = {}
        self._stale_images: Set[str] = set()
        self._zero_pages = 0
        self._mergeable_shared = 0
        self._mergeable_sharing = 0
        #: Bumped on every change that can alter ``stats()`` output
        #: (guest set, dirty memory, scan coverage).  Snapshot caches key
        #: on it — see ``Hypervisor.accounting_token``.
        self.version = 0
        #: Called with no arguments after every ``version`` bump.
        self.change_listener: Optional[Callable[[], None]] = None
        # stats() memo: (version, KsmStats).  The version covers every
        # mutation, so a hit returns the previous (frozen) stats object
        # without touching the index.
        self._stats_cache: Optional[Tuple[int, KsmStats]] = None
        self.obs = obs
        self._scan_passes = obs.metrics.counter("ksm.scan_passes")
        self._pages_sharing = obs.metrics.gauge("ksm.pages_sharing")
        self._pages_merged = obs.metrics.gauge("ksm.pages_merged")
        self._coverage_resets = obs.metrics.counter("ksm.coverage_resets")

    def register(self, guest: GuestMemory) -> None:
        if guest not in self._guests:
            self._guests[guest] = _NOTHING
            self._total_pages += guest.total_pages
            guest.add_dirty_listener(self._guest_changed)
            self._queued[guest] = None
            self._bump_version()

    def unregister(self, guest: GuestMemory) -> None:
        folded = self._guests.pop(guest, None)
        if folded is not None:
            self._total_pages -= guest.total_pages
            guest.remove_dirty_listener(self._guest_changed)
            self._queued.pop(guest, None)
            self._fold(folded, _NOTHING)
            self._bump_version()

    def _guest_changed(self, guest: GuestMemory) -> None:
        # Runs on every guest mutation, so the version bump is inlined.
        self._queued[guest] = None
        self.version += 1
        if self.change_listener is not None:
            self.change_listener()

    def _bump_version(self) -> None:
        self.version += 1
        if self.change_listener is not None:
            self.change_listener()

    # -- scanning ------------------------------------------------------------

    @property
    def total_guest_pages(self) -> int:
        return self._total_pages

    @property
    def coverage(self) -> float:
        total = self.total_guest_pages
        if total == 0:
            return 1.0
        return min(1.0, self._scanned_pages / total)

    def scan(self, passes: int = 1) -> KsmStats:
        """Advance the scanner by ``passes`` rate-limited passes.

        Scan progress is clamped to the registered guest footprint, so a
        long-idle scanner holds no unbounded surplus: memory added later
        must be covered by fresh passes, exactly like ksmd revisiting new
        madvised regions.
        """
        if self.enabled:
            scanned = min(
                self._scanned_pages + self.pages_per_scan * passes,
                self.total_guest_pages,
            )
            if scanned != self._scanned_pages:
                self._scanned_pages = scanned
                self._bump_version()
            self._scan_passes.inc(passes)
        return self._published_stats()

    def run_to_completion(self) -> KsmStats:
        """Let the scanner finish covering all guest memory."""
        if self.enabled:
            total = self.total_guest_pages
            if self._scanned_pages < total:
                # Only an actual catch-up scan counts as a pass; calling
                # this with coverage already complete is a no-op.
                self._scanned_pages = total
                self._bump_version()
                self._scan_passes.inc()
        return self._published_stats()

    def reset_coverage(self) -> None:
        """Forget scan progress (e.g. after large memory churn).

        This is the simulated analogue of mass COW breaks: merged pages
        diverge again and the scanner must re-earn its coverage.
        """
        self._scanned_pages = 0
        self._bump_version()
        self._coverage_resets.inc()
        self.obs.event("ksm.coverage_reset", guests=len(self._guests))

    def _published_stats(self) -> KsmStats:
        """Compute stats and mirror them into the metrics gauges."""
        stats = self.stats()
        self._pages_sharing.set(stats.pages_sharing)
        self._pages_merged.set(stats.pages_saved)
        return stats

    # -- accounting ------------------------------------------------------------

    def _fold(self, old: Contribution, new: Contribution) -> None:
        """Replace one guest's ``old`` contribution to the index by ``new``."""
        self._zero_pages += new[0] - old[0]
        if old[1] == new[1]:
            return
        image_runs = self._image_runs
        stale = self._stale_images
        for sign, segments in ((-1, old[1]), (1, new[1])):
            for image_id, lo, hi, mult in segments:
                runs = image_runs.get(image_id)
                if runs is None:
                    runs = image_runs[image_id] = {}
                total = runs.get((lo, hi), 0) + sign * mult
                if total:
                    runs[(lo, hi)] = total
                else:
                    del runs[(lo, hi)]
                stale.add(image_id)

    def _update_index(self) -> None:
        """Fold the queued guests in, then re-sweep the images they changed.

        Each image's sweep runs over its distinct ``(lo, hi)`` runs with
        their summed multiplicities, which counts exactly what sweeping
        every guest's runs apart would: the sweep only sees net depth.
        """
        queued, self._queued = self._queued, {}
        guests = self._guests
        for guest in queued:
            new = (guest.zero_pages, tuple(guest.image_segments()))
            self._fold(guests[guest], new)
            guests[guest] = new
        for image_id in self._stale_images:
            old_shared, old_sharing = self._image_sweeps.pop(image_id, (0, 0))
            runs = self._image_runs.get(image_id)
            shared = sharing = 0
            if runs:
                shared, sharing = _sweep_duplicates(
                    (lo, hi, mult) for (lo, hi), mult in runs.items()
                )
                self._image_sweeps[image_id] = (shared, sharing)
            else:
                self._image_runs.pop(image_id, None)
            self._mergeable_shared += shared - old_shared
            self._mergeable_sharing += sharing - old_sharing
        self._stale_images.clear()

    def stats(self) -> KsmStats:
        cached = self._stats_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        result = self._compute_stats()
        self._stats_cache = (self.version, result)
        return result

    def _compute_stats(self) -> KsmStats:
        if not self.enabled:
            return _ZERO_STATS
        if self._scanned_pages == 0 and self._total_pages > 0:
            # Nothing scanned yet: the coverage fraction is exactly 0.0,
            # so both truncated counts are 0 whatever the index holds —
            # leave the queue for the first scan to fold.
            return _ZERO_STATS
        if self._queued or self._stale_images:
            self._update_index()
        shared = self._mergeable_shared
        sharing = self._mergeable_sharing
        if self.merge_zero_pages and self._zero_pages >= 2:
            # All zero pages carry one content: a single physical page.
            shared += 1
            sharing += self._zero_pages
        fraction = self.coverage
        # Rate limiting: only the covered fraction of duplicates is merged yet.
        shared_now = int(shared * fraction)
        sharing_now = int(sharing * fraction)
        if sharing_now and not shared_now:
            # Truncation can report mapped-onto-shared pages with zero shared
            # pages backing them; any sharing implies at least one physical
            # page, so round the backing count up to keep the pair coherent.
            shared_now = 1
        return KsmStats(
            pages_shared=shared_now,
            pages_sharing=sharing_now,
            pages_saved=max(0, sharing_now - shared_now),
        )
