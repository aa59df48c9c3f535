"""Page-granular guest memory modelled as run-length content groups.

Accounting is O(groups), not O(pages): a gigabyte of privately dirtied
memory is one ``("unique", owner, lo, hi)`` run, not 262k dict entries.
Every mutation bumps :attr:`GuestMemory.dirty_epoch` and tells the
guest's KSM scanner which guest changed, which lets it fold just that
guest into its cross-guest index instead of re-walking every guest.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.errors import MemoryError_

PAGE_SIZE = 4096  # bytes, matching x86 small pages


def bytes_to_pages(size_bytes: int) -> int:
    """Round ``size_bytes`` up to whole pages."""
    if size_bytes < 0:
        raise MemoryError_(f"negative size: {size_bytes}")
    return (size_bytes + PAGE_SIZE - 1) // PAGE_SIZE


def pages_to_bytes(pages: int) -> int:
    return pages * PAGE_SIZE


# A content tag identifies *what* is on a group of pages.  Pages in
# different guests with equal content are KSM merge candidates.
#   ("zero",)                      — zero-filled pages (all one content)
#   ("image", image_id, lo, hi)    — pages backed by disk-image blocks
#                                    [lo, hi); block b in any guest holds
#                                    the same bytes as block b elsewhere
#   ("unique", owner_id, lo, hi)   — privately dirtied pages with serials
#                                    [lo, hi); never shareable
ContentTag = Tuple


ZERO_TAG: ContentTag = ("zero",)


def image_tag(image_id: str, block: int) -> ContentTag:
    """Tag for a single image-backed page (block granularity)."""
    return ("image", image_id, block)


def image_range_tag(image_id: str, lo: int, hi: int) -> ContentTag:
    """Tag for the image-backed block run [lo, hi)."""
    return ("image", image_id, lo, hi)


def unique_tag(owner_id: str, serial: int) -> ContentTag:
    """Tag for a single privately dirtied page."""
    return ("unique", owner_id, serial)


def unique_range_tag(owner_id: str, lo: int, hi: int) -> ContentTag:
    """Tag for the privately dirtied serial run [lo, hi)."""
    return ("unique", owner_id, lo, hi)


def _unscanned() -> None:
    """The scanner reference of a guest no KSM scanner merges."""
    return None


def is_mergeable(tag: ContentTag) -> bool:
    """Unique (privately dirtied) pages never merge; shared content does."""
    return tag[0] != "unique"


@dataclass(frozen=True)
class MemoryStats:
    """Point-in-time accounting for one guest's memory."""

    total_pages: int
    zero_pages: int
    image_pages: int
    unique_pages: int

    @property
    def total_bytes(self) -> int:
        return pages_to_bytes(self.total_pages)


def _add_image_run(segments: List[List[int]], lo: int, hi: int) -> None:
    """Overlay the run [lo, hi) (multiplicity 1) onto ``segments``.

    ``segments`` is a sorted, non-overlapping list of ``[lo, hi, mult]``
    entries.  Overlaps (the same block mapped twice) raise that span's
    multiplicity, matching the old per-block multiset exactly.
    """
    if hi <= lo:
        return
    events: List[Tuple[int, int]] = [(lo, 1), (hi, -1)]
    for s_lo, s_hi, mult in segments:
        events.append((s_lo, mult))
        events.append((s_hi, -mult))
    events.sort()
    segments.clear()
    depth = 0
    prev_point = None
    for point, delta in events:
        if prev_point is not None and depth > 0 and point > prev_point:
            if segments and segments[-1][1] == prev_point and segments[-1][2] == depth:
                segments[-1][1] = point  # coalesce equal-depth neighbours
            else:
                segments.append([prev_point, point, depth])
        depth += delta
        prev_point = point


class GuestMemory:
    """One guest's RAM: run-length groups of page content.

    All pages are allocated up front (KVM "obtains most of the requested
    memory for a VM at VM initialization", §5.2); what changes over the
    guest's lifetime is the *content* of those pages as the OS boots and
    applications dirty them.  ``total_pages`` is therefore an invariant
    fixed at allocation, and every operation costs O(content groups).
    """

    def __init__(self, owner_id: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise MemoryError_(f"guest memory must be positive, got {size_bytes}")
        self.owner_id = owner_id
        self._total_pages = bytes_to_pages(size_bytes)
        self._zero_pages = self._total_pages
        # image_id -> sorted non-overlapping [block_lo, block_hi, multiplicity]
        self._image_runs: Dict[str, List[List[int]]] = {}
        self._image_pages = 0
        # sorted non-overlapping [serial_lo, serial_hi) runs
        self._unique_runs: List[List[int]] = []
        self._unique_pages = 0
        self._unique_serial = 0
        self._erased = False
        #: Monotonic mutation counter; consumers (KSM) cache against it.
        self.dirty_epoch = 0
        #: Content runs are shared with a template (or clone) and must be
        #: copied before the first in-place mutation.
        self._cow_shared = False
        self._scanner = _unscanned

    # -- the KSM scanner ---------------------------------------------------

    def set_scanner(self, ksm) -> None:
        """Call ``ksm.guest_changed(guest)`` after every mutation of this
        guest; ``None`` stops it.

        Held weakly: the scanner holds this guest, so a strong reference
        back would make every merged guest a reference cycle.
        """
        self._scanner = _unscanned if ksm is None else weakref.ref(ksm)

    def _bump_epoch(self) -> None:
        self.dirty_epoch += 1
        ksm = self._scanner()
        if ksm is not None:
            ksm.guest_changed(self)

    # -- introspection -----------------------------------------------------

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def erased(self) -> bool:
        return self._erased

    def page_groups(self) -> Iterator[Tuple[ContentTag, int]]:
        """Yield ``(tag, page_count)`` per content group (run-length form).

        For ``("image", id, lo, hi)`` groups the count is
        ``(hi - lo) * multiplicity``; a multiplicity above one means the
        guest mapped the same blocks more than once.
        """
        if self._zero_pages:
            yield ZERO_TAG, self._zero_pages
        for image_id in self._image_runs:
            for lo, hi, mult in self._image_runs[image_id]:
                yield image_range_tag(image_id, lo, hi), (hi - lo) * mult
        for lo, hi in self._unique_runs:
            yield unique_range_tag(self.owner_id, lo, hi), hi - lo

    def image_segments(self) -> Iterator[Tuple[str, int, int, int]]:
        """Yield ``(image_id, block_lo, block_hi, multiplicity)`` runs."""
        for image_id in self._image_runs:
            for lo, hi, mult in self._image_runs[image_id]:
                yield image_id, lo, hi, mult

    @property
    def clean_bytes(self) -> int:
        """Bytes not yet privately dirtied (available to :meth:`dirty`)."""
        return pages_to_bytes(self._zero_pages + self._image_pages)

    def stats(self) -> MemoryStats:
        return MemoryStats(
            total_pages=self._total_pages,
            zero_pages=self._zero_pages,
            image_pages=self._image_pages,
            unique_pages=self._unique_pages,
        )

    # -- copy-on-write cloning ------------------------------------------------

    def can_adopt(self, template: "GuestMemory") -> bool:
        """True if this pristine guest can flash-adopt ``template``'s runs."""
        return (
            not self._erased
            and self.dirty_epoch == 0
            and self._zero_pages == self._total_pages
            and self._total_pages == template._total_pages
        )

    def adopt_template(self, template: "GuestMemory") -> None:
        """Take over a booted template's content runs, copy-on-write.

        The run-length structures are shared by *reference*; both sides are
        flagged so the first in-place mutation on either privatizes its
        copy first.  Accounting (zero/image/unique counts) is copied, so
        stats, page groups, and KSM merge candidates are indistinguishable
        from a cold boot that replayed the template's map/dirty sequence.
        """
        if not self.can_adopt(template):
            raise MemoryError_(
                f"guest {self.owner_id}: only a pristine same-size guest "
                f"can adopt a template"
            )
        self._image_runs = template._image_runs
        self._unique_runs = template._unique_runs
        template._cow_shared = True
        self._cow_shared = True
        self._zero_pages = template._zero_pages
        self._image_pages = template._image_pages
        self._unique_pages = template._unique_pages
        self._unique_serial = template._unique_serial
        self.dirty_epoch = template.dirty_epoch
        ksm = self._scanner()
        if ksm is not None:
            ksm.guest_changed(self)

    def clone(self, owner_id: str) -> "GuestMemory":
        """A new guest sharing this guest's content runs copy-on-write."""
        twin = GuestMemory(owner_id, pages_to_bytes(self._total_pages))
        twin.adopt_template(self)
        return twin

    def _ensure_private(self) -> None:
        """Deep-copy shared run structures before an in-place mutation."""
        if not self._cow_shared:
            return
        self._image_runs = {
            image_id: [run[:] for run in runs]
            for image_id, runs in self._image_runs.items()
        }
        self._unique_runs = [run[:] for run in self._unique_runs]
        self._cow_shared = False

    # -- mutation ------------------------------------------------------------

    def _take_pages(self, count: int) -> None:
        """Consume ``count`` pages, preferring zero pages, then image pages.

        Image pages are repurposed in (image_id, block) order, exactly as
        the per-block multiset implementation did.  Unlike that
        implementation, an impossible request mutates nothing (the multiset
        version dropped the pages it had already consumed before raising).
        """
        available = self._zero_pages + self._image_pages
        if count > available:
            raise MemoryError_(
                f"guest {self.owner_id}: cannot repurpose {count} pages "
                f"({count - available} short; all pages privately dirtied)"
            )
        remaining = count
        take = min(self._zero_pages, remaining)
        self._zero_pages -= take
        remaining -= take
        if remaining:
            for image_id in sorted(self._image_runs):
                segments = self._image_runs[image_id]
                while remaining and segments:
                    lo, hi, mult = segments[0]
                    whole_blocks = min(remaining // mult, hi - lo)
                    if whole_blocks:
                        lo += whole_blocks
                        consumed = whole_blocks * mult
                        remaining -= consumed
                        self._image_pages -= consumed
                    if lo == hi:
                        segments.pop(0)
                        continue
                    segments[0][0] = lo
                    if remaining and remaining < mult:
                        # Partially repurpose one block: shed `remaining` of
                        # its `mult` copies, keeping the rest in place.
                        self._image_pages -= remaining
                        if hi - lo == 1:
                            segments[0][2] = mult - remaining
                        else:
                            segments[0] = [lo, lo + 1, mult - remaining]
                            segments.insert(1, [lo + 1, hi, mult])
                        remaining = 0
                    break
                if not segments:
                    del self._image_runs[image_id]
                if not remaining:
                    break

    def map_image(self, image_id: str, size_bytes: int, first_block: int = 0) -> None:
        """Fill pages with shared disk-image content (page-cache of the base OS)."""
        pages = bytes_to_pages(size_bytes)
        if pages:
            self._ensure_private()
        self._take_pages(pages)
        if not pages:
            return
        runs = self._image_runs.setdefault(image_id, [])
        last = runs[-1] if runs else None
        if last is not None and last[1] == first_block and last[2] == 1:
            last[1] = first_block + pages  # common case: append-contiguous
        elif last is not None and first_block < last[1]:
            _add_image_run(runs, first_block, first_block + pages)
        else:
            runs.append([first_block, first_block + pages, 1])
        self._image_pages += pages
        self._bump_epoch()

    def dirty(self, size_bytes: int) -> None:
        """Dirty pages with private content (writes by the guest workload)."""
        pages = bytes_to_pages(size_bytes)
        if pages:
            self._ensure_private()
        self._take_pages(pages)
        if not pages:
            return
        lo = self._unique_serial
        self._unique_serial += pages
        if self._unique_runs and self._unique_runs[-1][1] == lo:
            self._unique_runs[-1][1] = lo + pages
        else:
            self._unique_runs.append([lo, lo + pages])
        self._unique_pages += pages
        self._bump_epoch()

    def dirty_pages(self, pages: int) -> None:
        self.dirty(pages_to_bytes(pages))

    def secure_erase(self) -> int:
        """Zero every page (the §3.4 amnesia step).  Returns pages wiped."""
        wiped = self._total_pages
        self._zero_pages = wiped
        self._image_runs = {}
        self._image_pages = 0
        self._unique_runs = []
        self._unique_pages = 0
        self._erased = True
        self._cow_shared = False
        self._bump_epoch()
        return wiped
