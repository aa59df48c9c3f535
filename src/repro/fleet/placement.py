"""Pluggable placement policies: which host gets the next nymbox.

Every policy is a pure, deterministic function of the candidate list —
same fleet state, same answer — so whole-cluster runs stay bit-identical
across seeds.  Candidates arrive pre-filtered by admission control (not
crashed, not draining, enough free RAM) in ``host_id`` order.

The interesting one is :class:`KsmAware`: §5.2 of the paper shows
samepage merging reclaiming most of a nymbox's image cache when guests
share a base image, but KSM only merges *within* a host — so savings
depend directly on co-locating same-image nyms.  The policy packs each
base image onto as few hosts as possible.

Wave batching: policies that set ``supports_batch`` implement
:meth:`PlacementPolicy.choose_batch` over a :class:`WaveView` — per-host
accounting held as numpy arrays, admissibility and the calm-watermark
filter evaluated as vector masks, and placements applied as running sums
— so a whole arrival wave is planned without O(hosts) Python-level work
per nym.  Every ``choose_batch`` is *exactly* equivalent to calling
:meth:`choose` once per request against the simulated state (the
byte-identical-journal tests in tests/test_fleet_wave.py pin this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

import numpy as _np

from repro.errors import FleetError
from repro.fleet.host import HostHandle


class WaveView:
    """Planner state for one arrival wave: per-host accounting as arrays.

    Built once per wave from the hosts' (cached) memory snapshots; every
    simulated placement updates the running sums in place.  The float
    watermark arithmetic matches the scalar admission check bit-for-bit
    (int64 → float64 division, same IEEE semantics for hosts below 2^53
    bytes of RAM).
    """

    def __init__(
        self,
        hosts: Sequence[HostHandle],
        need: int,
        footprint: int,
        used_delta: int,
        high_watermark: float,
    ) -> None:
        self.hosts = list(hosts)
        self.need = need
        self.footprint = footprint
        self.used_delta = used_delta
        self.high_watermark = high_watermark
        n = len(self.hosts)
        self.used = _np.zeros(n, dtype=_np.int64)
        self.free_ram = _np.zeros(n, dtype=_np.int64)
        self.total = _np.ones(n, dtype=_np.int64)
        self.alive = _np.zeros(n, dtype=bool)
        self.n_images = _np.zeros(n, dtype=_np.int64)
        self.image_counts: List[Dict[str, int]] = []
        for i, host in enumerate(self.hosts):
            counts = host.image_counts()
            self.image_counts.append(counts)
            if host.crashed or host.draining:
                self.free_ram[i] = -1
                continue
            snap = host.memory_snapshot()
            self.alive[i] = True
            self.used[i] = snap.used_bytes
            self.total[i] = host.total_bytes
            self.free_ram[i] = host.total_bytes - (snap.used_bytes - snap.fs_bytes)
            self.n_images[i] = len(counts)
        self._count_arrays: Dict[str, "_np.ndarray"] = {}

    # -- masks ----------------------------------------------------------------

    def candidate_mask(self):
        """Admissibility + calm-watermark filter, as one vector op.

        Mirrors ``Fleet._candidates``: hosts that stay under the high
        watermark after the placement, falling back to anyone with raw
        RAM headroom when no host is calm.
        """
        admissible = self.alive & (self.free_ram >= self.need)
        if not admissible.any():
            return admissible
        calm = admissible & (
            (self.used + self.footprint) / self.total <= self.high_watermark
        )
        return calm if calm.any() else admissible

    def counts_for(self, image_id: str):
        """Per-host resident counts of ``image_id`` (cached, kept updated)."""
        arr = self._count_arrays.get(image_id)
        if arr is None:
            arr = _np.fromiter(
                (counts.get(image_id, 0) for counts in self.image_counts),
                dtype=_np.int64,
                count=len(self.hosts),
            )
            self._count_arrays[image_id] = arr
        return arr

    # -- simulated placement ---------------------------------------------------

    def place(self, idx: int, image_id: str = "") -> None:
        """Apply one predicted placement to the running sums."""
        self.used[idx] += self.used_delta
        self.free_ram[idx] -= self.used_delta
        if image_id:
            counts = self.image_counts[idx]
            previous = counts.get(image_id, 0)
            counts[image_id] = previous + 1
            if previous == 0:
                self.n_images[idx] += 1
            arr = self._count_arrays.get(image_id)
            if arr is not None:
                arr[idx] += 1

    def mask_capacity(self, idx: int) -> int:
        """How many consecutive placements keep ``idx`` the chosen host.

        Only ``idx`` changes while a chunk lands on it, so the pick is
        stable until ``idx`` leaves the candidate mask (or the mask's
        regime flips from calm to fallback).  Admissibility capacity is
        exact integer arithmetic; the calm capacity solves the float
        watermark inequality and then verifies the boundary with the
        exact scalar comparison, so chunked assignment never disagrees
        with the one-at-a-time checks.
        """
        used = int(self.used[idx])
        free = int(self.free_ram[idx])
        total = int(self.total[idx])
        delta = self.used_delta
        n_adm = (free - self.need) // delta + 1 if free >= self.need else 0
        admissible = self.alive & (self.free_ram >= self.need)
        calm = admissible & (
            (self.used + self.footprint) / self.total <= self.high_watermark
        )
        if calm.any():
            n_calm = self._calm_count(used, total)
            return max(1, min(n_calm, n_adm))
        return max(1, n_adm)

    def _calm_count(self, used: int, total: int) -> int:
        """Max placements on a host while it passes the calm check first."""
        high = self.high_watermark
        footprint = self.footprint
        delta = self.used_delta
        if (used + footprint) / total > high:
            return 0
        n = int((high * total - used - footprint) // delta) + 1
        if n < 1:
            n = 1
        while n > 0 and (used + (n - 1) * delta + footprint) / total > high:
            n -= 1
        while (used + n * delta + footprint) / total <= high:
            n += 1
        return n


class PlacementPolicy:
    """Chooses one host from the admissible candidates (or ``None``).

    ``choose`` receives the fleet's own candidate list: read it, never
    mutate it.
    """

    name = "abstract"
    #: Policies that implement :meth:`choose_batch`; others fall back to
    #: per-arrival :meth:`choose` calls inside ``Fleet.place_many``.
    supports_batch = False

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        raise NotImplementedError

    def choose_batch(
        self, candidates: WaveView, requests: Sequence
    ) -> List[Optional[int]]:
        """Plan one host index (or ``None``) per request against ``candidates``.

        Must be exactly equivalent to calling :meth:`choose` per request
        with the view updated between picks.  Rejected requests leave the
        view unchanged (skip semantics); callers enforcing raise
        semantics truncate at the first ``None``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FirstFit(PlacementPolicy):
    """The lowest-numbered host with room: packs the front of the fleet."""

    name = "first-fit"
    supports_batch = True

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        return candidates[0] if candidates else None

    def choose_batch(
        self, candidates: WaveView, requests: Sequence
    ) -> List[Optional[int]]:
        """Running-sum assignment: fill each host to its capacity in order.

        First-fit sticks with the first candidate host until it leaves
        the mask, so whole chunks of the wave assign in one capacity
        computation instead of one mask scan per nym.
        """
        view = candidates
        picks: List[Optional[int]] = []
        remaining = len(requests)
        while remaining > 0:
            mask = view.candidate_mask()
            if not mask.any():
                # Rejections leave the view unchanged, so every later
                # request (same RAM need) rejects too.
                picks.extend([None] * remaining)
                break
            idx = int(_np.argmax(mask))
            take = min(view.mask_capacity(idx), remaining)
            for _ in range(take):
                picks.append(idx)
                view.place(idx)
            remaining -= take
        return picks


class LeastLoaded(PlacementPolicy):
    """The emptiest host: spreads load, maximizes per-nym headroom."""

    name = "least-loaded"
    supports_batch = True

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.used_bytes, h.host_id))

    def choose_batch(
        self, candidates: WaveView, requests: Sequence
    ) -> List[Optional[int]]:
        """Water-filling as array ops: each pick is a masked argmin over
        the running used-bytes sums (first occurrence of the minimum =
        lowest host_id, exactly the sequential tiebreak)."""
        view = candidates
        int_max = _np.iinfo(_np.int64).max
        picks: List[Optional[int]] = []
        for index in range(len(requests)):
            mask = view.candidate_mask()
            if not mask.any():
                picks.extend([None] * (len(requests) - index))
                break
            masked_used = _np.where(mask, view.used, int_max)
            idx = int(_np.argmin(masked_used))
            picks.append(idx)
            view.place(idx)
        return picks


class KsmAware(PlacementPolicy):
    """Co-locate nyms sharing a base image to maximize KSM merging.

    Preference order: (1) the host already running the most copies of
    this image (deepening an existing colony shares the whole image
    cache); (2) otherwise the host carrying the fewest *other* images,
    least-loaded first — starting a new colony where it will pollute the
    fewest existing ones.
    """

    name = "ksm-aware"
    supports_batch = True

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        if not candidates:
            return None
        colonies = [h for h in candidates if h.image_count(image_id) > 0]
        if colonies:
            return max(
                colonies,
                # max() keeps the first of equals, so negate host_id order
                # by sorting ahead of time; instead pick explicitly:
                key=lambda h: (h.image_count(image_id), _reverse_id_key(h.host_id)),
            )
        return min(
            candidates,
            key=lambda h: (len(h.images()), h.used_bytes, h.host_id),
        )

    def choose_batch(
        self, candidates: WaveView, requests: Sequence
    ) -> List[Optional[int]]:
        """Pack whole per-image request groups in one pass.

        A run of same-image arrivals keeps deepening the chosen colony
        (its count only grows, so it stays the argmax) until the host
        leaves the candidate mask — so the run assigns in chunks bounded
        by ``mask_capacity`` instead of re-scoring every host per nym.
        """
        view = candidates
        int_max = _np.iinfo(_np.int64).max
        picks: List[Optional[int]] = []
        total = len(requests)
        start = 0
        while start < total:
            image_id = requests[start].image_id
            run = 1
            while (
                start + run < total
                and requests[start + run].image_id == image_id
            ):
                run += 1
            placed = 0
            while placed < run:
                mask = view.candidate_mask()
                if not mask.any():
                    # Image-independent rejection: the whole tail rejects.
                    picks.extend([None] * (total - start - placed))
                    return picks
                image_counts = view.counts_for(image_id)
                colonies = mask & (image_counts > 0)
                if colonies.any():
                    masked_counts = _np.where(colonies, image_counts, -1)
                    idx = int(_np.argmax(masked_counts))
                else:
                    masked_images = _np.where(mask, view.n_images, int_max)
                    fewest = mask & (view.n_images == masked_images.min())
                    masked_used = _np.where(fewest, view.used, int_max)
                    idx = int(_np.argmin(masked_used))
                take = min(view.mask_capacity(idx), run - placed)
                for _ in range(take):
                    picks.append(idx)
                    view.place(idx, image_id)
                placed += take
            start += run
        return picks


def _reverse_id_key(host_id: str) -> tuple:
    """Sort key making *smaller* host ids win inside ``max()``."""
    return tuple(-ord(c) for c in host_id)


PLACEMENT_POLICIES: Dict[str, Type[PlacementPolicy]] = {
    FirstFit.name: FirstFit,
    LeastLoaded.name: LeastLoaded,
    KsmAware.name: KsmAware,
}


def make_policy(name: str) -> PlacementPolicy:
    try:
        return PLACEMENT_POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(PLACEMENT_POLICIES))
        raise FleetError(f"unknown placement policy {name!r} (known: {known})") from None
