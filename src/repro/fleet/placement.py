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

The fleet asks for one host at a time: :meth:`Fleet.place` calls
:meth:`PlacementPolicy.choose` once per arrival, and evacuation calls it
once per relaunch, each time against live fleet state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import FleetError
from repro.fleet.host import HostHandle


class PlacementPolicy:
    """Chooses one host from the admissible candidates (or ``None``).

    ``choose`` receives the fleet's own candidate list: read it, never
    mutate it.
    """

    name = "abstract"

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FirstFit(PlacementPolicy):
    """The lowest-numbered host with room: packs the front of the fleet."""

    name = "first-fit"

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        return candidates[0] if candidates else None


class LeastLoaded(PlacementPolicy):
    """The emptiest host: spreads load, maximizes per-nym headroom."""

    name = "least-loaded"

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        if not candidates:
            return None
        return min(candidates, key=lambda h: (h.used_bytes, h.host_id))


class KsmAware(PlacementPolicy):
    """Co-locate nyms sharing a base image to maximize KSM merging.

    Preference order: (1) the host already running the most copies of
    this image (deepening an existing colony shares the whole image
    cache); (2) otherwise the host carrying the fewest *other* images,
    least-loaded first — starting a new colony where it will pollute the
    fewest existing ones.
    """

    name = "ksm-aware"

    def choose(
        self, candidates: List[HostHandle], image_id: str
    ) -> Optional[HostHandle]:
        if not candidates:
            return None
        colonies = [h for h in candidates if h.image_count(image_id) > 0]
        if colonies:
            return max(
                colonies,
                # Ties go to the smallest host id, as in the min() below:
                # the reversed id key makes the smallest id the largest.
                key=lambda h: (h.image_count(image_id), _reverse_id_key(h.host_id)),
            )
        return min(
            candidates,
            key=lambda h: (len(h.images()), h.used_bytes, h.host_id),
        )


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
