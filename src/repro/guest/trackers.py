"""Third-party trackers: the profile-building adversary of §1 and §2.

"Today's Internet users must increasingly assume that by default all of
their online activities are tracked and that detailed profiles of their
identities and behaviors are being collected by every Web site they
visit [65], sold for marketing purposes [17, 53]" — and Alice worries
the resulting ad profile will "out" her pregnancy [30].

An :class:`AdNetwork` is embedded on several first-party sites.  Each
visit, it reads-or-sets its third-party cookie in the visiting browser
profile and appends the visit to the profile keyed by that cookie.  One
browser for everything ⇒ one linked dossier; one nym per role ⇒ disjoint
stubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim.rng import SeededRng

_COOKIE_KEY_PREFIX = "third-party:"


@dataclass
class TrackingProfile:
    """What the ad network knows about one cookie identity."""

    cookie_id: str
    visits: List[str] = field(default_factory=list)

    def interests(self) -> Set[str]:
        """Crude interest segments inferred from visited hostnames."""
        segments = set()
        for hostname in self.visits:
            if "facebook" in hostname or "twitter" in hostname:
                segments.add("social")
            if "bbc" in hostname or "slashdot" in hostname:
                segments.add("news")
            if "babycenter" in hostname or "pregnancy" in hostname:
                segments.add("expecting-parent")  # the §2 hazard
            if "espn" in hostname:
                segments.add("sports")
        return segments


class AdNetwork:
    """A tracker embedded on a set of first-party sites."""

    def __init__(self, name: str, embedded_on: Set[str], rng: SeededRng) -> None:
        self.name = name
        self.embedded_on = set(embedded_on)
        self.rng = rng
        self.profiles: Dict[str, TrackingProfile] = {}

    def _cookie_key(self) -> str:
        return f"{_COOKIE_KEY_PREFIX}{self.name}"

    def observe_visit(self, browser, hostname: str) -> Optional[str]:
        """Called when ``browser`` loads ``hostname``.

        If this network is embedded there, it reads (or sets) its cookie
        in the browser's cookie jar and records the visit.  Returns the
        cookie id used, or None if the network is not on this site.
        """
        if hostname not in self.embedded_on:
            return None
        key = self._cookie_key()
        cookie_id = getattr(browser, "_tracker_ids", {}).get(key)
        if cookie_id is None:
            if not hasattr(browser, "_tracker_ids"):
                browser._tracker_ids = {}
            cookie_id = self.rng.token_hex(8)
            browser._tracker_ids[key] = cookie_id
            browser.set_cookie(key, len(cookie_id))  # persists with the jar
        profile = self.profiles.setdefault(cookie_id, TrackingProfile(cookie_id))
        profile.visits.append(hostname)
        return cookie_id

    # -- the adversary's questions -----------------------------------------------

    def can_link(self, hostname_a: str, hostname_b: str) -> bool:
        """Does any single profile span both sites?"""
        return any(
            hostname_a in profile.visits and hostname_b in profile.visits
            for profile in self.profiles.values()
        )

    def largest_dossier(self) -> int:
        if not self.profiles:
            return 0
        return max(len(set(p.visits)) for p in self.profiles.values())


def browse_with_trackers(manager, nymbox, hostname: str, networks: List[AdNetwork]):
    """Browse a page and let every embedded tracker observe it."""
    load = manager.timed_browse(nymbox, hostname)
    for network in networks:
        network.observe_visit(nymbox.browser, hostname)
    return load
