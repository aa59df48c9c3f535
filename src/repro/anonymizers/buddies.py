"""Buddies: anonymity metrics and posting safeguards [77] (§7 integration).

The paper plans to integrate Buddies to resist long-term intersection
attacks: each pseudonym gets a *buddy set* — the users indistinguishable
from it given everything the adversary has observed — and the system
warns or refuses to post when the set shrinks below a user-chosen
threshold.

The model here follows the Buddies paper's core accounting: every time a
linkable message appears for a pseudonym, the possible owners are
intersected with the set of users online at that moment.  The policy
layer then gates posting on the surviving set size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import AnonymizerError
from repro.obs import Observability


class PostingPolicy(enum.Enum):
    """What to do when a post would shrink the buddy set below threshold."""

    WARN = "warn"  # tell the user, post anyway
    BLOCK = "block"  # refuse the post


@dataclass
class PostDecision:
    """Outcome of one posting attempt."""

    allowed: bool
    buddy_set_size_before: int
    buddy_set_size_after: int
    warning: Optional[str] = None


@dataclass
class _NymState:
    buddy_set: Optional[Set[str]] = None  # None = no observation yet (everyone)
    posts: int = 0
    blocked_posts: int = 0


class BuddiesMonitor:
    """Tracks buddy sets per pseudonym and enforces a posting policy.

    ``population`` is the set of user identifiers the adversary considers
    as possible owners (e.g. all clients of the anonymity system).  The
    caller reports who is online whenever a nym wants to post; the
    monitor maintains the intersection and applies the policy.
    """

    def __init__(
        self,
        population: Set[str],
        threshold: int = 2,
        policy: PostingPolicy = PostingPolicy.BLOCK,
        obs=None,
    ) -> None:
        if threshold < 1:
            raise AnonymizerError(f"threshold must be >= 1, got {threshold}")
        if not population:
            raise AnonymizerError("population must be non-empty")
        self.population = set(population)
        self.threshold = threshold
        self.policy = policy
        self._nyms: Dict[str, _NymState] = {}
        self.decisions: List[PostDecision] = []
        self.obs = Observability() if obs is None else obs
        self._obs_posts = self.obs.metrics.counter("buddies.posts")
        self._obs_blocked = self.obs.metrics.counter("buddies.blocked_posts")

    def _state(self, nym_name: str) -> _NymState:
        return self._nyms.setdefault(nym_name, _NymState())

    # -- metrics -----------------------------------------------------------------

    def buddy_set(self, nym_name: str) -> Set[str]:
        state = self._state(nym_name)
        return set(self.population if state.buddy_set is None else state.buddy_set)

    def buddy_set_size(self, nym_name: str) -> int:
        return len(self.buddy_set(nym_name))

    def anonymity_bits(self, nym_name: str) -> float:
        """log2 of the buddy set size: the user-facing anonymity metric."""
        import math

        size = self.buddy_set_size(nym_name)
        return math.log2(size) if size > 0 else float("-inf")

    # -- the safeguard ---------------------------------------------------------------

    def attempt_post(self, nym_name: str, online_users: Set[str]) -> PostDecision:
        """Gate one linkable post given who the adversary sees online.

        A posted message lets the adversary intersect the nym's buddy set
        with ``online_users``; the monitor evaluates that shrinkage
        *before* allowing the post.
        """
        state = self._state(nym_name)
        before = self.buddy_set(nym_name)
        projected = before & (online_users | set())
        warning = None
        allowed = True
        if len(projected) < self.threshold:
            warning = (
                f"posting now would shrink {nym_name!r}'s buddy set to "
                f"{len(projected)} (< {self.threshold})"
            )
            if self.policy is PostingPolicy.BLOCK:
                allowed = False
        if allowed:
            state.buddy_set = projected
            state.posts += 1
            self._obs_posts.inc()
        else:
            state.blocked_posts += 1
            self._obs_blocked.inc()
        self.obs.event(
            "buddies.post",
            nym=nym_name,
            allowed=allowed,
            before=len(before),
            after=len(projected) if allowed else len(before),
        )
        decision = PostDecision(
            allowed=allowed,
            buddy_set_size_before=len(before),
            buddy_set_size_after=len(projected) if allowed else len(before),
            warning=warning,
        )
        self.decisions.append(decision)
        return decision

    def reset_nym(self, nym_name: str) -> None:
        """A discarded nym's pseudonym is abandoned; a fresh one starts
        with the full population again (the ephemeral-nym defense)."""
        self._nyms.pop(nym_name, None)

    def stats(self, nym_name: str) -> Dict[str, int]:
        state = self._state(nym_name)
        return {
            "posts": state.posts,
            "blocked_posts": state.blocked_posts,
            "buddy_set_size": self.buddy_set_size(nym_name),
        }
