"""Long-term intersection attacks [40, 58] and guard exposure (§3.5, §7).

Two adversaries:

* :class:`IntersectionAttack` — the classic statistical-disclosure
  adversary: it watches who is online whenever a linkable pseudonymous
  message appears, and intersects the candidate sets until one user
  remains.  Ephemeral, unlinkable nyms deny it the linkable message
  stream; a long-lived pseudonym feeds it.
* :class:`GuardExposureModel` — why Tor guard state must persist (§3.5):
  an adversary running a fraction of guard relays deanonymizes a client
  the first time the client picks a malicious guard.  Re-selecting guards
  every session (amnesiac Tor) multiplies the draws; persistent guards
  hold one draw per rotation period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.obs import Observability
from repro.sim.rng import SeededRng


@dataclass
class IntersectionAttack:
    """Statistical disclosure by intersecting online sets.

    ``population`` users each have an independent probability of being
    online during any epoch.  The target posts a linkable message in every
    epoch it is online.  The adversary intersects.
    """

    population: int
    online_probability: float
    rng: SeededRng
    obs: Optional[Observability] = None

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = Observability()

    def epochs_to_deanonymize(self, target: int = 0, max_epochs: int = 10_000) -> Optional[int]:
        """Epochs of linkable messages until the candidate set is {target}.

        Returns None if the attack has not converged after ``max_epochs``
        (e.g. because the messages are unlinkable and no epochs accrue).
        """
        candidates: Set[int] = set(range(self.population))
        for epoch in range(1, max_epochs + 1):
            online = {
                user
                for user in range(self.population)
                if user == target or self.rng.random() < self.online_probability
            }
            # A linkable message appeared this epoch (the target is online);
            # only users online now remain candidates.
            candidates &= online
            if candidates == {target}:
                self.obs.metrics.counter("attack.intersection.converged").inc()
                self.obs.event(
                    "intersection.converged",
                    population=self.population,
                    epochs=epoch,
                )
                return epoch
        self.obs.metrics.counter("attack.intersection.diverged").inc()
        return None

    def epochs_with_unlinkable_nyms(self) -> Optional[int]:
        """With one-shot ephemeral nyms no two messages are linkable, so
        every epoch restarts the attack: it never converges."""
        return None


@dataclass
class GuardSessionTrace:
    """What one simulated client history exposed to the guard adversary."""

    sessions: int
    distinct_guards: Set[str]
    compromised_at_session: Optional[int]

    @property
    def ever_compromised(self) -> bool:
        return self.compromised_at_session is not None


class GuardExposureModel:
    """Entry-guard compromise over many sessions.

    ``adversary_guards`` of the ``total_guards`` relay population are
    malicious.  Each guard (re)selection is a draw; a draw that includes a
    malicious guard compromises the client from that session on.
    """

    def __init__(
        self,
        rng: SeededRng,
        total_guards: int = 40,
        adversary_guards: int = 4,
        guards_per_client: int = 3,
        obs=None,
    ) -> None:
        if not 0 <= adversary_guards <= total_guards:
            raise ValueError("adversary guard count out of range")
        self.rng = rng
        self.guard_names = [f"guard{i:03d}" for i in range(total_guards)]
        self.malicious = set(self.guard_names[:adversary_guards])
        self.guards_per_client = guards_per_client
        self.obs = Observability() if obs is None else obs
        self._obs_draws = self.obs.metrics.counter("attack.guard.draws")
        self._obs_compromises = self.obs.metrics.counter("attack.guard.compromises")

    def _draw(self) -> List[str]:
        self._obs_draws.inc()
        return self.rng.sample(self.guard_names, self.guards_per_client)

    def simulate(self, sessions: int, rotate_every_session: bool) -> GuardSessionTrace:
        """Run ``sessions`` client sessions with or without guard persistence."""
        distinct: Set[str] = set()
        compromised_at: Optional[int] = None
        current = self._draw()
        distinct.update(current)
        for session in range(1, sessions + 1):
            if rotate_every_session and session > 1:
                current = self._draw()
                distinct.update(current)
            if compromised_at is None and any(g in self.malicious for g in current):
                compromised_at = session
                self._obs_compromises.inc()
        return GuardSessionTrace(
            sessions=sessions,
            distinct_guards=distinct,
            compromised_at_session=compromised_at,
        )

    def compromise_rate(
        self, sessions: int, rotate_every_session: bool, trials: int = 200
    ) -> float:
        """Fraction of clients compromised within ``sessions`` sessions."""
        hits = 0
        for trial in range(trials):
            model = GuardExposureModel(
                rng=self.rng.fork(f"trial:{rotate_every_session}:{trial}"),
                total_guards=len(self.guard_names),
                adversary_guards=len(self.malicious),
                guards_per_client=self.guards_per_client,
                obs=self.obs,
            )
            if model.simulate(sessions, rotate_every_session).ever_compromised:
                hits += 1
        return hits / trials


def linkable_by_exit(exit_ips_a: Sequence[str], exit_ips_b: Sequence[str]) -> bool:
    """Crude linkage heuristic a destination can apply: shared exit + timing.

    Distinct per-nym anonymizer instances make a shared-exit coincidence
    possible but uninformative; a *shared* Tor client guarantees it.
    """
    return bool(set(exit_ips_a) & set(exit_ips_b))


def candidate_count_after_epochs(
    population: int, online_probability: float, epochs: int
) -> float:
    """Expected surviving candidates: population * p^epochs (analytic check)."""
    return population * (online_probability ** epochs)
