"""Fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a deterministic schedule of :class:`FaultSpec`
entries.  Plans come from an explicit list (tests pinning one exact
failure) or from :meth:`FaultPlan.seeded` (a :class:`SeededRng` fork
drawing a reproducible chaos scenario).  Times are measured in seconds
**after the injector is armed**, so the same plan composes onto any
workload regardless of how much simulated time bootstrapping consumed.

Two delivery styles exist, chosen by the fault kind:

* **timed** faults fire on the timeline at their scheduled instant and
  mutate the world directly (a relay leaves the consensus, a wire flaps,
  a nymbox's VMs crash);
* **inline** faults arm at their scheduled instant but bite only when the
  matching operation next runs (`cloud.upload` fails the next upload,
  `tor.circuit_build` fails the next circuit construction) — modelling
  transient errors that only exist on the request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import SimulationError
from repro.sim.rng import SeededRng

#: Faults applied to the world at their scheduled time.
TIMED_KINDS = frozenset(
    {
        "tor.relay_churn",
        "tor.circuit_teardown",
        "net.link_flap",
        "vmm.crash",
        "fleet.host_crash",
        "fleet.host_drain",
        "mixnet.node_crash",
        "tenancy.tenant_burst",
    }
)
#: Faults queued at their scheduled time and consumed by the next matching
#: operation.
INLINE_KINDS = frozenset({"tor.circuit_build", "cloud.upload", "cloud.download"})

ALL_KINDS = TIMED_KINDS | INLINE_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure.

    ``param`` is kind-specific: link-flap outage seconds, the fraction of
    an upload/download that lands before the connection dies, and unused
    elsewhere.  An empty ``target`` lets the injector pick a live victim
    deterministically at fire time.
    """

    at_s: float
    kind: str
    target: str = ""
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            known = ", ".join(sorted(ALL_KINDS))
            raise SimulationError(f"unknown fault kind {self.kind!r} (known: {known})")
        if self.at_s < 0:
            raise SimulationError(f"fault scheduled before arming: {self.at_s!r}")

    @property
    def timed(self) -> bool:
        return self.kind in TIMED_KINDS

    def export(self) -> dict:
        return {
            "at_s": round(self.at_s, 6),
            "kind": self.kind,
            "target": self.target,
            "param": round(self.param, 6),
        }


class FaultPlan:
    """An ordered, immutable schedule of faults."""

    def __init__(self, events: Sequence[FaultSpec]) -> None:
        self.events: tuple = tuple(
            sorted(events, key=lambda e: (e.at_s, e.kind, e.target))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.events)

    def by_kind(self, kind: str) -> List[FaultSpec]:
        return [e for e in self.events if e.kind == kind]

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.events + other.events)

    @classmethod
    def seeded(
        cls,
        rng: SeededRng,
        duration_s: float,
        relay_churns: int = 1,
        circuit_teardowns: int = 1,
        circuit_build_failures: int = 0,
        link_flaps: int = 1,
        upload_failures: int = 1,
        download_failures: int = 0,
        vm_crashes: int = 1,
        mixnet_node_crashes: int = 0,
        tenant_bursts: int = 0,
    ) -> "FaultPlan":
        """Draw a reproducible chaos schedule across ``duration_s`` seconds.

        Every draw comes from ``rng``, so the same seed yields the same
        plan — the foundation of byte-identical chaos journals.
        """
        if duration_s <= 0:
            raise SimulationError(f"fault window must be positive: {duration_s!r}")
        events: List[FaultSpec] = []

        def spread(kind: str, count: int, lo: float, hi: float, param=None) -> None:
            for _ in range(count):
                at = rng.uniform(lo * duration_s, hi * duration_s)
                events.append(
                    FaultSpec(
                        at_s=at,
                        kind=kind,
                        param=param(rng) if param is not None else 0.0,
                    )
                )

        # Inline faults arm early so they bite the workload's first pass
        # through the matching operation; timed faults spread over the run.
        spread("cloud.upload", upload_failures, 0.0, 0.1,
               param=lambda r: r.uniform(0.2, 0.8))
        spread("cloud.download", download_failures, 0.0, 0.1,
               param=lambda r: r.uniform(0.2, 0.8))
        spread("tor.circuit_build", circuit_build_failures, 0.0, 0.1)
        spread("tor.relay_churn", relay_churns, 0.15, 0.9)
        spread("tor.circuit_teardown", circuit_teardowns, 0.15, 0.9)
        spread("net.link_flap", link_flaps, 0.15, 0.9,
               param=lambda r: r.uniform(2.0, 8.0))
        spread("vmm.crash", vm_crashes, 0.3, 0.9)
        # Appended last: earlier kinds' draws must not move when a plan
        # adds mixnet churn, or existing same-seed journals would change.
        spread("mixnet.node_crash", mixnet_node_crashes, 0.15, 0.9)
        # Appended after mixnet churn, same rule: the tenancy kind's
        # draws must not perturb any earlier kind's schedule.
        spread("tenancy.tenant_burst", tenant_bursts, 0.2, 0.8,
               param=lambda r: r.uniform(8.0, 64.0))  # burst debt, MiB
        return cls(events)

    def __repr__(self) -> str:
        kinds = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
        return f"FaultPlan({len(self.events)} faults: {summary})"
