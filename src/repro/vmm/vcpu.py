"""Physical CPU model and virtualized execution timing.

Reproduces the CPU side of §5.2: a quad-core host runs single-vCPU guests;
hardware virtualization costs about 20% on a CPU-bound benchmark; and when
more guests than cores run in parallel, each guest's share of a core
shrinks — but real workloads have brief I/O and timer gaps that let
co-scheduled guests overlap, so measured parallel throughput lands a bit
*above* the perfect-sharing prediction (the Figure 4 "actual vs expected"
gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import HypervisorError
from repro.obs import Observability
from repro.sim.sharing import processor_sharing_times


@dataclass(frozen=True)
class ParallelRunResult:
    """Timing of one job in a parallel batch."""

    work_units: float
    duration_s: float

    @property
    def throughput(self) -> float:
        if self.duration_s == 0:
            return float("inf")
        return self.work_units / self.duration_s


class CpuModel:
    """The host's cores plus the cost model for running guests on them.

    Args:
        cores: Physical cores (the paper's host is an Intel i7 quad core).
        core_speed: Work units per second a core executes natively.
        virtualization_overhead: Fractional slowdown for guest execution
            (~0.20 measured in §5.2).
        interleave_bonus: Fraction of a contended guest's nominal share it
            recovers by overlapping with other guests' idle gaps.  Only
            applies when guests outnumber cores.
    """

    def __init__(
        self,
        cores: int = 4,
        core_speed: float = 1.0,
        virtualization_overhead: float = 0.20,
        interleave_bonus: float = 0.12,
        obs=None,
    ) -> None:
        if cores <= 0:
            raise HypervisorError(f"cores must be positive, got {cores}")
        if not 0 <= virtualization_overhead < 1:
            raise HypervisorError(
                f"virtualization overhead must be in [0, 1), got {virtualization_overhead}"
            )
        if interleave_bonus < 0:
            raise HypervisorError(f"negative interleave bonus: {interleave_bonus}")
        self.cores = cores
        self.core_speed = core_speed
        self.virtualization_overhead = virtualization_overhead
        self.interleave_bonus = interleave_bonus
        self.obs = Observability() if obs is None else obs
        self._job_runs = self.obs.metrics.counter("vmm.vcpu.jobs")
        self._job_hist = self.obs.metrics.histogram("vmm.vcpu.job_s")

    # -- native execution ------------------------------------------------------

    def run_native(self, work_units: float) -> float:
        """Seconds for a single-threaded native job."""
        if work_units < 0:
            raise HypervisorError(f"negative work: {work_units}")
        return work_units / self.core_speed

    # -- virtualized execution ---------------------------------------------------

    def guest_work(self, work_units: float) -> float:
        """Effective work after the virtualization tax."""
        return work_units * (1.0 + self.virtualization_overhead)

    def run_guests_parallel(self, work_units: Sequence[float]) -> List[ParallelRunResult]:
        """Run one single-vCPU job per guest, all starting together."""
        inflated = [self.guest_work(w) for w in work_units]
        contended = len(work_units) > self.cores
        capacity = self.cores * self.core_speed
        if contended:
            # Idle-gap overlap recovers part of the contention loss.
            capacity *= 1.0 + self.interleave_bonus
        times = processor_sharing_times(inflated, capacity, max_share=self.core_speed)
        for elapsed in times:
            self._job_runs.inc()
            self._job_hist.observe(elapsed)
        return [
            ParallelRunResult(work_units=w, duration_s=t)
            for w, t in zip(work_units, times)
        ]

    def expected_parallel_duration(self, work_units: float, guests: int) -> float:
        """Perfect-sharing prediction from the single-guest run (Fig 4's line)."""
        if guests <= 0:
            raise HypervisorError(f"guests must be positive, got {guests}")
        share = min(self.core_speed, self.cores * self.core_speed / guests)
        return self.guest_work(work_units) / share
