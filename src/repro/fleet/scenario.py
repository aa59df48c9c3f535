"""`run_fleet`: the cluster-scale capacity scenario behind `repro fleet`.

Launches ~1000 nymboxes over 64 simulated hosts from one seeded arrival
stream, injects host-crash faults, and measures what each placement
policy does to cluster RAM — the paper's §5.2 samepage-merging effect
promoted to a fleet-level placement question.  Every policy replays the
*identical* workload on its own fresh :class:`Timeline` with the same
seed, so the comparison isolates placement alone; the policy under test
additionally exports a byte-reproducible event journal.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FleetCapacityError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet.fleet import Fleet, FleetStats
from repro.fleet.placement import PLACEMENT_POLICIES
from repro.fleet.shard import (
    ShardConfig,
    ShardedRunResult,
    combined_spool_bytes,
    resume_sharded_fleet,
    run_sharded_fleet,
)
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies
from repro.vmm.vm import MIB
from repro.workloads.fleet import fleet_workload


@dataclass(frozen=True)
class PolicyResult:
    """One policy's end-of-run accounting."""

    policy: str
    stats: FleetStats
    rejected: int
    sim_seconds: float
    journal_events: int

    def export(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "rejected": self.rejected,
            "sim_seconds": round(self.sim_seconds, 3),
            "journal_events": self.journal_events,
            **self.stats.export(),
        }


@dataclass
class FleetReport:
    """The BENCH_fleet.json payload."""

    seed: int
    hosts: int
    nyms: int
    primary_policy: str
    results: List[PolicyResult] = field(default_factory=list)

    def result(self, policy: str) -> PolicyResult:
        for r in self.results:
            if r.policy == policy:
                return r
        raise KeyError(policy)

    @property
    def ksm_aware_beats_first_fit(self) -> bool:
        try:
            return (
                self.result("ksm-aware").stats.ksm_saved_bytes
                > self.result("first-fit").stats.ksm_saved_bytes
            )
        except KeyError:
            return False

    def export(self) -> Dict[str, object]:
        return {
            "bench": "fleet",
            "seed": self.seed,
            "hosts": self.hosts,
            "nyms": self.nyms,
            "primary_policy": self.primary_policy,
            "ksm_aware_beats_first_fit": self.ksm_aware_beats_first_fit,
            "results": [r.export() for r in self.results],
        }

    def summary(self) -> str:
        lines = [
            f"fleet bench: {self.nyms} nyms over {self.hosts} hosts "
            f"(seed {self.seed}, primary policy {self.primary_policy})",
            f"{'policy':<14} {'resident':>8} {'parked':>6} {'evac':>5} "
            f"{'crashes':>7} {'used MiB':>10} {'ksm MiB':>9} {'colonies':>8}",
        ]
        for r in self.results:
            s = r.stats
            lines.append(
                f"{r.policy:<14} {s.nyms_resident:>8} {s.nyms_parked:>6} "
                f"{s.evacuations:>5} {s.host_crashes:>7} "
                f"{s.used_bytes / MIB:>10.0f} {s.ksm_saved_bytes / MIB:>9.0f} "
                f"{s.host_image_pairs:>8}"
            )
        verdict = "yes" if self.ksm_aware_beats_first_fit else "NO"
        lines.append(f"ksm-aware saves more RAM than first-fit: {verdict}")
        return "\n".join(lines)


def _run_policy(
    policy: str,
    seed: int,
    hosts: int,
    nyms: int,
    host_crashes: int,
    journal_path: Optional[str],
    idle_s: float = 0.0,
    flash_clone: bool = True,
    base_policies: Optional[FleetPolicies] = None,
) -> PolicyResult:
    """One complete fleet run for one policy, on its own timeline."""
    timeline = Timeline(seed=seed)
    base = base_policies if base_policies is not None else FleetPolicies()
    fleet = Fleet(
        timeline, hosts=hosts,
        policies=base.with_placement(policy),
        flash_clone=flash_clone,
    )
    arrivals = fleet_workload(timeline.fork_rng("fleet.workload"), nyms)

    # Faults spread across the expected run length (arrivals advance time
    # by interarrival gaps plus each anon boot, ~10 s per nym).
    expected_s = max(60.0, nyms * 10.5)
    plan = FaultPlan.seeded(
        timeline.fork_rng("fleet.faults"),
        duration_s=expected_s,
        relay_churns=0, circuit_teardowns=0, link_flaps=0,
        upload_failures=0, vm_crashes=0,
        host_crashes=host_crashes,
    )
    FaultInjector(timeline, plan).arm(manager=fleet)

    rejected = 0
    for arrival in arrivals:
        timeline.sleep(arrival.interarrival_s)
        try:
            fleet.place(arrival.name, arrival.image_id)
        except FleetCapacityError:
            rejected += 1
            continue
        if arrival.churn_bytes and arrival.name in fleet.nymboxes:
            fleet.touch(arrival.name, arrival.churn_bytes)

    if idle_s:
        timeline.sleep(idle_s)
    fleet.settle_ksm()
    stats = fleet.stats()
    timeline.obs.event(
        "fleet.run_complete", policy=policy,
        resident=stats.nyms_resident, ksm_saved_bytes=stats.ksm_saved_bytes,
    )
    journal_events = timeline.obs.journal.count()
    if journal_path:
        timeline.obs.journal.write_jsonl(journal_path)
    return PolicyResult(
        policy=policy,
        stats=stats,
        rejected=rejected,
        sim_seconds=timeline.now,
        journal_events=journal_events,
    )


def run_fleet(
    seed: int = 0,
    hosts: int = 64,
    nyms: int = 1000,
    policy: str = "ksm-aware",
    host_crashes: int = 2,
    compare: bool = True,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    idle_s: float = 0.0,
    flash_clone: bool = True,
    policies: Optional[FleetPolicies] = None,
) -> FleetReport:
    """Run the fleet scenario; compare all policies on the same workload.

    The ``policy`` under test runs first and owns the exported journal;
    with ``compare`` the remaining registered policies replay the same
    seed for the savings table.  ``policies`` (e.g. from
    ``--tenant-config``) carries tenant/autoscale policy into every run;
    its placement field is overridden per compared policy.
    """
    compared = [policy] + (
        [p for p in sorted(PLACEMENT_POLICIES) if p != policy] if compare else []
    )
    report = FleetReport(seed=seed, hosts=hosts, nyms=nyms, primary_policy=policy)
    for name in compared:
        report.results.append(
            _run_policy(
                name, seed=seed, hosts=hosts, nyms=nyms,
                host_crashes=host_crashes,
                journal_path=journal_path if name == policy else None,
                idle_s=idle_s,
                flash_clone=flash_clone,
                base_policies=policies,
            )
        )
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.export(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


# -- the sharded scale path ---------------------------------------------------


@dataclass
class ShardedFleetReport:
    """The BENCH_fleet.json payload for a sharded (scale-out) run.

    On top of the simulation-side accounting this records the two
    capacity numbers the scale story is about: **nyms per host** the
    cluster sustains (resident / live hosts at the end of the run) and
    **arrivals per wall-clock second** the simulator pushes through the
    sharded path.  Wall-clock figures live only in this report — never
    in the journals, which must stay byte-reproducible.  The
    ``environment`` block (worker processes used, cores available)
    travels with every wall-clock number so a trajectory measured on a
    single-core runner is never mistaken for a parallel speedup claim.
    """

    result: ShardedRunResult
    wall_seconds: float
    resumed: bool = False
    procs: int = 1
    trajectory: List[Dict[str, object]] = field(default_factory=list)

    @property
    def nyms_per_host(self) -> float:
        merged = self.result.merged
        hosts_up = merged["hosts_up"] or 1
        return merged["nyms_resident"] / hosts_up

    @property
    def arrivals_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.result.config.nyms / self.wall_seconds

    def export(self) -> Dict[str, object]:
        payload = {
            "bench": "fleet-sharded",
            **self.result.export(),
            "resumed": self.resumed,
            "procs": self.procs,
            "environment": bench_environment(self.procs),
            "wall_seconds": round(self.wall_seconds, 3),
            "nyms_per_host": round(self.nyms_per_host, 2),
            "arrivals_per_sec": round(self.arrivals_per_sec, 1),
        }
        if self.trajectory:
            payload["scale_trajectory"] = self.trajectory
        return payload

    def summary(self) -> str:
        config = self.result.config
        merged = self.result.merged
        lines = [
            f"sharded fleet: {config.nyms} nyms over {config.shards} shards x "
            f"{config.hosts_per_shard} hosts (seed {config.seed}, "
            f"policy {config.policy}, epoch {config.epoch_s:g} s, "
            f"procs {self.procs})"
            + (" [resumed]" if self.resumed else ""),
            f"  epochs {self.result.epochs}, resident {merged['nyms_resident']}, "
            f"parked {merged['nyms_parked']}, rejected {self.result.rejected}, "
            f"evacuations {merged['evacuations']}, crashes {merged['host_crashes']}",
            f"  RAM {merged['used_bytes'] / MIB:.0f} MiB used, "
            f"{merged['ksm_saved_bytes'] / MIB:.0f} MiB KSM-saved across "
            f"{merged['hosts_up']} live hosts",
            f"  sustained {self.nyms_per_host:.1f} nyms/host, "
            f"{self.arrivals_per_sec:.0f} arrivals/s wall, "
            f"{self.result.journal_events} journal events streamed",
        ]
        if self.trajectory:
            lines.append(
                f"  {'shards':>6} {'procs':>5} {'hosts':>6} {'resident':>8} "
                f"{'nyms/host':>9} {'arrivals/s':>10}"
            )
            for point in self.trajectory:
                lines.append(
                    f"  {point['shards']:>6} {point.get('procs', 1):>5} "
                    f"{point['hosts']:>6} "
                    f"{point['nyms_resident']:>8} {point['nyms_per_host']:>9.1f} "
                    f"{point['arrivals_per_sec']:>10.0f}"
                )
        return "\n".join(lines)


def run_fleet_sharded(
    seed: int = 0,
    shards: int = 4,
    hosts_per_shard: int = 16,
    nyms: int = 2000,
    policy: str = "ksm-aware",
    epoch_s: float = 120.0,
    host_crashes: int = 0,
    spool_dir: str = "fleet-spool",
    checkpoint_dir: Optional[str] = None,
    stop_after_epoch: Optional[int] = None,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    flash_clone: bool = True,
    scale_counts: Optional[List[int]] = None,
    procs: int = 1,
) -> ShardedFleetReport:
    """The scale-out scenario behind ``repro fleet --shards N``.

    Runs one sharded fleet (optionally checkpointing every epoch and
    optionally stopping early for the kill half of kill/resume) and, if
    ``scale_counts`` is given, replays the same seed and nym count
    across those shard counts to chart the capacity trajectory.
    ``procs`` spreads the shards over that many spawned OS workers (an
    executor choice only — the journal bytes are identical at any
    value); the trajectory then charts every shard count at one worker
    *and* at ``procs`` workers, so BENCH_fleet.json carries the measured
    serial-vs-parallel curve, not a claim.
    """
    config = ShardConfig(
        seed=seed, shards=shards, hosts_per_shard=hosts_per_shard, nyms=nyms,
        policy=policy, epoch_s=epoch_s, host_crashes=host_crashes,
        flash_clone=flash_clone,
    )
    start = time.perf_counter()
    result = run_sharded_fleet(
        config, spool_dir,
        checkpoint_dir=checkpoint_dir, stop_after_epoch=stop_after_epoch,
        procs=procs,
    )
    report = ShardedFleetReport(
        result=result, wall_seconds=time.perf_counter() - start, procs=procs
    )
    if scale_counts:
        report.trajectory = scale_trajectory(
            seed=seed, nyms=nyms, shard_counts=scale_counts,
            hosts_per_shard=hosts_per_shard, policy=policy, epoch_s=epoch_s,
            spool_root=spool_dir + "-scale", flash_clone=flash_clone,
            procs_counts=sorted({1, procs}),
        )
    if journal_path:
        _write_combined_spools(result.spool_paths, journal_path)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.export(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def resume_fleet_sharded(
    checkpoint_dir: str,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    procs: int = 1,
) -> ShardedFleetReport:
    """Resume a killed sharded run (``repro fleet --resume DIR``).

    ``procs`` is free to differ from the killed run's executor — a
    checkpoint is mode-neutral, so a serial run resumes parallel and
    vice versa with identical bytes.
    """
    start = time.perf_counter()
    _, result = resume_sharded_fleet(checkpoint_dir, procs=procs)
    report = ShardedFleetReport(
        result=result, wall_seconds=time.perf_counter() - start, resumed=True,
        procs=procs,
    )
    if journal_path:
        _write_combined_spools(result.spool_paths, journal_path)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.export(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def bench_environment(procs: int = 1) -> Dict[str, object]:
    """The execution-environment block wall-clock numbers travel with.

    A speedup figure is meaningless without knowing how many workers ran
    on how many cores — single-core runners legitimately show parallel
    runs *slower* (spawn overhead, no parallelism), and the CI gates key
    off ``cpu_count`` to skip the speedup assertion there while still
    enforcing byte-identity.
    """
    return {
        "procs": procs,
        "cpu_count": os.cpu_count() or 1,
    }


def scale_trajectory(
    seed: int,
    nyms: int,
    shard_counts: List[int],
    hosts_per_shard: int = 16,
    policy: str = "ksm-aware",
    epoch_s: float = 120.0,
    spool_root: str = "fleet-spool-scale",
    flash_clone: bool = True,
    procs_counts: Optional[List[int]] = None,
) -> List[Dict[str, object]]:
    """One trajectory point per (shard count, worker count), same seed.

    Records what the scale section of BENCH_fleet.json is for: the max
    sustainable nyms/host and the wall-clock arrivals/sec at each shard
    count, so the scale-out curve is a measured artifact, not a claim.
    ``procs_counts`` adds the executor dimension — each shard count is
    replayed under each worker count (capped at the shard count, since
    extra workers would idle), and every point carries its ``procs`` and
    environment block so the serial and parallel columns are comparable.
    """
    points: List[Dict[str, object]] = []
    for count in shard_counts:
        for procs in procs_counts or [1]:
            effective_procs = max(1, min(procs, count))
            if effective_procs != procs and effective_procs in (
                procs_counts or [1]
            ):
                continue  # the capped point already exists; don't duplicate
            config = ShardConfig(
                seed=seed, shards=count, hosts_per_shard=hosts_per_shard,
                nyms=nyms, policy=policy, epoch_s=epoch_s,
                flash_clone=flash_clone,
            )
            spool_dir = os.path.join(
                spool_root, f"shards-{count:02d}-procs-{effective_procs:02d}"
            )
            start = time.perf_counter()
            result = run_sharded_fleet(
                config, spool_dir, procs=effective_procs
            )
            wall = time.perf_counter() - start
            merged = result.merged
            hosts_up = merged["hosts_up"] or 1
            points.append(
                {
                    "shards": count,
                    "procs": effective_procs,
                    "environment": bench_environment(effective_procs),
                    "hosts": count * hosts_per_shard,
                    "nyms": nyms,
                    "epochs": result.epochs,
                    "nyms_resident": merged["nyms_resident"],
                    "rejected": result.rejected,
                    "nyms_per_host": round(merged["nyms_resident"] / hosts_up, 2),
                    "arrivals_per_sec": round(nyms / wall, 1) if wall > 0 else 0.0,
                    "wall_seconds": round(wall, 3),
                    "journal_events": result.journal_events,
                }
            )
    return points


def _write_combined_spools(spool_paths: List[str], journal_path: str) -> int:
    """Write the canonical concatenation (coordinator first, shards in
    id order) — the byte-comparable whole run."""
    data = combined_spool_bytes(spool_paths)
    with open(journal_path, "wb") as out:
        out.write(data)
    return len(data)
