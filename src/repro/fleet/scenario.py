"""The cluster-scale capacity scenario behind ``repro fleet``.

Launches nymboxes over a sharded cluster of simulated hosts from one
seeded arrival stream, injects host crashes at epoch barriers, and
measures what each placement policy does to cluster RAM: the paper's
§5.2 samepage-merging effect promoted to a fleet-level placement
question.  :func:`run_fleet_sharded` runs the policy under test, which
owns the streamed spools and the exported journal, then replays the
*identical* config under every other policy, so the comparison isolates
placement alone.  :func:`resume_fleet_sharded` finishes a killed run
from its checkpoint.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.fleet.placement import PLACEMENT_POLICIES
from repro.fleet.shard import (
    ShardConfig,
    ShardedRunResult,
    combined_spool_bytes,
    resume_sharded_fleet,
    run_sharded_fleet,
)
from repro.vmm.vm import MIB


@dataclass
class ShardedFleetReport:
    """The BENCH_fleet.json payload of a ``repro fleet`` run.

    On top of the simulation-side accounting this records the two
    capacity numbers the scale story is about: **nyms per host** the
    cluster sustains (resident / live hosts at the end of the run) and
    **arrivals per wall-clock second** the simulator pushes through the
    sharded path.  Wall-clock figures time the primary run alone and
    live only in this report — never in the journals, which must stay
    byte-reproducible.  The ``environment`` block (worker processes
    used, cores available) travels with every wall-clock number so a
    trajectory measured on a single-core runner is never mistaken for a
    parallel speedup claim.  A comparing run also carries every other
    policy's merged totals in ``compared``.
    """

    result: ShardedRunResult
    wall_seconds: float
    resumed: bool = False
    procs: int = 1
    trajectory: List[Dict[str, object]] = field(default_factory=list)
    #: merged totals of the same config under each other placement
    #: policy, in sorted order; empty unless the run compared policies
    compared: List[Dict[str, object]] = field(default_factory=list)

    @property
    def policies(self) -> List[Dict[str, object]]:
        """Each policy's merged totals, the primary policy first."""
        primary = {"policy": self.result.config.policy, **self.result.merged}
        return [primary] + self.compared

    @property
    def ksm_aware_beats_first_fit(self) -> bool:
        """Whether ``ksm-aware`` saved strictly more KSM RAM than
        ``first-fit``; false unless both ran."""
        saved = {p["policy"]: p["ksm_saved_bytes"] for p in self.policies}
        try:
            return saved["ksm-aware"] > saved["first-fit"]
        except KeyError:
            return False

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
            "bench": "fleet",
            **self.result.export(),
            "policies": self.policies,
            "ksm_aware_beats_first_fit": self.ksm_aware_beats_first_fit,
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
        if self.compared:
            lines.append(
                f"  {'policy':<14} {'resident':>8} {'parked':>6} "
                f"{'rejected':>8} {'evac':>5} {'crashes':>7} "
                f"{'used MiB':>10} {'ksm MiB':>9}"
            )
            for totals in self.policies:
                lines.append(
                    f"  {totals['policy']:<14} {totals['nyms_resident']:>8} "
                    f"{totals['nyms_parked']:>6} {totals['rejected']:>8} "
                    f"{totals['evacuations']:>5} {totals['host_crashes']:>7} "
                    f"{totals['used_bytes'] / MIB:>10.0f} "
                    f"{totals['ksm_saved_bytes'] / MIB:>9.0f}"
                )
            verdict = "yes" if self.ksm_aware_beats_first_fit else "NO"
            lines.append(f"ksm-aware saves more RAM than first-fit: {verdict}")
        return "\n".join(lines)


def run_fleet_sharded(
    seed: int = 0,
    shards: int = 4,
    hosts_per_shard: int = 16,
    nyms: int = 2000,
    policy: str = "ksm-aware",
    epoch_s: float = 120.0,
    host_crashes: int = 0,
    compare: bool = True,
    spool_dir: str = "fleet-spool",
    checkpoint_dir: Optional[str] = None,
    stop_after_epoch: Optional[int] = None,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    scale_counts: Optional[List[int]] = None,
    procs: int = 1,
) -> ShardedFleetReport:
    """The scenario behind ``repro fleet``.

    Runs one sharded fleet under ``policy`` (optionally checkpointing
    every epoch and optionally stopping early for the kill half of
    kill/resume).  If that run completes and ``compare`` is set, the
    same config runs again under each other registered policy, in a
    temporary spool directory removed afterwards, for the savings
    table.  If ``scale_counts`` is given, the same seed and nym count
    are replayed across those shard counts to chart the capacity
    trajectory.  ``procs`` spreads the shards of every run over that
    many spawned OS workers (an executor choice only — the journal
    bytes are identical at any value); the trajectory then charts every
    shard count at one worker *and* at ``procs`` workers, so
    BENCH_fleet.json carries the measured serial-vs-parallel curve, not
    a claim.
    """
    config = ShardConfig(
        seed=seed, shards=shards, hosts_per_shard=hosts_per_shard, nyms=nyms,
        policy=policy, epoch_s=epoch_s, host_crashes=host_crashes,
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
    if compare and result.completed:
        with tempfile.TemporaryDirectory(prefix="fleet-compare-") as root:
            for other in sorted(PLACEMENT_POLICIES):
                if other != policy:
                    rerun = run_sharded_fleet(
                        replace(config, policy=other),
                        os.path.join(root, other), procs=procs,
                    )
                    report.compared.append({"policy": other, **rerun.merged})
    if scale_counts:
        report.trajectory = scale_trajectory(
            seed=seed, nyms=nyms, shard_counts=scale_counts,
            hosts_per_shard=hosts_per_shard, policy=policy, epoch_s=epoch_s,
            spool_root=spool_dir + "-scale", procs_counts=sorted({1, procs}),
        )
    return _write_outputs(report, journal_path, out_path)


def resume_fleet_sharded(
    checkpoint_dir: str,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    procs: int = 1,
) -> ShardedFleetReport:
    """Resume a killed sharded run (``repro fleet --resume DIR``).

    The run is replayed to its checkpoint, checked against the spools it
    recorded, and run to the end.  ``procs`` is free to differ from the
    killed run's executor — a checkpoint is mode-neutral, so a serial
    run resumes parallel and vice versa with identical bytes.
    """
    start = time.perf_counter()
    _, result = resume_sharded_fleet(checkpoint_dir, procs=procs)
    report = ShardedFleetReport(
        result=result, wall_seconds=time.perf_counter() - start, resumed=True,
        procs=procs,
    )
    return _write_outputs(report, journal_path, out_path)


def _write_outputs(
    report: ShardedFleetReport,
    journal_path: Optional[str],
    out_path: Optional[str],
) -> ShardedFleetReport:
    """Write the combined journal (coordinator first, shards in id order:
    the byte-comparable whole run) and the ``--out`` report, if asked."""
    if journal_path:
        with open(journal_path, "wb") as out:
            out.write(combined_spool_bytes(report.result.spool_paths))
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.export(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def bench_environment(procs: int = 1) -> Dict[str, object]:
    """The execution-environment block wall-clock numbers travel with.

    A wall-clock figure means little without knowing how many workers
    ran on how many cores: on a single-core runner a parallel run is
    legitimately *slower* (spawn overhead, no parallelism).  Every report
    and every scale-trajectory point records this block so that a reader
    can tell serial from parallel numbers and compare runs from the same
    kind of machine.  No check reads it; byte-identity holds on any core
    count.
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
