"""Sharded fleet scale-out: regions, epoch barriers, checkpoint/resume.

One :class:`~repro.fleet.fleet.Fleet` on one in-memory
:class:`~repro.sim.clock.Timeline` tops out around the 64-host/1000-nym
scenario.  The paper's unlinkability story is about *populations* of
nyms, so the scale path partitions the fleet into **shards**: each shard
owns its own timeline, its own hosts, its own seeded RNG streams, and
its own journal — streamed to a JSONL spool on disk through a bounded
window — and a small coordinator advances all shards through coarse
**epoch barriers**.

Determinism is preserved by construction:

* the global arrival stream is drawn once from the run seed and
  partitioned round-robin, each arrival keeping its absolute arrival
  time, so shard membership and timing are pure functions of the seed;
* shards run strictly in shard-id order within every epoch, and the
  coordinator records per-shard and merged accounting in that same
  fixed order at each barrier — two same-seed runs produce
  byte-identical spools, shard by shard;
* host-crash faults are scheduled from a forked RNG onto (shard, epoch)
  slots and fired inline at barriers, never through timeline callbacks,
  which keeps every shard quiescent (empty event queue) at each barrier.

That quiescence is what makes **checkpoint/resume** well-defined: at a
barrier every shard is a closed object graph (timeline + fleet + cursor)
with no pending callbacks, so it pickles whole.  A checkpoint directory
holds one pickle per shard, the coordinator journal, and a manifest with
every spool's byte offset.  Resume truncates each spool to its recorded
offset (cutting anything a killed run wrote past the checkpoint) and
continues the epoch loop; the concatenated journal bytes of a resumed
run are identical to an uninterrupted same-seed run — pinned by
tests/test_fleet_shard.py and the scale-smoke CI job.

The coordinator drives shards through **handles**, and the handle is
where execution modes split:

* ``procs=1`` (the default) holds every :class:`FleetShard` in-process
  behind a :class:`LocalShardHandle` — the serial path;
* ``procs=N`` puts shards in spawned OS worker processes behind
  :mod:`repro.fleet.parallel` proxies that speak a run-epoch /
  crash-directive / barrier-stats / checkpoint / shutdown pipe protocol.

Because shards share nothing (the Nymix isolation argument, promoted to
regions) and only rendezvous at barriers, the two modes produce
**byte-identical** combined journals for the same seed — the hard gate
pinned by tests/test_fleet_parallel.py and the scale-smoke CI job.

Alongside its journal, every shard streams a per-epoch **metrics**
snapshot (``shard.metrics`` events: residency, RAM, KSM savings,
placement counters at each barrier) to a sibling ``*.metrics.jsonl``
spool; the coordinator merges them into its own ``metrics.jsonl``.
``repro stats --scale DIR`` reads the spools back.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FleetCapacityError, FleetError, ShardWorkerError
from repro.fleet.fleet import Fleet, FleetStats
from repro.obs.journal import EventJournal
from repro.sim.clock import Clock, Timeline
from repro.sim.rng import SeededRng
from repro.tenancy.policy import FleetPolicies
from repro.workloads.fleet import NymArrival, fleet_workload

_MANIFEST = "manifest.json"
_COORDINATOR_PKL = "coordinator.pkl"


def combined_spool_bytes(spool_paths: List[str]) -> bytes:
    """Concatenate spool files with a one-line JSON header per section.

    The canonical order (coordinator first, then shards by id) comes
    from the caller; the result is the byte-comparable whole-run record
    used by tests and the scale-smoke CI gate.
    """
    chunks: List[bytes] = []
    for path in spool_paths:
        name = os.path.basename(path)
        if name.endswith(".jsonl"):
            name = name[: -len(".jsonl")]
        chunks.append(
            json.dumps({"journal": name}, sort_keys=True,
                       separators=(",", ":")).encode() + b"\n"
        )
        with open(path, "rb") as handle:
            chunks.append(handle.read())
    return b"".join(chunks)


@dataclass(frozen=True)
class ShardConfig:
    """Everything that determines a sharded run, bit for bit.

    Execution details that must *never* change the bytes — how many OS
    processes run the shards, how often to checkpoint — deliberately
    live outside this object.
    """

    seed: int = 0
    shards: int = 4
    hosts_per_shard: int = 16
    nyms: int = 2000
    policy: str = "ksm-aware"
    epoch_s: float = 120.0
    host_crashes: int = 0
    flash_clone: bool = True
    mean_interarrival_s: float = 0.5
    journal_window: int = 4096

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FleetError(f"a sharded fleet needs >= 1 shard, got {self.shards}")
        if self.epoch_s <= 0:
            raise FleetError(f"epoch_s must be positive, got {self.epoch_s}")

    def shard_seed(self, shard_id: int) -> int:
        """The per-shard timeline seed: a pure function of (seed, shard)."""
        return SeededRng(self.seed).fork(f"fleet.shard.{shard_id}").seed

    def export(self) -> Dict[str, object]:
        return asdict(self)


def partition_arrivals(
    config: ShardConfig,
) -> List[List[Tuple[float, NymArrival]]]:
    """Draw the global arrival stream and split it round-robin by shard.

    Every arrival keeps its **absolute** arrival time (cumulative
    interarrival gaps over the global stream), so the per-shard streams
    stay aligned on one global clock and epoch membership is identical
    no matter how many shards share the load.
    """
    rng = SeededRng(config.seed).fork("fleet.workload")
    arrivals = fleet_workload(
        rng, config.nyms, mean_interarrival_s=config.mean_interarrival_s
    )
    per_shard: List[List[Tuple[float, NymArrival]]] = [
        [] for _ in range(config.shards)
    ]
    now = 0.0
    for index, arrival in enumerate(arrivals):
        now += arrival.interarrival_s
        per_shard[index % config.shards].append((now, arrival))
    return per_shard


@dataclass(frozen=True)
class BarrierReport:
    """One shard's rendezvous payload: everything the coordinator needs.

    This is the whole coordinator-facing surface of a shard at a
    barrier — and it is a plain picklable value, which is what lets the
    shard itself live in another OS process.  The coordinator's merged
    accounting is a pure function of these reports in shard-id order,
    so serial and parallel runs cannot diverge.
    """

    shard_id: int
    arrivals: int
    cursor: int
    rejected: int
    done: bool
    sim_now: float
    journal_events: int
    spool_offset: int
    metrics_events: int
    metrics_offset: int
    stats: FleetStats

    @property
    def placed(self) -> int:
        return self.cursor - self.rejected


class FleetShard:
    """One region: its own timeline, fleet, arrival slice, and spools."""

    def __init__(
        self,
        config: ShardConfig,
        shard_id: int,
        spool_path: str,
        arrivals: Optional[List[Tuple[float, NymArrival]]] = None,
        metrics_path: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.rejected = 0
        self.cursor = 0
        if arrivals is None:
            arrivals = partition_arrivals(config)[shard_id]
        self.arrivals = arrivals
        self.timeline = Timeline(seed=config.shard_seed(shard_id))
        self.timeline.obs.journal.stream_to(spool_path, window=config.journal_window)
        # The per-epoch metrics spool: one snapshot event per barrier,
        # streamed beside the journal with the same window/checkpoint
        # machinery.  Without a path it stays a small in-memory journal
        # (standalone-shard tests).
        self.metrics = EventJournal(self.timeline.clock)
        if metrics_path:
            self.metrics.stream_to(metrics_path, window=config.journal_window)
        self.fleet = Fleet(
            self.timeline,
            hosts=config.hosts_per_shard,
            policies=FleetPolicies(placement=config.policy),
            flash_clone=config.flash_clone,
        )
        self.timeline.obs.event(
            "shard.created", shard=shard_id, hosts=config.hosts_per_shard,
            arrivals=len(self.arrivals),
        )

    @property
    def journal(self) -> EventJournal:
        return self.timeline.obs.journal

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.arrivals)

    def run_epoch(self, epoch_end: float) -> int:
        """Process every arrival due by ``epoch_end``; returns how many.

        The shard clock advances through each arrival's absolute time
        (boots may push it further — later arrivals then place
        immediately, exactly like the single-timeline scenario), ends at
        or past ``epoch_end``, and settles KSM so barrier accounting is
        converged.  The event queue is empty on return.
        """
        placed = 0
        timeline, fleet = self.timeline, self.fleet
        while self.cursor < len(self.arrivals):
            t_abs, arrival = self.arrivals[self.cursor]
            if t_abs > epoch_end:
                break
            if t_abs > timeline.now:
                timeline.sleep(t_abs - timeline.now)
            try:
                fleet.place(arrival.name, arrival.image_id)
            except FleetCapacityError:
                self.rejected += 1
            else:
                placed += 1
                if arrival.churn_bytes and arrival.name in fleet.nymboxes:
                    fleet.touch(arrival.name, arrival.churn_bytes)
            self.cursor += 1
        if epoch_end > timeline.now:
            timeline.sleep(epoch_end - timeline.now)
        fleet.settle_ksm()
        return placed

    def _report(self, stats: FleetStats) -> BarrierReport:
        return BarrierReport(
            shard_id=self.shard_id,
            arrivals=len(self.arrivals),
            cursor=self.cursor,
            rejected=self.rejected,
            done=self.done,
            sim_now=self.timeline.now,
            journal_events=len(self.journal),
            spool_offset=self.journal.spool_offset,
            metrics_events=len(self.metrics),
            metrics_offset=self.metrics.spool_offset,
            stats=stats,
        )

    def report(self) -> BarrierReport:
        """A side-effect-free rendezvous snapshot (no flush, no events)."""
        return self._report(self.fleet.stats())

    def barrier(self, epoch: int) -> BarrierReport:
        """The rendezvous: snapshot metrics, flush both spools, report.

        Called once per epoch in shard-id order (by the coordinator in
        serial mode, by the owning worker on a barrier-stats message in
        parallel mode); either way the spool bytes come out identical.
        """
        stats = self.fleet.stats()
        self.metrics.record(
            "shard.metrics", epoch=epoch, shard=self.shard_id,
            cursor=self.cursor, placed=self.cursor - self.rejected,
            rejected=self.rejected, done=self.done,
            journal_events=len(self.journal),
            **stats.export(),
        )
        self.flush_spools()
        return self._report(stats)

    def flush_spools(self) -> None:
        self.journal.flush()
        self.metrics.flush()

    def close_spools(self) -> None:
        self.journal.close_spool()
        self.metrics.close_spool()


class LocalShardHandle:
    """The in-process shard handle: the serial (``procs=1``) execution.

    The coordinator only ever talks to handles; this one forwards every
    call straight into a resident :class:`FleetShard`.  Its parallel
    twin (:class:`repro.fleet.parallel.WorkerShardHandle`) speaks the
    same surface over a pipe to a spawned worker.
    """

    pid: Optional[int] = None  # no worker process behind this handle

    def __init__(self, shard: FleetShard) -> None:
        self.shard = shard
        self.shard_id = shard.shard_id
        self.done = shard.done
        self._pending_epoch_end: Optional[float] = None

    def start_epoch(self, epoch_end: float) -> None:
        self._pending_epoch_end = epoch_end

    def finish_epoch(self) -> int:
        if self._pending_epoch_end is None:
            raise FleetError(
                f"shard {self.shard_id}: finish_epoch without start_epoch"
            )
        epoch_end, self._pending_epoch_end = self._pending_epoch_end, None
        placed = self.shard.run_epoch(epoch_end)
        self.done = self.shard.done
        return placed

    def crash_host(self) -> Optional[str]:
        return self.shard.fleet.crash_host()

    def barrier(self, epoch: int) -> BarrierReport:
        report = self.shard.barrier(epoch)
        self.done = report.done
        return report

    def report(self) -> BarrierReport:
        return self.shard.report()

    def checkpoint_bytes(self) -> bytes:
        if not self.shard.timeline.quiescent:
            raise FleetError(
                f"shard {self.shard_id} has pending events at the barrier"
            )
        return pickle.dumps(self.shard)

    def flush(self) -> None:
        self.shard.flush_spools()

    def close(self) -> None:
        self.shard.close_spools()

    def shutdown(self) -> None:  # nothing to tear down in-process
        pass


@dataclass
class ShardedRunResult:
    """What one :meth:`ShardedFleet.run` call accomplished."""

    config: ShardConfig
    epochs: int
    completed: bool
    rejected: int
    merged: Dict[str, object]
    shard_stats: List[Dict[str, object]] = field(default_factory=list)
    journal_events: int = 0
    spool_paths: List[str] = field(default_factory=list)

    def export(self) -> Dict[str, object]:
        return {
            "config": self.config.export(),
            "epochs": self.epochs,
            "completed": self.completed,
            "rejected": self.rejected,
            "merged": self.merged,
            "shards": self.shard_stats,
            "journal_events": self.journal_events,
        }


class ShardedFleet:
    """The coordinator: shards in lock-step over coarse epoch barriers.

    ``procs`` picks the executor: 1 keeps every shard in-process
    (serial); N > 1 spreads shards round-robin over ``min(N, shards)``
    spawned OS workers.  The choice never reaches the bytes — the
    coordinator's accounting is a pure function of the
    :class:`BarrierReport` stream, which is identical in both modes.
    """

    def __init__(
        self,
        config: ShardConfig,
        spool_dir: str,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        procs: int = 1,
    ) -> None:
        self.config = config
        self.spool_dir = str(spool_dir)
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_every = max(1, checkpoint_every)
        os.makedirs(self.spool_dir, exist_ok=True)
        if self.checkpoint_dir:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.epoch = 0
        self.procs = max(1, min(int(procs), config.shards))
        self._pool = None
        self._crash_plan = self._plan_crashes()
        self._crashes_fired = 0
        # The coordinator's own journal: merged accounting per barrier,
        # streamed like every shard's.  The metrics journal carries the
        # merged per-epoch snapshot the shards' metrics spools roll into.
        self._coord_clock = Clock()
        self._coord_journal = EventJournal(self._coord_clock)
        self._coord_journal.stream_to(
            self._spool_path("coordinator"), window=config.journal_window
        )
        self._coord_metrics = EventJournal(self._coord_clock)
        self._coord_metrics.stream_to(
            self.metrics_path("metrics"), window=config.journal_window
        )
        per_shard = partition_arrivals(config)
        self.handles = self._build_handles(per_shard)
        self._coord_journal.record(
            "coord.created", shards=config.shards, nyms=config.nyms,
            hosts=config.shards * config.hosts_per_shard, policy=config.policy,
        )

    def _build_handles(self, per_shard) -> List[object]:
        if self.procs == 1:
            return [
                LocalShardHandle(
                    FleetShard(
                        self.config, shard_id,
                        self._spool_path(f"shard-{shard_id:02d}"),
                        arrivals=per_shard[shard_id],
                        metrics_path=self.metrics_path(f"shard-{shard_id:02d}"),
                    )
                )
                for shard_id in range(self.config.shards)
            ]
        from repro.fleet.parallel import WorkerPool

        self._pool = WorkerPool(
            self.config,
            procs=self.procs,
            spool_paths=[
                self._spool_path(f"shard-{i:02d}")
                for i in range(self.config.shards)
            ],
            metrics_paths=[
                self.metrics_path(f"shard-{i:02d}")
                for i in range(self.config.shards)
            ],
            per_shard_arrivals=per_shard,
        )
        self._pool.last_barrier = self.epoch
        return list(self._pool.handles)

    @property
    def shards(self) -> List[FleetShard]:
        """The resident shard objects — serial mode only.

        In parallel mode the shards live in worker processes; everything
        the coordinator needs crosses as :class:`BarrierReport` values.
        """
        if self.procs != 1:
            raise FleetError(
                "shards live in worker processes under procs>1; "
                "use the handles/BarrierReport surface"
            )
        return [handle.shard for handle in self.handles]

    # -- paths ---------------------------------------------------------------

    def _spool_path(self, name: str) -> str:
        return os.path.join(self.spool_dir, f"{name}.jsonl")

    def metrics_path(self, name: str) -> str:
        return os.path.join(self.spool_dir, f"{name}.metrics.jsonl")

    def spool_paths(self) -> List[str]:
        """Coordinator first, then shards in id order — the canonical
        concatenation order for combined journal bytes."""
        return [self._spool_path("coordinator")] + [
            self._spool_path(f"shard-{h.shard_id:02d}") for h in self.handles
        ]

    def metrics_paths(self) -> List[str]:
        """Merged coordinator metrics first, then shards in id order."""
        return [self.metrics_path("metrics")] + [
            self.metrics_path(f"shard-{h.shard_id:02d}") for h in self.handles
        ]

    # -- fault schedule ------------------------------------------------------

    def _plan_crashes(self) -> Dict[int, List[int]]:
        """(epoch -> shard ids to crash), drawn once from a forked RNG."""
        if not self.config.host_crashes:
            return {}
        rng = SeededRng(self.config.seed).fork("fleet.shard.crashes")
        expected_end = self.config.nyms * self.config.mean_interarrival_s
        max_epoch = max(1, int(expected_end / self.config.epoch_s))
        plan: Dict[int, List[int]] = {}
        for index in range(self.config.host_crashes):
            epoch = rng.randint(1, max_epoch)
            shard = index % self.config.shards
            plan.setdefault(epoch, []).append(shard)
        return plan

    def _fire_crashes(self, epoch: int, final: bool) -> None:
        due: List[int] = []
        if final:
            for pending_epoch in sorted(self._crash_plan):
                if pending_epoch >= epoch:
                    due.extend(self._crash_plan.pop(pending_epoch))
        if epoch in self._crash_plan:
            due.extend(self._crash_plan.pop(epoch))
        for shard_id in due:
            crashed = self.handles[shard_id].crash_host()
            self._crashes_fired += 1
            self._coord_journal.record(
                "coord.host_crash", shard=shard_id,
                host=crashed if crashed else "",
            )

    # -- the epoch loop ------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(handle.done for handle in self.handles) and not self._crash_plan

    def run(self, stop_after_epoch: Optional[int] = None) -> ShardedRunResult:
        """Advance epochs until every shard drained (or an early stop).

        ``stop_after_epoch`` halts after that many *additional* barriers
        — the kill half of the kill/resume story; the run stays
        resumable from its last checkpoint.

        A worker process dying mid-epoch surfaces as
        :class:`~repro.errors.ShardWorkerError` naming the shard and the
        last completed barrier; the surviving workers are torn down, the
        coordinator spools are flushed, and the run stays resumable from
        its last checkpoint.
        """
        try:
            return self._run_epochs(stop_after_epoch)
        except ShardWorkerError:
            self._abort_workers()
            raise

    def _run_epochs(self, stop_after_epoch: Optional[int]) -> ShardedRunResult:
        barriers = 0
        while not self.done:
            self.epoch += 1
            barriers += 1
            epoch_end = self.epoch * self.config.epoch_s
            # All shards advance to the barrier — concurrently when the
            # handles front worker processes, in shard-id order when
            # they are local.  Replies are collected in shard-id order
            # either way.
            for handle in self.handles:
                handle.start_epoch(epoch_end)
            for handle in self.handles:
                handle.finish_epoch()
            final = all(handle.done for handle in self.handles)
            self._fire_crashes(self.epoch, final=final)
            reports = self._barrier(epoch_end)
            if self.checkpoint_dir and self.epoch % self.checkpoint_every == 0:
                self.checkpoint(reports)
            if stop_after_epoch is not None and barriers >= stop_after_epoch:
                return self._result(completed=self.done)
        return self._result(completed=True)

    def _barrier(self, epoch_end: float) -> List[BarrierReport]:
        """Rendezvous: collect per-shard reports, merge, record, flush."""
        reports = [handle.barrier(self.epoch) for handle in self.handles]
        self._coord_clock.advance_to(epoch_end)
        merged = self._merged_from(reports, record_per_shard=True)
        self._coord_journal.record("coord.epoch_merged", epoch=self.epoch, **merged)
        self._coord_metrics.record(
            "coord.metrics", epoch=self.epoch, shards=len(reports), **merged
        )
        self._coord_journal.flush()
        self._coord_metrics.flush()
        if self._pool is not None:
            self._pool.last_barrier = self.epoch
        return reports

    def _merged_from(
        self, reports: List[BarrierReport], record_per_shard: bool = False
    ) -> Dict[str, object]:
        totals = {
            "hosts_up": 0, "nyms_resident": 0, "nyms_parked": 0,
            "placements": 0, "evacuations": 0, "host_crashes": 0,
            "used_bytes": 0, "total_bytes": 0, "ksm_saved_bytes": 0,
            "rejected": 0,
        }
        for report in reports:
            stats = report.stats
            if record_per_shard:
                self._coord_journal.record(
                    "coord.shard_epoch", epoch=self.epoch, shard=report.shard_id,
                    placed=report.placed,
                    rejected=report.rejected,
                    resident=stats.nyms_resident,
                    used_bytes=stats.used_bytes,
                    ksm_saved_bytes=stats.ksm_saved_bytes,
                    events=report.journal_events,
                )
            totals["hosts_up"] += stats.hosts_up
            totals["nyms_resident"] += stats.nyms_resident
            totals["nyms_parked"] += stats.nyms_parked
            totals["placements"] += stats.placements
            totals["evacuations"] += stats.evacuations
            totals["host_crashes"] += stats.host_crashes
            totals["used_bytes"] += stats.used_bytes
            totals["total_bytes"] += stats.total_bytes
            totals["ksm_saved_bytes"] += stats.ksm_saved_bytes
            totals["rejected"] += report.rejected
        return totals

    def _result(self, completed: bool) -> ShardedRunResult:
        reports = [handle.report() for handle in self.handles]
        merged = self._merged_from(reports)
        shard_stats = []
        for report in reports:
            shard_stats.append(
                {
                    "shard": report.shard_id,
                    "arrivals": report.arrivals,
                    "placed": report.placed,
                    "rejected": report.rejected,
                    "sim_seconds": round(report.sim_now, 3),
                    "journal_events": report.journal_events,
                    **report.stats.export(),
                }
            )
        return ShardedRunResult(
            config=self.config,
            epochs=self.epoch,
            completed=completed,
            rejected=merged["rejected"],
            merged=merged,
            shard_stats=shard_stats,
            journal_events=len(self._coord_journal)
            + sum(r.journal_events for r in reports),
            spool_paths=self.spool_paths(),
        )

    def journal_events(self) -> int:
        return len(self._coord_journal) + sum(
            handle.report().journal_events for handle in self.handles
        )

    def flush(self) -> None:
        """Flush every spool without sealing (the killed-mid-run path)."""
        for handle in self.handles:
            handle.flush()
        self._coord_journal.flush()
        self._coord_metrics.flush()

    def close(self) -> None:
        """Record the terminal merged event and seal every spool."""
        reports = [handle.report() for handle in self.handles]
        merged = self._merged_from(reports)
        self._coord_journal.record(
            "coord.run_complete", epochs=self.epoch,
            nyms_resident=merged["nyms_resident"],
            ksm_saved_bytes=merged["ksm_saved_bytes"],
            rejected=merged["rejected"],
        )
        for handle in self.handles:
            handle.close()
        self._coord_journal.close_spool()
        self._coord_metrics.close_spool()
        self.shutdown()

    def shutdown(self) -> None:
        """Tear down worker processes, if any (idempotent)."""
        for handle in self.handles:
            handle.shutdown()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _abort_workers(self) -> None:
        """A worker died: flush what the coordinator owns, kill the rest."""
        try:
            self._coord_journal.flush()
            self._coord_metrics.flush()
        finally:
            if self._pool is not None:
                self._pool.terminate()
                self._pool = None

    # -- combined journal ----------------------------------------------------

    def combined_journal_bytes(self) -> bytes:
        """Coordinator spool + shard spools in shard-id order, with one
        header line per section — the byte-comparable whole-run record."""
        return combined_spool_bytes(self.spool_paths())

    def combined_metrics_bytes(self) -> bytes:
        """The metrics spools, same canonical order and header scheme."""
        return combined_spool_bytes(self.metrics_paths())

    def write_combined(self, path: str) -> int:
        data = self.combined_journal_bytes()
        with open(path, "wb") as handle:
            handle.write(data)
        return len(data)

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(
        self, reports: Optional[List[BarrierReport]] = None
    ) -> str:
        """Persist the whole run at the current barrier, atomically.

        Journals were just flushed, so each shard is a quiescent object
        graph; the manifest lands last (tmp + rename) so a directory
        with a manifest is always internally consistent.  The shard
        pickles come through the handles, so a worker-resident shard is
        serialized in its own process and shipped back whole.
        """
        if not self.checkpoint_dir:
            raise FleetError("this ShardedFleet has no checkpoint_dir")
        for handle in self.handles:
            self._write_atomic(
                os.path.join(
                    self.checkpoint_dir, f"shard-{handle.shard_id:02d}.pkl"
                ),
                handle.checkpoint_bytes(),
            )
        if reports is None:
            for handle in self.handles:
                handle.flush()
            reports = [handle.report() for handle in self.handles]
        self._write_atomic(
            os.path.join(self.checkpoint_dir, _COORDINATOR_PKL),
            pickle.dumps(
                (self._coord_clock, self._coord_journal, self._coord_metrics)
            ),
        )
        manifest = {
            "config": self.config.export(),
            "epoch": self.epoch,
            "crashes_fired": self._crashes_fired,
            "crash_plan": {str(k): v for k, v in self._crash_plan.items()},
            "spool_dir": self.spool_dir,
            "coordinator": {
                "spool": self._spool_path("coordinator"),
                "offset": self._coord_journal.spool_offset,
                "events": len(self._coord_journal),
                "metrics_spool": self.metrics_path("metrics"),
                "metrics_offset": self._coord_metrics.spool_offset,
                "metrics_events": len(self._coord_metrics),
            },
            "shards": [
                {
                    "id": report.shard_id,
                    "spool": self._spool_path(f"shard-{report.shard_id:02d}"),
                    "offset": report.spool_offset,
                    "events": report.journal_events,
                    "metrics_spool": self.metrics_path(
                        f"shard-{report.shard_id:02d}"
                    ),
                    "metrics_offset": report.metrics_offset,
                    "metrics_events": report.metrics_events,
                    "cursor": report.cursor,
                    "rejected": report.rejected,
                }
                for report in reports
            ],
        }
        self._write_atomic(
            os.path.join(self.checkpoint_dir, _MANIFEST),
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        )
        return self.checkpoint_dir

    @staticmethod
    def _write_atomic(path: str, data: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str,
        checkpoint_every: int = 1,
        procs: int = 1,
    ) -> "ShardedFleet":
        """Rebuild a run from its checkpoint directory.

        Every spool is truncated to the offset the manifest recorded —
        a killed run may have flushed window batches past the last
        barrier, and those bytes must not survive into the resumed
        journal.  ``procs`` picks the executor for the *resumed* half
        independently of how the checkpointing run executed: a
        checkpoint taken under ``procs=1`` resumes fine under
        ``procs=4`` and vice versa, byte for byte.
        """
        manifest_path = os.path.join(checkpoint_dir, _MANIFEST)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        sharded = cls.__new__(cls)
        sharded.config = ShardConfig(**manifest["config"])
        sharded.spool_dir = manifest["spool_dir"]
        sharded.checkpoint_dir = str(checkpoint_dir)
        sharded.checkpoint_every = max(1, checkpoint_every)
        sharded.epoch = manifest["epoch"]
        sharded.procs = max(1, min(int(procs), sharded.config.shards))
        sharded._pool = None
        sharded._crashes_fired = manifest["crashes_fired"]
        sharded._crash_plan = {
            int(k): v for k, v in manifest["crash_plan"].items()
        }
        with open(os.path.join(checkpoint_dir, _COORDINATOR_PKL), "rb") as handle:
            (
                sharded._coord_clock,
                sharded._coord_journal,
                sharded._coord_metrics,
            ) = pickle.load(handle)
        coord = manifest["coordinator"]
        cls._truncate_spool(coord["spool"], coord["offset"])
        cls._truncate_spool(coord["metrics_spool"], coord["metrics_offset"])
        pickle_paths = []
        for entry in manifest["shards"]:
            cls._truncate_spool(entry["spool"], entry["offset"])
            cls._truncate_spool(entry["metrics_spool"], entry["metrics_offset"])
            pickle_paths.append(
                os.path.join(checkpoint_dir, f"shard-{entry['id']:02d}.pkl")
            )
        if sharded.procs == 1:
            handles: List[object] = []
            for path in pickle_paths:
                with open(path, "rb") as handle:
                    handles.append(LocalShardHandle(pickle.load(handle)))
            sharded.handles = handles
        else:
            from repro.fleet.parallel import WorkerPool

            sharded._pool = WorkerPool(
                sharded.config,
                procs=sharded.procs,
                spool_paths=[e["spool"] for e in manifest["shards"]],
                metrics_paths=[e["metrics_spool"] for e in manifest["shards"]],
                per_shard_arrivals=None,
                resume_pickles=pickle_paths,
            )
            sharded._pool.last_barrier = sharded.epoch
            sharded.handles = list(sharded._pool.handles)
        return sharded

    @staticmethod
    def _truncate_spool(path: str, offset: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(offset)

    def __repr__(self) -> str:
        return (
            f"ShardedFleet(shards={len(self.handles)}, epoch={self.epoch}, "
            f"nyms={self.config.nyms}, procs={self.procs}, "
            f"spool_dir={self.spool_dir!r})"
        )


def run_sharded_fleet(
    config: ShardConfig,
    spool_dir: str,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    stop_after_epoch: Optional[int] = None,
    procs: int = 1,
) -> ShardedRunResult:
    """One-shot driver: build, run (possibly partially), seal spools."""
    sharded = ShardedFleet(
        config, spool_dir,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        procs=procs,
    )
    try:
        result = sharded.run(stop_after_epoch=stop_after_epoch)
    except ShardWorkerError:
        sharded.shutdown()
        raise
    if result.completed:
        sharded.close()
    else:
        # Killed mid-run: flush what we have but do not seal — the
        # resumed run writes the terminal record.
        sharded.flush()
        sharded.shutdown()
    return result


def resume_sharded_fleet(
    checkpoint_dir: str,
    checkpoint_every: int = 1,
    stop_after_epoch: Optional[int] = None,
    procs: int = 1,
) -> Tuple[ShardedFleet, ShardedRunResult]:
    """Resume from ``checkpoint_dir`` and (by default) run to completion."""
    sharded = ShardedFleet.resume(
        checkpoint_dir, checkpoint_every=checkpoint_every, procs=procs
    )
    try:
        result = sharded.run(stop_after_epoch=stop_after_epoch)
    except ShardWorkerError:
        sharded.shutdown()
        raise
    if result.completed:
        sharded.close()
    else:
        sharded.flush()
        sharded.shutdown()
    return sharded, result


# -- metrics spools -----------------------------------------------------------


def read_metrics_spool(path: str) -> List[Dict[str, object]]:
    """Parse one ``*.metrics.jsonl`` spool back into event dicts."""
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_scale_metrics(spool_dir: str) -> Dict[str, object]:
    """Read a sharded run's metrics spools back (``repro stats --scale``).

    Returns the coordinator's merged per-epoch stream plus each shard's
    own snapshots, keyed the way the spool directory lays them out.
    """
    merged_path = os.path.join(spool_dir, "metrics.metrics.jsonl")
    if not os.path.exists(merged_path):
        raise FleetError(
            f"no merged metrics spool in {spool_dir!r} "
            f"(expected {os.path.basename(merged_path)}; is this a "
            f"sharded-fleet spool directory?)"
        )
    shards: Dict[str, List[Dict[str, object]]] = {}
    for name in sorted(os.listdir(spool_dir)):
        if name.startswith("shard-") and name.endswith(".metrics.jsonl"):
            shard_key = name[: -len(".metrics.jsonl")]
            shards[shard_key] = read_metrics_spool(
                os.path.join(spool_dir, name)
            )
    return {
        "spool_dir": spool_dir,
        "merged": read_metrics_spool(merged_path),
        "shards": shards,
    }
