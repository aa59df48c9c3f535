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
  slots and fired inline at barriers, never through timeline callbacks.

So the state of every shard at a barrier is a pure function of the
config and the epoch, and **checkpoint/resume** needs no saved state.
A run given a checkpoint directory writes one file there at every
barrier, ``manifest.json`` (tmp + rename): the config, the epoch, the
absolute spool directory and every spool's byte offset.  Resume
rebuilds the run from the config, replays it to that epoch, and goes on
only if every replayed spool equals the first ``offset`` bytes of the
spool the interrupted run recorded — every resume verifies the
checkpointed prefix, and bytes a killed run wrote past the checkpoint
are dropped.  The concatenated journal bytes of a resumed run are
identical to an uninterrupted same-seed run — pinned by
tests/test_fleet_shard.py and the scale-smoke CI job.

The coordinator drives shards through one op protocol, :func:`apply`,
over one of two transports, and the transport is where execution modes
split:

* ``procs=1`` (the default) holds every :class:`FleetShard` in-process
  in :class:`InProcessShards`, which applies each op directly — the
  serial path;
* ``procs=N`` puts shards in spawned OS worker processes behind a
  :class:`repro.fleet.parallel.WorkerPool`, which ships the same ops
  over pipes and applies them with the same function in the worker.

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

import gc
import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.errors import FleetCapacityError, FleetError, ShardWorkerError
from repro.fleet.fleet import Fleet, FleetStats
from repro.fleet.placement import PLACEMENT_POLICIES, make_policy
from repro.obs.journal import EventJournal
from repro.sim.clock import Clock, Timeline
from repro.sim.rng import SeededRng
from repro.tenancy.policy import FleetPolicies
from repro.workloads.fleet import NymArrival, fleet_workload

_MANIFEST = "manifest.json"
#: suffix of a recorded spool that a resume has set aside to check its replay
_RECORDED = ".recorded"
#: bytes read per step when a replayed spool is compared with its record
_COMPARE_CHUNK = 1 << 20


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
    processes run the shards, whether and where to checkpoint —
    deliberately live outside this object.
    """

    seed: int = 0
    shards: int = 4
    hosts_per_shard: int = 16
    nyms: int = 2000
    policy: str = "ksm-aware"
    epoch_s: float = 120.0
    host_crashes: int = 0
    mean_interarrival_s: float = 0.5
    journal_window: int = 4096

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FleetError(f"a sharded fleet needs >= 1 shard, got {self.shards}")
        if self.epoch_s <= 0:
            raise FleetError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.hosts_per_shard < 1:
            raise FleetError(
                f"a shard needs >= 1 host, got hosts_per_shard="
                f"{self.hosts_per_shard}"
            )
        if self.nyms < 0:
            raise FleetError(f"nyms must be >= 0, got {self.nyms}")
        if self.host_crashes < 0:
            raise FleetError(f"host_crashes must be >= 0, got {self.host_crashes}")
        if self.policy not in PLACEMENT_POLICIES:
            make_policy(self.policy)  # raises "unknown placement policy ..."

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
        # streamed beside the journal with the same window and offsets.
        # Without a path it stays a small in-memory journal
        # (standalone-shard tests).
        self.metrics = EventJournal(self.timeline.clock)
        try:
            if metrics_path:
                self.metrics.stream_to(metrics_path, window=config.journal_window)
            self.fleet = Fleet(
                self.timeline,
                hosts=config.hosts_per_shard,
                policies=FleetPolicies(placement=config.policy),
            )
        except BaseException:
            self.close_spools()
            raise
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
        immediately), ends at or past ``epoch_end``, and settles KSM so
        barrier accounting is converged.  The event queue is empty on
        return.
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
            metrics_offset=self.metrics.spool_offset,
            stats=stats,
        )

    def report(self) -> BarrierReport:
        """A side-effect-free rendezvous snapshot (no flush, no events)."""
        return self._report(self.fleet.stats())

    def barrier(self, epoch: int) -> BarrierReport:
        """The rendezvous: snapshot metrics, flush both spools, report,
        then freeze the heap.

        Called once per epoch, at the end of the ``epoch`` op that
        :func:`apply` serves in process or in the owning worker; either
        way the spool bytes come out identical.

        The closing ``gc.freeze()`` moves every object the process holds
        into the collector's permanent generation, in O(1), so no later
        collection walks the resident nyms again.  That is safe because
        the fleet makes no reference cycles: reference counting alone
        frees a frozen object that dies (pinned by the ``gc.collect() ==
        0`` tests).  The freeze is process-wide; :meth:`close_spools`
        undoes it.
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
        report = self._report(stats)
        gc.freeze()
        return report

    def flush_spools(self) -> None:
        self.journal.flush()
        self.metrics.flush()

    def close_spools(self) -> None:
        """Seal both spools and hand every frozen object back to the
        collector (``gc.unfreeze()``).

        Every run ends here, completed, stopped or failed, so a cycle that
        some other code left before a barrier is collected again after
        it.  The unfreeze is process-wide too: it also undoes a caller's
        own ``gc.freeze()``.
        """
        gc.unfreeze()
        self.journal.close_spool()
        self.metrics.close_spool()


def open_shard(shard_id: int, payload) -> FleetShard:
    """Make a shard from a ``build`` payload, ``(config, spool_path,
    metrics_path, arrivals)``."""
    config, spool_path, metrics_path, arrivals = payload
    return FleetShard(
        config, shard_id, spool_path,
        arrivals=arrivals, metrics_path=metrics_path,
    )


def apply(shard: FleetShard, op: str, payload) -> object:
    """Serve one shard-protocol op: the dispatch both transports share.

    ``epoch`` is the only per-epoch op.  Its payload is ``(epoch_end,
    epoch, crashes)``: the shard runs the epoch, crashes that many of
    its hosts, and runs its barrier, replying ``(crashed_hosts,
    BarrierReport)``.  The coordinator works out the crash directives
    before it dispatches the epoch, so every shard goes from one
    barrier to the next without waiting on another.
    """
    if op == "epoch":
        epoch_end, epoch, crashes = payload
        shard.run_epoch(epoch_end)
        crashed = [shard.fleet.crash_host() for _ in range(crashes)]
        return crashed, shard.barrier(epoch)
    if op == "report":
        return shard.report()
    if op == "close":
        shard.close_spools()
        return None
    raise FleetError(f"unknown shard op {op!r}")


class InProcessShards:
    """The serial (``procs=1``) transport: every shard resident here.

    :meth:`call` applies an op to each shard in shard-id order.  Its
    parallel twin, :class:`repro.fleet.parallel.WorkerPool`, ships the
    same ops to spawned workers, which apply them with the same
    :func:`apply`.
    """

    def __init__(self, payloads: List[object]) -> None:
        self.shards: List[FleetShard] = []
        try:
            for shard_id, payload in enumerate(payloads):
                self.shards.append(open_shard(shard_id, payload))
        except BaseException:
            self.call("close", [None] * len(self.shards))
            raise

    def call(self, op: str, payloads: List[object]) -> List[object]:
        return [
            apply(shard, op, payload)
            for shard, payload in zip(self.shards, payloads)
        ]


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


def _worker_count(procs: int, shards: int) -> int:
    """The worker processes a run uses: ``procs``, at most one per shard."""
    if int(procs) < 1:
        raise FleetError(
            f"procs must be >= 1 (1 runs every shard in-process), got {procs}"
        )
    return min(int(procs), shards)


def _last_arrival_time(per_shard: List[List[Tuple[float, NymArrival]]]) -> float:
    """The absolute time of the global stream's last arrival (0 if none)."""
    return max(
        (arrivals[-1][0] for arrivals in per_shard if arrivals), default=0.0
    )


class ShardedFleet:
    """The coordinator: shards in lock-step over coarse epoch barriers.

    ``procs`` picks the executor: 1 keeps every shard in-process
    (serial); N > 1 spreads shards round-robin over ``min(N, shards)``
    spawned OS workers; fewer than 1 is an error.  The choice never
    reaches the bytes — the coordinator's accounting is a pure function
    of the :class:`BarrierReport` stream, which is identical in both
    modes.  The coordinator keeps the last barrier's reports, so an
    epoch costs each shard one ``epoch`` op and nothing else.
    """

    def __init__(
        self,
        config: ShardConfig,
        spool_dir: str,
        checkpoint_dir: Optional[str] = None,
        procs: int = 1,
    ) -> None:
        self.config = config
        self.procs = _worker_count(procs, config.shards)
        # Absolute, so a checkpoint resumes from any working directory.
        self.spool_dir = os.path.abspath(spool_dir)
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        os.makedirs(self.spool_dir, exist_ok=True)
        if self.checkpoint_dir:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.epoch = 0
        self._pool = None
        self._crash_plan = self._plan_crashes()
        # The coordinator's own journal: merged accounting per barrier,
        # streamed like every shard's.  The metrics journal carries the
        # merged per-epoch snapshot the shards' metrics spools roll into.
        self._coord_clock = Clock()
        self._coord_journal = EventJournal(self._coord_clock)
        self._coord_metrics = EventJournal(self._coord_clock)
        try:
            self._coord_journal.stream_to(
                self._spool_path("coordinator"), window=config.journal_window
            )
            self._coord_metrics.stream_to(
                self.metrics_path("metrics"), window=config.journal_window
            )
            per_shard = partition_arrivals(config)
            self._last_arrival = _last_arrival_time(per_shard)
            payloads = [
                (
                    config, self._spool_path(f"shard-{shard_id:02d}"),
                    self.metrics_path(f"shard-{shard_id:02d}"), arrivals,
                )
                for shard_id, arrivals in enumerate(per_shard)
            ]
            if self.procs == 1:
                self._shards = InProcessShards(payloads)
                self._reports = self._call("report")
            else:
                from repro.fleet.parallel import WorkerPool

                self._pool = self._shards = WorkerPool(self.procs, len(payloads))
                self._reports = self._pool.call("build", payloads)
        except BaseException:
            self._abort()
            raise
        self._coord_journal.record(
            "coord.created", shards=config.shards, nyms=config.nyms,
            hosts=config.shards * config.hosts_per_shard, policy=config.policy,
        )

    def _call(self, op: str) -> List[object]:
        """Send a payload-free op to every shard."""
        return self._shards.call(op, [None] * self.config.shards)

    @property
    def shards(self) -> List[FleetShard]:
        """The resident shard objects — serial mode only.

        In parallel mode the shards live in worker processes; everything
        the coordinator needs crosses as :class:`BarrierReport` values.
        """
        if self.procs != 1:
            raise FleetError(
                "shards live in worker processes under procs>1; "
                "use the BarrierReport surface"
            )
        return self._shards.shards

    # -- paths ---------------------------------------------------------------

    def _spool_path(self, name: str) -> str:
        return os.path.join(self.spool_dir, f"{name}.jsonl")

    def metrics_path(self, name: str) -> str:
        return os.path.join(self.spool_dir, f"{name}.metrics.jsonl")

    def spool_paths(self) -> List[str]:
        """Coordinator first, then shards in id order — the canonical
        concatenation order for combined journal bytes."""
        return [self._spool_path("coordinator")] + [
            self._spool_path(f"shard-{i:02d}") for i in range(self.config.shards)
        ]

    def metrics_paths(self) -> List[str]:
        """Merged coordinator metrics first, then shards in id order."""
        return [self.metrics_path("metrics")] + [
            self.metrics_path(f"shard-{i:02d}") for i in range(self.config.shards)
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

    def _due_crashes(self, epoch: int, final: bool) -> List[int]:
        """Pop the shard ids that crash a host at this epoch's barrier.

        The final epoch (every arrival placed) also takes every crash
        planned for a later epoch.
        """
        due: List[int] = []
        for pending_epoch in sorted(self._crash_plan):
            if pending_epoch == epoch or (final and pending_epoch > epoch):
                due.extend(self._crash_plan.pop(pending_epoch))
        return due

    # -- the epoch loop ------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(report.done for report in self._reports) and not self._crash_plan

    def run(self, stop_after_epoch: Optional[int] = None) -> ShardedRunResult:
        """Advance epochs until every shard drained (or an early stop).

        ``stop_after_epoch`` halts after that many *additional* barriers
        — the kill half of the kill/resume story; the run stays
        resumable from its last checkpoint.

        A worker process dying mid-epoch surfaces as
        :class:`~repro.errors.ShardWorkerError` naming the shard and the
        last completed barrier; the surviving workers are torn down, the
        coordinator spools are flushed and closed, and the run stays
        resumable from its last checkpoint.
        """
        try:
            return self._run_epochs(stop_after_epoch)
        except ShardWorkerError:
            self._abort()
            raise

    def _run_epochs(self, stop_after_epoch: Optional[int]) -> ShardedRunResult:
        barriers = 0
        while not self.done:
            self.epoch += 1
            barriers += 1
            epoch_end = self.epoch * self.config.epoch_s
            # Every shard is done exactly when the last arrival of the
            # global stream is due by this barrier, so the crash
            # directives ride along with the epoch itself.
            due = self._due_crashes(
                self.epoch, final=self._last_arrival <= epoch_end
            )
            replies = self._shards.call(
                "epoch",
                [
                    (epoch_end, self.epoch, due.count(shard_id))
                    for shard_id in range(self.config.shards)
                ],
            )
            crashed = [iter(hosts) for hosts, _ in replies]
            for shard_id in due:
                self._coord_journal.record(
                    "coord.host_crash", shard=shard_id,
                    host=next(crashed[shard_id]) or "",
                )
            self._barrier(epoch_end, [report for _, report in replies])
            if self.checkpoint_dir:
                self.checkpoint()
            if stop_after_epoch is not None and barriers >= stop_after_epoch:
                return self._result(completed=self.done)
        return self._result(completed=True)

    def _barrier(self, epoch_end: float, reports: List[BarrierReport]) -> None:
        """Rendezvous: keep the shards' reports, merge, record, flush."""
        self._reports = reports
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
        reports = self._reports
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

    def close(self) -> None:
        """Record the terminal merged event and seal every spool."""
        merged = self._merged_from(self._reports)
        self._coord_journal.record(
            "coord.run_complete", epochs=self.epoch,
            nyms_resident=merged["nyms_resident"],
            ksm_saved_bytes=merged["ksm_saved_bytes"],
            rejected=merged["rejected"],
        )
        self._seal()

    def _seal(self) -> None:
        """Close every spool, then tear down the workers."""
        self._call("close")
        self._coord_journal.close_spool()
        self._coord_metrics.close_spool()
        self.shutdown()

    def _release(self) -> None:
        """A run or a resume failed: close what it left open.

        In-process shards seal every spool, as a stopped run does.  A
        worker pool takes no further op, since it may have failed or
        have replies in flight: :meth:`_abort` kills it and seals the
        coordinator's spools (each worker flushed its own at its last
        barrier).
        """
        if self.procs == 1:
            self._seal()
        else:
            self._abort()

    def shutdown(self) -> None:
        """Tear down worker processes, if any (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _abort(self) -> None:
        """A build or a worker failed: seal the coordinator's spools and
        kill every worker."""
        try:
            self._coord_journal.close_spool()
            self._coord_metrics.close_spool()
        finally:
            if self._pool is not None:
                self._pool.terminate()
                self._pool = None

    # -- combined journal ----------------------------------------------------

    def combined_journal_bytes(self) -> bytes:
        """Coordinator spool + shard spools in shard-id order, with one
        header line per section — the byte-comparable whole-run record."""
        return combined_spool_bytes(self.spool_paths())

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(self) -> str:
        """Record the current barrier in ``manifest.json``, atomically.

        The shards' state here is a pure function of the config and the
        epoch, so the manifest holds only what :meth:`resume` needs to
        rebuild and check it: the config, the epoch, the absolute spool
        directory and each spool's byte offset.  The shards' offsets come
        from the reports this barrier already returned, so a checkpoint
        costs no shard round trip.  The manifest lands by tmp + rename,
        so a kill leaves the previous one whole.
        """
        if not self.checkpoint_dir:
            raise FleetError("this ShardedFleet has no checkpoint_dir")
        offsets = {
            self._spool_path("coordinator"): self._coord_journal.spool_offset,
            self.metrics_path("metrics"): self._coord_metrics.spool_offset,
        }
        for report in self._reports:
            name = f"shard-{report.shard_id:02d}"
            offsets[self._spool_path(name)] = report.spool_offset
            offsets[self.metrics_path(name)] = report.metrics_offset
        manifest = {
            "config": self.config.export(),
            "epoch": self.epoch,
            "spool_dir": self.spool_dir,
            "spool_offsets": offsets,
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
    def resume(cls, checkpoint_dir: str, procs: int = 1) -> "ShardedFleet":
        """Rebuild a run at its checkpoint by replaying it from the config.

        The run is built with the normal constructor and re-simulated to
        the manifest's epoch without writing a manifest.  ``procs`` picks
        the executor for the replay and the rest of the run, whatever
        the checkpointing run used.  Each recorded spool is first set
        aside as ``NAME.recorded``, and the run goes on only if each
        replayed spool equals the first ``offset`` bytes of its recorded
        copy; otherwise :class:`FleetError` names the spool and the
        first differing byte.  The recorded copies stay on disk until
        that check passes, and a resume killed before then leaves them
        for the next one to reuse.  An old or damaged manifest raises
        :class:`FleetError` before any spool moves.
        """
        config, manifest = _read_manifest(checkpoint_dir)
        _worker_count(procs, config.shards)  # fail before moving a spool
        offsets: Dict[str, int] = manifest["spool_offsets"]
        missing = [
            path for path in offsets
            if not os.path.exists(path + _RECORDED) and not os.path.exists(path)
        ]
        if missing:
            raise FleetError(
                f"cannot resume from {checkpoint_dir}: recorded spools "
                f"missing: {', '.join(missing)}"
            )
        for path in offsets:
            if not os.path.exists(path + _RECORDED):
                os.replace(path, path + _RECORDED)
        sharded = cls(config, manifest["spool_dir"], procs=procs)
        try:
            sharded.run(stop_after_epoch=manifest["epoch"])
            for path, offset in offsets.items():
                _check_replayed_spool(path, offset)
        except BaseException:
            sharded._release()
            raise
        for path in offsets:
            os.remove(path + _RECORDED)
        sharded.checkpoint_dir = str(checkpoint_dir)
        return sharded

    def __repr__(self) -> str:
        return (
            f"ShardedFleet(shards={self.config.shards}, epoch={self.epoch}, "
            f"nyms={self.config.nyms}, procs={self.procs}, "
            f"spool_dir={self.spool_dir!r})"
        )


def run_sharded_fleet(
    config: ShardConfig,
    spool_dir: str,
    checkpoint_dir: Optional[str] = None,
    stop_after_epoch: Optional[int] = None,
    procs: int = 1,
) -> ShardedRunResult:
    """One-shot driver: build, run (possibly partially), seal spools."""
    sharded = ShardedFleet(
        config, spool_dir, checkpoint_dir=checkpoint_dir, procs=procs
    )
    return _run_to_stop(sharded, stop_after_epoch)


def resume_sharded_fleet(
    checkpoint_dir: str, procs: int = 1
) -> Tuple[ShardedFleet, ShardedRunResult]:
    """Resume from ``checkpoint_dir`` and run to completion."""
    sharded = ShardedFleet.resume(checkpoint_dir, procs=procs)
    return sharded, _run_to_stop(sharded, None)


def _run_to_stop(
    sharded: ShardedFleet, stop_after_epoch: Optional[int]
) -> ShardedRunResult:
    """Run ``sharded`` and seal its spools; only a completed run records
    ``coord.run_complete``, since a resumed run writes it for one
    stopped early."""
    try:
        result = sharded.run(stop_after_epoch=stop_after_epoch)
    except BaseException:
        sharded._release()
        raise
    if result.completed:
        sharded.close()
    else:
        sharded._seal()
    return result


def _read_manifest(checkpoint_dir: str) -> Tuple[ShardConfig, Dict[str, object]]:
    """Load a checkpoint's manifest and check its shape.

    A manifest from an older version (no ``spool_offsets``, or a config
    field this version dropped) or a damaged one raises
    :class:`FleetError` naming the checkpoint directory and the problem.
    """

    def unusable(problem: str) -> FleetError:
        return FleetError(
            f"cannot resume from {checkpoint_dir}: {_MANIFEST} {problem}"
        )

    with open(os.path.join(checkpoint_dir, _MANIFEST), "rb") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:
            raise unusable(f"is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise unusable("is not a JSON object")
    shape = {"config": dict, "epoch": int, "spool_dir": str, "spool_offsets": dict}
    for key, kind in shape.items():
        if not isinstance(manifest.get(key), kind):
            raise unusable(f"has no valid {key!r} (written by an older version?)")
    known = {f.name for f in fields(ShardConfig)}
    unknown = sorted(set(manifest["config"]) - known)
    if unknown:
        raise unusable(
            f"config has fields this version does not know: {', '.join(unknown)}"
        )
    try:
        config = ShardConfig(**manifest["config"])
    except FleetError as exc:
        raise unusable(f"config is invalid: {exc}") from None
    return config, manifest


def _check_replayed_spool(path: str, offset: int) -> None:
    """Raise :class:`FleetError` unless the replayed spool at ``path``
    equals the first ``offset`` bytes of its recorded copy."""
    position = 0
    with open(path, "rb") as replayed, open(path + _RECORDED, "rb") as recorded:
        while True:
            want = recorded.read(min(_COMPARE_CHUNK, offset - position))
            got = replayed.read(len(want) or 1)
            if got != want:
                position += len(os.path.commonprefix([got, want]))
                break
            if not want:
                if position == offset:
                    return
                break
            position += len(want)
    raise FleetError(
        f"spool {path} does not match its replay: the recorded copy "
        f"{path}{_RECORDED} and the re-simulated run differ at byte "
        f"{position} of the {offset} checkpointed"
    )


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
