"""Process-pool execution for the sharded fleet: one shard per OS worker.

The epoch-barrier protocol in :mod:`repro.fleet.shard` is already
process-shaped — shards share nothing and only rendezvous at barriers —
so parallelism is a pure transport swap.  This module supplies that
transport: a :class:`WorkerPool` of **spawned** OS processes, each
hosting one or more resident :class:`~repro.fleet.shard.FleetShard`
objects.  It speaks the same :meth:`WorkerPool.call` surface as the
serial :class:`~repro.fleet.shard.InProcessShards`, and each worker
serves every shard op through the same :func:`~repro.fleet.shard.apply`.

Coordinator and workers talk over one duplex pipe per worker, with a
small tagged message protocol (request, then reply payload; *report* is
a :class:`~repro.fleet.shard.BarrierReport`)::

    ("build",    shard_id, (config, spool, metrics, arrivals))   -> report
    ("epoch",    shard_id, (epoch_end, epoch, crashes))  -> (crashed, report)
    ("report",   shard_id, None)                                 -> report
    ("shutdown", -1,       None)   -> None, once every spool is flushed; exit

``epoch`` is the only per-epoch op: the shard runs the epoch, crashes
as many hosts as the coordinator planned, runs its barrier, and replies
with the hosts it crashed and its report, so an epoch costs one round
trip per shard.  ``report`` has no side effects.  Every request gets
exactly one reply, ``("ok", shard_id, payload)`` or ``("error",
shard_id, traceback)``, and each worker answers requests in arrival
order, so replies on a connection come back in send order (FIFO) —
which is what lets several shards share one worker without reply
routing.
:meth:`WorkerPool.call` sends an op to *every* shard before it collects
any reply, so shards on different workers run their epochs and barriers
concurrently.

Workers stream their shards' JSONL journal and metrics spools to disk
exactly as the serial path does — same code, same seeds, same flush
points — and ship :class:`~repro.fleet.shard.BarrierReport` values back
at each barrier, so the coordinator's merged accounting, crash planning,
and checkpoint manifests are byte-for-byte identical to a serial run.
A checkpoint needs nothing from a worker: the manifest takes its spool
offsets from the barrier's reports, and resume replays the run from its
config under whichever executor it is given.  A worker that dies mid-run
surfaces as :class:`~repro.errors.ShardWorkerError` naming the shard and
the last completed barrier; the run stays resumable from its last
checkpoint.  ``shutdown`` is how every run ends, completed, stopped or
failed (:meth:`WorkerPool.shutdown`): once a worker has flushed every
spool and acknowledged it, the worker leaves with ``os._exit(0)``, since
unwinding its shard heaps would only make the coordinator wait.

Spawn (never fork) keeps workers honest: each child starts from a fresh
interpreter, so the process-global caches (flash-clone page templates,
crypto hot-path caches) start cold in every worker.  That is safe for
byte-identity because cache hits burn exactly the RNG draws a miss would
have — warm or cold never reaches the journal bytes.  A fresh
interpreter also pays for every import again, so nothing a worker loads
imports numpy or the session stack (tests/test_import_boundary.py).
"""

from __future__ import annotations

import os
import traceback
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from repro.errors import FleetError, ShardWorkerError
from repro.fleet.shard import FleetShard, apply, open_shard

_SHUTDOWN_JOIN_S = 5.0


def _worker_main(conn) -> None:
    """The worker loop: host shards, answer protocol messages in order.

    Runs in the spawned child.  Any exception while serving a request is
    shipped back as an ``("error", ...)`` reply instead of killing the
    worker, so one bad directive doesn't take down sibling shards.
    """
    shards: Dict[int, FleetShard] = {}
    while True:
        try:
            op, shard_id, payload = conn.recv()
        except (EOFError, OSError):
            break  # coordinator went away; spools were flushed at barriers
        try:
            if op == "shutdown":
                for shard in shards.values():
                    shard.flush_spools()
                conn.send(("ok", shard_id, None))
                # Everything is on disk and acknowledged: freeing the
                # shard heaps would only keep the coordinator's join waiting.
                os._exit(0)
            if op == "build":
                shards[shard_id] = open_shard(shard_id, payload)
                op, payload = "report", None
            conn.send(("ok", shard_id, apply(shards[shard_id], op, payload)))
        except Exception:  # noqa: BLE001 - shipped to the coordinator
            try:
                conn.send(("error", shard_id, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break


class WorkerPool:
    """Spawned workers hosting shards round-robin, one pipe per worker.

    ``procs`` workers serve ``shards`` shards; shard *i* lives on worker
    ``i % procs``.  The pool starts with no shards: a ``build``
    :meth:`call` puts them in before any other op.
    """

    def __init__(self, procs: int, shards: int) -> None:
        self.procs = max(1, min(int(procs), shards))
        #: the last epoch barrier every shard completed — what a
        #: :class:`ShardWorkerError` reports as the resume point.  The
        #: coordinator stamps it after every barrier.
        self.last_barrier = 0
        ctx = get_context("spawn")
        self._conns = []
        self._procs = []
        try:
            for _ in range(self.procs):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self._conns.append(parent_conn)
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
        except BaseException:
            self.terminate()
            raise

    def shard_pid(self, shard_id: int) -> Optional[int]:
        """The pid of the worker that hosts ``shard_id``."""
        return self._procs[shard_id % self.procs].pid

    def call(self, op: str, payloads: List[object]) -> List[object]:
        """Send ``op`` to every shard, then collect the replies in shard order.

        Every request goes out before any reply is read, so shards on
        different workers serve the op concurrently.
        """
        for shard_id, payload in enumerate(payloads):
            self.send(shard_id, (op, shard_id, payload))
        return [self.recv(shard_id) for shard_id in range(len(payloads))]

    # -- the wire -------------------------------------------------------------

    def send(self, shard_id: int, message: Tuple) -> None:
        try:
            self._conns[shard_id % self.procs].send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise self._worker_died(shard_id, exc) from exc

    def recv(self, shard_id: int):
        try:
            status, reply_id, payload = self._conns[shard_id % self.procs].recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise self._worker_died(shard_id, exc) from exc
        if reply_id != shard_id:
            raise FleetError(
                f"protocol desync: expected reply for shard "
                f"{shard_id}, got shard {reply_id}"
            )
        if status == "error":
            raise ShardWorkerError(
                f"shard {shard_id} worker failed after barrier "
                f"{self.last_barrier}:\n{payload}",
                shard_id=shard_id,
                last_barrier=self.last_barrier,
            )
        return payload

    def _worker_died(self, shard_id: int, exc: Exception) -> ShardWorkerError:
        worker = shard_id % self.procs
        proc = self._procs[worker]
        proc.join(timeout=0.5)
        return ShardWorkerError(
            f"worker {worker} (pid {proc.pid}, exitcode "
            f"{proc.exitcode}) hosting shard {shard_id} died after "
            f"barrier {self.last_barrier}; resume from the checkpoint taken "
            f"there ({exc!r})",
            shard_id=shard_id,
            last_barrier=self.last_barrier,
        )

    # -- teardown -------------------------------------------------------------

    def shutdown(self) -> None:
        """Orderly teardown: flush-and-exit every worker, then reap.

        Safe after a failure too: a dead worker's pipe is skipped, a
        reply still in flight is read in place of the acknowledgement,
        and :meth:`_reap` kills a worker that does not exit.  Calling it
        again does nothing.
        """
        for conn in self._conns:
            try:
                conn.send(("shutdown", -1, None))
            except (BrokenPipeError, ConnectionResetError, OSError):
                continue
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, ConnectionResetError, OSError):
                continue
        self._reap()

    def terminate(self) -> None:
        """Hard teardown of a pool that could not start every worker: no
        protocol, since a worker that never started would never answer."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._reap()

    def _reap(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=_SHUTDOWN_JOIN_S)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=_SHUTDOWN_JOIN_S)
        self._conns = []
        self._procs = []

    def __repr__(self) -> str:
        return (
            f"WorkerPool(procs={self.procs}, last_barrier={self.last_barrier})"
        )


def default_procs() -> int:
    """What ``--procs 0`` runs: one worker per core, at least one."""
    return max(1, os.cpu_count() or 1)
