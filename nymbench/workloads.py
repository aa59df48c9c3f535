"""The benchmark's workloads: what one operation is, and how it is checked.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned.  Inputs (site orders, nym names,
passwords, providers, the simulation seed) come from ``--seed``; two
runs with the same seed make the same calls.

* ``session``: one nym session is create a fresh nym, load all eight
  Figure 3 sites in a seeded order, and discard the nym (amnesia).  Each
  session does the same work, so the latency distribution is one mode.
  It stresses launch (vmm, memory, anonymizer start) and the browser's
  cache content, which an ephemeral nym synthesises and never reads.
* ``cloud``: one round trip is the §3.5 store/load cycle: a nym browses
  the two lightest sites, is sealed and uploaded to a seeded cloud
  provider, discarded, and loaded back through an ephemeral download
  nym.  Here the synthesised content *is* read (compressed, encrypted,
  restored), so it pairs with ``session``.
* ``fleet_serial``: one sharded fleet run (2 shards x 64 hosts, 3000
  arrivals, 60 s epochs) with both shards in this process.  The fleet
  fills to about three quarters of its memory and nobody is evacuated,
  so the epoch latencies grow smoothly with residency instead of
  splitting into calm and evacuation-storm epochs.
* ``fleet_procs``: the same run with each shard in its own spawned
  worker process.  It adds worker start-up and the barrier pipe
  protocol to the same simulated work, and must write the same bytes.

Set-up builds the system to a ready state with warm caches: for
``session`` and ``cloud`` it opens a fresh session and runs warm-up
operations, repeated ``SETUP_REPEATS`` times; for the fleets it is the
construction of each run's sharded fleet (and worker spawn).

Every time the benchmark reports is the time of windows around calls
into the program, each also scaled to a reference host speed (see
``Recorder``).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from typing import Dict, List

from repro.api import NymixSession
from repro.fleet.shard import ShardConfig, ShardedFleet
from repro.guest.websites import FIGURE3_VISIT_ORDER, WEBSITE_CATALOG

SETUP_REPEATS = 5
WARMUP_OPS = 2

CLOUD_SITES = ("blog.torproject.org", "slashdot.org")
CLOUD_PROVIDERS = ("dropbox.com", "drive.google.com")

#: The sharded run both fleet workloads repeat (the seed comes from --seed).
FLEET_SHAPE = dict(shards=2, hosts_per_shard=64, nyms=3000, epoch_s=60.0)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


#: Iterations of the calibration loop, about 2.5 ms on an idle core.
CALIBRATION_ITERATIONS = 12000
#: The calibration loop's time on an idle core of the 2-vCPU Xeon VM the
#: benchmark was defined on, so that scaled times read as that core's.
CALIBRATION_REFERENCE_S = 0.0025


def calibration_loop() -> int:
    """A fixed piece of interpreter work whose time measures the host.

    It calls nothing in the program, so only the host moves it: on a
    shared VM the same loop takes 2.5 ms in quiet seconds and 4.5 ms
    when other tenants load the core, and the program slows with it.
    """
    acc = 0
    table: Dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + (i * 2654435761) % 1000003
        acc ^= table[key]
    return acc


def _calibration_s() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class _Lap:
    seconds = 0.0
    #: ``seconds`` at the reference host speed
    scaled = 0.0


class Recorder:
    """What one run measured.  Operations time their work in windows.

    Every window runs the calibration loop just before and just after
    itself and records its time twice: as measured, and scaled by how
    much slower than the reference the loop ran around it.  The scaled
    times are the end-to-end metrics: the host's speed drifts by up to
    2x over minutes, and scaling each window by the speed measured at
    its edges takes most of that drift out while keeping any change in
    the program's own speed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_s: List[float] = []
        self.scaled_setup_s: List[float] = []
        self.latency_s: List[float] = []
        self.scaled_latency_s: List[float] = []
        self.busy_s = 0.0
        self.scaled_busy_s = 0.0
        self.nyms = 0

    @contextmanager
    def window(self):
        """Time the enclosed calls into the program (and trace them)."""
        lap = _Lap()
        before = _calibration_s()
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            yield lap
        finally:
            lap.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            after = _calibration_s()
            lap.scaled = lap.seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)
        self.busy_s += lap.seconds
        self.scaled_busy_s += lap.scaled

    def operation(self, *laps: _Lap, nyms: int = 1) -> None:
        """Record one operation made of ``laps``."""
        self.latency_s.append(sum(lap.seconds for lap in laps))
        self.scaled_latency_s.append(sum(lap.scaled for lap in laps))
        self.nyms += nyms

    def add_setup(self, setup: "Recorder") -> None:
        """Record one set-up, timed as the windows of ``setup``.

        A set-up gets its own untraced recorder, so that a long one is
        timed in several windows, each scaled by the speed at its edges.
        """
        self.setup_s.append(setup.busy_s)
        self.scaled_setup_s.append(setup.scaled_busy_s)


# -- nym sessions and cloud round trips ------------------------------------------


class _SessionWorkload:
    """Shared set-up for the workloads that drive one NymixSession."""

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.session = None
        self.accounts: Dict[str, object] = {}

    def set_up(self, rec: Recorder) -> None:
        """Open ``SETUP_REPEATS`` fresh sessions; keep the last one.

        Every repeat makes the same calls, so their journals must be
        byte-identical even though the first runs on cold process caches.
        """
        digests = set()
        for _ in range(SETUP_REPEATS):
            self.close()
            setup = Recorder()
            self._open(random.Random(self.seed), setup)
            rec.add_setup(setup)
            journal = self.session.obs.journal.export_jsonl().encode()
            digests.add(hashlib.sha256(journal).hexdigest())
        check(len(digests) == 1, "same-seed set-ups wrote different journals")

    def _open(self, rng: random.Random, setup: Recorder) -> None:
        with setup.window():
            nx = NymixSession(seed=self.seed).open()
            self.session = nx
            self.accounts = {
                host: nx.create_cloud_account(
                    host, f"user-{rng.getrandbits(32):08x}", "cloud-pw"
                )
                for host in CLOUD_PROVIDERS
            }
        for index in range(WARMUP_OPS):
            self.op(f"warm-{index}", rng, setup)

    def run_op(self, index: int, rec: Recorder) -> None:
        self.op(f"nym-{index}", self.rng, rec)

    def op(self, name: str, rng: random.Random, rec: Recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


class NymSessions(_SessionWorkload):
    def op(self, name: str, rng: random.Random, rec: Recorder) -> None:
        nx = self.session
        sites = rng.sample(FIGURE3_VISIT_ORDER, len(FIGURE3_VISIT_ORDER))
        with rec.window() as lap:
            nymbox = nx.create_nym(name=name)
            loads = [nx.timed_browse(nymbox, site) for site in sites]
            nx.discard_nym(nymbox)
        rec.operation(lap)
        for site, load in zip(sites, loads):
            check(
                load.payload_bytes == WEBSITE_CATALOG[site].first_visit_bytes
                and load.duration_s > 0,
                f"{name}: wrong first load of {site}",
            )
        check(nymbox.destroyed and not nx.live_nyms(), f"{name} outlived discard")
        check(not nx.hypervisor.vms(), f"{name} left VMs on the host")


class CloudRoundTrips(_SessionWorkload):
    def op(self, name: str, rng: random.Random, rec: Recorder) -> None:
        nx = self.session
        sites = rng.sample(CLOUD_SITES, len(CLOUD_SITES))
        provider_host = rng.choice(CLOUD_PROVIDERS)
        account = self.accounts[provider_host]
        password = f"pw-{rng.getrandbits(48):012x}"
        # One window per step, not per round trip: a round trip takes half
        # a second, over which the host's speed moves, and each window is
        # scaled by the speed measured at its own edges.
        with rec.window() as browse_lap:
            nymbox = nx.create_nym(name=name)
            for site in sites:
                nx.timed_browse(nymbox, site)
        with rec.window() as store_lap:
            receipt = nx.store_nym(
                nymbox, password=password, provider_host=provider_host,
                account_username=account.username,
            )
        stored = dict(nymbox.anonvm.fs.top.items())
        blob = account.blobs.get(receipt.blob_name)
        check(
            blob is not None and blob.size == receipt.encrypted_bytes,
            f"{name}: sealed blob missing at {provider_host}",
        )
        check(
            0 < receipt.compressed_bytes < receipt.raw_bytes,
            f"{name}: nym state did not compress",
        )
        with rec.window() as discard_stored_lap:
            nx.discard_nym(nymbox)
        with rec.window() as load_lap:
            restored = nx.load_nym(name, password)
        files = dict(restored.anonvm.fs.top.items())
        check(
            all(files.get(path) == data for path, data in stored.items()),
            f"{name}: restored files differ from the stored ones",
        )
        # Keep the account bounded however many round trips a run makes.
        nx.manager.providers[provider_host].delete(
            account, receipt.blob_name, nx.timeline.now,
            restored.anonymizer.exit_address(),
        )
        with rec.window() as discard_lap:
            nx.discard_nym(restored)
        check(not nx.live_nyms(), f"{name} outlived discard")
        rec.operation(browse_lap, store_lap, discard_stored_lap, load_lap, discard_lap)


# -- sharded fleets --------------------------------------------------------------


class _ShardedFleetRuns:
    """Repeat one sharded run; each must write the serial reference bytes."""

    procs: int

    def __init__(self, seed: int, work_dir: str) -> None:
        self.config = ShardConfig(seed=seed, **FLEET_SHAPE)
        self.work_dir = work_dir
        self.reference = ""

    def set_up(self, rec: Recorder) -> None:
        """An untimed serial run: warms the process and gives the reference
        combined-journal digest every timed run must reproduce."""
        self.reference = self._run(1, Recorder())

    def run_op(self, index: int, rec: Recorder) -> None:
        digest = self._run(self.procs, rec)
        check(
            digest == self.reference,
            f"run {index} (procs={self.procs}) wrote a different combined "
            f"journal than the serial reference",
        )

    def _run(self, procs: int, rec: Recorder) -> str:
        config = self.config
        spool_dir = tempfile.mkdtemp(prefix="fleet-", dir=self.work_dir)
        try:
            setup = Recorder()
            with setup.window():
                sharded = ShardedFleet(config, spool_dir, procs=procs)
            rec.add_setup(setup)
            try:
                completed = False
                while not completed:
                    with rec.window() as lap:
                        result = sharded.run(stop_after_epoch=1)
                    rec.operation(lap, nyms=0)
                    completed = result.completed
                with rec.window():
                    sharded.close()
            finally:
                sharded.shutdown()
            merged = result.merged
            check(
                merged["nyms_resident"] + merged["nyms_parked"] + merged["rejected"]
                == config.nyms,
                f"nyms not conserved: {merged}",
            )
            check(merged["used_bytes"] <= merged["total_bytes"], "fleet over capacity")
            rec.nyms += config.nyms
            return hashlib.sha256(sharded.combined_journal_bytes()).hexdigest()
        finally:
            shutil.rmtree(spool_dir, ignore_errors=True)

    def close(self) -> None:
        # Spawning workers also started multiprocessing's resource tracker;
        # stop and reap it so that no process outlives the run.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if self.procs > 1 and stop is not None:
            stop()


class SerialFleet(_ShardedFleetRuns):
    procs = 1


class ProcsFleet(_ShardedFleetRuns):
    procs = 2


WORKLOADS = {
    "session": NymSessions,
    "cloud": CloudRoundTrips,
    "fleet_serial": SerialFleet,
    "fleet_procs": ProcsFleet,
}
