"""Process-pool shard execution: the serial/parallel byte-identity gate.

``procs`` is an executor choice, never a semantic one.  These tests pin
the hard guarantees the parallel path makes:

* a ``--procs N`` run produces byte-identical combined journals *and*
  metrics spools to a ``--procs 1`` run at the same seed, including
  injected host crashes;
* checkpoints cross execution modes freely — a run checkpointed under
  one executor resumes under the other, byte for byte;
* a worker process dying mid-run surfaces as a typed
  :class:`~repro.errors.ShardWorkerError` naming the shard and the last
  completed barrier, and the run resumes from its checkpoint to the
  exact bytes of an uninterrupted run;
* an epoch costs each shard one ``epoch`` request, and both transports
  answer the same op sequence with the same replies.

Spawning a worker pool costs ~0.2 s, so the configs here stay
small; the scale-smoke CI job runs the same gate at scenario size.
"""

import gc
import json
import multiprocessing
import os
import signal
import time
import warnings
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import FleetError, ShardWorkerError
from repro.fleet.parallel import WorkerPool, default_procs
from repro.fleet.shard import (
    InProcessShards,
    ShardConfig,
    ShardedFleet,
    combined_spool_bytes,
    load_scale_metrics,
    partition_arrivals,
    resume_sharded_fleet,
    run_sharded_fleet,
)

CFG = dict(
    seed=7, shards=3, hosts_per_shard=4, nyms=90, host_crashes=2, epoch_s=15.0
)


def run_combined(tmp_path, name, procs, **overrides):
    """Run to completion; return (config, spool_dir, result, journal bytes)."""
    config = ShardConfig(**{**CFG, **overrides})
    spool_dir = str(tmp_path / name)
    result = run_sharded_fleet(config, spool_dir, procs=procs)
    return config, spool_dir, result, combined_spool_bytes(result.spool_paths)


def metrics_bytes(spool_dir, shards):
    paths = [f"{spool_dir}/metrics.metrics.jsonl"] + [
        f"{spool_dir}/shard-{i:02d}.metrics.jsonl" for i in range(shards)
    ]
    return combined_spool_bytes(paths)


class TestByteIdentity:
    def test_parallel_journals_match_serial(self, tmp_path):
        config, dir_s, result_s, bytes_s = run_combined(tmp_path, "serial", 1)
        _, dir_p, result_p, bytes_p = run_combined(tmp_path, "parallel", 2)
        assert bytes_s
        assert bytes_s == bytes_p
        assert result_s.export() == result_p.export()
        assert metrics_bytes(dir_s, config.shards) == metrics_bytes(
            dir_p, config.shards
        )

    def test_procs_beyond_shards_is_capped(self, tmp_path):
        sharded = ShardedFleet(ShardConfig(**CFG), str(tmp_path / "cap"), procs=99)
        try:
            assert sharded.procs == ShardConfig(**CFG).shards
            assert sharded._pool.procs == ShardConfig(**CFG).shards
        finally:
            sharded.shutdown()

    def test_worker_handles_expose_worker_pids(self, tmp_path):
        sharded = ShardedFleet(ShardConfig(**CFG), str(tmp_path / "pids"), procs=2)
        try:
            pids = [sharded._pool.shard_pid(i) for i in range(3)]
            assert all(isinstance(pid, int) for pid in pids)
            # 3 shards on 2 workers round-robin: shard 0 and 2 share one.
            assert pids[0] == pids[2] != pids[1]
        finally:
            sharded.shutdown()

    def test_shards_property_guarded_under_parallel(self, tmp_path):
        sharded = ShardedFleet(ShardConfig(**CFG), str(tmp_path / "g"), procs=2)
        try:
            with pytest.raises(FleetError, match="worker processes"):
                sharded.shards
        finally:
            sharded.shutdown()

    def test_default_procs_positive(self):
        assert default_procs() >= 1

    @pytest.mark.parametrize("procs", [0, -1])
    def test_fewer_than_one_worker_is_rejected(self, tmp_path, procs):
        spool = tmp_path / "bad"
        with pytest.raises(FleetError, match="procs must be >= 1"):
            ShardedFleet(ShardConfig(**CFG), str(spool), procs=procs)
        assert not spool.exists()

    def test_resume_rejects_fewer_than_one_worker(self, tmp_path):
        ck = str(tmp_path / "ck")
        run_sharded_fleet(
            ShardConfig(**CFG), str(tmp_path / "cut"), checkpoint_dir=ck,
            stop_after_epoch=1,
        )
        with pytest.raises(FleetError, match="procs must be >= 1"):
            ShardedFleet.resume(ck, procs=0)


class TestCrossModeResume:
    """Checkpoints are executor-agnostic: any mode resumes any mode."""

    @pytest.mark.parametrize(
        "first_procs,second_procs", [(1, 2), (2, 1), (2, 2)]
    )
    def test_resume_across_modes_is_byte_identical(
        self, tmp_path, first_procs, second_procs
    ):
        config, _, _, baseline = run_combined(tmp_path, "base", 1)
        dir_b = str(tmp_path / f"cut-{first_procs}-{second_procs}")
        ck = str(tmp_path / f"ck-{first_procs}-{second_procs}")
        partial = run_sharded_fleet(
            config, dir_b, checkpoint_dir=ck, stop_after_epoch=1,
            procs=first_procs,
        )
        assert not partial.completed
        _, resumed = resume_sharded_fleet(ck, procs=second_procs)
        assert resumed.completed
        assert combined_spool_bytes(resumed.spool_paths) == baseline
        assert metrics_bytes(dir_b, config.shards) == metrics_bytes(
            str(tmp_path / "base"), config.shards
        )


class TestStoppedRun:
    @pytest.mark.parametrize("procs", [1, 2])
    def test_stopped_run_leaves_no_spool_open(self, tmp_path, procs):
        # A stopped run seals every spool, in process and in its workers,
        # without the terminal record that its resume writes.
        spool = tmp_path / "spool"
        gc.collect()  # earlier tests' garbage is not this test's leak
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            partial = run_sharded_fleet(
                ShardConfig(**CFG), str(spool), stop_after_epoch=1,
                procs=procs,
            )
            gc.collect()
        assert not partial.completed
        assert multiprocessing.active_children() == []
        assert [
            str(w.message) for w in caught if w.category is ResourceWarning
        ] == []
        assert b"coord.run_complete" not in (spool / "coordinator.jsonl").read_bytes()

    @pytest.mark.parametrize("procs", [1, 2])
    def test_refused_resume_leaves_no_spool_open(self, tmp_path, procs):
        # A resume that refuses an altered spool seals every spool it
        # replayed, in process and in its workers, before it raises.
        spool, ck = tmp_path / "spool", str(tmp_path / "ck")
        run_sharded_fleet(
            ShardConfig(**CFG), str(spool), checkpoint_dir=ck,
            stop_after_epoch=2, procs=procs,
        )
        recorded = bytearray((spool / "coordinator.jsonl").read_bytes())
        recorded[10] ^= 0x01
        (spool / "coordinator.jsonl").write_bytes(bytes(recorded))
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(FleetError, match="coordinator.jsonl does not match"):
                resume_sharded_fleet(ck, procs=procs)
            gc.collect()
        assert multiprocessing.active_children() == []
        assert [
            str(w.message) for w in caught if w.category is ResourceWarning
        ] == []


class TestWorkerDeath:
    def wait_for_exit(self, pid):
        for _ in range(100):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def test_killed_worker_raises_typed_error_and_run_resumes(self, tmp_path):
        config, _, _, baseline = run_combined(tmp_path, "base", 1)
        dir_b = str(tmp_path / "killed")
        ck = str(tmp_path / "ck")
        sharded = ShardedFleet(
            config, dir_b, checkpoint_dir=ck, procs=2
        )
        try:
            partial = sharded.run(stop_after_epoch=1)
            assert not partial.completed
            victim = sharded._pool.shard_pid(0)
            os.kill(victim, signal.SIGKILL)
            self.wait_for_exit(victim)
            with pytest.raises(ShardWorkerError) as excinfo:
                sharded.run()
        finally:
            sharded.shutdown()
        error = excinfo.value
        assert error.shard_id in (0, 2)  # the shards the dead worker hosted
        assert error.last_barrier == 1
        assert "barrier 1" in str(error)
        # The checkpoint at barrier 1 survives the crash: resume (in
        # either mode) finishes with the uninterrupted run's exact bytes.
        _, resumed = resume_sharded_fleet(ck, procs=2)
        assert resumed.completed
        assert combined_spool_bytes(resumed.spool_paths) == baseline

    def test_error_carries_shard_and_barrier_fields(self):
        error = ShardWorkerError("boom", shard_id=3, last_barrier=7)
        assert error.shard_id == 3
        assert error.last_barrier == 7
        assert isinstance(error, FleetError)


class TestFailedBuild:
    """A run whose build fails leaves no worker alive and no file open."""

    @pytest.mark.parametrize("procs", [1, 2])
    @pytest.mark.parametrize(
        "squatted",
        ["shard-01.jsonl", "shard-01.metrics.jsonl", "metrics.metrics.jsonl"],
    )
    def test_failed_build_stops_workers_and_closes_spools(
        self, tmp_path, squatted, procs
    ):
        # A directory where a spool belongs fails its open: in the
        # coordinator for the merged metrics spool, and in shard 1's
        # build (in process or in its worker) for a shard spool.
        spool = tmp_path / "spool"
        (spool / squatted).mkdir(parents=True)
        gc.collect()  # earlier tests' garbage is not this test's leak
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises((IsADirectoryError, ShardWorkerError)):
                ShardedFleet(ShardConfig(**CFG), str(spool), procs=procs)
            gc.collect()
        assert multiprocessing.active_children() == []
        assert [
            str(w.message) for w in caught
            if w.category is ResourceWarning and str(spool) in str(w.message)
        ] == []

    def test_pool_that_cannot_start_a_worker_stops_the_others(
        self, monkeypatch
    ):
        process = multiprocessing.get_context("spawn").Process
        start = process.start
        started = []

        def start_one(worker):
            if started:
                raise OSError("no more workers")
            start(worker)
            started.append(worker)

        monkeypatch.setattr(process, "start", start_one)
        with pytest.raises(OSError, match="no more workers"):
            WorkerPool(procs=2, shards=2)
        assert len(started) == 1
        assert started[0].exitcode is not None
        assert multiprocessing.active_children() == []


def build_payloads(config, spool_dir):
    """``build`` payloads for every shard of ``config``, spooled in a dir."""
    spool_dir.mkdir()
    return [
        (
            config, str(spool_dir / f"s{i}.jsonl"),
            str(spool_dir / f"s{i}.metrics.jsonl"), arrivals,
        )
        for i, arrivals in enumerate(partition_arrivals(config))
    ]


class TestWorkerPoolProtocol:
    def test_pool_caps_procs_to_shard_count(self, tmp_path):
        config = ShardConfig(**{**CFG, "shards": 2, "nyms": 8})
        pool = WorkerPool(procs=8, shards=2)
        try:
            assert pool.procs == 2
            reports = pool.call("build", build_payloads(config, tmp_path / "b"))
            assert [report.shard_id for report in reports] == [0, 1]
        finally:
            pool.shutdown()

    def test_worker_error_reply_names_last_barrier(self, tmp_path):
        config = ShardConfig(**{**CFG, "shards": 1, "nyms": 8})
        pool = WorkerPool(procs=1, shards=1)
        pool.call("build", build_payloads(config, tmp_path / "b"))
        pool.last_barrier = 4
        try:
            # An in-worker exception (rebuilding the shard with its spool
            # in a missing directory) comes back as a typed error, not a
            # dead worker.
            missing = str(tmp_path / "missing" / "s0.jsonl")
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.call("build", [(config, missing, None, [])])
            assert excinfo.value.shard_id == 0
            assert excinfo.value.last_barrier == 4
            # The worker survived the bad directive and still answers.
            assert pool.call("report", [None])[0].cursor == 0
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("op", ["crash", "barrier", "flush"])
    def test_split_barrier_ops_are_gone(self, tmp_path, op):
        config = ShardConfig(**{**CFG, "shards": 1, "nyms": 8})
        pool = WorkerPool(procs=1, shards=1)
        try:
            pool.call("build", build_payloads(config, tmp_path / "b"))
            with pytest.raises(ShardWorkerError, match="unknown shard op"):
                pool.call(op, [1])
        finally:
            pool.shutdown()

    def test_both_transports_answer_the_same_ops_alike(self, tmp_path):
        # One protocol over two transports: the same op sequence, in
        # process and across workers, gives equal replies.  An epoch
        # reply carries the hosts it crashed and the barrier's report.
        config = ShardConfig(**{**CFG, "shards": 2, "host_crashes": 0})
        local = InProcessShards(build_payloads(config, tmp_path / "l"))
        pool = WorkerPool(procs=2, shards=2)
        try:
            assert pool.call(
                "build", build_payloads(config, tmp_path / "w")
            ) == local.call("report", [None, None])
            for epoch, crashes in ((1, 0), (2, 2), (3, 1)):
                payloads = [(epoch * config.epoch_s, epoch, crashes)] * 2
                replies = pool.call("epoch", payloads)
                assert replies == local.call("epoch", payloads)
                for hosts, report in replies:
                    assert len(hosts) == crashes and all(hosts)
                    assert report.sim_now >= epoch * config.epoch_s
            assert pool.call("report", [None, None]) == [
                report for _, report in replies
            ]
        finally:
            pool.shutdown()


class TestOneRoundTripPerEpoch:
    def test_one_epoch_request_per_shard_per_epoch(self, tmp_path, monkeypatch):
        sent = []
        send = WorkerPool.send

        def counting_send(pool, shard_id, message):
            sent.append(message[0])
            return send(pool, shard_id, message)

        monkeypatch.setattr(WorkerPool, "send", counting_send)
        config = ShardConfig(**CFG)
        result = run_sharded_fleet(config, str(tmp_path / "count"), procs=2)
        assert result.completed
        # Construction builds each shard; after it, every epoch is one
        # request per shard, and close seals each shard's spools.
        assert Counter(sent) == {
            "build": config.shards,
            "epoch": config.shards * result.epochs,
            "close": config.shards,
        }

    @pytest.mark.parametrize("procs", [1, 2])
    def test_cached_reports_match_fresh_report_requests(self, tmp_path, procs):
        sharded = ShardedFleet(ShardConfig(**CFG), str(tmp_path / "c"), procs=procs)
        try:
            for stop_after in (1, 1, None):
                result = sharded.run(stop_after_epoch=stop_after)
                fresh = sharded._shards.call("report", [None] * 3)
                assert fresh == sharded._reports
                sharded._reports = fresh
                assert sharded._result(result.completed).export() == result.export()
            assert result.completed
        finally:
            sharded.shutdown()

    def test_workers_exit_cleanly_after_close_with_serial_bytes(self, tmp_path):
        config = ShardConfig(**CFG)
        serial = tmp_path / "serial"
        run_sharded_fleet(config, str(serial), procs=1)
        sharded = ShardedFleet(config, str(tmp_path / "procs"), procs=2)
        workers = list(sharded._pool._procs)
        sharded.run()
        sharded.close()
        assert [worker.exitcode for worker in workers] == [0, 0]
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(tmp_path / "procs"))
        for name in names:
            assert (serial / name).read_bytes() == (
                tmp_path / "procs" / name
            ).read_bytes(), name


class TestScaleMetrics:
    def test_metrics_spools_load_and_agree_across_modes(self, tmp_path):
        config, dir_s, result_s, _ = run_combined(tmp_path, "serial", 1)
        _, dir_p, _, _ = run_combined(tmp_path, "parallel", 2)
        serial = load_scale_metrics(dir_s)
        parallel = load_scale_metrics(dir_p)
        assert serial["merged"] == parallel["merged"]
        assert serial["shards"] == parallel["shards"]
        assert len(serial["merged"]) == result_s.epochs
        assert set(serial["shards"]) == {
            f"shard-{i:02d}" for i in range(config.shards)
        }
        for records in serial["shards"].values():
            assert [r["epoch"] for r in records] == list(
                range(1, result_s.epochs + 1)
            )
            assert all(r["event"] == "shard.metrics" for r in records)

    def test_merged_stream_tracks_residency(self, tmp_path):
        _, dir_s, result, _ = run_combined(tmp_path, "m", 1)
        merged = load_scale_metrics(dir_s)["merged"]
        assert merged[-1]["nyms_resident"] == result.merged["nyms_resident"]
        assert merged[-1]["host_crashes"] == CFG["host_crashes"]

    def test_load_scale_metrics_rejects_non_spool_dir(self, tmp_path):
        with pytest.raises(FleetError, match="merged metrics spool"):
            load_scale_metrics(str(tmp_path))


#: Flags every fleet run refuses, with their arguments.  ``fleet`` has
#: no ``--tenant-config`` or ``--duration``, so argparse refuses those.
SHARDED_IGNORED = [
    ("--tenant-config", ["--tenant-config", "tenants.json"]),
    ("--duration", ["--duration", "0"]),
    ("--procs", ["--procs", "-1"]),
]
#: Marks arguments that go before the subcommand (the global ``--seed``).
GLOBAL = "<global>"
#: Flags a resume also refuses: its manifest decides them, and a resume
#: never compares policies.
RESUME_IGNORED = [
    ("--no-compare", ["--no-compare"]),
    ("--stop-after-epoch", ["--stop-after-epoch", "1"]),
    ("--shards", ["--shards", "2"]),
    ("--scale", ["--scale", "1,2"]),
    ("--checkpoint-dir", ["--checkpoint-dir", "ck2"]),
    ("--seed", ["--seed", "7"]),
    ("--seed", [GLOBAL, "--seed", "7"]),
    ("--hosts", ["--hosts", "8"]),
    ("--nyms", ["--nyms", "5"]),
    ("--policy", ["--policy", "first-fit"]),
    ("--epoch-s", ["--epoch-s", "5"]),
    ("--host-crashes", ["--host-crashes", "0"]),
    ("--spool-dir", ["--spool-dir", "elsewhere"]),
    ("--quick", ["--quick"]),
]


class TestCli:
    # At this shape ksm-aware and first-fit tie, so a comparing run would
    # exit 1; these tests exercise executors, not placement.
    FLEET_ARGS = [
        "fleet", "--seed", "7", "--shards", "2", "--hosts", "8",
        "--nyms", "24", "--epoch-s", "15", "--host-crashes", "0",
        "--no-compare",
    ]

    def test_fleet_procs_journal_matches_serial(self, tmp_path, capsys):
        spools = {}
        for procs in (1, 2):
            spool = str(tmp_path / f"spool-{procs}")
            code = main(
                self.FLEET_ARGS
                + ["--procs", str(procs), "--spool-dir", spool, "--json",
                   "--out", str(tmp_path / f"out-{procs}.json")]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["procs"] == procs
            assert payload["environment"]["procs"] == procs
            assert payload["environment"]["cpu_count"] == (os.cpu_count() or 1)
            paths = [f"{spool}/coordinator.jsonl"] + [
                f"{spool}/shard-{i:02d}.jsonl" for i in range(2)
            ]
            spools[procs] = combined_spool_bytes(paths)
        assert spools[1] == spools[2]

    def test_stats_scale_reads_spool_dir(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        out = str(tmp_path / "out.json")
        assert main(
            self.FLEET_ARGS + ["--spool-dir", spool, "--json", "--out", out]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--scale", spool]) == 0
        out = capsys.readouterr().out
        assert "sharded metrics" in out
        assert "shard-00" in out

    def test_stats_scale_json_roundtrips(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        out = str(tmp_path / "out.json")
        assert main(
            self.FLEET_ARGS + ["--spool-dir", spool, "--json", "--out", out]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--scale", spool, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["merged"]
        assert "shard-01" in payload["shards"]

    @pytest.mark.parametrize("procs", [1, 2])
    def test_negative_nyms_fail_before_anything_starts(
        self, tmp_path, procs
    ):
        spool = tmp_path / "spool"
        for argv in (
            self.FLEET_ARGS + ["--nyms", "-5"],
            ["fleet", "--seed", "7", "--quick", "--nyms", "-5"],
        ):
            with pytest.raises(FleetError, match="nyms must be >= 0"):
                main(
                    argv + ["--procs", str(procs), "--spool-dir", str(spool),
                            "--json"]
                )
        assert not spool.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "extra, problem",
        [
            (["--host-crashes", "-3"], "host_crashes must be >= 0"),
            (["--hosts", "0"], "needs >= 1 host"),
            (["--hosts", "1"], "needs >= 1 host"),  # fewer hosts than shards
            (["--shards", "0"], "needs >= 1 shard"),
        ],
        ids=["negative-crashes", "no-hosts", "hosts-below-shards", "no-shards"],
    )
    def test_a_bad_config_fails_before_anything_starts(
        self, tmp_path, extra, problem
    ):
        spool = tmp_path / "spool"
        with pytest.raises(FleetError, match=problem):
            main(
                self.FLEET_ARGS + extra
                + ["--procs", "2", "--spool-dir", str(spool), "--json"]
            )
        assert not spool.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("procs", [1, 2])
    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("nyms", -5, "nyms must be >= 0"),
            ("policy", "no-such-policy", "unknown placement policy"),
            ("hosts_per_shard", 0, "needs >= 1 host"),
            ("host_crashes", -1, "host_crashes must be >= 0"),
        ],
        ids=["negative-nyms", "unknown-policy", "no-hosts", "negative-crashes"],
    )
    def test_resume_refuses_a_config_a_build_would_reject(
        self, tmp_path, capsys, field, value, problem, procs
    ):
        ck = tmp_path / "ck"
        spools = tmp_path / "spools"
        run_sharded_fleet(
            ShardConfig(**CFG), str(spools), checkpoint_dir=str(ck),
            stop_after_epoch=1,
        )
        path = ck / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"][field] = value
        path.write_text(json.dumps(manifest))
        before = sorted(os.listdir(spools))
        with pytest.raises(FleetError, match=problem) as excinfo:
            ShardedFleet.resume(str(ck), procs=procs)
        assert f"cannot resume from {ck}" in str(excinfo.value)
        assert main(["fleet", "--resume", str(ck), "--procs", str(procs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"--resume: cannot resume from {ck}")
        assert problem in err
        assert sorted(os.listdir(spools)) == before
        assert multiprocessing.active_children() == []

    def test_stats_scale_fails_cleanly_on_bad_dir(self, tmp_path, capsys):
        assert main(["stats", "--scale", str(tmp_path)]) == 1
        assert "merged metrics spool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, flag, extra",
        [
            pytest.param(mode, flag, extra, id=f"{mode}-{flag}-extra{index}")
            for mode, flags in (
                ("shards", SHARDED_IGNORED),
                ("resume", SHARDED_IGNORED + RESUME_IGNORED),
            )
            for index, (flag, extra) in enumerate(flags)
        ],
    )
    def test_sharded_path_rejects_ignored_flags(
        self, tmp_path, capsys, monkeypatch, flag, extra, mode
    ):
        spool = str(tmp_path / "spool")
        out = str(tmp_path / "out.json")
        argv = {
            "shards": self.FLEET_ARGS + ["--spool-dir", spool],
            "resume": ["fleet", "--resume", str(tmp_path / "ck")],
        }[mode] + ["--out", out]
        argv = extra[1:] + argv if extra[0] == GLOBAL else argv + extra
        monkeypatch.chdir(tmp_path)  # where a relative ck2 or elsewhere would go
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: not a fleet flag at all
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err
        assert os.listdir(tmp_path) == []  # no spool, checkpoint or --out file
