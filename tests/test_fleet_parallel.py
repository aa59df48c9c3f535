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
  exact bytes of an uninterrupted run.

Spawned workers cost ~1 s of startup each, so the configs here stay
small; the scale-smoke CI job runs the same gate at scenario size.
"""

import json
import os
import signal
import time

import pytest

from repro.cli import main
from repro.errors import FleetError, ShardWorkerError
from repro.fleet.parallel import WorkerPool, default_procs
from repro.fleet.shard import (
    ShardConfig,
    ShardedFleet,
    combined_spool_bytes,
    load_scale_metrics,
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
            pids = [handle.pid for handle in sharded.handles]
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
            victim = sharded.handles[0].pid
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


class TestWorkerPoolProtocol:
    def test_pool_caps_procs_to_shard_count(self, tmp_path):
        config = ShardConfig(**{**CFG, "shards": 2, "nyms": 8})
        pool = WorkerPool(
            config,
            procs=8,
            spool_paths=[str(tmp_path / f"s{i}.jsonl") for i in range(2)],
            metrics_paths=[
                str(tmp_path / f"s{i}.metrics.jsonl") for i in range(2)
            ],
        )
        try:
            assert pool.procs == 2
            assert len(pool.handles) == 2
        finally:
            pool.shutdown()

    def test_worker_error_reply_names_last_barrier(self, tmp_path):
        config = ShardConfig(**{**CFG, "shards": 1, "nyms": 8})
        pool = WorkerPool(
            config,
            procs=1,
            spool_paths=[str(tmp_path / "s0.jsonl")],
            metrics_paths=[str(tmp_path / "s0.metrics.jsonl")],
        )
        pool.last_barrier = 4
        try:
            # An in-worker exception (resuming a nonexistent pickle) comes
            # back as a typed error, not a dead worker.
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.request(
                    pool.handles[0],
                    ("resume", 0, str(tmp_path / "missing.pkl")),
                )
            assert excinfo.value.shard_id == 0
            assert excinfo.value.last_barrier == 4
            # The worker survived the bad directive and still answers.
            assert pool.request(pool.handles[0], ("report", 0, None)).cursor == 0
        finally:
            pool.shutdown()


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


class TestCli:
    FLEET_ARGS = [
        "fleet", "--seed", "7", "--shards", "2", "--hosts", "8",
        "--nyms", "24", "--epoch-s", "15", "--host-crashes", "0",
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

    def test_stats_scale_fails_cleanly_on_bad_dir(self, tmp_path, capsys):
        assert main(["stats", "--scale", str(tmp_path)]) == 1
        assert "merged metrics spool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--tenant-config", ["--tenant-config", "tenants.json"]),
            ("--duration", ["--duration", "0"]),
            ("--no-compare", ["--no-compare"]),
        ],
    )
    @pytest.mark.parametrize("mode", ["shards", "resume"])
    def test_sharded_path_rejects_ignored_flags(
        self, tmp_path, capsys, flag, extra, mode
    ):
        spool = str(tmp_path / "spool")
        out = str(tmp_path / "out.json")
        base = (
            self.FLEET_ARGS if mode == "shards"
            else ["fleet", "--resume", str(tmp_path / "ck")]
        )
        assert main(base + ["--spool-dir", spool, "--out", out] + extra) == 2
        assert flag in capsys.readouterr().err
        assert not os.path.exists(spool) and not os.path.exists(out)
