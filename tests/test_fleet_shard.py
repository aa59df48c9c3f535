"""Sharded fleet scale-out: determinism, epoch barriers, kill/resume.

The whole-run record of a sharded fleet is the canonical concatenation
of its streamed spools (coordinator first, shards in id order).  These
tests pin the three invariants the scale path promises:

* same-seed runs are byte-identical, spool by spool;
* flush timing (the streaming window) never changes a single byte;
* a run killed at (or past) an epoch-barrier checkpoint and resumed —
  by a replay from its config that must reproduce every recorded spool
  up to the checkpoint — finishes with exactly the bytes of an
  uninterrupted run.
"""

import gc
import json
import os
import pathlib

import pytest

from repro.errors import FleetError
from repro.fleet.shard import (
    FleetShard,
    InProcessShards,
    ShardConfig,
    ShardedFleet,
    combined_spool_bytes,
    partition_arrivals,
    resume_sharded_fleet,
    run_sharded_fleet,
)

from tests.gc_counts import cyclic_garbage

CFG = dict(
    seed=7, shards=3, hosts_per_shard=4, nyms=90, host_crashes=2, epoch_s=15.0
)


def run_to_completion(tmp_path, name, **overrides):
    config = ShardConfig(**{**CFG, **overrides})
    spool_dir = str(tmp_path / name)
    result = run_sharded_fleet(config, spool_dir)
    return config, spool_dir, result


def combined(spool_dir, shards):
    paths = [f"{spool_dir}/coordinator.jsonl"] + [
        f"{spool_dir}/shard-{i:02d}.jsonl" for i in range(shards)
    ]
    return combined_spool_bytes(paths)


def spool_files(spool_dir):
    """Every journal and metrics spool in ``spool_dir``, by file name."""
    return {
        path.name: path.read_bytes() for path in pathlib.Path(spool_dir).iterdir()
    }


class Killed(Exception):
    """Stands in for the process dying part-way through a run."""


def kill_on_write(monkeypatch, prefix, nth):
    """Raise instead of the ``nth`` checkpoint write of a file whose name
    starts with ``prefix``; every earlier write lands."""
    real = ShardedFleet._write_atomic
    seen = []

    def write(path, data):
        if os.path.basename(path).startswith(prefix):
            seen.append(path)
            if len(seen) == nth:
                raise Killed(path)
        real(path, data)

    monkeypatch.setattr(ShardedFleet, "_write_atomic", staticmethod(write))


#: Seed 7, 2 shards x 4 hosts, 60 nyms, 5 s epochs: six epochs in all.
KILL_CFG = dict(seed=7, shards=2, hosts_per_shard=4, nyms=60, epoch_s=5.0)


class TestShardConfig:
    def test_rejects_degenerate_configs(self):
        with pytest.raises(FleetError):
            ShardConfig(shards=0)
        with pytest.raises(FleetError):
            ShardConfig(epoch_s=0)
        with pytest.raises(FleetError, match="needs >= 1 host"):
            ShardConfig(hosts_per_shard=0)
        with pytest.raises(FleetError, match="nyms must be >= 0"):
            ShardConfig(nyms=-5)
        with pytest.raises(FleetError, match="unknown placement policy"):
            ShardConfig(policy="no-such-policy")
        assert ShardConfig(nyms=0).nyms == 0

    def test_shard_seeds_are_stable_and_distinct(self):
        config = ShardConfig(**CFG)
        seeds = [config.shard_seed(i) for i in range(config.shards)]
        assert seeds == [ShardConfig(**CFG).shard_seed(i) for i in range(3)]
        assert len(set(seeds)) == len(seeds)

    def test_partition_is_round_robin_with_absolute_times(self):
        config = ShardConfig(**CFG)
        per_shard = partition_arrivals(config)
        assert sum(len(s) for s in per_shard) == config.nyms
        # Arrival i lands on shard i % shards; absolute times are the
        # cumulative interarrival sums, so each slice is increasing.
        assert per_shard[0][0][1].name == "nym-0000"
        assert per_shard[1][0][1].name == "nym-0001"
        for slice_ in per_shard:
            times = [t for t, _ in slice_]
            assert times == sorted(times)
        # The same nyms regardless of shard count, just redistributed.
        one = partition_arrivals(ShardConfig(**{**CFG, "shards": 1}))
        all_names = sorted(a.name for s in per_shard for _, a in s)
        assert all_names == sorted(a.name for _, a in one[0])

    def test_partition_is_a_pure_function_of_the_config(self):
        # Repeated partitioning must yield identical streams — arrival
        # names, times, churn, everything — or worker processes (which
        # re-derive nothing, receiving their slices over the pipe) and
        # local shards (which may re-partition) could diverge.
        config = ShardConfig(**CFG)
        assert partition_arrivals(config) == partition_arrivals(config)

    def test_shard_seed_ignores_execution_details(self):
        # shard_seed must depend on (seed, shard_id) only: the same
        # shard keeps its RNG stream whether the run uses 1 process or
        # 8, 3 shards or 30.
        base = ShardConfig(**CFG)
        reshaped = ShardConfig(**{**CFG, "shards": 30, "hosts_per_shard": 1})
        assert [base.shard_seed(i) for i in range(3)] == [
            reshaped.shard_seed(i) for i in range(3)
        ]
        assert base.shard_seed(0) != ShardConfig(**{**CFG, "seed": 8}).shard_seed(0)


class TestShardedDeterminism:
    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        config, dir_a, result_a = run_to_completion(tmp_path, "a")
        _, dir_b, result_b = run_to_completion(tmp_path, "b")
        bytes_a = combined(dir_a, config.shards)
        assert bytes_a
        assert bytes_a == combined(dir_b, config.shards)
        assert result_a.export() == result_b.export()

    def test_flush_window_never_changes_bytes(self, tmp_path):
        config, dir_a, _ = run_to_completion(tmp_path, "w-default")
        _, dir_b, _ = run_to_completion(tmp_path, "w-tiny", journal_window=1)
        assert combined(dir_a, config.shards) == combined(dir_b, config.shards)

    def test_run_places_every_nym_and_merges_accounting(self, tmp_path):
        config, _, result = run_to_completion(tmp_path, "full")
        assert result.completed
        merged = result.merged
        assert merged["nyms_resident"] + merged["nyms_parked"] == config.nyms
        assert merged["host_crashes"] == config.host_crashes
        shard_events = sum(s["journal_events"] for s in result.shard_stats)
        coordinator_events = result.journal_events - shard_events
        # The coordinator records one creation record plus, per epoch,
        # one merged event and one per-shard event (and any crashes).
        assert coordinator_events >= 1 + result.epochs * (1 + config.shards)
        per_shard_resident = sum(s["nyms_resident"] for s in result.shard_stats)
        assert per_shard_resident == merged["nyms_resident"]

    def test_streamed_shard_journal_matches_in_memory_export(self, tmp_path):
        # The spool on disk and the journal's own export must agree —
        # the streamed journal IS the in-memory journal, just flushed.
        config = ShardConfig(**CFG)
        sharded = ShardedFleet(config, str(tmp_path / "x"))
        sharded.run()
        for shard in sharded.shards:
            exported = shard.journal.export_jsonl()
            with open(shard.journal.spool_path) as handle:
                assert handle.read() == exported + "\n"
        sharded.close()


class TestKillResume:
    @pytest.mark.parametrize(
        "stop_after", [1, 2, None], ids=["epoch-1", "epoch-2", "completed"]
    )
    def test_resume_from_checkpoint_is_byte_identical(self, tmp_path, stop_after):
        # ``None`` resumes from the final checkpoint of a completed run:
        # the replay runs every epoch and the resume only seals the spools.
        config, dir_a, clean = run_to_completion(tmp_path, "uninterrupted")
        baseline = combined(dir_a, config.shards)

        dir_b = str(tmp_path / "killed")
        ck = str(tmp_path / "ck")
        partial = run_sharded_fleet(
            config, dir_b, checkpoint_dir=ck, stop_after_epoch=stop_after
        )
        assert partial.completed == (stop_after is None)
        assert partial.epochs == (stop_after or clean.epochs)
        _, resumed = resume_sharded_fleet(ck)
        assert resumed.completed
        assert resumed.epochs == clean.epochs
        assert combined(dir_b, config.shards) == baseline
        assert spool_files(dir_b) == spool_files(dir_a)

    @pytest.mark.parametrize("procs", [1, 2])
    @pytest.mark.parametrize(
        "killed_at", ["manifest"], ids=["before-the-manifest"]
    )
    def test_kill_during_a_checkpoint_resumes_byte_identical(
        self, tmp_path, monkeypatch, killed_at, procs
    ):
        # The kill lands inside the second checkpoint, before its
        # manifest replaced the first one: resume starts from the first.
        config = ShardConfig(**KILL_CFG)
        clean = str(tmp_path / "clean")
        run_sharded_fleet(config, clean)

        spools = str(tmp_path / "killed")
        ck = str(tmp_path / "ck")
        sharded = ShardedFleet(config, spools, checkpoint_dir=ck, procs=procs)
        with monkeypatch.context() as patch:
            kill_on_write(patch, killed_at, nth=2)
            with pytest.raises(Killed):
                sharded.run()
        sharded.shutdown()
        _, resumed = resume_sharded_fleet(ck, procs=procs)
        assert resumed.completed
        assert spool_files(spools) == spool_files(clean)

    @pytest.mark.parametrize("procs", [1, 2])
    def test_kill_during_a_replay_resumes_byte_identical(
        self, tmp_path, monkeypatch, procs
    ):
        # The first resume dies half-way through replaying the four
        # checkpointed epochs, after it set the recorded spools aside;
        # the second reuses those copies and still ends byte-identical.
        config = ShardConfig(**KILL_CFG)
        clean = str(tmp_path / "clean")
        run_sharded_fleet(config, clean)

        spools = str(tmp_path / "killed")
        ck = str(tmp_path / "ck")
        run_sharded_fleet(config, spools, checkpoint_dir=ck, stop_after_epoch=4)
        barrier = ShardedFleet._barrier

        def dying_barrier(sharded, epoch_end, reports):
            if sharded.epoch == 2:
                raise Killed(f"replay epoch {sharded.epoch}")
            barrier(sharded, epoch_end, reports)

        with monkeypatch.context() as patch:
            patch.setattr(ShardedFleet, "_barrier", dying_barrier)
            with pytest.raises(Killed):
                resume_sharded_fleet(ck, procs=procs)
        set_aside = sorted(
            name for name in os.listdir(spools) if name.endswith(".recorded")
        )
        assert set_aside == sorted(f"{name}.recorded" for name in os.listdir(clean))
        _, resumed = resume_sharded_fleet(ck, procs=procs)
        assert resumed.completed
        assert spool_files(spools) == spool_files(clean)

    def test_a_checkpoint_directory_holds_one_generation(self, tmp_path):
        config = ShardConfig(**KILL_CFG)
        ck = tmp_path / "ck"
        result = run_sharded_fleet(config, str(tmp_path / "s"), checkpoint_dir=str(ck))
        assert os.listdir(ck) == ["manifest.json"]
        manifest = json.loads((ck / "manifest.json").read_text())
        assert manifest["epoch"] == result.epochs

    def test_resume_truncates_bytes_written_past_the_checkpoint(self, tmp_path):
        config, dir_a, _ = run_to_completion(tmp_path, "clean")
        baseline = combined(dir_a, config.shards)

        dir_b = str(tmp_path / "dirty")
        ck = str(tmp_path / "ck-dirty")
        sharded = ShardedFleet(config, dir_b, checkpoint_dir=ck)
        sharded.run(stop_after_epoch=1)
        # The "kill" lands mid-epoch-2: progress already flushed to the
        # spools, but no checkpoint taken, and every spool ends in a torn
        # half-line.  Resume must cut those bytes.
        sharded.epoch += 1
        for shard in sharded.shards:
            shard.run_epoch(sharded.epoch * config.epoch_s)
            shard.journal.flush()
        for path in sharded.spool_paths() + sharded.metrics_paths():
            with open(path, "ab") as handle:
                handle.write(b'{"event": "torn')
        _, resumed = resume_sharded_fleet(ck)
        assert resumed.completed
        assert combined(dir_b, config.shards) == baseline
        assert spool_files(dir_b) == spool_files(dir_a)

    def test_resume_replays_to_the_checkpointed_state(self, tmp_path):
        # Nothing of a shard is saved: the replay alone must bring back
        # its cursor, clock, RNG position, journal counts and placements.
        config = ShardConfig(**CFG)
        sharded = ShardedFleet(
            config, str(tmp_path / "p"), checkpoint_dir=str(tmp_path / "p-ck")
        )
        sharded.run(stop_after_epoch=1)
        resumed = ShardedFleet.resume(str(tmp_path / "p-ck"))
        assert resumed.epoch == sharded.epoch == 1
        assert resumed._reports == sharded._reports
        for shard, replayed in zip(sharded.shards, resumed.shards):
            assert replayed.cursor == shard.cursor
            assert replayed.timeline.now == shard.timeline.now
            assert len(replayed.journal) == len(shard.journal)
            assert replayed.fleet.placements == shard.fleet.placements
            assert replayed.timeline.rng.random() == shard.timeline.rng.random()

    def test_a_checkpoint_sends_no_shard_op(self, tmp_path, monkeypatch):
        # The manifest takes every offset from the barrier's reports, so
        # a checkpointing run asks its shards exactly what a plain one does.
        ops = []
        call = InProcessShards.call

        def recording_call(shards, op, payloads):
            ops.append(op)
            return call(shards, op, payloads)

        monkeypatch.setattr(InProcessShards, "call", recording_call)
        config = ShardConfig(**CFG)
        run_sharded_fleet(config, str(tmp_path / "plain"))
        plain, ops[:] = list(ops), []
        run_sharded_fleet(
            config, str(tmp_path / "ck-run"), checkpoint_dir=str(tmp_path / "ck")
        )
        assert ops == plain

    @pytest.mark.parametrize(
        "spool", ["shard-01.jsonl", "shard-00.metrics.jsonl"],
        ids=["journal", "metrics"],
    )
    def test_resume_refuses_a_spool_altered_inside_its_checkpoint(
        self, tmp_path, spool
    ):
        config = ShardConfig(**KILL_CFG)
        spools = tmp_path / "spools"
        ck = str(tmp_path / "ck")
        run_sharded_fleet(config, str(spools), checkpoint_dir=ck, stop_after_epoch=3)
        offset = json.loads((tmp_path / "ck" / "manifest.json").read_text())[
            "spool_offsets"
        ][str(spools / spool)]
        recorded = bytearray((spools / spool).read_bytes())
        flipped = offset // 2
        recorded[flipped] ^= 0x01
        (spools / spool).write_bytes(bytes(recorded))
        with pytest.raises(FleetError, match=f"{spool} does not match") as excinfo:
            resume_sharded_fleet(ck)
        assert f"at byte {flipped} " in str(excinfo.value)
        assert (spools / f"{spool}.recorded").read_bytes() == bytes(recorded)

    def test_resume_from_another_directory(self, tmp_path, monkeypatch):
        config = ShardConfig(**KILL_CFG)
        clean = str(tmp_path / "clean")
        run_sharded_fleet(config, clean)
        (tmp_path / "run").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        run_sharded_fleet(config, "sp", checkpoint_dir="ck", stop_after_epoch=1)
        monkeypatch.chdir(tmp_path / "elsewhere")
        _, resumed = resume_sharded_fleet("../run/ck")
        assert resumed.completed
        assert spool_files(tmp_path / "run" / "sp") == spool_files(clean)

    def test_resume_names_a_missing_spool_before_replaying(self, tmp_path):
        config = ShardConfig(**KILL_CFG)
        spools = tmp_path / "spools"
        ck = str(tmp_path / "ck")
        run_sharded_fleet(config, str(spools), checkpoint_dir=ck, stop_after_epoch=1)
        (spools / "shard-01.metrics.jsonl").unlink()
        before = spool_files(spools)
        with pytest.raises(FleetError, match="shard-01.metrics.jsonl"):
            resume_sharded_fleet(ck)
        assert spool_files(spools) == before

    @pytest.mark.parametrize(
        "damage, problem",
        [
            ("no-spool-offsets", "has no valid 'spool_offsets'"),
            ("flash-clone", "does not know: flash_clone"),
            ("truncated", "is not valid JSON"),
        ],
        ids=["no-spool-offsets", "flash-clone", "truncated"],
    )
    def test_resume_refuses_an_old_or_damaged_manifest(
        self, tmp_path, damage, problem
    ):
        # A manifest from before checkpoints recorded spool offsets, one
        # whose config still has the removed ``flash_clone`` field, and
        # one cut off mid-write.
        config = ShardConfig(**KILL_CFG)
        spools = tmp_path / "spools"
        ck = tmp_path / "ck"
        run_sharded_fleet(
            config, str(spools), checkpoint_dir=str(ck), stop_after_epoch=1
        )
        path = ck / "manifest.json"
        manifest = json.loads(path.read_text())
        if damage == "no-spool-offsets":
            del manifest["spool_offsets"]
            path.write_text(json.dumps(manifest))
        elif damage == "flash-clone":
            manifest["config"]["flash_clone"] = True
            path.write_text(json.dumps(manifest))
        else:
            path.write_text(path.read_text()[:100])
        before = spool_files(spools)
        with pytest.raises(FleetError, match=problem) as excinfo:
            resume_sharded_fleet(str(ck))
        assert f"cannot resume from {ck}" in str(excinfo.value)
        assert spool_files(spools) == before
        assert not list(spools.glob("*.recorded"))

    def test_checkpoint_without_dir_raises(self, tmp_path):
        sharded = ShardedFleet(ShardConfig(**CFG), str(tmp_path / "nd"))
        with pytest.raises(FleetError):
            sharded.checkpoint()


class TestStandaloneShard:
    def test_single_shard_processes_its_slice(self, tmp_path):
        config = ShardConfig(**{**CFG, "host_crashes": 0})
        shard = FleetShard(config, 1, str(tmp_path / "solo.jsonl"))
        placed = shard.run_epoch(config.epoch_s * 50)
        assert shard.done
        assert placed == len(shard.arrivals)
        assert shard.timeline.now >= config.epoch_s * 50


#: Seed 7, 2 shards x 4 hosts, 200 nyms, 2 host crashes, 30 s epochs:
#: crash evacuations, pressure evacuations and 20 parked nyms.
CRASH_PARK_CFG = dict(
    seed=7, shards=2, hosts_per_shard=4, nyms=200, host_crashes=2, epoch_s=30.0
)


class TestGarbageCollection:
    """Each barrier freezes the heap and the run's close unfreezes it,
    which is safe only because a run makes no reference cycles: reference
    counting alone frees everything a closed run drops."""

    @pytest.mark.parametrize(
        "config, procs",
        [
            (dict(seed=1, shards=2, hosts_per_shard=2, nyms=20), 1),
            (CRASH_PARK_CFG, 1),
            (CRASH_PARK_CFG, 2),  # the coordinator's side of the pipes
        ],
        ids=["2x2-hosts", "crash-park", "crash-park-procs-2"],
    )
    def test_a_closed_run_leaves_no_cycle(self, tmp_path, config, procs):
        def closed_run():
            run_sharded_fleet(
                ShardConfig(**config), str(tmp_path / "spool"), procs=procs
            )
            assert gc.get_freeze_count() == 0

        assert cyclic_garbage(closed_run) == 0

    def test_a_barrier_freezes_until_the_close(self, tmp_path):
        gc.unfreeze()
        sharded = ShardedFleet(ShardConfig(**KILL_CFG), str(tmp_path / "spool"))
        assert gc.get_freeze_count() == 0
        assert not sharded.run(stop_after_epoch=1).completed
        assert gc.get_freeze_count() > 0
        sharded.run()
        sharded.close()
        assert gc.get_freeze_count() == 0

    def test_a_stopped_run_is_unfrozen_when_sealed(self, tmp_path):
        gc.unfreeze()
        partial = run_sharded_fleet(
            ShardConfig(**KILL_CFG), str(tmp_path / "spool"), stop_after_epoch=2
        )
        assert not partial.completed
        assert gc.get_freeze_count() == 0

    def test_a_failed_build_leaves_nothing_frozen(self, tmp_path):
        # Shard 0 builds, shard 1's spool path is taken by a directory.
        spool = tmp_path / "spool"
        (spool / "shard-01.jsonl").mkdir(parents=True)
        gc.freeze()  # a caller's own freeze: the run's close undoes it too
        with pytest.raises(IsADirectoryError):
            ShardedFleet(ShardConfig(**KILL_CFG), str(spool))
        assert gc.get_freeze_count() == 0

    def test_repeated_runs_keep_memory_bounded(self, tmp_path):
        # With the collector on, as in production: a cycle that survived
        # into a run would be frozen by the next run's barriers and only
        # reach the collector again at that run's close, so each run
        # would leave about one run's garbage more than the last.
        def live_objects_after_a_run():
            merged = run_sharded_fleet(
                ShardConfig(**CRASH_PARK_CFG), str(tmp_path / "spool")
            ).merged
            assert merged["host_crashes"] == 2
            assert merged["evacuations"] > merged["nyms_parked"] > 0
            return len(gc.get_objects()) + gc.get_freeze_count()

        gc.unfreeze()
        gc.collect()
        first = live_objects_after_a_run()
        later = [live_objects_after_a_run() for _ in range(4)]
        assert max(later) - first < 500, (first, later)
