"""The perf-regression harness: registry, measurement, CLI plumbing."""

import json

import pytest

from repro.cli import main
from repro.perfbench import (
    BENCHES,
    BenchResult,
    environment_metadata,
    format_results_table,
    measure,
    save_bench_results,
    select_benches,
)

EXPECTED_BENCHES = {
    "memory_churn",
    "ksm_stats",
    "onion_throughput",
    "poly1305",
    "chacha20_xor",
    "mixnet_packet",
    "event_queue_load",
    "fig3_scenario",
    "content_draw",
    "nym_lifecycle",
    "nym_launch",
    "fleet_arrival",
    "fleet_wave",
    "fleet_shard",
}


class TestRegistry:
    def test_expected_benches_registered(self):
        assert set(BENCHES) == EXPECTED_BENCHES

    def test_every_bench_is_described_and_tagged(self):
        for bench in BENCHES.values():
            assert bench.description
            assert bench.tags

    def test_select_all_by_default(self):
        assert {bench.name for bench in select_benches()} == EXPECTED_BENCHES

    def test_select_only(self):
        selected = select_benches(only=["poly1305", "ksm_stats"])
        assert [bench.name for bench in selected] == ["poly1305", "ksm_stats"]

    def test_select_by_tag(self):
        crypto = select_benches(tag="crypto")
        assert {bench.name for bench in crypto} == {
            "onion_throughput",
            "poly1305",
            "chacha20_xor",
            "mixnet_packet",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown bench"):
            select_benches(only=["nope"])

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError, match="no bench has tag"):
            select_benches(tag="nope")

    def test_named_benches_without_the_tag_rejected(self):
        # The tag exists, so the error must not claim that no bench has it.
        with pytest.raises(KeyError) as raised:
            select_benches(only=["poly1305", "ksm_stats"], tag="fleet")
        message = raised.value.args[0]
        assert message == (
            "none of the named benches (poly1305, ksm_stats) has tag 'fleet'"
        )


class TestHarness:
    def test_measure_respects_minimum_iterations(self):
        iterations, seconds = measure(lambda: None, budget_s=0.0, min_iterations=5)
        assert iterations >= 5
        assert seconds >= 0.0

    def test_result_rate_counts_work_per_iteration(self):
        result = BenchResult(
            name="x", tags=["t"], iterations=10, seconds=1.0, work_per_iteration=100.0
        )
        assert result.per_second == pytest.approx(1000.0)

    def test_result_payload_has_only_live_fields(self):
        result = BenchResult(name="x", tags=[], iterations=1, seconds=0.5)
        payload = result.to_dict()
        assert set(payload) == {
            "name", "tags", "unit", "iterations", "seconds", "per_second",
        }
        assert payload["per_second"] == pytest.approx(2.0)

    def test_environment_metadata_names_the_interpreter(self):
        meta = environment_metadata()
        assert meta["python"]
        assert meta["implementation"]
        assert "numpy" in meta

    def test_save_results_roundtrip(self, tmp_path):
        result = BenchResult(name="x", tags=["t"], iterations=3, seconds=0.3)
        path = save_bench_results(str(tmp_path / "out.json"), [result], quick=True)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.perfbench/v2"
        assert payload["quick"] is True
        assert payload["results"][0]["name"] == "x"
        assert payload["results"][0]["per_second"] == pytest.approx(10.0)
        assert payload["environment"]["python"]

    def test_format_results_table_mentions_each_bench(self):
        result = BenchResult(name="some_bench", tags=[], iterations=1, seconds=0.1)
        table = format_results_table([result])
        assert "some_bench" in table
        assert table.splitlines()[0].split() == ["bench", "rate", "unit"]


class TestBenchExecution:
    def test_event_queue_bench_runs_quick(self):
        result = BENCHES["event_queue_load"].run(True)
        assert result.iterations >= 1
        assert result.seconds > 0

    def test_memory_churn_bench_runs_quick(self):
        result = BENCHES["memory_churn"].run(True)
        assert result.iterations >= 3
        assert result.per_second > 0


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_BENCHES:
            assert name in out

    def test_bench_only_writes_results(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = main(
            ["bench", "--quick", "--only", "event_queue_load", "--out", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert [entry["name"] for entry in payload["results"]] == ["event_queue_load"]
        assert "event_queue_load" in capsys.readouterr().out

    def test_bench_unknown_name_fails_cleanly(self, capsys):
        assert main(["bench", "--only", "bogus"]) == 2
        assert "unknown bench" in capsys.readouterr().err
