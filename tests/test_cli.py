"""The operator CLI."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_validate_passes(self, capsys):
        code = main(["--seed", "3", "validate", "--nyms", "2", "--idle", "5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_redteam_contained(self, capsys):
        code = main(["--seed", "3", "redteam", "--nyms", "2"])
        assert code == 0
        assert "ALL CONTAINED" in capsys.readouterr().out

    def test_demo_runs(self, capsys):
        code = main(["demo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stored:" in out and "restored" in out

    def test_catalog_lists_world(self, capsys):
        code = main(["catalog"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tor" in out and "gmail.com" in out and "Windows 8" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStatsCommand:
    def test_stats_prints_metrics(self, capsys):
        code = main(["--seed", "3", "stats", "--nyms", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nym.created" in out
        assert "vmm.boot.phase_s" in out
        assert "tor.circuit.built" in out

    def test_stats_prefix_filters(self, capsys):
        code = main(["--seed", "3", "stats", "--nyms", "1", "--prefix", "tor"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tor.circuit.built" in out
        assert "nym.created" not in out

    def test_stats_unknown_prefix_fails(self, capsys):
        code = main(["--seed", "3", "stats", "--nyms", "1", "--prefix", "nosuch"])
        assert code == 1

    def test_stats_json_is_parseable(self, capsys):
        code = main(["--seed", "3", "stats", "--nyms", "1", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["nym.created"] == 1
        assert snapshot["nymbox.page_loads"] == 1

    def test_stats_writes_journal(self, tmp_path, capsys):
        journal = tmp_path / "events.jsonl"
        code = main(["--seed", "3", "stats", "--nyms", "1", "--journal", str(journal)])
        assert code == 0
        lines = journal.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert any(e["event"] == "nym.created" for e in events)
        assert any(e["event"] == "nym.discarded" for e in events)

    def test_journal_is_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["--seed", "5", "stats", "--journal", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTraceCommand:
    def test_trace_prints_span_tree(self, capsys):
        code = main(["--seed", "3", "trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nymbox.launch" in out
        assert "vm.boot" in out
        assert "tor.start" in out
        # Children are indented beneath their parent span.
        assert "\n  vm.boot" in out

    def test_trace_is_deterministic(self, capsys):
        main(["--seed", "4", "trace"])
        first = capsys.readouterr().out
        main(["--seed", "4", "trace"])
        assert capsys.readouterr().out == first


class TestCommonFlags:
    def test_subcommand_seed_overrides_global(self, capsys):
        main(["--seed", "1", "stats", "--seed", "3", "--nyms", "1", "--json"])
        override = capsys.readouterr().out
        main(["--seed", "3", "stats", "--nyms", "1", "--json"])
        assert capsys.readouterr().out == override

    def test_every_subcommand_accepts_common_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, __import__("argparse")._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            flags = {opt for action in sub._actions for opt in action.option_strings}
            assert {"--seed", "--duration", "--json"} <= flags, name

    def test_validate_json_report(self, capsys):
        code = main(["validate", "--seed", "3", "--nyms", "1", "--idle", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["dns_leaks"] == 0

    def test_catalog_json_report(self, capsys):
        assert main(["catalog", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "tor" in payload["anonymizers"]
        assert "gmail.com" in payload["websites"]

    def test_duration_extends_the_run(self, capsys):
        main(["stats", "--seed", "3", "--nyms", "1", "--json", "--duration", "0"])
        base = json.loads(capsys.readouterr().out)
        main(["stats", "--seed", "3", "--nyms", "1", "--json", "--duration", "120"])
        longer = json.loads(capsys.readouterr().out)
        assert longer == base  # idle time adds no metric churn, but is accepted


class TestFleetCommand:
    def test_fleet_quick_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        code = main(["fleet", "--quick", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert "ksm-aware saves more RAM than first-fit: yes" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["bench"] == "fleet"
        assert payload["ksm_aware_beats_first_fit"] is True

    def test_fleet_json_output(self, tmp_path, capsys):
        code = main([
            "fleet", "--seed", "7", "--hosts", "2", "--nyms", "6",
            "--no-compare", "--host-crashes", "0", "--json",
            "--out", str(tmp_path / "b.json"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["nyms_resident"] == 6

    def test_reports_are_written_only_to_an_explicit_out(
        self, tmp_path, monkeypatch, capsys
    ):
        # A bare run must never overwrite the tracked BENCH_*.json files.
        monkeypatch.chdir(tmp_path)
        assert main(["fleet", "--seed", "7", "--quick", "--no-compare"]) == 0
        assert main(["--seed", "7", "tenants", "--quick"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_fleet_journal_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = main([
                "fleet", "--seed", "7", "--hosts", "2", "--nyms", "8",
                "--no-compare", "--journal", str(path),
                "--out", str(tmp_path / "bench.json"),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
