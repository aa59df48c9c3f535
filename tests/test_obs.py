"""The observability subsystem: metrics, sim-time tracing, event journal."""

import json

import pytest

from repro.core import NymManager, NymixConfig
from repro.errors import JournalOverflowError, ObservabilityError
from repro.obs import (
    NULL_OBS,
    Counter,
    EventJournal,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullObservability,
    Observability,
    Tracer,
    diff_snapshots,
    validate_metric_name,
)
from repro.sim import Clock, Timeline


class TestMetricNames:
    def test_valid_names_pass_through(self):
        for name in ("x", "tor.circuit.build_s", "ksm.pages_merged", "a1.b2"):
            assert validate_metric_name(name) == name

    def test_invalid_names_rejected(self):
        for name in ("", "Tor.circuit", "a..b", ".a", "a.", "a-b", "a b"):
            with pytest.raises(ObservabilityError):
                validate_metric_name(name)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_summary(self):
        hist = Histogram("h")
        for value in (2.0, 8.0, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 15.0
        assert hist.min == 2.0
        assert hist.max == 8.0
        assert hist.last == 5.0
        assert hist.mean == 5.0

    def test_empty_histogram_exports_zeros(self):
        assert Histogram("h").export() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0,
        }


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ObservabilityError):
            registry.gauge("a.b")

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_invalid_name_raises_on_first_use(self, kind):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            getattr(registry, kind)("Bad.Name")
        assert "Bad.Name" not in registry

    def test_names_are_validated_only_at_creation(self, monkeypatch):
        from repro.obs import metrics as metrics_mod

        registry = MetricsRegistry()
        checked = []

        def counting_validate(name):
            checked.append(name)
            return validate_metric_name(name)

        monkeypatch.setattr(metrics_mod, "validate_metric_name", counting_validate)
        first = registry.counter("a.b")
        assert registry.counter("a.b") is first
        assert registry.counter("a.b") is first
        assert checked == ["a.b"]
        with pytest.raises(ObservabilityError, match="is a counter"):
            registry.histogram("a.b")

    def test_names_prefix_respects_dot_boundaries(self):
        registry = MetricsRegistry()
        registry.counter("tor.circuits")
        registry.counter("tor.cells")
        registry.counter("torrent.peers")
        assert registry.names("tor") == ["tor.cells", "tor.circuits"]

    def test_snapshot_mixes_scalars_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2
        assert snapshot["h"]["count"] == 1

    def test_export_json_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert registry.export_json() == '{"a":1,"b":1}'

    def test_diff_reports_movement_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("moved")
        registry.counter("still").inc(3)
        before = registry.snapshot()
        counter.inc(2)
        registry.histogram("h").observe(4.0)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta == {
            "moved": 2,
            "h": {"count": 1, "sum": 4.0, "min": 4.0, "max": 4.0, "mean": 4.0, "last": 4.0},
        }


class TestTracer:
    def test_spans_read_sim_clock(self):
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("outer"):
            clock.advance(3.0)
        (span,) = tracer.finished
        assert (span.start_s, span.end_s, span.duration_s) == (0.0, 3.0, 3.0)

    def test_nesting_records_depth_and_parent(self):
        tracer = Tracer(Clock())
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        child, parent = tracer.finished
        assert child.depth == 1 and parent.depth == 0
        assert child.parent == 1 and parent.parent is None

    def test_out_of_order_close_raises(self):
        tracer = Tracer(Clock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError):
            tracer._pop(outer)

    def test_attrs_are_sorted(self):
        tracer = Tracer(Clock())
        with tracer.span("s", zeta=1, alpha=2):
            pass
        assert tracer.finished[0].attrs == (("alpha", 2), ("zeta", 1))

    def test_render_tree_indents_children(self):
        clock = Clock()
        tracer = Tracer(clock)
        with tracer.span("root"):
            with tracer.span("leaf", vm="x"):
                clock.advance(1.0)
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  leaf [vm=x]")

    def test_span_survives_exceptions(self):
        tracer = Tracer(Clock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.active_depth == 0
        assert tracer.finished[0].name == "doomed"


class TestEventJournal:
    def test_records_carry_sim_time_and_sequence(self):
        clock = Clock()
        journal = EventJournal(clock)
        journal.record("a.b", x=1)
        clock.advance(2.0)
        journal.record("a.c")
        first, second = journal.events
        assert (first.seq, first.t, first.name) == (0, 0.0, "a.b")
        assert (second.seq, second.t) == (1, 2.0)

    def test_invalid_event_name_rejected(self):
        with pytest.raises(ObservabilityError):
            EventJournal(Clock()).record("Not.Valid")

    def test_select_and_count_by_prefix(self):
        journal = EventJournal(Clock())
        journal.record("nym.created")
        journal.record("nym.discarded")
        journal.record("nymbox.page_load")
        assert journal.count("nym") == 2
        assert journal.count() == 3
        assert [e.name for e in journal.select("nymbox")] == ["nymbox.page_load"]

    def test_cap_raises_by_default(self):
        journal = EventJournal(Clock(), max_events=2)
        journal.record("e", i=0)
        journal.record("e", i=1)
        with pytest.raises(JournalOverflowError):
            journal.record("e", i=2)
        assert len(journal) == 2

    def test_cap_drops_new_events_when_opted_in(self):
        journal = EventJournal(Clock(), max_events=2, on_overflow="drop")
        for index in range(5):
            journal.record("e", i=index)
        assert len(journal) == 2
        assert journal.dropped == 3

    def test_unknown_overflow_mode_rejected(self):
        with pytest.raises(ObservabilityError):
            EventJournal(Clock(), on_overflow="whatever")

    def test_streaming_lifts_the_cap(self, tmp_path):
        journal = EventJournal(Clock(), max_events=2)
        journal.stream_to(tmp_path / "spool.jsonl", window=2)
        for index in range(10):
            journal.record("e", i=index)
        assert len(journal) == 10
        assert journal.dropped == 0

    def test_jsonl_round_trips(self, tmp_path):
        journal = EventJournal(Clock())
        journal.record("a.b", n=2, label="x")
        path = tmp_path / "j.jsonl"
        assert journal.write_jsonl(path) == 1
        (line,) = path.read_text().splitlines()
        assert json.loads(line) == {"seq": 0, "t": 0.0, "event": "a.b", "n": 2, "label": "x"}


class TestNullObservability:
    def test_null_obs_is_disabled_and_inert(self):
        assert NULL_OBS.enabled is False
        NULL_OBS.metrics.counter("any.name").inc(5)
        NULL_OBS.metrics.gauge("g").set(9)
        NULL_OBS.metrics.histogram("h").observe(1.0)
        NULL_OBS.event("e", k=1)
        with NULL_OBS.span("s", a=1):
            pass
        assert NULL_OBS.snapshot() == {}
        assert len(NULL_OBS.journal) == 0
        assert NULL_OBS.tracer.export() == []

    def test_null_instruments_are_shared_singletons(self):
        assert NULL_OBS.metrics.counter("a") is NULL_OBS.metrics.counter("b")
        assert NULL_OBS.span("x") is NULL_OBS.span("y")

    def test_fresh_null_observability_matches_singleton_shape(self):
        null = NullObservability()
        assert null.export() == {"metrics": {}, "spans": [], "events": []}


class TestTimelineIntegration:
    def test_timeline_carries_live_obs_by_default(self):
        timeline = Timeline(seed=1)
        assert timeline.obs.enabled
        assert timeline.obs.clock is timeline.clock

    def test_timeline_observability_false_uses_null_obs(self):
        timeline = Timeline(seed=1, observability=False)
        assert timeline.obs is NULL_OBS

    def test_spans_follow_timeline_sleep(self):
        timeline = Timeline()
        with timeline.obs.span("work"):
            timeline.sleep(5.0)
        assert timeline.obs.tracer.finished[0].duration_s == 5.0


def _run_scenario(seed: int, observability: bool = True) -> NymManager:
    manager = NymManager(NymixConfig(seed=seed, observability=observability))
    nymbox = manager.create_nym(name="obs-test")
    manager.timed_browse(nymbox, "bbc.co.uk")
    manager.discard_nym(nymbox)
    return manager


class TestManagerIntegration:
    def test_lifecycle_counters(self):
        manager = _run_scenario(seed=11)
        snapshot = manager.obs.snapshot()
        assert snapshot["nym.created"] == 1
        assert snapshot["nym.discarded"] == 1
        assert snapshot["nym.live"] == 0
        assert snapshot["vmm.vm.boots"] == 2
        assert snapshot["tor.circuit.built"] >= 1
        assert snapshot["nymbox.page_loads"] == 1

    def test_span_tree_covers_launch_phases(self):
        manager = _run_scenario(seed=11)
        names = {span.name for span in manager.obs.tracer.finished}
        assert {"nymbox.launch", "vm.boot", "tor.start", "nymbox.browse",
                "nymbox.discard"} <= names

    def test_journal_records_lifecycle(self):
        manager = _run_scenario(seed=11)
        assert manager.obs.journal.count("nym.created") == 1
        assert manager.obs.journal.count("nym.discarded") == 1

    def test_journal_byte_identical_across_same_seed_runs(self):
        first = _run_scenario(seed=42).obs.journal.export_jsonl()
        second = _run_scenario(seed=42).obs.journal.export_jsonl()
        assert first == second
        assert first  # non-empty: the scenario really did record events

    def test_full_export_deterministic_across_same_seed_runs(self):
        assert (
            _run_scenario(seed=7).obs.export_json()
            == _run_scenario(seed=7).obs.export_json()
        )

    def test_different_seeds_diverge(self):
        assert (
            _run_scenario(seed=1).obs.journal.export_jsonl()
            != _run_scenario(seed=2).obs.journal.export_jsonl()
        )

    def test_disabled_observability_records_nothing(self):
        manager = _run_scenario(seed=11, observability=False)
        assert manager.obs is NULL_OBS
        assert manager.obs.snapshot() == {}
        assert len(manager.obs.journal) == 0

    def test_disabled_observability_same_simulation_results(self):
        on = _run_scenario(seed=13)
        off = _run_scenario(seed=13, observability=False)
        assert on.timeline.now == off.timeline.now
