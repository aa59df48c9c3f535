"""Streamed journals: spool bytes, equivalence, offsets, replay resume."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import EventJournal
from repro.sim import Clock


def _fill(journal, n, clock=None):
    for index in range(n):
        if clock is not None:
            clock.advance(0.25)
        journal.record("scale.tick", i=index, batch=index // 7)


class TestStreamedJournal:
    def test_spool_bytes_match_in_memory_write(self, tmp_path):
        clock_a, clock_b = Clock(), Clock()
        memory = EventJournal(clock_a)
        streamed = EventJournal(clock_b)
        streamed.stream_to(tmp_path / "spool.jsonl", window=3)
        _fill(memory, 25, clock_a)
        _fill(streamed, 25, clock_b)
        streamed.close_spool()
        memory.write_jsonl(tmp_path / "memory.jsonl")
        assert (tmp_path / "spool.jsonl").read_bytes() == (
            tmp_path / "memory.jsonl"
        ).read_bytes()

    def test_export_jsonl_identical_between_modes(self, tmp_path):
        clock_a, clock_b = Clock(), Clock()
        memory = EventJournal(clock_a)
        streamed = EventJournal(clock_b)
        streamed.stream_to(tmp_path / "spool.jsonl", window=4)
        _fill(memory, 11, clock_a)
        _fill(streamed, 11, clock_b)
        assert streamed.export_jsonl() == memory.export_jsonl()

    def test_pre_stream_events_carry_into_the_spool(self, tmp_path):
        clock = Clock()
        journal = EventJournal(clock)
        _fill(journal, 5, clock)
        journal.stream_to(tmp_path / "spool.jsonl", window=2)
        _fill(journal, 5, clock)
        journal.close_spool()
        lines = (tmp_path / "spool.jsonl").read_text().splitlines()
        assert len(lines) == 10

    def test_flush_timing_never_changes_bytes(self, tmp_path):
        outputs = []
        for window in (1, 2, 1000):
            clock = Clock()
            journal = EventJournal(clock)
            journal.stream_to(tmp_path / f"w{window}.jsonl", window=window)
            _fill(journal, 17, clock)
            journal.flush()
            journal.record("scale.tail")
            journal.close_spool()
            outputs.append((tmp_path / f"w{window}.jsonl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_window_bounds_memory(self, tmp_path):
        journal = EventJournal(Clock())
        journal.stream_to(tmp_path / "spool.jsonl", window=8)
        _fill(journal, 100)
        assert len(journal.events) < 8
        assert len(journal) == 100

    def test_count_stays_exact_across_flushes(self, tmp_path):
        clock = Clock()
        journal = EventJournal(clock)
        journal.stream_to(tmp_path / "spool.jsonl", window=2)
        _fill(journal, 9, clock)
        journal.record("other.kind")
        assert journal.count() == 10
        assert journal.count("scale") == 9
        assert journal.count("scale.tick") == 9
        assert journal.count("other") == 1

    def test_double_stream_to_rejected(self, tmp_path):
        journal = EventJournal(Clock())
        journal.stream_to(tmp_path / "a.jsonl")
        with pytest.raises(ObservabilityError):
            journal.stream_to(tmp_path / "b.jsonl")

    def test_a_spool_that_cannot_open_leaves_the_journal_in_memory(
        self, tmp_path
    ):
        clock = Clock()
        journal = EventJournal(clock)
        _fill(journal, 3, clock)
        with pytest.raises(IsADirectoryError):
            journal.stream_to(tmp_path)
        assert not journal.streaming
        journal.close_spool()  # nothing to close
        journal.stream_to(tmp_path / "spool.jsonl", window=2)
        journal.close_spool()
        assert len((tmp_path / "spool.jsonl").read_text().splitlines()) == 3

    def test_write_jsonl_to_spool_path_is_a_flush(self, tmp_path):
        clock = Clock()
        journal = EventJournal(clock)
        spool = tmp_path / "spool.jsonl"
        journal.stream_to(spool, window=100)
        _fill(journal, 6, clock)
        assert journal.write_jsonl(spool) == 6
        assert len(spool.read_text().splitlines()) == 6


class TestJournalResume:
    def test_replay_reproduces_the_recorded_prefix(self, tmp_path):
        # What a checkpoint keeps of a journal is its flushed offset; a
        # replay from the same events must write exactly those bytes and
        # then go on to the uninterrupted run's spool.
        spool = tmp_path / "spool.jsonl"
        clock = Clock()
        journal = EventJournal(clock)
        journal.stream_to(spool, window=4)
        _fill(journal, 12, clock)
        journal.flush()
        offset = journal.spool_offset
        assert offset == spool.stat().st_size

        # The "killed" run writes more events past the checkpoint...
        _fill(journal, 9, clock)
        journal.close_spool()
        assert spool.stat().st_size > offset

        # ...and the replay matches its first ``offset`` bytes.
        replay_clock = Clock()
        replay = EventJournal(replay_clock)
        replay.stream_to(tmp_path / "replay.jsonl", window=5)
        _fill(replay, 12, replay_clock)
        replay.flush()
        assert replay.spool_offset == offset
        replayed = (tmp_path / "replay.jsonl").read_bytes()
        assert replayed == spool.read_bytes()[:offset]
        for index in range(12, 21):
            replay_clock.advance(0.25)
            replay.record("scale.tick", i=index, batch=index // 7)
        replay.close_spool()

        clock_c = Clock()
        uninterrupted = EventJournal(clock_c)
        uninterrupted.stream_to(tmp_path / "full.jsonl", window=4)
        _fill(uninterrupted, 21, clock_c)
        uninterrupted.close_spool()
        full = (tmp_path / "full.jsonl").read_bytes()
        assert (tmp_path / "replay.jsonl").read_bytes() == full

    def test_replay_restores_counts_and_seq(self, tmp_path):
        clock = Clock()
        journal = EventJournal(clock)
        journal.stream_to(tmp_path / "spool.jsonl", window=2)
        _fill(journal, 7, clock)
        journal.flush()
        replay_clock = Clock()
        replay = EventJournal(replay_clock)
        replay.stream_to(tmp_path / "replay.jsonl", window=3)
        _fill(replay, 7, replay_clock)
        replay.flush()
        assert len(replay) == len(journal) == 7
        assert replay.count("scale.tick") == 7
        assert replay.spool_offset == journal.spool_offset
        record = replay.record("scale.tick", i=7, batch=1)
        assert record.seq == 7
