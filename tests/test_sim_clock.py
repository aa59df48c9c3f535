"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Clock, EventQueue, Timeline

from tests.gc_counts import cyclic_garbage


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(start=100.0).now == 100.0

    def test_advance_accumulates(self):
        clock = Clock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_advance_returns_new_time(self):
        assert Clock().advance(3.0) == 3.0

    def test_advance_negative_rejected(self):
        with pytest.raises(SimulationError):
            Clock().advance(-0.1)

    def test_advance_to(self):
        clock = Clock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_past_rejected(self):
        clock = Clock(start=5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.9)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule_in(2.0, lambda: fired.append("b"))
        queue.schedule_in(1.0, lambda: fired.append("a"))
        queue.schedule_in(3.0, lambda: fired.append("c"))
        queue.run_all()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        for label in ("first", "second", "third"):
            queue.schedule_in(1.0, lambda lab=label: fired.append(lab))
        queue.run_all()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_times(self):
        clock = Clock()
        queue = EventQueue(clock)
        seen = []
        queue.schedule_in(2.5, lambda: seen.append(clock.now))
        queue.run_all()
        assert seen == [2.5]
        assert clock.now == 2.5

    def test_run_until_partial(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule_in(1.0, lambda: fired.append(1))
        queue.schedule_in(5.0, lambda: fired.append(5))
        count = queue.run_until(2.0)
        assert count == 1
        assert fired == [1]
        assert clock.now == 2.0
        assert len(queue) == 1

    def test_cancelled_events_skip(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        event = queue.schedule_in(1.0, lambda: fired.append("x"))
        event.cancel()
        queue.run_all()
        assert fired == []

    def test_schedule_in_past_rejected(self):
        clock = Clock(start=10.0)
        queue = EventQueue(clock)
        with pytest.raises(SimulationError):
            queue.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        queue = EventQueue(Clock())
        with pytest.raises(SimulationError):
            queue.schedule_in(-1.0, lambda: None)

    def test_events_can_reschedule(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []

        def recurring():
            fired.append(clock.now)
            if len(fired) < 3:
                queue.schedule_in(1.0, recurring)

        queue.schedule_in(1.0, recurring)
        queue.run_all()
        assert fired == [1.0, 2.0, 3.0]

    def test_runaway_loop_guard(self):
        clock = Clock()
        queue = EventQueue(clock)

        def forever():
            queue.schedule_in(0.001, forever)

        queue.schedule_in(0.001, forever)
        with pytest.raises(SimulationError):
            queue.run_all(limit=100)

    def test_next_event_time(self):
        clock = Clock()
        queue = EventQueue(clock)
        assert queue.next_event_time() is None
        queue.schedule_in(4.0, lambda: None)
        assert queue.next_event_time() == 4.0

    def test_next_event_time_skips_cancelled_head(self):
        clock = Clock()
        queue = EventQueue(clock)
        head = queue.schedule_in(1.0, lambda: None)
        queue.schedule_in(2.0, lambda: None)
        head.cancel()
        assert queue.next_event_time() == 2.0

    def test_len_ignores_cancelled(self):
        queue = EventQueue(Clock())
        kept = queue.schedule_in(1.0, lambda: None)
        gone = queue.schedule_in(2.0, lambda: None)
        assert len(queue) == 2
        gone.cancel()
        assert len(queue) == 1
        kept.cancel()
        assert len(queue) == 0

    def test_event_can_cancel_a_later_event(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        victim = queue.schedule_in(2.0, lambda: fired.append("victim"))
        queue.schedule_in(1.0, lambda: victim.cancel())
        queue.run_all()
        assert fired == []
        assert clock.now == 1.0

    def test_cancelled_events_not_counted_by_run_until(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        doomed = queue.schedule_in(1.0, lambda: fired.append("doomed"))
        queue.schedule_in(2.0, lambda: fired.append("kept"))
        doomed.cancel()
        assert queue.run_until(3.0) == 1
        assert fired == ["kept"]

    def test_same_timestamp_fifo_across_schedule_styles(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        queue.schedule_at(1.0, lambda: fired.append("at-first"))
        queue.schedule_in(1.0, lambda: fired.append("in-second"))
        queue.schedule_at(1.0, lambda: fired.append("at-third"))
        queue.run_all()
        assert fired == ["at-first", "in-second", "at-third"]

    def test_run_until_past_rejected(self):
        clock = Clock(start=5.0)
        queue = EventQueue(clock)
        with pytest.raises(SimulationError):
            queue.run_until(4.0)

    def test_cancel_after_fire_is_harmless(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        event = queue.schedule_in(1.0, lambda: fired.append("x"))
        queue.run_all()
        event.cancel()  # late cancel of an already-fired event: no effect
        assert fired == ["x"]
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        clock = Clock()
        queue = EventQueue(clock)
        event = queue.schedule_in(1.0, lambda: None)
        queue.schedule_in(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1
        assert queue.run_all() == 1

    def test_mass_cancellation_compacts_the_heap(self):
        clock = Clock()
        queue = EventQueue(clock)
        events = [queue.schedule_in(float(i + 1), lambda: None) for i in range(100)]
        for event in events[10:]:
            event.cancel()
        # Compaction keeps tombstones below half the heap, so the 90
        # cancelled events cannot pin the heap at its high-water mark.
        assert queue._tombstones * 2 <= len(queue._heap)
        assert len(queue._heap) < 30
        assert len(queue) == 10
        assert queue.run_all() == 10

    def test_len_stays_consistent_through_churn(self):
        clock = Clock()
        queue = EventQueue(clock)
        live = 0
        events = []
        for i in range(200):
            events.append(queue.schedule_in(float(i + 1), lambda: None))
            live += 1
            if i % 3 == 0:
                events[i // 2].cancel()
        expected = sum(1 for event in events if not event.cancelled)
        assert len(queue) == expected
        assert queue.run_all() == expected
        assert len(queue) == 0

    def test_compaction_preserves_fire_order(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        keep = []
        for i in range(50):
            event = queue.schedule_in(
                float(50 - i), lambda t=50 - i: fired.append(t)
            )
            if i % 5 == 0:
                keep.append(event)
        for event in queue._heap:
            if event not in keep:
                event.cancel()
        queue.run_all()
        assert fired == sorted(fired)
        assert len(fired) == len(keep)

    def test_cancel_inside_callback_during_drain(self):
        clock = Clock()
        queue = EventQueue(clock)
        fired = []
        victims = [
            queue.schedule_in(2.0 + i, lambda i=i: fired.append(i)) for i in range(20)
        ]
        queue.schedule_in(1.0, lambda: [v.cancel() for v in victims])
        assert queue.run_all() == 1
        assert fired == []
        assert len(queue) == 0


class TestTimeline:
    def test_sleep_advances_and_fires(self):
        timeline = Timeline()
        fired = []
        timeline.after(1.0, lambda: fired.append(timeline.now))
        timeline.sleep(2.0)
        assert fired == [1.0]
        assert timeline.now == 2.0

    def test_fork_rng_streams_differ(self):
        timeline = Timeline(seed=1)
        a = timeline.fork_rng("a")
        b = timeline.fork_rng("b")
        assert a.token_bytes(8) != b.token_bytes(8)

    def test_fork_rng_is_stable(self):
        assert (
            Timeline(seed=1).fork_rng("x").token_bytes(8)
            == Timeline(seed=1).fork_rng("x").token_bytes(8)
        )

    def test_same_seed_same_behaviour(self):
        values = []
        for _ in range(2):
            timeline = Timeline(seed=9)
            values.append(timeline.rng.random())
        assert values[0] == values[1]

    def test_a_pending_event_leaves_no_cycle(self):
        """A pending event reaches its queue only through a weak
        reference, so reference counting alone frees a dropped timeline,
        and a later cancel of the event is a no-op.  The timeline's own
        pending callbacks (a staged tenancy boundary, an armed fault plan)
        hold their queue weakly too; tests/test_tenancy.py and
        tests/test_faults.py pin those."""
        def dropped_timeline_with_a_pending_event():
            Timeline(seed=1).after(5.0, lambda: None)

        assert cyclic_garbage(dropped_timeline_with_a_pending_event) == 0
        timeline = Timeline(seed=1)
        event = timeline.after(5.0, lambda: None)
        del timeline
        event.cancel()
        assert event.cancelled
