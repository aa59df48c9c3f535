"""Simulated clock, event queue, and the Timeline façade.

The simulation is *analytic-first*: most operations compute how long they
take and advance the clock directly.  The event queue exists for the cases
where several activities complete out of order (parallel downloads, KSM
scan passes, deferred callbacks) and for tests that need to observe
interleavings.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.rng import SeededRng


class Clock:
    """A monotonic simulated wall clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise SimulationError(f"cannot advance clock by {seconds!r} s")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Advance the clock to the absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot move clock backwards: now={self._now}, target={when}"
            )
        self._now = when
        return self._now

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.6f})"


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled at an absolute simulated time."""

    when: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: weak reference to the queue whose heap holds this event, or None
    #: once it left the heap; weak, so a pending event closes no cycle
    _queue: Optional[Callable[[], Optional["EventQueue"]]] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the queue skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            queue, self._queue = self._queue(), None
            if queue is not None:
                queue._note_cancelled()


class EventQueue:
    """Priority queue of :class:`ScheduledEvent`, ordered by time then FIFO.

    Cancelled events become heap tombstones; a live-event counter keeps
    ``len()`` O(1), and the heap is compacted whenever tombstones exceed
    half of its entries, so mass cancellation cannot pin memory until the
    dead timestamps drain.
    """

    #: Compact only past this size — tiny heaps aren't worth rebuilding.
    _COMPACT_MIN_ENTRIES = 8

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._heap: List[ScheduledEvent] = []
        self._seq = itertools.count()
        self._tombstones = 0
        self._ref = weakref.ref(self)

    def __len__(self) -> int:
        return len(self._heap) - self._tombstones

    def _note_cancelled(self) -> None:
        """Cancel hook for events still in the heap."""
        self._tombstones += 1
        if (
            len(self._heap) >= self._COMPACT_MIN_ENTRIES
            and self._tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        self._heap = [event for event in self._heap if not event.cancelled]
        heapq.heapify(self._heap)
        self._tombstones = 0

    def _pop(self) -> ScheduledEvent:
        """Pop the heap head, keeping the tombstone count coherent."""
        event = heapq.heappop(self._heap)
        if event.cancelled:
            self._tombstones -= 1
        else:
            # Out of the heap now: a late cancel must not count a tombstone.
            event._queue = None
        return event

    def schedule_at(self, when: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self._clock.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self._clock.now}, when={when}"
            )
        event = ScheduledEvent(when=when, seq=next(self._seq), callback=callback)
        event._queue = self._ref
        heapq.heappush(self._heap, event)
        return event

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule_at(self._clock.now + delay, callback)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0].when

    def run_until(self, when: float) -> int:
        """Run every event scheduled at or before ``when``.

        The clock advances to each event's time as it fires and ends at
        ``when``.  Returns the number of callbacks executed.
        """
        if when < self._clock.now:
            raise SimulationError("run_until target is in the past")
        fired = 0
        while True:
            self._drop_cancelled_head()
            if not self._heap or self._heap[0].when > when:
                break
            event = self._pop()
            self._clock.advance_to(event.when)
            event.callback()
            fired += 1
        self._clock.advance_to(when)
        return fired

    def run_all(self, limit: int = 1_000_000) -> int:
        """Run every pending event (including ones scheduled while running).

        ``limit`` guards against runaway self-rescheduling loops.
        """
        fired = 0
        while True:
            self._drop_cancelled_head()
            if not self._heap:
                return fired
            event = self._pop()
            self._clock.advance_to(event.when)
            event.callback()
            fired += 1
            if fired >= limit:
                raise SimulationError(f"event loop exceeded {limit} events")

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            self._pop()


class Timeline:
    """Clock + event queue + deterministic RNG + observability: the context.

    A single ``Timeline`` is threaded through every subsystem so that all
    activity shares one notion of time, one seeded randomness source, and
    one observability sink (``timeline.obs``, stamped by this clock),
    keeping whole-system runs reproducible bit-for-bit.
    """

    def __init__(self, seed: int = 0, start: float = 0.0) -> None:
        from repro.faults.injector import FaultInjector
        from repro.obs import Observability
        from repro.tenancy.registry import TenantRegistry

        self.clock = Clock(start=start)
        self.events = EventQueue(self.clock)
        self.rng = SeededRng(seed)
        self.obs = Observability(self.clock)
        #: this timeline's tenant registry, empty until a policy is
        #: applied — enforcement paths consult ``timeline.tenancy`` like
        #: ``timeline.obs``/``timeline.faults``
        self.tenancy = TenantRegistry(self)
        #: this timeline's fault injector, unarmed until a plan is armed
        #: on it — operation paths consult ``timeline.faults`` the same
        #: way they emit to ``timeline.obs``
        self.faults = FaultInjector(self)

    @property
    def now(self) -> float:
        return self.clock.now

    def sleep(self, seconds: float) -> float:
        """Advance time by ``seconds``, firing any events that come due."""
        target = self.clock.now + seconds
        self.events.run_until(target)
        return self.clock.now

    def after(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        return self.events.schedule_in(delay, callback)

    def fork_rng(self, label: str) -> SeededRng:
        """Derive an independent RNG stream named by ``label``."""
        return self.rng.fork(label)

    def __repr__(self) -> str:
        return f"Timeline(now={self.clock.now:.3f}, pending={len(self.events)})"
