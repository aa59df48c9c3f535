"""The per-simulation observability facade and its zero-cost no-op twin.

One :class:`Observability` instance per :class:`~repro.sim.clock.Timeline`
bundles the three pillars — a :class:`~repro.obs.metrics.MetricsRegistry`,
a sim-time :class:`~repro.obs.trace.Tracer`, and an
:class:`~repro.obs.journal.EventJournal` — behind one object that every
subsystem reaches as ``timeline.obs``.

When observability is disabled (``NymixConfig(observability=False)``),
the timeline carries :data:`NULL_OBS` instead: the same API surface where
every recording call is a constant-time no-op and ``span()`` returns one
shared do-nothing context manager.  Hot paths bind instruments once at
construction time, so the disabled cost is one attribute access plus an
empty method call — unmeasurable next to the work being instrumented.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry, Snapshot, diff_snapshots
from repro.obs.trace import Tracer


class _FrozenClock:
    """Stand-in clock for an Observability built without a simulation."""

    now = 0.0


class Observability:
    """Metrics + tracing + journal for one simulation timeline."""

    enabled = True

    def __init__(self, clock=None, max_events: int = 250_000) -> None:
        self.clock = clock if clock is not None else _FrozenClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self.journal = EventJournal(self.clock, max_events=max_events)

    # -- conveniences ---------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Append one journal event (shorthand for ``journal.record``)."""
        self.journal.record(name, **fields)

    def span(self, name: str, **attrs):
        """Open a sim-time span (shorthand for ``tracer.span``)."""
        return self.tracer.span(name, **attrs)

    def snapshot(self, prefix: str = "") -> Snapshot:
        return self.metrics.snapshot(prefix)

    def diff(self, before: Snapshot, prefix: str = "") -> Snapshot:
        """Metric movement since a previously captured snapshot."""
        return diff_snapshots(before, self.metrics.snapshot(prefix))

    def export(self) -> Dict[str, object]:
        """Everything observed, as one JSON-ready structure."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.export(),
            "events": [e.export() for e in self.journal],
        }

    def export_json(self) -> str:
        return json.dumps(self.export(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return (
            f"Observability(metrics={len(self.metrics)}, "
            f"spans={len(self.tracer.finished)}, events={len(self.journal)})"
        )


# -- the disabled path ---------------------------------------------------------


class _NullSpan:
    """A reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullCounter:
    __slots__ = ()
    kind = "counter"
    name = ""
    value = 0

    def inc(self, amount: int = 1) -> int:
        return 0

    def export(self) -> int:
        return 0


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = ""
    value = 0

    def set(self, value: float) -> float:
        return 0

    def add(self, delta: float) -> float:
        return 0

    def export(self) -> int:
        return 0


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = ""
    count = 0
    mean = 0.0

    def observe(self, value: float) -> None:
        return None

    def export(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "last": 0.0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class _NullMetrics:
    """Registry facade whose instruments all discard their updates."""

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def get(self, name: str) -> None:
        return None

    def names(self, prefix: str = "") -> List[str]:
        return []

    def snapshot(self, prefix: str = "") -> Snapshot:
        return {}

    def export_json(self, prefix: str = "") -> str:
        return "{}"


class _NullTracer:
    finished: List = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    @property
    def active_depth(self) -> int:
        return 0

    def export(self) -> List:
        return []

    def export_json(self) -> str:
        return "[]"

    def render_tree(self) -> str:
        return ""


class _NullJournal:
    max_events = 0
    streaming = False
    spool_path = None
    spool_offset = 0

    def record(self, name: str, **fields) -> None:
        return None

    def stream_to(self, path, window: int = 8192) -> None:
        return None

    def flush(self) -> int:
        return 0

    def close_spool(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    @property
    def events(self) -> List:
        return []

    def select(self, prefix: str = "") -> List:
        return []

    def count(self, prefix: str = "") -> int:
        return 0

    def export_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> int:
        with open(path, "w") as handle:
            handle.write("")
        return 0


class NullObservability:
    """API-compatible observability sink: every call is a cheap no-op."""

    enabled = False

    def __init__(self) -> None:
        self.clock = _FrozenClock()
        self.metrics = _NullMetrics()
        self.tracer = _NullTracer()
        self.journal = _NullJournal()

    def event(self, name: str, **fields) -> None:
        return None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self, prefix: str = "") -> Snapshot:
        return {}

    def diff(self, before: Snapshot, prefix: str = "") -> Snapshot:
        return {}

    def export(self) -> Dict[str, object]:
        return {"metrics": {}, "spans": [], "events": []}

    def export_json(self) -> str:
        return json.dumps(self.export(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        return "NullObservability()"


#: The process-wide disabled-observability singleton.  Components that can
#: live outside a simulation default their ``obs`` parameter to this.
NULL_OBS = NullObservability()
