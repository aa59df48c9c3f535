"""The per-simulation observability facade.

One :class:`Observability` instance per :class:`~repro.sim.clock.Timeline`
bundles the three pillars — a :class:`~repro.obs.metrics.MetricsRegistry`,
a sim-time :class:`~repro.obs.trace.Tracer`, and an
:class:`~repro.obs.journal.EventJournal` — behind one object that every
subsystem reaches as ``timeline.obs``.  A component built outside a
simulation (``Ksm()``, ``BandwidthPool(...)``) builds its own
``Observability()``, stamped by a clock frozen at zero, so it records
what it did without a timeline.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry, Snapshot, diff_snapshots
from repro.obs.trace import Tracer


class _FrozenClock:
    """Stand-in clock for an Observability built without a simulation."""

    now = 0.0


class Observability:
    """Metrics + tracing + journal for one simulation timeline."""

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else _FrozenClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self.journal = EventJournal(self.clock)

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
