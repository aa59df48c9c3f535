"""Simulation-native observability: metrics, sim-time tracing, event journal.

The subsystem the evaluation stands on: every resource quantity the paper
reports (KSM pages saved, boot-phase seconds, circuit build latency,
bytes on the wire) flows through one per-simulation
:class:`~repro.obs.facade.Observability` owned by the
:class:`~repro.sim.clock.Timeline` and reachable everywhere as
``timeline.obs``.

* :class:`MetricsRegistry` — counters/gauges/histograms under
  hierarchical dotted names (``vmm.boot.phase_s``, ``ksm.pages_merged``).
* :class:`Tracer` — ``with obs.span("nymbox.launch"): ...`` spans that
  read the *simulation* clock, so traces are deterministic and replayable.
* :class:`EventJournal` — append-only structured records with canonical
  JSONL export; same seed, same scenario => byte-identical journal.

A component that can live outside a simulation takes an optional
``obs``; built without one, it records into an ``Observability()`` of
its own.

See ``docs/observability.md`` for the API tour and naming conventions.
"""

from repro.obs.facade import Observability
from repro.obs.journal import EventJournal, EventRecord
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    validate_metric_name,
)
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "Observability",
    "EventJournal",
    "EventRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "validate_metric_name",
    "SpanRecord",
    "Tracer",
]
