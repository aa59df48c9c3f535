"""Hierarchically named metrics: counters, gauges, and histograms.

One :class:`MetricsRegistry` per simulation holds every instrument under a
dotted hierarchical name (``vmm.boot.phase_s``, ``ksm.pages_merged``,
``tor.circuit.build_s``).  Instruments are created on first use and
shared thereafter, so hot paths can bind an instrument once in a
constructor and pay only an attribute access plus an addition per update.

Everything here is deterministic: no wall-clock reads, no process ids,
no unordered iteration in any export — two same-seed simulation runs
produce byte-identical snapshots.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ObservabilityError

#: Dotted lowercase segments: letters/digits/underscores, dot-separated.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

ScalarSnapshot = Union[int, float]
HistogramSnapshot = Dict[str, float]
Snapshot = Dict[str, Union[ScalarSnapshot, HistogramSnapshot]]


def validate_metric_name(name: str) -> str:
    """Check a hierarchical metric name; returns it unchanged if valid."""
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid metric name {name!r}: want dotted lowercase segments "
            "like 'tor.circuit.build_s'"
        )
    return name


class Counter:
    """A monotonically increasing count (events, bytes, packets)."""

    kind = "counter"

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount
        return self.value

    def export(self) -> ScalarSnapshot:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time level (pages sharing, live nyms, queue depth)."""

    kind = "gauge"

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> float:
        self.value = value
        return self.value

    def add(self, delta: float) -> float:
        self.value += delta
        return self.value

    def export(self) -> ScalarSnapshot:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A distribution summary (durations, sizes): count/sum/min/max/last.

    The summary statistics are exact and order-independent except for
    ``last``, which is included because "the most recent boot took X"
    is a natural question for an operator console.
    """

    kind = "histogram"

    __slots__ = ("name", "count", "total", "min", "max", "last")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.last: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def export(self) -> HistogramSnapshot:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "last": self.last if self.last is not None else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4f})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of instruments keyed by hierarchical name."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # -- instrument factories -------------------------------------------------

    def _get_or_create(self, name: str, cls) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            # A registered name was checked when it was created, so hot
            # lookups skip the regex.
            validate_metric_name(name)
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ObservabilityError(
                f"metric {name!r} is a {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> List[str]:
        """All registered names (optionally under a dotted ``prefix``), sorted."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix + "."
        return sorted(
            name
            for name in self._instruments
            if name == prefix or name.startswith(dotted)
        )

    # -- snapshot / diff / export ---------------------------------------------

    def snapshot(self, prefix: str = "") -> Snapshot:
        """Point-in-time view: name -> scalar (counter/gauge) or summary dict."""
        return {
            name: self._instruments[name].export() for name in self.names(prefix)
        }

    def export_json(self, prefix: str = "") -> str:
        """Canonical JSON encoding of :meth:`snapshot` (sorted, compact)."""
        return json.dumps(
            self.snapshot(prefix), sort_keys=True, separators=(",", ":")
        )

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


def diff_snapshots(before: Snapshot, after: Snapshot) -> Snapshot:
    """What changed between two snapshots of the *same* registry.

    Scalars (counters, gauges) and histogram count/sum diff numerically;
    the remaining histogram fields report their ``after`` value.  Metrics
    absent from ``before`` are treated as starting from zero; metrics
    that did not change are omitted.
    """
    delta: Snapshot = {}
    for name, after_value in after.items():
        before_value = before.get(name)
        if isinstance(after_value, dict):
            prior: HistogramSnapshot = (
                before_value if isinstance(before_value, dict) else {}
            )
            if after_value.get("count", 0) == prior.get("count", 0):
                continue
            delta[name] = {
                "count": after_value["count"] - prior.get("count", 0),
                "sum": after_value["sum"] - prior.get("sum", 0.0),
                "min": after_value["min"],
                "max": after_value["max"],
                "mean": after_value["mean"],
                "last": after_value["last"],
            }
        else:
            base = before_value if isinstance(before_value, (int, float)) else 0
            if after_value == base:
                continue
            delta[name] = after_value - base
    return delta
