"""The structured event journal: append-only records with JSONL export.

Every record carries the simulated timestamp, a dotted event name, a
monotonically increasing sequence number, and sorted key/value fields.
Because nothing in the simulation reads wall time or OS entropy, two
same-seed runs of the same scenario export **byte-identical** journals —
the journal is therefore both an audit log and a regression oracle
(diff the JSONL of two runs to find the first divergence).

The journal is bounded, and overflow is loud: past ``max_events`` an
in-memory journal raises :class:`~repro.errors.JournalOverflowError`
instead of silently truncating the byte-identity oracle (two truncated
journals still compare equal, which is exactly how a determinism gate
passes on garbage).  :meth:`stream_to` switches the journal to
**streamed** mode: events spill to a JSONL file on disk through a
bounded in-memory window, the cap no longer applies, and the final file
bytes are identical to what :meth:`write_jsonl` would have produced
from an in-memory journal.  This is the scale path — a million-event
run holds only ``window`` records in RAM.

:meth:`flush` makes the spool file a prefix-stable artifact, and
``spool_offset`` reports the flushed byte count.  That offset is all a
sharded-fleet checkpoint keeps of a journal: resume replays the run
from its seed and checks that each replayed spool reproduces the first
``spool_offset`` bytes of the recorded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import JournalOverflowError, ObservabilityError
from repro.obs.metrics import validate_metric_name
from repro.runtime import ProcessCache

try:
    from operator import call as _call
except ImportError:  # Python < 3.11

    def _call(function, value):
        return function(value)


#: How ``json.dumps`` writes a value of each scalar type.  A float's
#: ``repr`` is its JSON text when finite; ``nan``/``inf`` are caught by
#: ``_NON_FINITE`` (JSON writes ``NaN``/``Infinity``).
_SCALAR_TEXT: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_NON_FINITE = frozenset({"nan", "inf", "-inf"})
_HEADER_KEYS = ("event", "seq", "t")

#: Line template per event shape: (name, field keys, value types) ->
#: (``%``-template, picker of the values in key order, their
#: converters), or None where only ``json.dumps`` writes the line.
#: Names and field keys come from call sites, so a run records tens of
#: shapes; the bound caps what a long-lived process accumulates.
_Template = Tuple[str, Callable, Tuple[Callable[[object], str], ...]]
_TEMPLATES = ProcessCache("obs.line_templates", max_entries=1_024)


def _literal(text: str) -> str:
    """``text`` as a JSON string inside a ``%``-template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _line_template(name: str, keys: tuple, types: tuple) -> Optional[_Template]:
    """The template of one shape; ``types`` covers ``(seq, t, *values)``."""
    if (
        type(name) is not str
        or not all(type(key) is str for key in keys)
        or len(set(keys)) != len(keys)
        or not set(keys).isdisjoint(_HEADER_KEYS)
        or not all(kind in _SCALAR_TEXT for kind in types)
    ):
        return None
    # (key, index into (seq, t, *values), or None for the literal name)
    slots = [("event", None), ("seq", 0), ("t", 1)]
    slots += [(key, index) for index, key in enumerate(keys, start=2)]
    slots.sort(key=lambda slot: slot[0])
    parts = [
        _literal(key) + ":" + ("%s" if index is not None else _literal(name))
        for key, index in slots
    ]
    indices = [index for _, index in slots if index is not None]
    return (
        "{" + ",".join(parts) + "}",
        itemgetter(*indices),
        tuple(_SCALAR_TEXT[types[index]] for index in indices),
    )


@dataclass(frozen=True)
class EventRecord:
    """One journal entry at a simulated instant."""

    seq: int
    t: float
    name: str
    fields: Tuple[Tuple[str, object], ...] = ()

    def export(self) -> Dict[str, object]:
        record: Dict[str, object] = {"seq": self.seq, "t": self.t, "event": self.name}
        record.update(self.fields)
        return record

    def to_json(self) -> str:
        """``json.dumps(self.export(), sort_keys=True, separators=(",", ":"))``.

        A line of scalars fills its shape's template.  ``json.dumps``
        still writes a line that holds a list, a dict, a non-finite
        float or a field named ``seq``, ``t`` or ``event``.
        """
        fields = self.fields
        keys, values = zip(*fields) if fields else ((), ())
        values = (self.seq, self.t) + values
        shape = (self.name, keys, tuple(map(type, values)))
        try:
            template = _TEMPLATES[shape]
        except KeyError:
            template = _TEMPLATES.put(shape, _line_template(*shape))
        if template is not None:
            line, pick, converters = template
            texts = tuple(map(_call, converters, pick(values)))
            if _NON_FINITE.isdisjoint(texts):
                return line % texts
        return json.dumps(self.export(), sort_keys=True, separators=(",", ":"))


class EventJournal:
    """Append-only, sim-time-stamped event log for one simulation."""

    def __init__(self, clock, max_events: int = 250_000) -> None:
        self._clock = clock  # anything with a ``.now`` float property
        self.max_events = max_events
        self._events: List[EventRecord] = []
        # Monotonic sequence across the whole run (flushed + windowed).
        self._next_seq = 0
        # Per-name totals survive spooling, so count() stays exact after
        # flushed events leave memory (distinct names are few).
        self._name_counts: Dict[str, int] = {}
        # Streaming state: set by stream_to(); None = in-memory.
        self._spool_path: Optional[str] = None
        self._spool_handle = None
        self._window_limit = 0
        self._flushed_events = 0
        self._flushed_bytes = 0

    # -- recording ------------------------------------------------------------

    @property
    def streaming(self) -> bool:
        return self._spool_path is not None

    def record(self, name: str, **fields) -> EventRecord:
        """Append one event at the current simulated time."""
        recorded = self._name_counts.get(name, 0)
        if not recorded:
            # A name already recorded was checked the first time.
            validate_metric_name(name)
        streaming = self._spool_path is not None
        if not streaming and len(self._events) >= self.max_events:
            raise JournalOverflowError(
                f"event journal overflowed max_events={self.max_events} "
                f"(raise the cap or spill to disk with stream_to())"
            )
        # Positional: a frozen dataclass takes keywords at twice the cost.
        record = EventRecord(
            self._next_seq, self._clock.now, name, tuple(sorted(fields.items()))
        )
        self._next_seq += 1
        self._name_counts[name] = recorded + 1
        self._events.append(record)
        if streaming and len(self._events) >= self._window_limit:
            self.flush()
        return record

    # -- streaming ------------------------------------------------------------

    def stream_to(self, path, window: int = 8192) -> None:
        """Spill this journal to a JSONL spool at ``path``.

        From now on at most ``window`` records stay in memory; the cap
        stops applying (disk is the bound).  Events already recorded are
        carried into the spool, so the final file bytes are identical to
        an in-memory run's :meth:`write_jsonl` output regardless of when
        streaming was switched on or how often :meth:`flush` ran.
        """
        if self.streaming:
            raise ObservabilityError(
                f"journal already streams to {self._spool_path!r}"
            )
        if window < 1:
            raise ObservabilityError(f"stream window must be >= 1, got {window}")
        # Open first: a path that cannot be opened leaves the journal
        # in memory, not half switched to a spool.
        self._spool_handle = open(str(path), "wb")
        self._spool_path = str(path)
        self._window_limit = window
        self._flushed_events = 0
        self._flushed_bytes = 0
        if len(self._events) >= window:
            self.flush()

    def flush(self) -> int:
        """Write the in-memory window to the spool; returns events written.

        Flush timing never changes the spool's final bytes — it only
        bounds memory and establishes checkpointable offsets.
        """
        if not self.streaming:
            return 0
        if not self._events:
            return 0
        data = "".join(e.to_json() + "\n" for e in self._events).encode()
        self._spool_handle.write(data)
        self._spool_handle.flush()
        written = len(self._events)
        self._flushed_events += written
        self._flushed_bytes += len(data)
        self._events.clear()
        return written

    def close_spool(self) -> None:
        """Flush and close the spool file (the path stays set)."""
        if self.streaming:
            self.flush()
            self._spool_handle.close()

    @property
    def spool_path(self) -> Optional[str]:
        return self._spool_path

    @property
    def spool_offset(self) -> int:
        """Flushed byte count — the prefix a checkpoint records."""
        return self._flushed_bytes

    # -- querying -------------------------------------------------------------

    def __len__(self) -> int:
        """Total events recorded (flushed to the spool + still in memory)."""
        return self._flushed_events + len(self._events)

    def __iter__(self) -> Iterator[EventRecord]:
        """Iterate the in-memory window (everything, unless streaming)."""
        return iter(self._events)

    @property
    def events(self) -> List[EventRecord]:
        return list(self._events)

    def select(self, prefix: str = "") -> List[EventRecord]:
        """In-memory events whose name is ``prefix`` or under ``prefix.``.

        In streamed mode only the unflushed window is visible here; use
        :meth:`count` (exact across the whole run) or read the spool.
        """
        if not prefix:
            return list(self._events)
        dotted = prefix + "."
        return [
            e for e in self._events if e.name == prefix or e.name.startswith(dotted)
        ]

    def count(self, prefix: str = "") -> int:
        """Exact event count by name prefix, including spooled events."""
        if not prefix:
            return self._flushed_events + len(self._events)
        dotted = prefix + "."
        return sum(
            n
            for name, n in self._name_counts.items()
            if name == prefix or name.startswith(dotted)
        )

    # -- export ---------------------------------------------------------------

    def export_jsonl(self) -> str:
        """The whole journal as canonical JSON Lines (one event per line).

        Streamed journals flush and read the spool back, so the result is
        byte-identical to an in-memory journal of the same run.
        """
        if self.streaming:
            self.flush()
            with open(self._spool_path, "rb") as handle:
                data = handle.read(self._flushed_bytes)
            return data.decode()[:-1] if data else ""
        return "\n".join(e.to_json() for e in self._events)

    def write_jsonl(self, path) -> int:
        """Write the journal to ``path``; returns the number of events."""
        total = len(self)
        if self.streaming:
            self.flush()
            if str(path) == self._spool_path:
                return total
        text = self.export_jsonl()
        with open(path, "w") as handle:
            handle.write(text)
            if text:
                handle.write("\n")
        return total

    def __repr__(self) -> str:
        mode = f", spool={self._spool_path!r}" if self.streaming else ""
        return f"EventJournal({len(self)} events{mode})"
