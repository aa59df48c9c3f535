"""Per-layer tracing for the benchmark, recorded from outside the program.

The tracer wraps the entry points of each layer of the reproduction
(the modules named in ``BOUNDARIES``) with a span: layer, start, end and
the enclosing span.  A layer's *self time* is its spans' wall time minus
the part covered by nested spans of any layer, so the self times of all
layers plus ``other`` (benchmark loop and glue code that no boundary
covers) add up to the measured wall time.

Spans are only recorded while the tracer is enabled, which the runner
does exactly for the timed windows; set-up and correctness checks stay
out of the attribution.  Wrapping costs about a microsecond per call,
so end-to-end numbers always come from an untraced run.

Only the calling process is traced: with shards in worker processes the
coordinator sees their work as time spent in the ``parallel`` layer
(pipe send and receive, including the wait for the workers).
"""

from __future__ import annotations

import functools
import time
from importlib import import_module
from typing import Dict, List, Tuple

#: layer -> [(module, class, methods)] whose calls open a span of that layer.
BOUNDARIES: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [("repro.sim.clock", "EventQueue", ("run_until", "run_all"))],
    "memory": [
        ("repro.memory.pages", "GuestMemory",
         ("map_image", "dirty", "secure_erase", "adopt_template", "clone")),
    ],
    "ksm": [
        ("repro.memory.ksm", "Ksm", ("scan", "stats", "run_to_completion")),
        ("repro.fleet.fleet", "Fleet", ("settle_ksm",)),
    ],
    "unionfs": [
        ("repro.unionfs.mount", "UnionMount",
         ("read", "write", "remove", "exists", "discard_changes")),
    ],
    "vmm": [
        ("repro.vmm.hypervisor", "Hypervisor",
         ("nymbox_template", "flash_clone", "create_vm", "destroy_vm",
          "attach_nat")),
        ("repro.vmm.vm", "VirtualMachine", ("boot", "pause", "resume")),
    ],
    "guest": [("repro.guest.browser", "Browser", ("visit", "login"))],
    "content": [("repro.sim.rng", "SeededRng", ("content_bytes",))],
    "net": [
        ("repro.net.internet", "Internet", ("fetch", "resolve")),
        ("repro.net.nat", "MasqueradeNat", ("stream",)),
        ("repro.net.nic", "VirtualNic", ("send_packet",)),
    ],
    # Filled at install time: every Anonymizer subclass's own
    # ANONYMIZER_METHODS.
    "anonymizers": [],
    "crypto": [("repro.crypto.aead", "SealedBox", ("seal", "open"))],
    "persistence": [
        ("repro.core.persistence", "NymStore", ("pack", "unpack")),
        ("repro.core.persistence", "FsSnapshot", ("capture",)),
    ],
    "cloud": [("repro.cloud.provider", "CloudProvider", ("login", "put", "get"))],
    "obs": [("repro.obs.journal", "EventJournal", ("record", "flush"))],
    "fleet": [("repro.fleet.fleet", "Fleet", ("place", "touch", "stats"))],
    "shard": [
        ("repro.fleet.shard", "ShardedFleet", ("run", "close")),
        ("repro.fleet.shard", "FleetShard", ("run_epoch", "barrier", "report")),
    ],
    "parallel": [("repro.fleet.parallel", "WorkerPool", ("send", "recv"))],
}

ANONYMIZER_METHODS = ("start", "stop", "fetch", "resolve", "plan")

LAYERS: Tuple[str, ...] = tuple(BOUNDARIES)


class _Frame:
    __slots__ = ("start", "covered")

    def __init__(self, start: float) -> None:
        self.start = start
        self.covered = 0.0


class LayerTracer:
    """Self time and call counts per layer, over the enabled windows."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: bytes of page content synthesised (``SeededRng.content_bytes``)
        self.content_bytes = 0
        self._stack: List[_Frame] = []

    def _span(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = _Frame(time.perf_counter())
            stack = tracer._stack
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame.start
                stack.pop()
                tracer.self_s[layer] += elapsed - frame.covered
                tracer.calls[layer] += 1
                if stack:
                    stack[-1].covered += elapsed

        return span

    def _patch(self, cls: type, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self._span(layer, original.__func__))
        else:
            wrapped = self._span(layer, original)
        setattr(cls, name, wrapped)

    def install(self) -> None:
        """Wrap every boundary; raises if one no longer exists."""
        for layer, entries in BOUNDARIES.items():
            for module_name, class_name, methods in entries:
                cls = getattr(import_module(module_name), class_name)
                for name in methods:
                    if name not in cls.__dict__:
                        raise AttributeError(
                            f"trace boundary {class_name}.{name} is gone"
                        )
                    self._patch(cls, name, layer)
        import_module("repro.anonymizers")
        pending = [import_module("repro.anonymizers.base").Anonymizer]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for name in ANONYMIZER_METHODS:
                if name in cls.__dict__:
                    self._patch(cls, name, "anonymizers")
        self._count_content_bytes()

    def _count_content_bytes(self) -> None:
        rng_cls = import_module("repro.sim.rng").SeededRng
        spanned = rng_cls.content_bytes
        tracer = self

        @functools.wraps(spanned)
        def content_bytes(rng, n, *args, **kwargs):
            if tracer.enabled:
                tracer.content_bytes += n
            return spanned(rng, n, *args, **kwargs)

        rng_cls.content_bytes = content_bytes
