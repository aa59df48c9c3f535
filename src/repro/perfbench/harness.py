"""Wall-clock measurement harness for the hot-path benchmarks.

Unlike ``benchmarks/`` (which regenerates the paper's figures in
*simulated* time), ``repro bench`` measures how fast the simulator itself
runs: real seconds per operation of the live code.  Rates compare across
committed results files from a named runner, which is what the
``environment`` block records.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy

#: Target wall-clock spent per measured side, full mode (seconds).
FULL_BUDGET_S = 0.5
#: Target wall-clock per side under ``--quick`` (CI smoke) mode.
QUICK_BUDGET_S = 0.05


@dataclass
class BenchResult:
    """One benchmark's measurement of the live code."""

    name: str
    tags: List[str]
    iterations: int
    seconds: float
    unit: str = "op"
    #: Units processed per iteration (e.g. bytes for throughput benches).
    work_per_iteration: float = 1.0
    notes: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def per_second(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return self.iterations * self.work_per_iteration / self.seconds

    def to_dict(self) -> Dict:
        payload: Dict = {
            "name": self.name,
            "tags": sorted(self.tags),
            "unit": self.unit,
            "iterations": self.iterations,
            "seconds": round(self.seconds, 9),
            "per_second": self.per_second,
        }
        if self.notes:
            payload["notes"] = self.notes
        if self.extra:
            payload["extra"] = dict(sorted(self.extra.items()))
        return payload


def measure(
    func: Callable[[], object],
    budget_s: float,
    min_iterations: int = 3,
) -> tuple:
    """Run ``func`` repeatedly for about ``budget_s`` wall-clock seconds.

    Returns ``(iterations, total_seconds)``.  One untimed warmup call runs
    first (imports, lazy caches, JIT-ish numpy setup), then iterations are
    batched geometrically so the timing loop overhead stays negligible for
    microsecond-scale operations.
    """
    func()  # warmup
    iterations = 0
    total = 0.0
    batch = 1
    while iterations < min_iterations or total < budget_s:
        start = time.perf_counter()
        for _ in range(batch):
            func()
        total += time.perf_counter() - start
        iterations += batch
        if total < budget_s / 8:
            batch *= 2
    return iterations, total


def environment_metadata() -> Dict[str, object]:
    """Where these numbers came from (recorded into the results JSON)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "argv": list(sys.argv),
    }


def save_bench_results(
    path: str, results: List[BenchResult], quick: bool
) -> pathlib.Path:
    """Write the results (plus environment metadata) as pretty JSON."""
    payload = {
        "schema": "repro.perfbench/v2",
        "quick": quick,
        "environment": environment_metadata(),
        "results": [result.to_dict() for result in results],
    }
    out = pathlib.Path(path)
    if out.parent != pathlib.Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def format_results_table(results: List[BenchResult]) -> str:
    """Human-readable summary of a bench run."""
    headers = ("bench", "rate", "unit")
    rows = [
        (result.name, f"{result.per_second:,.1f}", f"{result.unit}/s")
        for result in results
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
