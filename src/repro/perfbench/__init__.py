"""Wall-clock performance benchmarks for the simulator's hot paths.

``repro bench`` (see :mod:`repro.cli`) runs the registry in
:mod:`repro.perfbench.benches`.  Each bench times only the live code and
reports an absolute rate; compare ``per_second`` across committed results
files from a named runner.
"""

from repro.perfbench.benches import BENCHES, Bench, select_benches
from repro.perfbench.harness import (
    BenchResult,
    environment_metadata,
    format_results_table,
    measure,
    save_bench_results,
)

__all__ = [
    "BENCHES",
    "Bench",
    "BenchResult",
    "environment_metadata",
    "format_results_table",
    "measure",
    "save_bench_results",
    "select_benches",
]
