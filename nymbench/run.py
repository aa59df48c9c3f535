"""Benchmark of the NymBox reproduction: run one workload, print one JSON line.

Usage, from the root of a checkout::

    python3 nymbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``session``, ``cloud``,
``fleet_serial``, ``fleet_procs``.  The run sets the system up, then
repeats the workload's operation for ``--seconds`` of wall time, checking
every output, and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: the 90th
percentile operation latency, nyms handled per second and set-up time,
all scaled to the reference host speed that a calibration loop around
every timed window measures (``workloads.Recorder``).  The measured
figures and the median latency go to stderr.  With
``--trace 1`` the layer boundaries are wrapped with spans (``layers.py``)
and the metrics are each layer's measured self time and call count per
nym.  All times are host wall-clock time; simulated time never enters a
metric.

Nothing is built: the program is the pure-Python package under
``src/``.  Scratch files (the fleets' journal spools) live under
``.nymbench_work/`` in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".nymbench_work")
MAX_REPORTED_FAILURES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p90_ms(latency_s) -> float:
    latency_ms = [s * 1000.0 for s in latency_s]
    return statistics.quantiles(latency_ms, n=10, method="inclusive")[-1]


def end_to_end_metrics(rec) -> dict:
    # Times at the reference host speed (see workloads.Recorder); the
    # measured ones go to stderr.  Measured, anything central (median,
    # mean, and so nyms per second) follows how much of a run the host
    # spent busy; scaled window by window, it follows it much less.
    return {
        "latency_p90_ms": {"value": p90_ms(rec.scaled_latency_s), "unit": "ms"},
        "nyms_per_s": {"value": rec.nyms / rec.scaled_busy_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(rec.scaled_setup_s), "unit": "s"},
    }


def layer_metrics(rec, tracer) -> dict:
    nyms = max(rec.nyms, 1)
    metrics = {}
    for layer in tracer.self_s:
        metrics[f"{layer}.self_ms"] = {
            "value": tracer.self_s[layer] * 1000.0 / nyms, "unit": "ms/nym",
        }
        metrics[f"{layer}.calls"] = {
            "value": tracer.calls[layer] / nyms, "unit": "count/nym",
        }
    other_s = rec.busy_s - sum(tracer.self_s.values())
    metrics["other.self_ms"] = {"value": other_s * 1000.0 / nyms, "unit": "ms/nym"}
    metrics["content.mib"] = {
        "value": tracer.content_bytes / 2**20 / nyms, "unit": "MiB/nym",
    }
    return metrics


def run(args) -> dict:
    from layers import LayerTracer
    from workloads import WORKLOADS, Recorder

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    rec = Recorder(tracer)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    attempted = failed = 0
    try:
        workload.set_up(rec)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            attempted += 1
            try:
                workload.run_op(attempted, rec)
            except Exception:  # noqa: BLE001 - counted, reported, run goes on
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    traceback.print_exc(file=sys.stderr)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still holds its directory
    metrics = layer_metrics(rec, tracer) if tracer else end_to_end_metrics(rec)
    print(
        f"nymbench: {args.workload} seed={args.seed} ops={attempted} "
        f"failed={failed} latency_samples={len(rec.latency_s)} "
        f"nyms={rec.nyms} setups={len(rec.setup_s)}; as measured: "
        f"latency_p50_ms={statistics.median(rec.latency_s) * 1000.0:.3f} "
        f"latency_p90_ms={p90_ms(rec.latency_s):.3f} "
        f"busy_s={rec.busy_s:.3f} nyms_per_s={rec.nyms / rec.busy_s:.3f} "
        f"setup_s={statistics.median(rec.setup_s):.4f}; scaled: "
        f"latency_p50_ms={statistics.median(rec.scaled_latency_s) * 1000.0:.3f}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"nymbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
