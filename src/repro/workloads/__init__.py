"""Workloads: the drivers behind the paper's evaluation experiments.

* :mod:`repro.workloads.peacekeeper` — the Futuremark Peacekeeper-style
  JavaScript benchmark of §5.2 / Figure 4.
* :mod:`repro.workloads.download` — the parallel Linux-kernel download of
  §5.2 / Figure 5.
* :mod:`repro.workloads.browsing` — scripted browsing sessions for the
  memory (Figure 3) and storage (Figure 6) experiments.
"""

from importlib import import_module

#: Each public name and the module that defines it, loaded on first
#: access (PEP 562): importing :mod:`repro.workloads.fleet` for a shard
#: must not pull in ``browsing`` and with it the Nym Manager.
_LAZY = {
    "PeacekeeperBenchmark": "repro.workloads.peacekeeper",
    "PeacekeeperResult": "repro.workloads.peacekeeper",
    "ParallelDownloadExperiment": "repro.workloads.download",
    "DownloadResult": "repro.workloads.download",
    "BrowsingSession": "repro.workloads.browsing",
    "run_memory_experiment_step": "repro.workloads.browsing",
}

__all__ = [
    "PeacekeeperBenchmark",
    "PeacekeeperResult",
    "ParallelDownloadExperiment",
    "DownloadResult",
    "BrowsingSession",
    "run_memory_experiment_step",
]


def __getattr__(name: str):
    """Import a lazy export on first access and keep it as a global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
