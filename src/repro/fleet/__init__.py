"""repro.fleet: deterministic multi-host nymbox scheduling.

The paper's single i7/16 GB testbed, scaled out: a :class:`Fleet` owns
N :class:`Hypervisor` hosts on one :class:`Timeline`, places nymboxes
through pluggable policies (first-fit, least-loaded, KSM-aware), keeps
hosts under memory-pressure watermarks by evacuating nyms through the
§3.5 store-and-relaunch loop, and survives host crashes.

:mod:`repro.fleet.shard` partitions a cluster into regions, one
``Fleet`` each, synchronized at epoch barriers; it streams every journal
to a JSONL spool and records a checkpoint manifest for kill/resume.
:mod:`repro.fleet.parallel` runs those shards across spawned OS worker
processes (``--procs N``) with byte-identical journals, and
:mod:`repro.fleet.scenario` holds ``run_fleet_sharded``, the scenario
behind ``repro fleet``.  The package does not import the scenario, so a
shard worker never loads it.
"""

from repro.fleet.fleet import DrainReport, Fleet, FleetNymbox, FleetStats
from repro.fleet.host import HostHandle
from repro.fleet.placement import (
    PLACEMENT_POLICIES,
    FirstFit,
    KsmAware,
    LeastLoaded,
    PlacementPolicy,
    make_policy,
)
from repro.fleet.shard import (
    BarrierReport,
    FleetShard,
    ShardConfig,
    ShardedFleet,
    ShardedRunResult,
    combined_spool_bytes,
    load_scale_metrics,
    resume_sharded_fleet,
    run_sharded_fleet,
)

__all__ = [
    "BarrierReport",
    "DrainReport",
    "Fleet",
    "FleetNymbox",
    "FleetShard",
    "FleetStats",
    "HostHandle",
    "PLACEMENT_POLICIES",
    "FirstFit",
    "KsmAware",
    "LeastLoaded",
    "PlacementPolicy",
    "ShardConfig",
    "ShardedFleet",
    "ShardedRunResult",
    "combined_spool_bytes",
    "load_scale_metrics",
    "make_policy",
    "resume_sharded_fleet",
    "run_sharded_fleet",
]
