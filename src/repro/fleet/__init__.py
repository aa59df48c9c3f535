"""repro.fleet: deterministic multi-host nymbox scheduling.

The paper's single i7/16 GB testbed, scaled out: a :class:`Fleet` owns
N :class:`Hypervisor` hosts on one :class:`Timeline`, places nymboxes
through pluggable policies (first-fit, least-loaded, KSM-aware), keeps
hosts under memory-pressure watermarks by evacuating nyms through the
§3.5 store-and-relaunch loop, and survives injected host crashes.
``run_fleet`` is the cluster-scale scenario behind ``repro fleet``.

Past one timeline's capacity, :mod:`repro.fleet.shard` partitions the
fleet into regions synchronized at epoch barriers, streams every journal
to a JSONL spool, and checkpoints whole runs for kill/resume;
``run_fleet_sharded`` is the scenario behind ``repro fleet --shards N``.
:mod:`repro.fleet.parallel` runs those shards across spawned OS worker
processes (``--procs N``) with byte-identical journals.
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
from repro.fleet.scenario import (
    FleetReport,
    PolicyResult,
    ShardedFleetReport,
    bench_environment,
    resume_fleet_sharded,
    run_fleet,
    run_fleet_sharded,
    scale_trajectory,
)
from repro.fleet.shard import (
    BarrierReport,
    FleetShard,
    LocalShardHandle,
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
    "LocalShardHandle",
    "FleetShard",
    "FleetStats",
    "FleetReport",
    "HostHandle",
    "PLACEMENT_POLICIES",
    "FirstFit",
    "KsmAware",
    "LeastLoaded",
    "PlacementPolicy",
    "PolicyResult",
    "ShardConfig",
    "ShardedFleet",
    "ShardedFleetReport",
    "ShardedRunResult",
    "bench_environment",
    "combined_spool_bytes",
    "load_scale_metrics",
    "make_policy",
    "resume_fleet_sharded",
    "resume_sharded_fleet",
    "run_fleet",
    "run_fleet_sharded",
    "run_sharded_fleet",
    "scale_trajectory",
]
