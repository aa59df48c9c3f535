"""Run the sweep: one fresh same-seed session per grid point.

Every point gets an identical world — same seed, same site list, same
probe order — differing only in the transport configuration under test,
so the measured deltas are the transport's and nothing else's.  The
harness never reuses a session across points: state carried from one
transport to the next (warm caches, consumed RNG) would contaminate the
comparison and break the per-point journal determinism that the CI
sweep-smoke job ``cmp``s.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence

from repro.api import NymixSession
from repro.attacks import IntersectionAttack, TrafficConfirmationAttack
from repro.core.config import NymixConfig
from repro.sweeps.grid import SweepPoint, build_grid
from repro.sweeps.report import PointResult, SweepReport

#: the fixed browsing workload every point replays
WORKLOAD_SITES = ("bbc.co.uk", "slashdot.org", "espn.com")
#: users sharing the transport in the attack models
_POPULATION = 20
#: P(user online per epoch) for the intersection baseline
_ONLINE_PROBABILITY = 0.5


def _measure_point(
    point: SweepPoint, seed: int, sites: Sequence[str], idle_s: float,
    policies=None,
) -> tuple:
    """Run the workload at one grid point; returns (result, journal_str)."""
    config = NymixConfig(
        seed=seed,
        mixnet_layers=point.layers,
        mixnet_cover_rate_pps=point.cover_rate_pps,
        mixnet_mean_hop_delay_s=point.mean_hop_delay_s,
    )
    with NymixSession(config, cloud_providers=False) as nx:
        tenant = ""
        if policies is not None and policies.tenants:
            # Each point's fresh timeline brings a fresh registry, like
            # everything else in its world: the sweep nym runs as the
            # first configured tenant, so its page loads pay that
            # tenant's ingress shaping.
            nx.timeline.tenancy.apply_initial(policies.tenants)
            tenant = policies.tenants[0].name
        box = nx.create_nym(
            name="sweep", anonymizer=point.anonymizer, tenant=tenant
        )
        loads = []
        elapsed = []
        for site in sites:
            before = nx.timeline.now
            loads.append(nx.timed_browse(box, site))
            # Wall sim-time, not PageLoad.duration_s: the transfer-only
            # duration omits the relay-path latency the transport sleeps,
            # which is precisely the latency axis this sweep charts.
            elapsed.append(nx.timeline.now - before)
        if idle_s > 0:
            # Idle tail: cover traffic keeps flowing while the user reads,
            # which is exactly the overhead the sweep is pricing.
            nx.timeline.sleep(idle_s)

        plan = box.anonymizer.plan(0)
        carried = sum(load.payload_bytes for load in loads)
        cover_bytes = int(getattr(box.anonymizer, "cover_bytes_sent", 0))
        overhead = plan.overhead_factor
        if carried:
            overhead += cover_bytes / carried

        attack = TrafficConfirmationAttack(
            nx.timeline.fork_rng("sweep-confirm"),
            obs=nx.obs,
            senders=_POPULATION,
        )
        confirmation = attack.run(
            point.anonymizer,
            layers=point.layers,
            mean_hop_delay_s=point.mean_hop_delay_s,
            cover_rate_pps=point.cover_rate_pps,
        )
        intersection = IntersectionAttack(
            population=_POPULATION,
            online_probability=_ONLINE_PROBABILITY,
            rng=nx.timeline.fork_rng("sweep-intersect"),
            obs=nx.obs,
        )
        epochs = intersection.epochs_to_deanonymize()

        result = PointResult(
            label=point.label,
            anonymizer=point.anonymizer,
            layers=point.layers,
            cover_rate_pps=point.cover_rate_pps,
            mean_hop_delay_s=point.mean_hop_delay_s,
            startup_s=float(getattr(box.anonymizer, "startup_seconds", 0.0)),
            mean_page_load_s=sum(elapsed) / len(elapsed),
            bytes_carried=carried,
            cover_bytes=cover_bytes,
            bandwidth_overhead=overhead,
            anonymity_set_size=confirmation.anonymity_set_size,
            mean_candidates=confirmation.mean_candidates,
            confirmed=confirmation.confirmed,
            intersection_epochs=epochs,
            journal_events=len(nx.obs.journal),
        )
        nx.obs.event(
            "sweep.point",
            label=point.label,
            mean_page_load_s=round(result.mean_page_load_s, 6),
            bandwidth_overhead=round(result.bandwidth_overhead, 6),
            anonymity_set=result.anonymity_set_size,
            confirmed=result.confirmed,
        )
        journal = nx.obs.journal.export_jsonl()
    return result, journal


def run_sweep(
    seed: int = 0,
    quick: bool = False,
    idle_s: Optional[float] = None,
    points: Optional[Sequence[SweepPoint]] = None,
    sites: Optional[Sequence[str]] = None,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    policies=None,
) -> SweepReport:
    """Sweep the grid and score every point; returns the full report.

    ``journal_path`` concatenates each point's event journal (prefixed
    by a one-line point header) into one JSONL file — two same-seed
    sweeps produce byte-identical files.  ``out_path`` writes the
    machine-readable tradeoff report.  ``policies`` (e.g. from
    ``--tenant-config``) runs every point's nym as the first configured
    tenant, with ingress shaping applied.
    """
    if points is None:
        points = build_grid(quick=quick)
    if sites is None:
        sites = WORKLOAD_SITES
    if idle_s is None:
        idle_s = 10.0 if quick else 30.0

    report = SweepReport(
        seed=seed, quick=quick, sites=list(sites), idle_s=idle_s
    )
    journal_chunks: List[str] = []
    for point in points:
        result, journal = _measure_point(
            point, seed, sites, idle_s, policies=policies
        )
        report.points.append(result)
        header = json.dumps(
            {"sweep_point": point.label, "seed": seed}, sort_keys=True
        )
        chunk = header + "\n"
        if journal:  # export_jsonl carries no trailing newline
            chunk += journal + "\n"
        journal_chunks.append(chunk)

    if journal_path:
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.write("".join(journal_chunks))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report.export(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
