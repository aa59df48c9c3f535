"""The seeded chaos scenario behind ``repro chaos``.

One nym lives through a full :class:`FaultPlan`: its snapshot upload is
interrupted mid-flight, relays churn out from under its circuits, its
wire flaps, and finally its VMs crash outright — after which the manager
relaunches it from quasi-persistent state (§3.5 end to end).  The run is
driven entirely by the simulation seed, so the same seed produces the
same faults, the same recoveries, and a byte-identical event journal.

This module is imported on demand (CLI, tests) rather than from
``repro.faults`` itself: it reaches into ``repro.core``, which in turn
uses the faults package's retry machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig
from repro.errors import NymixError
from repro.faults.plan import FaultPlan

NYM_NAME = "chaos"
NYM_PASSWORD = "chaos-pw"
_PROVIDER = "dropbox.com"
_ACCOUNT = "chaos-user"
_SITE = "bbc.co.uk"
#: slack between a fault firing and the workload probing it
_PROBE_DELAY_S = 0.5


@dataclass
class StepResult:
    """One workload step taken against an injected fault."""

    kind: str
    ok: bool
    detail: str


@dataclass
class ChaosReport:
    """What a chaos run planned, injected, survived, and measured."""

    seed: int
    quick: bool
    planned: int
    anonymizer: str = "tor"
    steps: List[StepResult] = field(default_factory=list)
    injected: List[dict] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    journal_events: int = 0

    def ok(self, kind: str, detail: str) -> None:
        self.steps.append(StepResult(kind=kind, ok=True, detail=detail))

    def fail(self, kind: str, detail: str) -> None:
        self.steps.append(StepResult(kind=kind, ok=False, detail=detail))

    @property
    def survived(self) -> bool:
        return bool(self.steps) and all(step.ok for step in self.steps)

    def summary(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} quick={self.quick} "
            f"anonymizer={self.anonymizer} "
            f"({self.planned} faults planned, {len(self.injected)} delivered)"
        ]
        lines.append("faults:")
        for entry in self.injected:
            target = f" target={entry['target']}" if entry.get("target") else ""
            lines.append(
                f"  t+{entry['at_s']:7.1f}s  {entry['kind']:<20} "
                f"{entry['outcome']}{target}"
            )
        lines.append("steps:")
        for step in self.steps:
            mark = "ok " if step.ok else "FAIL"
            lines.append(f"  [{mark}] {step.kind:<20} {step.detail}")
        if self.metrics:
            lines.append("recovery metrics:")
            width = max(len(name) for name in self.metrics)
            for name in sorted(self.metrics):
                value = self.metrics[name]
                if isinstance(value, dict):  # histogram
                    rendered = f"count={value['count']} sum={value['sum']:.2f}s"
                else:
                    rendered = f"{value:g}"
                lines.append(f"  {name:<{width}}  {rendered}")
        lines.append(f"journal: {self.journal_events} events")
        lines.append("verdict: SURVIVED" if self.survived else "verdict: DIED")
        return "\n".join(lines)


_REPORT_METRIC_PREFIXES = (
    "faults.",
    "retry.",
    "tor.circuit.rebuilds",
    "tor.newnym",
    "cloud.upload.retries",
    "cloud.download.retries",
    "net.link.flaps",
    "vmm.vm.crashes",
    "nym.recovered",
    "mixnet.node.crashes",
    "mixnet.reroutes",
)


def _ensure_live(manager: NymManager, report: ChaosReport):
    """The chaos nym's box — relaunching it first if it crashed."""
    box = manager.nymboxes.get(NYM_NAME)
    if box is not None and box.crashed:
        box = manager.recover_nym(NYM_NAME, NYM_PASSWORD)
    return box


def _run_step(manager: NymManager, spec, report: ChaosReport) -> None:
    """Probe the system right after one fault fired."""
    kind = spec.kind
    try:
        box = _ensure_live(manager, report)
        if box is None:
            report.fail(kind, "nymbox vanished")
            return
        if kind == "cloud.upload":
            manager.store_nym(
                box, password=NYM_PASSWORD,
                provider_host=_PROVIDER, account_username=_ACCOUNT,
            )
            report.ok(kind, "snapshot stored through the interrupted upload")
        elif kind == "cloud.download":
            report.ok(kind, "armed; bites the next §3.5 download")
        elif kind == "vmm.crash":
            # _ensure_live already relaunched; prove the restored nym works.
            box = manager.nymboxes[NYM_NAME]
            box.browse(_SITE)
            report.ok(kind, "relaunched from stored state and browsing")
        elif kind == "mixnet.node_crash":
            box.browse(_SITE)
            report.ok(kind, "rerouted through surviving mix nodes")
        else:
            box.browse(_SITE)
            report.ok(kind, "browsed through the fault")
    except NymixError as exc:
        # The fault may have landed mid-step (e.g. a crash during an
        # upload's sleep).  One recovery attempt before giving up.
        box = manager.nymboxes.get(NYM_NAME)
        if box is not None and box.crashed:
            try:
                manager.recover_nym(NYM_NAME, NYM_PASSWORD).browse(_SITE)
                report.ok(kind, f"recovered after {type(exc).__name__} mid-step")
                return
            except NymixError as retry_exc:
                exc = retry_exc
        report.fail(kind, f"{type(exc).__name__}: {exc}")


def run_chaos(
    seed: int = 0,
    quick: bool = False,
    duration_s: Optional[float] = None,
    anonymizer: str = "tor",
    policies=None,
) -> Tuple[NymManager, ChaosReport]:
    """Run the full chaos scenario; returns the manager and its report.

    ``duration_s`` overrides the fault window (default 900 s, 300 s in
    quick mode).  ``anonymizer`` picks the transport under test: the
    default Tor run is byte-identical to the pre-mixnet scenario, while
    ``"mixnet"`` adds mix-node churn faults to the plan.  ``policies``
    (a ``FleetPolicies``, e.g. from ``--tenant-config``) binds the chaos
    nym to the first configured tenant and adds a tenant-burst fault, so
    ingress shaping is exercised under fire; without it the run is
    byte-identical to the tenancy-unaware scenario.
    """
    manager = NymManager(NymixConfig(seed=seed))
    manager.add_cloud_provider(make_dropbox())
    manager.create_cloud_account(_PROVIDER, _ACCOUNT, "cloud-pw")
    tenant = ""
    if policies is not None and policies.tenants:
        manager.timeline.tenancy.apply_initial(policies.tenants)
        # Prefer a rate-limited tenant: the injected burst targets one,
        # and the nym should be the one absorbing that debt as delay.
        limited = [
            t.name for t in policies.tenants if t.rate.ingress_bytes_per_s
        ]
        tenant = limited[0] if limited else policies.tenants[0].name
    nymbox = manager.create_nym(name=NYM_NAME, anonymizer=anonymizer, tenant=tenant)
    manager.timed_browse(nymbox, _SITE)
    # Store once BEFORE arming: crash recovery needs a snapshot to reload,
    # and this baseline save runs on the seed's untouched happy path.
    manager.store_nym(
        nymbox, password=NYM_PASSWORD, provider_host=_PROVIDER, account_username=_ACCOUNT
    )

    if duration_s is None:
        duration_s = 300.0 if quick else 900.0
    plan = FaultPlan.seeded(
        manager.timeline.fork_rng("chaos-plan"),
        duration_s,
        relay_churns=1 if quick else 2,
        circuit_teardowns=1,
        link_flaps=1,
        upload_failures=1,
        download_failures=1,
        vm_crashes=1,
        mixnet_node_crashes=2 if anonymizer == "mixnet" else 0,
        tenant_bursts=1 if tenant else 0,
    )
    injector = manager.timeline.faults.arm(plan, manager)
    report = ChaosReport(
        seed=seed, quick=quick, planned=len(plan), anonymizer=anonymizer
    )

    armed_at = manager.timeline.now
    for spec in plan:
        target = armed_at + spec.at_s + _PROBE_DELAY_S
        if target > manager.timeline.now:
            manager.timeline.sleep(target - manager.timeline.now)
        _run_step(manager, spec, report)

    # Final health check and an orderly end of session (persistent re-save).
    try:
        box = _ensure_live(manager, report)
        if box is None:
            report.fail("final", "nymbox vanished before the final check")
        else:
            box.browse(_SITE)
            manager.close_session(box, NYM_PASSWORD)
            report.ok("final", "browsed, re-saved, and closed cleanly")
    except NymixError as exc:
        report.fail("final", f"{type(exc).__name__}: {exc}")

    report.injected = list(injector.injected)
    snapshot = manager.obs.snapshot()
    report.metrics = {
        name: value
        for name, value in snapshot.items()
        if any(
            name == prefix or name.startswith(prefix)
            for prefix in _REPORT_METRIC_PREFIXES
        )
    }
    report.journal_events = len(manager.obs.journal)
    return manager, report
