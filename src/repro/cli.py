"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction an operator's console:

* ``validate``  — run the §5.1 validation against a live deployment
* ``redteam``   — run the full adversarial sweep and print the report
* ``demo``      — the quickstart workflow, narrated
* ``catalog``   — what the simulated world contains (sites, OSes, transports)
* ``stats``     — run a scenario and dump the metrics snapshot
  (``--scale DIR`` instead reads a sharded run's per-epoch metrics
  spools back from its spool directory)
* ``trace``     — run a scenario and print the sim-time span tree
* ``bench``     — time the simulator's hot paths (absolute rates of the live code)
* ``chaos``     — run a seeded fault-injection scenario, print the survival report
* ``fleet``     — place ~1000 nymboxes over a simulated 64-host cluster,
  split into ``--shards N`` regions (default 1) that stream their
  journal spools and meet at epoch barriers, then rerun the same config
  under every other placement policy (``--no-compare`` skips that) and
  exit 1 unless ``ksm-aware`` saves more RAM than ``first-fit``;
  ``--procs N`` spreads the shards over N spawned OS workers with
  byte-identical journals; ``--checkpoint-dir``/``--stop-after-epoch``
  kill a run and ``--resume DIR`` continues it under either executor.
  A stopped or resumed run does not compare, and a resume exits 2 on
  every flag its manifest decides: ``--stop-after-epoch``, ``--shards``,
  ``--scale``, ``--checkpoint-dir``, ``--spool-dir``, either ``--seed``,
  ``--hosts``, ``--nyms``, ``--policy``, ``--epoch-s``,
  ``--host-crashes``, ``--quick`` and ``--no-compare``
* ``sweep``     — chart anonymity/latency/overhead across Tor, Dissent, mixnet
* ``tenants``   — run the multi-tenant control-plane scenario: quotas,
  launch/ingress rate limits, a reconciled mid-run policy update, and a
  zero-loss rolling host drain

Every subcommand accepts ``--json`` (a machine-readable report on
stdout).  Every subcommand but ``bench`` and ``catalog``, which draw
nothing from a seed, accepts ``--seed`` (overrides the global
``--seed``); those two refuse both forms.  Only the seven commands that
read it accept ``--duration`` (simulated seconds: idle time before the
report, or the fault window of ``chaos``): ``validate``, ``redteam``,
``demo``, ``stats``, ``trace``, ``chaos`` and ``sweep``.  ``tenants``,
``chaos`` and ``sweep`` share ``--tenant-config FILE`` — one JSON policy
file, one parser (:func:`repro.tenancy.load_tenant_config`).
``tenants`` reads its ``tenants``, watermark and ``autoscale`` keys;
``chaos`` and ``sweep`` read only ``tenants`` and exit 2 on the others.
Placement comes from ``--policy``, never from the file.
Commands run on a :class:`repro.api.NymixSession`, a self-closing
:class:`repro.core.manager.NymManager`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import TYPE_CHECKING, List, Optional

# Each command imports what it runs, so that importing this module stays
# cheap: spawn re-executes a plain-script main module (the installed
# ``repro`` console script) in every fleet worker.
if TYPE_CHECKING:
    from repro.api import NymixSession


# -- shared flag plumbing ----------------------------------------------------


def add_common_args(
    sub: argparse.ArgumentParser, journal: bool = False, duration: bool = False,
    seed: bool = True,
) -> None:
    """The flags every ``repro`` subcommand understands, and three more.

    ``--json`` switches the report to machine-readable JSON.  With
    ``seed``, ``--seed`` shadows the global flag (the subcommand value
    wins); without it, :func:`main` refuses the global one too.  With
    ``duration``, ``--duration`` adds simulated idle seconds before
    reporting; with ``journal``, ``--journal`` writes the event journal.
    """
    if seed:
        sub.add_argument(
            "--seed", dest="sub_seed", type=int, default=None, metavar="N",
            help="simulation seed (overrides the global --seed)",
        )
    if duration:
        sub.add_argument(
            "--duration", type=float, default=None, metavar="SECONDS",
            help="extra simulated seconds to run before reporting",
        )
    sub.add_argument(
        "--json", action="store_true", help="emit a JSON report on stdout"
    )
    if journal:
        sub.add_argument(
            "--journal", metavar="PATH", help="also write the event journal (JSONL)"
        )


def add_tenant_config_arg(sub: argparse.ArgumentParser) -> None:
    """The shared ``--tenant-config FILE`` flag (tenants, chaos, sweep)."""
    sub.add_argument(
        "--tenant-config", metavar="FILE", default=None,
        help="JSON tenant policy file (tenants with quotas, rate limits and "
        "qos classes; tenants also reads watermarks and autoscale)",
    )


def load_policies(args: argparse.Namespace, keys: Optional[List[str]] = None):
    """Parse ``--tenant-config`` into a FleetPolicies, or ``None``.

    ``keys`` names the config keys the command reads (default: all).
    Exits with status 2 on a malformed file or on a key the command does
    not read — a policy typo must not silently run the scenario
    unlimited.
    """
    path = getattr(args, "tenant_config", None)
    if not path:
        return None
    from repro.errors import TenancyError
    from repro.tenancy.policy import CONFIG_KEYS, load_tenant_config

    try:
        return load_tenant_config(path, keys or CONFIG_KEYS)
    except TenancyError as exc:
        print(f"--tenant-config: {exc}", file=sys.stderr)
        raise SystemExit(2)


def effective_seed(args: argparse.Namespace) -> int:
    """The subcommand's ``--seed``, else the global one, else 0.

    Both flags default to ``None`` so that ``fleet --resume`` can tell a
    given seed from the default.
    """
    if getattr(args, "sub_seed", None) is not None:
        return args.sub_seed
    return args.seed if args.seed is not None else 0


def _session(args: argparse.Namespace) -> NymixSession:
    from repro.api import NymixSession

    return NymixSession(seed=effective_seed(args))


def _idle(session: NymixSession, args: argparse.Namespace) -> None:
    if args.duration:
        session.timeline.sleep(args.duration)


def _write_journal(obs, path: str) -> int:
    try:
        obs.journal.write_jsonl(path)
    except OSError as exc:
        print(f"cannot write journal to {path}: {exc}", file=sys.stderr)
        return 1
    print(f"journal: {obs.journal.count()} events -> {path}", file=sys.stderr)
    return 0


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- commands ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_system

    with _session(args) as nx:
        for index in range(args.nyms):
            nymbox = nx.create_nym(name=f"validate-{index}")
            nx.timed_browse(nymbox, "bbc.co.uk")
        _idle(nx, args)
        result = validate_system(nx, idle_seconds=args.idle)
        if args.json:
            _emit_json(
                {
                    "passed": result.passed,
                    "dns_leaks": result.dns_leaks,
                    "isolation_violations": len(result.isolation.violations),
                    "anonvm_emitted_uplink_traffic": result.anonvm_emitted_uplink_traffic,
                    "summary": result.summary(),
                }
            )
        else:
            print(result.summary())
        return 0 if result.passed else 1


def cmd_redteam(args: argparse.Namespace) -> int:
    from repro.attacks.redteam import run_red_team

    with _session(args) as nx:
        report = run_red_team(nx, nyms=args.nyms)
        _idle(nx, args)
        if args.json:
            _emit_json(
                {
                    "all_contained": report.all_contained,
                    "outcomes": [dataclasses.asdict(o) for o in report.outcomes],
                }
            )
        else:
            print(report.summary())
        return 0 if report.all_contained else 1


def cmd_demo(args: argparse.Namespace) -> int:
    quiet = args.json
    with _session(args) as nx:
        nx.create_cloud_account("dropbox.com", "demo-user", "cloud-pw")
        if not quiet:
            print("starting a fresh nym...")
        nymbox = nx.create_nym(name="demo")
        if not quiet:
            print(f"  up in {nymbox.startup.total_s:.1f} s "
                  f"(boot {nymbox.startup.boot_vm_s:.1f}, "
                  f"tor {nymbox.startup.start_anonymizer_s:.1f})")
        load = nx.timed_browse(nymbox, "twitter.com")
        if not quiet:
            print(f"  twitter.com in {load.duration_s:.1f} s via exit "
                  f"{nymbox.anonymizer.exit_address()}")
        receipt = nx.store_nym(
            nymbox, password="demo-pw",
            provider_host="dropbox.com", account_username="demo-user",
        )
        if not quiet:
            print(f"  stored: {receipt.encrypted_bytes / 2**20:.1f} MiB encrypted")
        nx.discard_nym(nymbox)
        restored = nx.load_nym("demo", "demo-pw")
        if not quiet:
            print(f"  restored with warm tor start "
                  f"({restored.startup.start_anonymizer_s:.1f} s) and "
                  f"{len(restored.browser.history)} history entries")
        _idle(nx, args)
        if args.json:
            _emit_json(
                {
                    "startup_s": round(nymbox.startup.total_s, 3),
                    "page_load_s": round(load.duration_s, 3),
                    "stored_bytes": receipt.encrypted_bytes,
                    "restored_history_entries": len(restored.browser.history),
                }
            )
        elif not quiet:
            print("done.")
        return 0


def _run_observed_scenario(args: argparse.Namespace, nyms: int) -> NymixSession:
    """A small instrumented workload for ``stats``/``trace``: create nyms,
    browse, store one, discard all."""
    nx = _session(args).open()
    nx.create_cloud_account("dropbox.com", "obs-user", "cloud-pw")
    boxes = []
    for index in range(nyms):
        nymbox = nx.create_nym(name=f"obs-{index}")
        nx.timed_browse(nymbox, "bbc.co.uk")
        boxes.append(nymbox)
    if boxes:
        nx.store_nym(
            boxes[0], password="obs-pw",
            provider_host="dropbox.com", account_username="obs-user",
        )
    for nymbox in boxes:
        nx.discard_nym(nymbox)
    _idle(nx, args)
    return nx


def _cmd_stats_scale(args: argparse.Namespace) -> int:
    """``repro stats --scale DIR``: read a sharded run's metrics spools.

    Renders the coordinator's merged per-epoch stream (one row per epoch
    barrier) plus a per-shard event count, straight from the
    ``*.metrics.jsonl`` spools a sharded run streamed to disk.
    """
    from repro.errors import FleetError
    from repro.fleet.shard import load_scale_metrics
    from repro.vmm.vm import MIB

    try:
        metrics = load_scale_metrics(args.scale)
    except (FleetError, OSError) as exc:
        print(f"--scale: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(metrics)
        return 0
    merged = metrics["merged"]
    print(
        f"sharded metrics: {args.scale} "
        f"({len(merged)} epochs, {len(metrics['shards'])} shards)"
    )
    print(
        f"  {'epoch':>5} {'resident':>8} {'rejected':>8} {'evac':>5} "
        f"{'crashes':>7} {'used MiB':>9} {'ksm MiB':>8}"
    )
    for record in merged:
        print(
            f"  {record['epoch']:>5} {record['nyms_resident']:>8} "
            f"{record['rejected']:>8} {record['evacuations']:>5} "
            f"{record['host_crashes']:>7} "
            f"{record['used_bytes'] / MIB:>9.0f} "
            f"{record['ksm_saved_bytes'] / MIB:>8.0f}"
        )
    for name, records in metrics["shards"].items():
        last = records[-1] if records else {}
        print(
            f"  {name}: {len(records)} snapshots, "
            f"final resident {last.get('nyms_resident', 0)}, "
            f"final ksm {last.get('ksm_saved_bytes', 0) / MIB:.0f} MiB"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.scale:
        return _cmd_stats_scale(args)
    nx = _run_observed_scenario(args, args.nyms)
    obs = nx.obs
    obs.metrics.gauge("obs.journal.events").set(len(obs.journal))
    if args.journal and _write_journal(obs, args.journal):
        return 1
    if args.json:
        print(obs.metrics.export_json(args.prefix))
        return 0
    snapshot = obs.snapshot(args.prefix)
    if not snapshot:
        print(f"no metrics match prefix {args.prefix!r}")
        return 1
    width = max(len(name) for name in snapshot)
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):  # histogram
            mean = value["sum"] / value["count"] if value["count"] else 0.0
            rendered = (
                f"count={value['count']} mean={mean:.4f} "
                f"min={value['min']:.4f} max={value['max']:.4f}"
            )
        else:
            rendered = f"{value:g}"
        print(f"  {name:<{width}}  {rendered}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    nx = _run_observed_scenario(args, args.nyms)
    tracer = nx.obs.tracer
    if args.json:
        print(tracer.export_json())
        return 0
    tree = tracer.render_tree()
    if not tree:
        print("no spans recorded")
        return 1
    print(tree)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perfbench import (
        BENCHES,
        format_results_table,
        save_bench_results,
        select_benches,
    )

    if args.list:
        width = max(len(name) for name in BENCHES)
        for name in sorted(BENCHES):
            bench = BENCHES[name]
            tags = ",".join(sorted(bench.tags))
            print(f"  {name:<{width}}  [{tags}] {bench.description}")
        return 0
    try:
        selected = select_benches(only=args.only, tag=args.tag)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    results = []
    for bench in selected:
        print(f"bench {bench.name} ...", file=sys.stderr)
        results.append(bench.run(args.quick))
    if args.json:
        _emit_json({"quick": args.quick, "results": [r.to_dict() for r in results]})
    else:
        print(format_results_table(results))
    if args.out:
        path = save_bench_results(args.out, results, quick=args.quick)
        print(f"results -> {path}", file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    manager, report = run_chaos(
        seed=effective_seed(args),
        quick=args.quick,
        duration_s=args.duration,
        anonymizer=args.anonymizer,
        policies=load_policies(args, keys=["tenants"]),
    )
    if args.json:
        _emit_json(
            {
                "seed": report.seed,
                "anonymizer": report.anonymizer,
                "survived": report.survived,
                "planned": report.planned,
                "injected": report.injected,
                "steps": [dataclasses.asdict(s) for s in report.steps],
                "journal_events": report.journal_events,
            }
        )
    else:
        print(report.summary())
    if args.journal and _write_journal(manager.obs, args.journal):
        return 1
    return 0 if report.survived else 1


#: The ``fleet`` flags that shape a run, with the value each takes when
#: not given.  The parser leaves them ``None`` so that ``--resume``, whose
#: manifest decides them, can tell a given flag from its default.
_FLEET_RUN_DEFAULTS = {
    "shards": 1,
    "hosts": 64,
    "nyms": 1000,
    "policy": "ksm-aware",
    "host_crashes": 2,
    "epoch_s": 120.0,
    "spool_dir": "fleet-spool",
}


def cmd_fleet(args: argparse.Namespace) -> int:
    """One sharded run, compared under every placement policy, or
    ``--resume DIR`` to finish a killed one."""
    from repro.fleet.scenario import resume_fleet_sharded, run_fleet_sharded

    procs = 1 if args.procs is None else args.procs
    if procs < 0:
        print(
            f"repro fleet: --procs must be >= 0 (0 = one per core), "
            f"got {procs}",
            file=sys.stderr,
        )
        return 2
    if procs == 0:
        from repro.fleet.parallel import default_procs

        procs = default_procs()
    if args.resume:
        # A resume takes the run, its spools and its checkpoint directory
        # from the manifest, always runs to the end, and never compares.
        given = [
            ("--stop-after-epoch", args.stop_after_epoch is not None),
            ("--scale", args.scale is not None),
            ("--checkpoint-dir", args.checkpoint_dir is not None),
            ("--seed", args.seed is not None or args.sub_seed is not None),
            ("--quick", args.quick),
            ("--no-compare", args.no_compare),
        ] + [
            ("--" + name.replace("_", "-"), getattr(args, name) is not None)
            for name in _FLEET_RUN_DEFAULTS
        ]
        ignored = [flag for flag, on in given if on]
        if ignored:
            print(
                f"repro fleet: {', '.join(ignored)} not supported with --resume",
                file=sys.stderr,
            )
            return 2
        from repro.errors import FleetError

        try:
            report = resume_fleet_sharded(
                args.resume, journal_path=args.journal, out_path=args.out,
                procs=procs,
            )
        except (FleetError, OSError) as exc:
            print(f"--resume: {exc}", file=sys.stderr)
            return 1
    else:
        for name, default in _FLEET_RUN_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
        scale_counts = None
        if args.scale:
            scale_counts = [int(c) for c in args.scale.split(",") if c.strip()]
        shards, hosts, nyms = args.shards, args.hosts, args.nyms
        if args.quick:
            shards, hosts, nyms = min(shards, 2), min(hosts, 8), min(nyms, 60)
        report = run_fleet_sharded(
            seed=effective_seed(args),
            shards=shards,
            # ShardConfig rejects fewer than one shard, or than one host
            # per shard; dividing by a shard count below 1 would not.
            hosts_per_shard=hosts // max(1, shards),
            nyms=nyms,
            policy=args.policy,
            epoch_s=args.epoch_s,
            host_crashes=args.host_crashes,
            compare=not args.no_compare,
            spool_dir=args.spool_dir,
            checkpoint_dir=args.checkpoint_dir,
            stop_after_epoch=args.stop_after_epoch,
            journal_path=args.journal,
            out_path=args.out,
            scale_counts=scale_counts,
            procs=procs,
        )
    if args.json:
        _emit_json(report.export())
    else:
        print(report.summary())
        if args.out:
            print(f"report -> {args.out}", file=sys.stderr)
    if args.journal:
        print(f"journal -> {args.journal}", file=sys.stderr)
    if not report.result.completed:
        hint = (
            f"; resume with --resume {args.checkpoint_dir}"
            if args.checkpoint_dir
            else " (no --checkpoint-dir: this run cannot be resumed)"
        )
        print(
            f"stopped after epoch {report.result.epochs}{hint}",
            file=sys.stderr,
        )
    return 1 if report.compared and not report.ksm_aware_beats_first_fit else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweeps import run_sweep

    report = run_sweep(
        seed=effective_seed(args),
        quick=args.quick,
        idle_s=args.duration,
        journal_path=args.journal,
        out_path=args.out,
        policies=load_policies(args, keys=["tenants"]),
    )
    if args.json:
        _emit_json(report.export())
    else:
        print(report.summary())
        if args.out:
            print(f"report -> {args.out}", file=sys.stderr)
    if args.journal:
        print(f"journal -> {args.journal}", file=sys.stderr)
    return 0


def cmd_tenants(args: argparse.Namespace) -> int:
    from repro.tenancy.scenario import run_tenants

    hosts = args.hosts
    nyms = args.nyms
    drain_hosts = args.drain_hosts
    if args.quick:
        hosts = min(hosts, 8)
        nyms = min(nyms, 48)
        drain_hosts = min(drain_hosts, 2)
    report = run_tenants(
        seed=effective_seed(args),
        hosts=hosts,
        nyms=nyms,
        drain_hosts=drain_hosts,
        placement=args.policy,
        chaos=args.chaos,
        journal_path=args.journal,
        out_path=args.out,
        policies=load_policies(args),
    )
    if args.json:
        _emit_json(report.export())
    else:
        print(report.summary())
        if args.out:
            print(f"report -> {args.out}", file=sys.stderr)
    if args.journal:
        print(f"journal -> {args.journal}", file=sys.stderr)
    return 0 if report.zero_lost else 1


def cmd_catalog(args: argparse.Namespace) -> int:
    from repro.core.manager import TRANSPORTS
    from repro.guest.installed_os import INSTALLED_OS_CATALOG
    from repro.guest.websites import WEBSITE_CATALOG

    if args.json:
        _emit_json(
            {
                "anonymizers": sorted(TRANSPORTS),
                "websites": sorted(WEBSITE_CATALOG),
                "installed_oses": list(INSTALLED_OS_CATALOG),
            }
        )
        return 0
    print("anonymizers:")
    for kind in sorted(TRANSPORTS):
        print(f"  {kind}")
    print("  (compositions: any 'a+b'; camouflage: 'stegotorus[:inner]')")
    print("websites:")
    for hostname, site in sorted(WEBSITE_CATALOG.items()):
        login = " [login]" if site.requires_login else ""
        print(f"  {hostname}{login}")
    print("installed OSes:")
    for name, profile in INSTALLED_OS_CATALOG.items():
        repair = f"repair ~{profile.repair_seconds:.0f}s" if profile.needs_repair else "no repair"
        print(f"  {name} ({repair})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nymix reproduction: manage simulated nymboxes from the shell.",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="simulation seed (default 0)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="run the §5.1 validation")
    validate.add_argument("--nyms", type=int, default=4)
    validate.add_argument("--idle", type=float, default=30.0)
    add_common_args(validate, duration=True)
    validate.set_defaults(func=cmd_validate)

    redteam = commands.add_parser("redteam", help="run the adversarial sweep")
    redteam.add_argument("--nyms", type=int, default=3)
    add_common_args(redteam, duration=True)
    redteam.set_defaults(func=cmd_redteam)

    demo = commands.add_parser("demo", help="narrated quickstart workflow")
    add_common_args(demo, duration=True)
    demo.set_defaults(func=cmd_demo)

    catalog = commands.add_parser("catalog", help="list the simulated world")
    add_common_args(catalog, seed=False)
    catalog.set_defaults(func=cmd_catalog)

    stats = commands.add_parser("stats", help="run a scenario, dump metrics")
    stats.add_argument("--nyms", type=int, default=2)
    stats.add_argument("--prefix", default="", help="only metrics under this prefix")
    stats.add_argument(
        "--scale", metavar="DIR",
        help="read a sharded fleet run's per-epoch metrics spools from "
        "its spool directory instead of running a scenario",
    )
    add_common_args(stats, journal=True, duration=True)
    stats.set_defaults(func=cmd_stats)

    trace = commands.add_parser("trace", help="run a scenario, print the span tree")
    trace.add_argument("--nyms", type=int, default=1)
    add_common_args(trace, duration=True)
    trace.set_defaults(func=cmd_trace)

    bench = commands.add_parser(
        "bench", help="time the simulator's hot paths (absolute rates)"
    )
    bench.add_argument(
        "--quick", action="store_true", help="smaller inputs, shorter timing budget"
    )
    bench.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this bench (repeatable)",
    )
    bench.add_argument("--tag", help="run only benches carrying this tag")
    bench.add_argument("--out", metavar="PATH", help="write results JSON here")
    bench.add_argument("--list", action="store_true", help="list available benches")
    add_common_args(bench, seed=False)
    bench.set_defaults(func=cmd_bench)

    chaos = commands.add_parser(
        "chaos", help="run a seeded fault-injection scenario"
    )
    chaos.add_argument(
        "--quick", action="store_true", help="shorter fault window, fewer churns"
    )
    chaos.add_argument(
        "--anonymizer",
        choices=("tor", "mixnet"),
        default="tor",
        help="transport under test (mixnet adds mix-node churn faults)",
    )
    add_common_args(chaos, journal=True, duration=True)
    add_tenant_config_arg(chaos)
    chaos.set_defaults(func=cmd_chaos)

    sweep = commands.add_parser(
        "sweep", help="chart the anonymity/latency/overhead tradeoff surface"
    )
    sweep.add_argument(
        "--quick", action="store_true", help="2x2 mixnet grid and a short idle tail"
    )
    sweep.add_argument("--out", metavar="PATH", help="write the tradeoff JSON here")
    add_common_args(sweep, journal=True, duration=True)
    add_tenant_config_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)

    fleet = commands.add_parser(
        "fleet", help="schedule nymboxes across a simulated host cluster"
    )
    # The run-shaping flags default to None: see _FLEET_RUN_DEFAULTS.
    fleet.add_argument("--hosts", type=int, help="hosts in the fleet (default 64)")
    fleet.add_argument("--nyms", type=int, help="nymboxes to launch (default 1000)")
    fleet.add_argument(
        "--policy",
        choices=["first-fit", "least-loaded", "ksm-aware"],
        help="placement policy under test (owns the journal; default ksm-aware)",
    )
    fleet.add_argument(
        "--host-crashes", type=int, help="host-crash faults to inject (default 2)"
    )
    fleet.add_argument(
        "--no-compare",
        action="store_true",
        help="run only --policy instead of rerunning the same config under "
        "every other policy",
    )
    fleet.add_argument(
        "--quick", action="store_true",
        help="small cluster (<=2 shards, <=8 hosts, <=60 nyms)",
    )
    fleet.add_argument(
        "--out",
        metavar="PATH",
        help="write the placement/savings report JSON here",
    )
    fleet.add_argument(
        "--shards", type=int, metavar="N",
        help="regions the cluster is split into; --hosts is split evenly "
        "across them (default 1)",
    )
    fleet.add_argument(
        "--epoch-s", type=float, metavar="SECONDS",
        help="simulated seconds between shard barriers (default 120)",
    )
    fleet.add_argument(
        "--spool-dir", metavar="DIR",
        help="directory for the streamed journal spools (default fleet-spool)",
    )
    fleet.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint the run at every epoch barrier into DIR",
    )
    fleet.add_argument(
        "--stop-after-epoch", type=int, metavar="K",
        help="stop after K epoch barriers (with --checkpoint-dir: the kill "
        "half of kill/resume)",
    )
    fleet.add_argument(
        "--resume", metavar="DIR",
        help="resume a killed run from its checkpoint directory",
    )
    fleet.add_argument(
        "--scale", metavar="N,M,...",
        help="also chart the capacity trajectory across these shard counts "
        "(writes the scale_trajectory section of --out)",
    )
    fleet.add_argument(
        "--procs", type=int, metavar="N",
        help="run shards across N spawned OS worker processes (default 1; "
        "0 = one per core; journal bytes are identical at any N)",
    )
    add_common_args(fleet, journal=True)
    fleet.set_defaults(func=cmd_fleet)

    tenants = commands.add_parser(
        "tenants", help="run the multi-tenant control-plane scenario"
    )
    tenants.add_argument("--hosts", type=int, default=64, help="hosts in the fleet")
    tenants.add_argument(
        "--nyms", type=int, default=240, help="tenant-attributed arrivals"
    )
    tenants.add_argument(
        "--drain-hosts", type=int, default=8,
        help="hosts to rolling-drain (upgrade) after the waves",
    )
    tenants.add_argument(
        "--policy",
        default="first-fit",
        choices=["first-fit", "least-loaded", "ksm-aware"],
        help="placement policy for the run",
    )
    tenants.add_argument(
        "--chaos", action="store_true",
        help="inject a tenant burst plus a drain-during-crash overlap",
    )
    tenants.add_argument(
        "--quick", action="store_true",
        help="small cluster (<=8 hosts, <=48 arrivals, 2 drains)",
    )
    tenants.add_argument(
        "--out",
        metavar="PATH",
        help="write the per-tenant outcome report JSON here",
    )
    add_common_args(tenants, journal=True)
    add_tenant_config_arg(tenants)
    tenants.set_defaults(func=cmd_tenants)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not hasattr(args, "sub_seed"):
        parser.error(f"{args.command} takes no --seed")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
