"""Ablation: the pluggable-anonymizer trade-off space (§3.3).

One fixed page fetch and one bulk download through each transport —
incognito, Tor, Dissent, SWEET, and the Tor+Dissent composition — showing
the security/performance spectrum the paper describes.
"""

from _harness import fmt, print_table, save_results
from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig

TRANSPORTS = ("incognito", "tor", "dissent", "sweet", "tor+dissent")

PAGE_HOST = "bbc.co.uk"


def run_ablation(seed: int = 15):
    rows = []
    for kind in TRANSPORTS:
        manager = NymManager(NymixConfig(seed=seed))
        manager.add_cloud_provider(make_dropbox())
        nymbox = manager.create_nym(name=f"abl-{kind.replace('+', '-')}", anonymizer=kind)
        load = manager.timed_browse(nymbox, PAGE_HOST)
        plan = nymbox.anonymizer.plan(0)
        rows.append(
            {
                "transport": kind,
                "startup_s": nymbox.startup.start_anonymizer_s,
                "page_load_s": load.duration_s,
                "overhead_factor": plan.overhead_factor,
                "protects_identity": nymbox.anonymizer.protects_network_identity,
                "throughput_cap_mbps": (
                    plan.per_flow_ceiling_bps / 1e6
                    if plan.per_flow_ceiling_bps != float("inf")
                    else None
                ),
            }
        )
    return rows


def test_ablation_anonymizer_choice(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: anonymizer trade-offs (one page fetch of bbc.co.uk)",
        ["transport", "startup (s)", "page load (s)", "wire overhead",
         "hides identity", "throughput cap (Mbit/s)"],
        [
            (
                r["transport"], fmt(r["startup_s"]), fmt(r["page_load_s"], 2),
                fmt(r["overhead_factor"], 3), r["protects_identity"],
                fmt(r["throughput_cap_mbps"], 2) if r["throughput_cap_mbps"] else "-",
            )
            for r in rows
        ],
    )
    save_results("ablation_anonymizers", {"rows": rows})

    by_kind = {r["transport"]: r for r in rows}
    # The §3.3 spectrum: incognito fastest but unprotected; Tor protected
    # and moderate; Dissent slower than Tor; SWEET slowest; the composition
    # costs at least its most expensive stage.
    assert not by_kind["incognito"]["protects_identity"]
    assert all(by_kind[k]["protects_identity"] for k in ("tor", "dissent", "sweet", "tor+dissent"))
    assert by_kind["incognito"]["page_load_s"] < by_kind["tor"]["page_load_s"]
    assert by_kind["tor"]["page_load_s"] < by_kind["dissent"]["page_load_s"]
    assert by_kind["dissent"]["page_load_s"] < by_kind["sweet"]["page_load_s"]
    assert (
        by_kind["tor+dissent"]["overhead_factor"]
        > max(by_kind["tor"]["overhead_factor"], by_kind["dissent"]["overhead_factor"])
    )
    assert by_kind["incognito"]["startup_s"] < by_kind["tor"]["startup_s"]
