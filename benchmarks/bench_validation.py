"""§5.1 validation as a benchmark: the leak scan and isolation matrix.

Reproduces the paper's validation methodology: many simultaneous
pseudonyms, an idle-traffic capture at the host's vantage point, and the
all-pairs cross-VM probe.
"""

from _harness import print_table, save_results
from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig
from repro.core.validation import validate_system


def run_validation(nyms: int = 6, seed: int = 12):
    manager = NymManager(NymixConfig(seed=seed))
    manager.add_cloud_provider(make_dropbox())
    for index in range(nyms):
        nymbox = manager.create_nym(name=f"val{index}")
        manager.timed_browse(nymbox, "bbc.co.uk")
    result = validate_system(manager, idle_seconds=60.0)
    return {
        "nyms": nyms,
        "passed": result.passed,
        "uplink_entries": result.leak_report.total_entries,
        "leaks": len(result.leak_report.leaks),
        "allowed_pairs": len(result.isolation.allowed_pairs),
        "violations": len(result.isolation.violations),
        "anonvm_uplink_traffic": result.anonvm_emitted_uplink_traffic,
        "dns_leaks": result.dns_leaks,
    }


def test_validation_leaks_and_isolation(benchmark):
    summary = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    print_table(
        "Section 5.1 validation: idle-traffic scan + isolation probe",
        list(summary.keys()),
        [tuple(summary.values())],
    )
    save_results("validation", summary)

    assert summary["passed"]
    assert summary["leaks"] == 0
    assert summary["violations"] == 0
    assert not summary["anonvm_uplink_traffic"]
    assert summary["dns_leaks"] == 0
    # Exactly one AnonVM<->CommVM pair per nym, both directions.
    assert summary["allowed_pairs"] == summary["nyms"] * 2
