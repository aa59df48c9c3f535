"""Figure 7: average startup time by phase for each initial configuration.

Reproduces §5.4: a nym visits Twitter under the three usage models —
fresh (ephemeral), pre-configured, and persisted — timing the Boot VM,
Start Tor, Load webpage, and (for quasi-persistent nyms) Ephemeral Nym
phases, averaged over five executions each.
"""

from _harness import fmt, print_table, save_results
from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig


def _average(phase_dicts):
    keys = phase_dicts[0].keys()
    return {k: sum(d[k] for d in phase_dicts) / len(phase_dicts) for k in keys}


def run_figure7(runs: int = 5, seed: int = 7):
    """Returns (results, metrics): phase averages plus the last run's
    substrate metrics snapshot (boot/circuit/uplink counters)."""
    results = {}

    fresh_phases = []
    for run in range(runs):
        manager = NymManager(NymixConfig(seed=seed + run))
        manager.add_cloud_provider(make_dropbox())
        nymbox = manager.create_nym(name="fresh")
        manager.timed_browse(nymbox, "twitter.com")
        fresh_phases.append(nymbox.startup.as_dict())
    results["Fresh"] = _average(fresh_phases)

    preconfig_phases = []
    persisted_phases = []
    for run in range(runs):
        manager = NymManager(NymixConfig(seed=seed + 100 + run))
        manager.add_cloud_provider(make_dropbox())
        manager.create_cloud_account("dropbox.com", "fig7", "pw")

        # Set up once: visit, sign in, snapshot (pre-configured).
        setup = manager.create_nym(name="twitter-nym")
        manager.timed_browse(setup, "twitter.com")
        setup.sign_in("twitter.com", "pseudo", "pw")
        manager.snapshot_nym(
            setup, "nym-pw", provider_host="dropbox.com", account_username="fig7"
        )
        manager.discard_nym(setup)

        # Pre-configured: start from the snapshot.
        nymbox = manager.load_nym("twitter-nym", "nym-pw")
        manager.timed_browse(nymbox, "twitter.com")
        preconfig_phases.append(nymbox.startup.as_dict())
        # Convert to persistent and run one more save/load cycle.
        from repro.core.nym import NymUsageModel

        nymbox.nym.usage_model = NymUsageModel.PERSISTENT
        manager.stored_nyms["twitter-nym"].usage_model = NymUsageModel.PERSISTENT
        manager.close_session(nymbox, password="nym-pw")
        nymbox = manager.load_nym("twitter-nym", "nym-pw")
        manager.timed_browse(nymbox, "twitter.com")
        persisted_phases.append(nymbox.startup.as_dict())
    results["Pre-config."] = _average(preconfig_phases)
    results["Persisted"] = _average(persisted_phases)
    return results, manager.obs.snapshot()


def test_fig7_startup_phases(benchmark):
    results, metrics = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    phases = ["Boot VM", "Start Tor", "Load webpage", "Ephemeral Nym"]
    print_table(
        "Figure 7: average startup time (s) by phase",
        ["configuration"] + phases + ["total"],
        [
            tuple(
                [config]
                + [fmt(values[p]) for p in phases]
                + [fmt(sum(values.values()))]
            )
            for config, values in results.items()
        ],
    )
    save_results("fig7_startup", {"results": results}, metrics=metrics)

    fresh, preconfig, persisted = (
        results["Fresh"], results["Pre-config."], results["Persisted"],
    )
    # Quasi-persistent nyms beat fresh nyms on Tor start (stored guards).
    assert preconfig["Start Tor"] < fresh["Start Tor"]
    assert persisted["Start Tor"] < fresh["Start Tor"]
    # Only quasi-persistent configurations pay the ephemeral download nym.
    assert fresh["Ephemeral Nym"] == 0.0
    assert preconfig["Ephemeral Nym"] > 10.0
    assert persisted["Ephemeral Nym"] > 10.0
    # Fresh nym totals match the paper's 15-25 s claim.
    assert 12.0 <= sum(fresh.values()) <= 27.0
