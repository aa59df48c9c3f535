"""Ablation: host-side memory remanence, with and without Dunn scrubbing.

§3.4 concedes that traces of dead nyms persist in host RAM until reboot
and points at Dunn's ephemeral channels [18] as the (costly) fix.  This
bench measures what a live-confiscation adversary could image after a
day of nym churn, under both configurations.
"""

from _harness import MIB, fmt, print_table, save_results
from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig
from repro.memory.remanence import AdversaryAccess


def _run(ephemeral_channels: bool, nym_churn: int = 6, seed: int = 27):
    manager = NymManager(
        NymixConfig(seed=seed, ephemeral_channels=ephemeral_channels)
    )
    manager.add_cloud_provider(make_dropbox())
    for index in range(nym_churn):
        nymbox = manager.create_nym(name=f"day-{index}")
        manager.timed_browse(nymbox, "bbc.co.uk")
        manager.discard_nym(nymbox)
    tracker = manager.remanence
    return {
        "live_recoverable_mb": tracker.recoverable_bytes(AdversaryAccess.LIVE) / MIB,
        "poweroff_recoverable_mb": tracker.recoverable_bytes(
            AdversaryAccess.AFTER_SHUTDOWN
        )
        / MIB,
        "by_kind": {k: v / MIB for k, v in tracker.summary().items()},
    }


def run_ablation():
    return {
        "baseline": _run(ephemeral_channels=False),
        "ephemeral_channels": _run(ephemeral_channels=True),
    }


def test_ablation_remanence(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_table(
        "Ablation: residual host traces after 6 discarded nyms (MB)",
        ["configuration", "live confiscation", "after power-off"],
        [
            (
                name,
                fmt(values["live_recoverable_mb"]),
                fmt(values["poweroff_recoverable_mb"]),
            )
            for name, values in result.items()
        ],
    )
    save_results("ablation_remanence", result)

    baseline = result["baseline"]
    scrubbed = result["ephemeral_channels"]
    # Live confiscation recovers something from the baseline host...
    assert baseline["live_recoverable_mb"] > 10
    # ...but Dunn-style scrubbing reduces it by >95%...
    assert scrubbed["live_recoverable_mb"] < baseline["live_recoverable_mb"] * 0.05
    # ...and a powered-off machine yields nothing either way (§3.4).
    assert baseline["poweroff_recoverable_mb"] == 0
    assert scrubbed["poweroff_recoverable_mb"] == 0
