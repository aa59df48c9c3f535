"""Figure 6: sizes of quasi-persistent pseudonym data across save/restore cycles.

Reproduces §5.3: four persistent nyms (Gmail, Facebook, Twitter, Tor Blog)
are saved to cloud storage, restored, browsed (triggering fresh site
updates), and re-saved, for ten cycles; the encrypted archive size is
recorded at each upload.
"""

from _harness import MIB, ascii_chart, fmt, print_table, save_results
from repro.cloud import make_dropbox
from repro.core import NymManager, NymixConfig
from repro.guest.websites import FIGURE6_SITES


def run_figure6(cycles: int = 10, seed: int = 6):
    manager = NymManager(NymixConfig(seed=seed))
    manager.add_cloud_provider(make_dropbox())
    manager.create_cloud_account("dropbox.com", "fig6", "pw")
    series = {}
    for host in FIGURE6_SITES:
        name = f"fig6-{host.split('.')[0]}"
        sizes = []
        nymbox = manager.create_nym(name=name)
        manager.timed_browse(nymbox, host)
        nymbox.sign_in(host, f"user-{name}", "pw")
        receipt = manager.store_nym(
            nymbox, password="nym-pw", provider_host="dropbox.com",
            account_username="fig6", blob_name=f"{name}.bin",
        )
        sizes.append(receipt.encrypted_bytes)
        manager.discard_nym(nymbox)
        for _ in range(cycles - 1):
            nymbox = manager.load_nym(name, "nym-pw")
            manager.timed_browse(nymbox, host)  # fetch site updates
            receipt = manager.close_session(nymbox, password="nym-pw")
            sizes.append(receipt.encrypted_bytes)
        series[host] = sizes
    return series


def test_fig6_persistent_nym_growth(benchmark):
    series = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    cycles = len(next(iter(series.values())))
    print_table(
        "Figure 6: encrypted pseudonym size (MB) across save/restore cycles",
        ["cycle"] + [host.split(".")[0] for host in series],
        [
            tuple([cycle + 1] + [fmt(series[host][cycle] / MIB) for host in series])
            for cycle in range(cycles)
        ],
    )
    ascii_chart(
        "Figure 6 (rendered)",
        {
            host.split(".")[0]: [
                (cycle + 1, size / MIB) for cycle, size in enumerate(sizes)
            ]
            for host, sizes in series.items()
        },
        x_label="save/restore cycles",
        y_label="encrypted size, MB",
    )
    save_results("fig6_storage", {"series": series})

    # Growth is monotone (site updates accrete in the cache).
    for host, sizes in series.items():
        assert all(b >= a for a, b in zip(sizes, sizes[1:])), host
    # Figure 6 ordering: Facebook heaviest, the Tor Blog lightest.
    finals = {host: sizes[-1] for host, sizes in series.items()}
    assert finals["facebook.com"] == max(finals.values())
    assert finals["blog.torproject.org"] == min(finals.values())
    # Final sizes are tens of MB, bounded by the Chromium cache cap.
    assert finals["facebook.com"] < 83 * MIB
    assert finals["facebook.com"] > 20 * MIB
