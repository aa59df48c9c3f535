"""The journal contract, pinned: same seed, same bytes, across changes.

Other tests compare two runs of the *current* code with each other; these
compare the current code with the bytes it has always produced.  Each
CLI case runs a seed-7 scenario in process and checks the sha256 of its
event journal against a recorded digest.  The ``fleet-quick`` case also
runs cold-booted (``COLD_BOOT`` in ``tests/seed_oracles.py``): that is
the gate that a flash clone journals the same bytes as a cold boot.  The
browse/store cases drive a seed-7 ``NymixSession`` through browsing and
the §3.5 store and load, and also pin the sealed blob and the stored
files, which the fleet and tenancy journals never touch.  The
host-capture case pins every entry the §5.1 host capture records in a
seed-7 session over every transport spelling.  The sharded
case pins a crash-injected ``fleet --shards`` run's combined journal and
metrics spools under both executors.  The output cases pin what
``repro trace --json`` and ``repro stats --json`` print: the span tree
and the metrics snapshot, which no journal carries.  The digests are
stable across ``PYTHONHASHSEED`` and match fresh-process runs of the
same commands.

The two ``chaos`` cases pin the fault paths: an injector armed on the
timeline, retries, crash recovery and, under ``mixnet``, the
``mixnet.node_crash`` fault.

A change that re-baselines journals on purpose updates these digests and
says so in CHANGES.md.  Any other digest change is a regression.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.api import NymixSession
from repro.cli import main
from repro.fleet.shard import combined_spool_bytes

from tests.seed_oracles import COLD_BOOT, apply

MIB = 1024 * 1024

CASES = {
    "tenants-first-fit": (
        ["--seed", "7", "tenants", "--quick", "--policy", "first-fit"],
        "c1bdf7f3e922175ffe20ec939dd6e0bd50426e1c94010cdb57f431f19c8bcfcf",
    ),
    "tenants-least-loaded": (
        ["--seed", "7", "tenants", "--quick", "--policy", "least-loaded"],
        "11e294160fcf0baea5c8b040f41c3235a164d39938cdafe46e543df537c060e0",
    ),
    "tenants-ksm-aware": (
        ["--seed", "7", "tenants", "--quick", "--policy", "ksm-aware"],
        "ee72ba2c2915721eee6852f960100ec53323c0065defa562f469a47d91b9dfb3",
    ),
    "tenants-chaos": (
        ["--seed", "7", "tenants", "--quick", "--chaos"],
        "b3501e56eebf714bc307e8dbe9242e37ec40b843f2171c4052557214c3174695",
    ),
    "fleet-quick": (
        ["fleet", "--seed", "7", "--quick"],
        "bcd0d3878b4875738d4b3924d6984fdf4ea7a7c5c3a7c4d994a4d1650d791727",
    ),
    "chaos-tor": (
        ["--seed", "7", "chaos", "--quick"],
        "8a2ee8925e60b27aace8bfe562a96d0eb35123e8357418022b996ccd25517fe8",
    ),
    "chaos-mixnet": (
        ["--seed", "7", "chaos", "--quick", "--anonymizer", "mixnet"],
        "4f10a6b07cd16e41f73c7553cc478ec44e72a6a7afae09cbff6e6aae654b9354",
    ),
}


def _cli_journal_digest(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    journal = tmp_path / "journal.jsonl"
    assert main(argv + ["--journal", str(journal)]) == 0
    capsys.readouterr()
    return hashlib.sha256(journal.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_journal_matches_recorded_digest(case, tmp_path, monkeypatch, capsys):
    argv, digest = CASES[case]
    assert _cli_journal_digest(argv, tmp_path, monkeypatch, capsys) == digest


def test_cold_boot_fleet_journal_matches_recorded_digest(
    tmp_path, monkeypatch, capsys
):
    argv, digest = CASES["fleet-quick"]
    apply(monkeypatch, COLD_BOOT)
    assert _cli_journal_digest(argv, tmp_path, monkeypatch, capsys) == digest


#: A sharded run whose crash plan puts a crash at epoch 15 while the run
#: ends at epoch 14, so the last barrier also fires every crash still
#: planned for later epochs.
SHARDED_ARGV = [
    "fleet", "--seed", "17", "--shards", "3", "--hosts", "12", "--nyms", "90",
    "--host-crashes", "6", "--epoch-s", "3",
]
SHARDED_JOURNAL = "3fcd0e6a5d711666c2a72a0218c1be20001001e1310fa4fa925707e19c2fa687"
SHARDED_METRICS = "7a4af806192eb3832609c2a7df4af6d91552c60ad1dd6867e9e596e8e2566029"


@pytest.mark.parametrize("procs", [1, 2])
def test_sharded_crash_run_matches_recorded_digests(procs, tmp_path, capsys):
    spool = tmp_path / "spool"
    journal = tmp_path / "journal.jsonl"
    assert main(
        SHARDED_ARGV
        + ["--procs", str(procs), "--spool-dir", str(spool),
           "--journal", str(journal), "--out", str(tmp_path / "out.json")]
    ) == 0
    capsys.readouterr()
    metrics = combined_spool_bytes(
        [str(spool / "metrics.metrics.jsonl")]
        + [str(spool / f"shard-{i:02d}.metrics.jsonl") for i in range(3)]
    )
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == SHARDED_JOURNAL
    assert hashlib.sha256(metrics).hexdigest() == SHARDED_METRICS


#: cache limit -> (sealed blob, stored files, journal) sha256
BROWSE_STORE_CASES = {
    "default-cache": (
        None,
        "3116a2b1428732c3d41ea0723802a943e1196932f2fb92541ccf1a60c9ec2e66",
        "33a3022c7338519f45edfefde8dce66d8157546c9379a71ba8a3eac6ceb98646",
        "f03d1b5a9d28dea8c52d4b1e7fc5a10cd317767fadcb284ebda6618e13e855af",
    ),
    "2mib-cache": (
        2 * MIB,
        "456c5b2ac15f7ad1134956b6329b99bf635da67a44fbad7da3ff6dd884ef7490",
        "d5e102f885c86a449045ace8ca81df2ba58ce2ef9e21177570051f0232177916",
        "1588b5150659e51e5c7b2e2bc8259809a4dcb7ae52acb3435046a58c38e5ce83",
    ),
}


def _browse_store_load(cache_limit):
    """Browse three pages (one a revisit), store to the cloud, load back."""
    with NymixSession(seed=7) as nx:
        account = nx.create_cloud_account("dropbox.com", "anon991", "cloud-pw")
        nymbox = nx.create_nym(name="alice")
        if cache_limit is not None:
            nymbox.browser.cache_limit_bytes = cache_limit
        for site in ("blog.torproject.org", "slashdot.org", "blog.torproject.org"):
            nx.timed_browse(nymbox, site)
        receipt = nx.store_nym(
            nymbox, password="pw", provider_host="dropbox.com",
            account_username="anon991",
        )
        files = hashlib.sha256()
        for vm in (nymbox.anonvm, nymbox.commvm):
            for path, data in vm.fs.top.items():
                files.update(b"%s\0%d\0" % (path.encode(), len(data)))
                files.update(data)
        nx.discard_nym(nymbox)
        nx.load_nym("alice", "pw")
        blob = account.blobs[receipt.blob_name].data
        journal = nx.obs.journal.export_jsonl().encode()
    return (
        hashlib.sha256(blob).hexdigest(),
        files.hexdigest(),
        hashlib.sha256(journal).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(BROWSE_STORE_CASES))
def test_browse_store_load_matches_recorded_digests(case):
    cache_limit, blob, files, journal = BROWSE_STORE_CASES[case]
    assert _browse_store_load(cache_limit) == (blob, files, journal)


#: The §5.1 host capture of a seed-7 session (the DHCP handshake, every
#: transport's directory fetch and uplink flows, the cloud round trip)
#: and its journal: (capture, journal) sha256.
HOST_CAPTURE = (
    "5f9e3d1a48fc6e74cb8b535dac82622c1a2b420c94605071088c214d52d6e13d",
    "0d95c7d93a5b4242a822c829bbc0bd3b8e5203a81eb3075e675a50723efa7e7c",
)

#: One nym of each browses once after the Tor nym's store and load.
CAPTURE_KINDS = (
    "mixnet", "incognito", "dissent", "sweet", "stegotorus:mixnet", "tor+dissent",
)


def test_host_capture_matches_recorded_digests():
    with NymixSession(seed=7) as nx:
        nx.create_cloud_account("dropbox.com", "anon991", "cloud-pw")
        nymbox = nx.create_nym(name="alice", anonymizer="tor")
        for site in ("bbc.co.uk", "slashdot.org"):
            nx.timed_browse(nymbox, site)
        nx.store_nym(
            nymbox, password="pw", provider_host="dropbox.com",
            account_username="anon991",
        )
        nx.discard_nym(nymbox)
        nx.timed_browse(nx.load_nym("alice", "pw"), "espn.com")
        for kind in CAPTURE_KINDS:
            nx.timed_browse(nx.create_nym(anonymizer=kind), "bbc.co.uk")
        capture = hashlib.sha256()
        for entry in nx.hypervisor.host_capture.entries:
            # All seven fields, in capture order; repr keeps float times exact.
            capture.update(repr(astuple(entry)).encode() + b"\n")
        journal = nx.obs.journal.export_jsonl().encode()
    assert (
        capture.hexdigest(), hashlib.sha256(journal).hexdigest()
    ) == HOST_CAPTURE


#: ``repro`` stdout pinned byte for byte: the sim-time span tree (which
#: spans a manager opens, and where) and the metrics snapshot (a name
#: appears only once something has been recorded under it).
OUTPUT_CASES = {
    "trace-json": (
        ["--seed", "3", "trace", "--json"],
        "2ff91dcb0b7236ef4c8be66e8c2f40d747ba835205cb9f60a537a055f1e438de",
    ),
    "stats-json": (
        ["--seed", "7", "stats", "--json"],
        "4f868e68f972392a144a6358e7010c9a3b4fc013d2844890e51f68d0a93c1d89",
    ),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_matches_recorded_digest(case, capsys):
    argv, digest = OUTPUT_CASES[case]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest
