"""The journal contract, pinned: same seed, same bytes, across changes.

Other tests compare two runs of the *current* code with each other; these
compare the current code with the bytes it has always produced.  Each
case runs a seed-7 CLI scenario in process and checks the sha256 of its
event journal against a recorded digest.  The digests are stable across
``PYTHONHASHSEED`` and match fresh-process runs of the same commands.

A change that re-baselines journals on purpose updates these digests and
says so in CHANGES.md.  Any other digest change is a regression.
"""

import hashlib

import pytest

from repro.cli import main

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
        "3b0ecba855ce3e4384e807c048f38f779e10f573b31412f9dcdc065fac2ac993",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_journal_matches_recorded_digest(case, tmp_path, monkeypatch, capsys):
    argv, digest = CASES[case]
    monkeypatch.chdir(tmp_path)
    journal = tmp_path / "journal.jsonl"
    assert main(argv + ["--journal", str(journal)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == digest
