"""The import boundary: a fleet process loads the fleet stack and no more.

Spawned shard workers start from a fresh interpreter, and under the
installed ``repro`` console script each one re-imports :mod:`repro.cli`
as well, so whatever these imports load is set-up time paid once per
worker.  The fleet never runs numpy or the session stack, and these
tests pin that none of it loads: the package ``__init__``s re-export
their session and cipher names lazily (PEP 562), :mod:`repro.sim.rng`
imports numpy at its first bulk draw, and each CLI command imports what
it runs.

Every check runs in a fresh interpreter, because this test session has
long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: What a fleet process must never load.
SESSION_STACK = [
    "numpy",
    "repro.api",
    "repro.core",
    "repro.anonymizers",
    "repro.guest",
    "repro.mixnet",
    "repro.sanitize",
    "repro.crypto.aead",
    "repro.crypto.chacha20",
    "repro.crypto.poly1305",
]

#: Every public name of the three lazy packages and the module that
#: defines it.
EXPORTS = {
    "repro": {
        "NymixSession": "repro.api",
        "NymixConfig": "repro.core.config",
        "NymManager": "repro.core.manager",
        "InstalledOsNymReport": "repro.core.manager",
        "Nym": "repro.core.nym",
        "NymUsageModel": "repro.core.nym",
        "NymBox": "repro.core.nymbox",
        "StartupPhases": "repro.core.nymbox",
        "NymStore": "repro.core.persistence",
        "StoreReceipt": "repro.core.persistence",
        "ValidationResult": "repro.core.validation",
        "validate_system": "repro.core.validation",
        "NymixError": "repro.errors",
        "__version__": "repro",
    },
    "repro.crypto": {
        "ChaCha20Poly1305": "repro.crypto.aead",
        "SealedBox": "repro.crypto.aead",
        "chacha20_block": "repro.crypto.chacha20",
        "chacha20_xor": "repro.crypto.chacha20",
        "hkdf": "repro.crypto.kdf",
        "hkdf_expand": "repro.crypto.kdf",
        "hkdf_extract": "repro.crypto.kdf",
        "pbkdf2_sha256": "repro.crypto.kdf",
        "MerkleTree": "repro.crypto.merkle",
        "poly1305_mac": "repro.crypto.poly1305",
        "X25519_BASE_POINT": "repro.crypto.x25519",
        "x25519": "repro.crypto.x25519",
        "x25519_keypair": "repro.crypto.x25519",
    },
    "repro.workloads": {
        "PeacekeeperBenchmark": "repro.workloads.peacekeeper",
        "PeacekeeperResult": "repro.workloads.peacekeeper",
        "ParallelDownloadExperiment": "repro.workloads.download",
        "DownloadResult": "repro.workloads.download",
        "BrowsingSession": "repro.workloads.browsing",
        "run_memory_experiment_step": "repro.workloads.browsing",
    },
}

SERIAL_RUN = """
import tempfile
from repro.fleet.shard import ShardConfig, ShardedFleet

with tempfile.TemporaryDirectory() as spool_dir:
    sharded = ShardedFleet(
        ShardConfig(seed=5, shards=2, hosts_per_shard=8, nyms=120,
                    epoch_s=15.0, host_crashes=1),
        spool_dir,
    )
    assert sharded.run().completed
    sharded.close()
"""

IMPORT_EVERY_SUBMODULE = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
"""

CHECK_EXPORTS = """
import importlib
exported = {}
for package, names in EXPORTS.items():
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(names), package
    for name in names:
        namespace = {}
        exec(f"from {package} import {name} as imported", namespace)
        exported[package, name] = (namespace["imported"], getattr(module, name))
mismatched = [
    f"{package}.{name}"
    for (package, name), values in exported.items()
    for value in values
    if value is not getattr(importlib.import_module(EXPORTS[package][name]), name)
]
print(json.dumps(sorted(set(mismatched))))
"""


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports this ``repro``;
    return what it printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_session_modules(code):
    """The :data:`SESSION_STACK` modules loaded after running ``code``."""
    report = (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {SESSION_STACK!r} if m in sys.modules]))\n"
    )
    return json.loads(fresh_interpreter(code + report).splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import repro.fleet.parallel",
        "import repro.cli",
        SERIAL_RUN,
    ],
    ids=["worker-import", "cli-import", "serial-run"],
)
def test_a_fleet_process_never_loads_the_session_stack(code):
    assert loaded_session_modules(code) == []


@pytest.mark.parametrize(
    "code, modules",
    [("import repro.fleet.parallel", 58), (SERIAL_RUN, 57)],
    ids=["worker-import", "serial-run"],
)
def test_a_fleet_process_loads_a_pinned_number_of_repro_modules(code, modules):
    # A module new to the fleet path shows here even when it imports
    # nothing from SESSION_STACK.  A serial run never loads
    # repro.fleet.parallel, and neither case loads repro.fleet.scenario.
    report = (
        "\nimport sys\n"
        "print(len([m for m in sys.modules if m.split('.')[0] == 'repro']))\n"
    )
    assert int(fresh_interpreter(code + report).splitlines()[-1]) == modules


@pytest.mark.parametrize(
    "first", ["", IMPORT_EVERY_SUBMODULE], ids=["names-first", "submodules-first"]
)
def test_every_export_is_its_defining_modules_object(first):
    # Importing the submodule repro.crypto.x25519 binds the package
    # attribute ``x25519`` to that module; the function must still win,
    # whichever is imported first.
    code = f"import json\nEXPORTS = {EXPORTS!r}\n{first}\n{CHECK_EXPORTS}"
    assert json.loads(fresh_interpreter(code).splitlines()[-1]) == []


@pytest.mark.parametrize(
    "module",
    ["repro.mixnet", "repro.mixnet.packet", "repro.mixnet.topology",
     "repro.mixnet.client"],
)
def test_a_mixnet_module_imports_first_in_a_fresh_interpreter(module):
    # The mixnet client builds on repro.anonymizers.base, and nothing in
    # repro.anonymizers imports the mixnet back: whichever side comes
    # first, no import finds the other half-built.
    fresh_interpreter(
        f"import {module}\n"
        "from repro.anonymizers.base import Anonymizer\n"
        "from repro.mixnet import MixnetClient\n"
        "assert issubclass(MixnetClient, Anonymizer)\n"
    )
