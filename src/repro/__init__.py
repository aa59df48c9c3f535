"""Nymix reproduction: managing nymboxes for identity and tracking protection.

A faithful, fully simulated reimplementation of the Nymix client OS
architecture (Wolinsky & Ford, 2014): per-pseudonym *nymboxes* (an AnonVM
for the browser plus a CommVM for the anonymizer), pluggable anonymity
transports (Tor, Dissent, incognito, SWEET), quasi-persistent encrypted
nym storage in the cloud, a sanitizing SaniVM for cross-nym file
transfer, and installed-OS nyms - on top of from-scratch substrates for
the hypervisor, union file system, virtual network, and crypto.

Quickstart (the supported entry point is a self-closing Nym Manager)::

    from repro import NymixSession

    with NymixSession(seed=7) as nx:
        nym = nx.create_nym(name="reading-news")     # ephemeral by default
        nx.timed_browse(nym, "bbc.co.uk")
    # session exit discards every nym: amnesia, nothing remains

See DESIGN.md for the architecture map and EXPERIMENTS.md for the
paper-vs-measured comparison of every figure and table.
"""

from importlib import import_module

from repro.errors import NymixError

#: Each public name of the session stack and the module that defines it.
#: They load on first access (PEP 562), so a process that never opens a
#: session, such as a fleet shard worker, imports neither that stack nor
#: numpy.
_LAZY = {
    "NymixSession": "repro.api",
    "NymixConfig": "repro.core.config",
    "InstalledOsNymReport": "repro.core.manager",
    "NymManager": "repro.core.manager",
    "Nym": "repro.core.nym",
    "NymUsageModel": "repro.core.nym",
    "NymBox": "repro.core.nymbox",
    "StartupPhases": "repro.core.nymbox",
    "NymStore": "repro.core.persistence",
    "StoreReceipt": "repro.core.persistence",
    "ValidationResult": "repro.core.validation",
    "validate_system": "repro.core.validation",
}

__version__ = "1.0.0"

__all__ = [
    "NymixSession",
    "NymixConfig",
    "NymManager",
    "InstalledOsNymReport",
    "Nym",
    "NymUsageModel",
    "NymBox",
    "StartupPhases",
    "NymStore",
    "StoreReceipt",
    "ValidationResult",
    "validate_system",
    "NymixError",
    "__version__",
]


def __getattr__(name: str):
    """Import a lazy export on first access and keep it as a global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
