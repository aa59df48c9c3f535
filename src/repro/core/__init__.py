"""The Nymix core: nyms, nymboxes, the Nym Manager, quasi-persistence.

This is the paper's contribution proper.  A *nym* is a user-facing
pseudonym; a *nymbox* is its isolation container — one AnonVM for the
browser, one CommVM for the anonymizer, a private virtual wire between
them, and nothing else.  The :class:`NymManager` supervises creation,
longevity and destruction (§3.1), binds credentials and client state to
nyms, stores encrypted nym snapshots in the cloud (§3.5), mediates
sanitized file transfer (§3.6), boots the installed OS as a nym (§3.7),
and runs the §5.1 validation checks.
"""

from repro.core.config import NymixConfig
from repro.core.nym import Nym, NymUsageModel
from repro.core.nymbox import NymBox, StartupPhases
from repro.core.persistence import NymStore, StoreReceipt
from repro.core.manager import InstalledOsNymReport, NymManager
from repro.core.validation import IsolationMatrix, ValidationResult, validate_system

__all__ = [
    "NymixConfig",
    "Nym",
    "NymUsageModel",
    "NymBox",
    "StartupPhases",
    "NymStore",
    "StoreReceipt",
    "NymManager",
    "InstalledOsNymReport",
    "IsolationMatrix",
    "ValidationResult",
    "validate_system",
]
