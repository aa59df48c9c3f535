"""Exception hierarchy for the Nymix reproduction.

Every subsystem raises exceptions derived from :class:`NymixError` so that
callers can distinguish simulation-substrate failures from ordinary Python
errors.  The hierarchy mirrors the architecture: hypervisor/VM errors,
file-system errors, network errors, anonymizer errors, storage errors, and
nym-management errors.
"""

from __future__ import annotations


class NymixError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(NymixError):
    """Misuse of the discrete-event simulation kernel."""


class ObservabilityError(NymixError):
    """Misuse of the metrics/tracing/journal subsystem."""


class JournalOverflowError(ObservabilityError):
    """An event journal that is not streaming to a spool hit ``max_events``."""


class CryptoError(NymixError):
    """Cryptographic failure (bad key sizes, failed authentication...)."""


class AuthenticationError(CryptoError):
    """An AEAD tag or MAC failed to verify."""


class MemoryError_(NymixError):
    """Host physical memory exhaustion or invalid page operations."""


class OutOfMemoryError(MemoryError_):
    """The host cannot satisfy an allocation request."""


class StorageError(NymixError):
    """Block device / disk image failures."""


class FileSystemError(NymixError):
    """Union file system failures."""


class ReadOnlyError(FileSystemError):
    """Write attempted on a read-only layer or mount."""


class IntegrityError(FileSystemError):
    """A Merkle-verified read found a corrupted base-image block."""


class NetworkError(NymixError):
    """Virtual network failures."""


class UnreachableError(NetworkError):
    """Destination does not exist or is blocked by isolation policy."""


class VmError(NymixError):
    """Virtual machine lifecycle errors."""


class VmStateError(VmError):
    """Operation invalid in the VM's current lifecycle state."""


class HypervisorError(NymixError):
    """Hypervisor-level admission or configuration failure."""


class AnonymizerError(NymixError):
    """Anonymizer (Tor / Dissent / incognito) failures."""


class CircuitError(AnonymizerError):
    """Tor circuit construction or extension failed."""


class MixnetError(AnonymizerError):
    """Mixnet packet processing or routing failed (dead node, replay, bad MAC)."""


class TransientError(NymixError):
    """A failure expected to clear on retry (injected or environmental)."""


class RetryExhaustedError(NymixError):
    """A retried operation ran out of attempts and gave up."""


class CloudError(NymixError):
    """Cloud storage provider failures."""


class TransientCloudError(CloudError, TransientError):
    """A cloud request died mid-flight; retrying may succeed."""


class QuotaExceededError(CloudError):
    """A cloud account exceeded its storage quota."""


class SanitizeError(NymixError):
    """SaniVM scrubbing pipeline failures."""


class NymError(NymixError):
    """Nym manager / nymbox lifecycle errors."""


class NymStateError(NymError):
    """Operation invalid for the nym's usage model or lifecycle state."""


class PersistenceError(NymError):
    """Saving or restoring quasi-persistent nym state failed."""


class FleetError(NymixError):
    """Multi-host fleet scheduling errors."""


class FleetCapacityError(FleetError):
    """Admission control rejected a placement: no host can take the nym."""


class ShardWorkerError(FleetError):
    """A shard worker process failed or died mid-run.

    Carries the shard the failure was observed on and the last epoch
    barrier the coordinator completed — the run stays resumable from the
    checkpoint taken at that barrier.
    """

    def __init__(
        self, message: str, shard_id=None, last_barrier=None
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.last_barrier = last_barrier


class TenancyError(NymixError):
    """Tenant control-plane errors (bad policy objects, unknown tenants)."""


class TenantQuotaError(FleetCapacityError):
    """Admission rejected a placement: the tenant is over quota.

    Subclasses :class:`FleetCapacityError` so existing ``except
    FleetCapacityError`` admission handlers keep working unchanged.
    """


class TenantRateLimitError(FleetCapacityError):
    """Admission rejected a placement: the tenant's launch bucket is dry."""
