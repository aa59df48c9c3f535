"""repro.faults: deterministic fault injection and the retry machinery.

The robustness pillar.  :class:`FaultPlan` describes what goes wrong and
when; every timeline's :class:`FaultInjector` (``timeline.faults``)
delivers it into the live simulation once armed with it;
:class:`RetryPolicy`/:func:`retry_call` are how the rest of the stack
survives.  ``run_chaos`` drives a full seeded chaos scenario end to end.
See ``docs/robustness.md``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    ALL_KINDS,
    INLINE_KINDS,
    TIMED_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.faults.retry import DEFAULT_POLICY, RetryPolicy, retry_call

__all__ = [
    "ALL_KINDS",
    "DEFAULT_POLICY",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "INLINE_KINDS",
    "RetryPolicy",
    "TIMED_KINDS",
    "retry_call",
]
