"""Multi-tenant control plane: policies, enforcement, and lifecycle ops.

The package layers on top of ``repro.fleet`` (quota admission, drain,
autoscale) and the anonymizer ingress (token-bucket shaping with strict
QoS priority); both reach the live registry as ``timeline.tenancy``,
which every timeline builds for itself.

The tenants *scenario* (``repro.tenancy.scenario``) pulls in the fleet
and workload layers, so it is imported on demand (mirroring
``repro.faults.chaos``) rather than from here.
"""

from repro.tenancy.autoscale import Autoscaler
from repro.tenancy.limiter import PriorityLink, TokenBucket
from repro.tenancy.policy import (
    BRONZE,
    GOLD,
    QOS_CLASSES,
    SILVER,
    UNLIMITED,
    AutoscalePolicy,
    FleetPolicies,
    QosClass,
    QuotaPolicy,
    RateLimitPolicy,
    TenantPolicy,
    load_tenant_config,
    policies_from_dict,
    tenant_from_dict,
)
from repro.tenancy.registry import (
    REASON_CAPACITY,
    REASON_QUOTA,
    REASON_RATE,
    TenantAccount,
    TenantRegistry,
)

__all__ = [
    "Autoscaler",
    "AutoscalePolicy",
    "BRONZE",
    "FleetPolicies",
    "GOLD",
    "PriorityLink",
    "QOS_CLASSES",
    "QosClass",
    "QuotaPolicy",
    "RateLimitPolicy",
    "REASON_CAPACITY",
    "REASON_QUOTA",
    "REASON_RATE",
    "SILVER",
    "TenantAccount",
    "TenantPolicy",
    "TenantRegistry",
    "TokenBucket",
    "UNLIMITED",
    "load_tenant_config",
    "policies_from_dict",
    "tenant_from_dict",
]
