"""Declarative tenant policy objects.

Policies are frozen dataclasses: a :class:`TenantPolicy` bundles a quota, a
rate limit, and a QoS class under a tenant name, and a
:class:`FleetPolicies` object carries everything the fleet needs to know
about placement, watermarks, tenants, and autoscaling in one value.  The
objects themselves enforce nothing — they are handed to a
``TenantRegistry`` (commit/delete reconciliation) or a ``Fleet``
(construction-time application), which do the enforcing.

This module deliberately imports nothing from ``repro.fleet``: placement
policy is carried as a *name* (or any object the fleet accepts) so the
tenancy layer stays below the fleet in the import graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import TenancyError


@dataclass(frozen=True)
class QosClass:
    """A strict-priority service class for ingress traffic.

    Lower ``priority`` is served first: a class only transmits when every
    lower-numbered class's backlog has cleared.
    """

    name: str
    priority: int

    def __post_init__(self) -> None:
        if not self.name:
            raise TenancyError("QosClass needs a non-empty name")
        if self.priority < 0:
            raise TenancyError(f"QosClass priority must be >= 0: {self.priority}")


#: The three built-in service classes, best first.
GOLD = QosClass("gold", 0)
SILVER = QosClass("silver", 1)
BRONZE = QosClass("bronze", 2)

QOS_CLASSES: Dict[str, QosClass] = {q.name: q for q in (GOLD, SILVER, BRONZE)}


@dataclass(frozen=True)
class QuotaPolicy:
    """Static ceilings on what a tenant may hold at once.

    ``None`` means unlimited on that axis.
    """

    max_nyms: Optional[int] = None
    max_ram_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_nyms is not None and self.max_nyms < 0:
            raise TenancyError(f"max_nyms must be >= 0: {self.max_nyms}")
        if self.max_ram_bytes is not None and self.max_ram_bytes < 0:
            raise TenancyError(f"max_ram_bytes must be >= 0: {self.max_ram_bytes}")

    @property
    def unlimited(self) -> bool:
        return self.max_nyms is None and self.max_ram_bytes is None


@dataclass(frozen=True)
class RateLimitPolicy:
    """Token-bucket rates for a tenant.  Zero/None disables an axis.

    ``launch_rate_per_s`` meters *admission attempts* (nym launches) and
    rejects when the bucket is dry; ``ingress_bytes_per_s`` meters traffic
    at the anonymizer send path and *delays* rather than rejects.
    """

    launch_rate_per_s: float = 0.0
    launch_burst: float = 4.0
    ingress_bytes_per_s: float = 0.0
    ingress_burst_bytes: float = 0.0

    def __post_init__(self) -> None:
        for name in ("launch_rate_per_s", "launch_burst",
                     "ingress_bytes_per_s", "ingress_burst_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise TenancyError(f"{name} must be >= 0: {value}")
        if self.launch_rate_per_s and self.launch_burst < 1.0:
            raise TenancyError("launch_burst must be >= 1 when launch rate is set")

    @property
    def unlimited(self) -> bool:
        return not self.launch_rate_per_s and not self.ingress_bytes_per_s


@dataclass(frozen=True)
class TenantPolicy:
    """Everything the control plane knows about one tenant.

    The empty name is reserved for the :data:`UNLIMITED` sentinel
    (untenanted traffic); registering a policy requires a real name.
    """

    name: str
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)
    rate: RateLimitPolicy = field(default_factory=RateLimitPolicy)
    qos: QosClass = SILVER

    @property
    def unlimited(self) -> bool:
        return self.quota.unlimited and self.rate.unlimited


#: Default policy applied to tenants nobody registered: everything goes.
UNLIMITED = TenantPolicy("", quota=QuotaPolicy(), rate=RateLimitPolicy())


@dataclass(frozen=True)
class AutoscalePolicy:
    """Watermark-driven host scaling for the fleet.

    Every ``interval_s`` the autoscaler compares cluster memory utilisation
    against the watermarks: above ``scale_up_pressure`` it adds ``step``
    hosts (up to ``max_hosts``); below ``scale_down_pressure`` it drains
    and removes the emptiest host (down to ``min_hosts``).
    """

    min_hosts: int = 1
    max_hosts: int = 64
    scale_up_pressure: float = 0.80
    scale_down_pressure: float = 0.30
    step: int = 1
    interval_s: float = 30.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_hosts <= self.max_hosts:
            raise TenancyError(
                f"need 1 <= min_hosts <= max_hosts: {self.min_hosts}/{self.max_hosts}"
            )
        if not 0.0 < self.scale_down_pressure < self.scale_up_pressure <= 1.0:
            raise TenancyError(
                "need 0 < scale_down_pressure < scale_up_pressure <= 1: "
                f"{self.scale_down_pressure}/{self.scale_up_pressure}"
            )
        if self.step < 1:
            raise TenancyError(f"step must be >= 1: {self.step}")
        if self.interval_s <= 0:
            raise TenancyError(f"interval_s must be > 0: {self.interval_s}")


@dataclass(frozen=True)
class FleetPolicies:
    """The one policy object a :class:`repro.fleet.Fleet` is built from.

    Replaces the old loose ``policy=`` / ``high_watermark=`` /
    ``low_watermark=`` constructor kwargs.  ``placement`` is a policy name
    (resolved via ``repro.fleet.make_policy``) or a ready policy object.
    """

    placement: Any = "first-fit"
    high_watermark: float = 0.90
    low_watermark: float = 0.80
    tenants: Tuple[TenantPolicy, ...] = ()
    autoscale: Optional[AutoscalePolicy] = None

    def __post_init__(self) -> None:
        names = [t.name for t in self.tenants]
        if any(not n for n in names):
            raise TenancyError("registered tenants need non-empty names")
        if len(names) != len(set(names)):
            raise TenancyError(f"duplicate tenant names in FleetPolicies: {names}")

    def with_placement(self, placement: Any) -> "FleetPolicies":
        return replace(self, placement=placement)


# ---------------------------------------------------------------------------
# JSON loading — the one parser shared by the API and every CLI subcommand.
# ---------------------------------------------------------------------------

def _quota_from_dict(obj: Mapping[str, Any]) -> QuotaPolicy:
    return QuotaPolicy(
        max_nyms=obj.get("max_nyms"),
        max_ram_bytes=obj.get("max_ram_bytes"),
    )


def _rate_from_dict(obj: Mapping[str, Any]) -> RateLimitPolicy:
    kwargs = {}
    for name in ("launch_rate_per_s", "launch_burst",
                 "ingress_bytes_per_s", "ingress_burst_bytes"):
        if name in obj:
            kwargs[name] = obj[name]
    return RateLimitPolicy(**kwargs)


def tenant_from_dict(obj: Mapping[str, Any]) -> TenantPolicy:
    """Build a :class:`TenantPolicy` from a plain dict (parsed JSON)."""
    if not obj.get("name"):
        raise TenancyError(f"tenant entry needs a 'name': {obj!r}")
    qos_name = obj.get("qos", SILVER.name)
    if qos_name not in QOS_CLASSES:
        raise TenancyError(
            f"unknown qos class {qos_name!r}; choose from {sorted(QOS_CLASSES)}"
        )
    return TenantPolicy(
        name=obj["name"],
        quota=_quota_from_dict(obj.get("quota", {})),
        rate=_rate_from_dict(obj.get("rate", {})),
        qos=QOS_CLASSES[qos_name],
    )


#: Every key a tenant config may hold.  Placement is not one of them:
#: each command takes it from its own ``--policy``.
CONFIG_KEYS = ("high_watermark", "low_watermark", "tenants", "autoscale")


def policies_from_dict(
    obj: Mapping[str, Any], keys: Sequence[str] = CONFIG_KEYS
) -> FleetPolicies:
    """Build a :class:`FleetPolicies` from a plain dict (parsed JSON).

    ``keys`` are the keys the caller reads (default: all of
    :data:`CONFIG_KEYS`); any other key is refused by name, never
    silently ignored.
    """
    unknown = set(obj) - set(keys)
    if unknown:
        raise TenancyError(
            f"unknown tenant-config keys: {sorted(unknown)} "
            f"(this run reads {sorted(keys)})"
        )
    kwargs: Dict[str, Any] = {}
    for name in ("high_watermark", "low_watermark"):
        if name in obj:
            kwargs[name] = obj[name]
    tenants = tuple(tenant_from_dict(entry) for entry in obj.get("tenants", []))
    autoscale = None
    if obj.get("autoscale") is not None:
        autoscale = AutoscalePolicy(**obj["autoscale"])
    return FleetPolicies(tenants=tenants, autoscale=autoscale, **kwargs)


def load_tenant_config(path: str, keys: Sequence[str] = CONFIG_KEYS) -> FleetPolicies:
    """Parse a ``--tenant-config`` JSON file (see :func:`policies_from_dict`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise TenancyError(f"cannot read tenant config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise TenancyError(f"tenant config {path} must be a JSON object")
    return policies_from_dict(obj, keys)
