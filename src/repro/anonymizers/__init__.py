"""Pluggable anonymizers: Tor, Dissent, incognito, SWEET, and compositions.

Nymix treats the anonymizer as a pluggable CommVM module (§3.3): every
nymbox picks one (or a serial composition of several) to carry all of its
AnonVM's traffic.  The framework contract is :class:`Anonymizer`; the Nym
Manager builds every concrete transport from its one table,
:data:`repro.core.manager.TRANSPORTS`, which also lists the mixnet client
of :mod:`repro.mixnet`.

Security/performance trade-off, as the paper frames it:

* ``incognito`` — iptables-masquerade NAT relaying; nearly free, but no
  network-level tracking protection at all.
* ``tor`` — onion routing; good security against moderate adversaries,
  scalable, the default.
* ``dissent`` — anytrust DC-nets; provable traffic-analysis resistance,
  much lower throughput.
* ``sweet`` — covert email tunnelling for censorship circumvention;
  extreme latency.
* serial compositions such as Tor-over-Dissent for "best of both worlds".
"""

from repro.anonymizers.base import Anonymizer, AnonymizerState, TransferPlan
from repro.anonymizers.compose import SerialComposition
from repro.anonymizers.incognito import IncognitoMode
from repro.anonymizers.sweet import SweetTunnel
from repro.anonymizers.dissent.client import DissentClient
from repro.anonymizers.tor.client import TorClient

__all__ = [
    "Anonymizer",
    "AnonymizerState",
    "TransferPlan",
    "SerialComposition",
    "IncognitoMode",
    "SweetTunnel",
    "DissentClient",
    "TorClient",
]
