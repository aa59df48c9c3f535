"""WiFi-layer identity: device fingerprints and social mixes (§7).

Even with perfect software homogeneity, the *radio* betrays users:
drivers [24], 802.11 behaviour [54], and per-device analog imperfections
(radiometric signatures, Brik et al. [7]) all fingerprint hardware, and
MAC addresses are explicit identifiers.  The paper's countermeasures:

* randomized MAC addresses per session,
* a standardized driver/device profile,
* **WiFi social mixes** — card-swap parties (after Stallman's Charlie
  Card swaps [64]): members drop their WiFi cards in a box and draw one
  at random, so a card's radiometric identity no longer maps to a person.

This module models all three, plus the adversaries they defeat (and the
one they don't: the radiometric signature itself survives a swap — it
just points at the wrong person afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import NetworkError
from repro.net.addresses import MacAddress
from repro.obs import Observability
from repro.sim.rng import SeededRng


@dataclass(frozen=True)
class RadiometricSignature:
    """The analog fingerprint of one transmitter (Brik et al. [7]).

    Modelled as per-device frequency/magnitude error offsets; devices from
    the same manufacturer with sequential serials still differ.
    """

    frequency_error_ppm: float
    iq_offset: float
    sync_correlation: float

    def matches(self, other: "RadiometricSignature", tolerance: float = 1e-3) -> bool:
        return (
            abs(self.frequency_error_ppm - other.frequency_error_ppm) < tolerance
            and abs(self.iq_offset - other.iq_offset) < tolerance
            and abs(self.sync_correlation - other.sync_correlation) < tolerance
        )


@dataclass
class WifiCard:
    """A physical WiFi adapter: burned-in MAC, driver, analog signature."""

    serial: str
    burned_in_mac: MacAddress
    driver: str
    signature: RadiometricSignature
    active_mac: MacAddress = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.active_mac is None:
            self.active_mac = self.burned_in_mac

    def randomize_mac(self, rng: SeededRng) -> MacAddress:
        """Set a locally administered random MAC for this session."""
        value = rng.randint(0, (1 << 48) - 1)
        value = (value & ~(1 << 40)) | (1 << 41)  # locally administered, unicast
        self.active_mac = MacAddress(value)
        return self.active_mac

    def reset_mac(self) -> None:
        self.active_mac = self.burned_in_mac


def make_card(rng: SeededRng, serial: str, driver: str = "nymix-std") -> WifiCard:
    """Manufacture a card with a unique analog signature."""
    sig_rng = rng.fork(f"sig:{serial}")
    return WifiCard(
        serial=serial,
        burned_in_mac=MacAddress(sig_rng.randint(0, (1 << 46) - 1) & ~(3 << 40)),
        driver=driver,
        signature=RadiometricSignature(
            frequency_error_ppm=sig_rng.uniform(-20.0, 20.0),
            iq_offset=sig_rng.uniform(-0.05, 0.05),
            sync_correlation=sig_rng.uniform(0.90, 0.999),
        ),
    )


@dataclass(frozen=True)
class Transmission:
    """What a radio-level observer captures from one session."""

    mac: MacAddress
    driver: str
    signature: RadiometricSignature


class RadioObserver:
    """The adversary: builds a signature database and re-identifies devices."""

    def __init__(self, obs=None) -> None:
        self._db: List[tuple] = []  # (signature, label)
        self.obs = Observability() if obs is None else obs
        self._obs_identified = self.obs.metrics.counter("wifi.radio.identified")
        self._obs_misses = self.obs.metrics.counter("wifi.radio.misses")

    def enroll(self, transmission: Transmission, label: str) -> None:
        """Record a known (signature -> identity) observation."""
        self._db.append((transmission.signature, label))

    def identify(self, transmission: Transmission) -> Optional[str]:
        """Who does this transmission's analog fingerprint belong to?"""
        for signature, label in self._db:
            if signature.matches(transmission.signature):
                self._obs_identified.inc()
                return label
        self._obs_misses.inc()
        return None

    def identify_by_mac(self, transmission: Transmission, mac_db: Dict[str, str]) -> Optional[str]:
        return mac_db.get(str(transmission.mac))


class WifiSocialMix:
    """The card-swap party: everyone's card in the box, draw blind.

    A uniformly random derangement-ish shuffle (self-draws allowed, as at
    a real party) severs the card→owner mapping; with several parallel
    mixes a user may hold many cards at once.
    """

    def __init__(self, rng: SeededRng, obs=None) -> None:
        self.rng = rng
        self.obs = Observability() if obs is None else obs
        self._box: List[WifiCard] = []
        self._members: List[str] = []

    def contribute(self, member: str, card: WifiCard) -> None:
        if member in self._members:
            raise NetworkError(f"{member!r} already contributed a card")
        self._members.append(member)
        self._box.append(card)

    def swap(self) -> Dict[str, WifiCard]:
        """Everyone draws one card, blind.  Returns member -> drawn card."""
        if len(self._members) < 2:
            raise NetworkError("a social mix needs at least two members")
        drawn = list(self._box)
        self.rng.shuffle(drawn)
        assignment = dict(zip(self._members, drawn))
        kept = sum(
            1
            for member, card in zip(self._members, self._box)
            if assignment[member] is card
        )
        self.obs.metrics.counter("wifi.mix.swaps").inc()
        self.obs.event("wifi.mix.swap", members=len(self._members), self_draws=kept)
        return assignment


def session_transmission(card: WifiCard) -> Transmission:
    """What one online session radiates with this card."""
    return Transmission(mac=card.active_mac, driver=card.driver, signature=card.signature)
