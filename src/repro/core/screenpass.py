"""ScreenPass-style trusted password entry (§6's proposed extension [47]).

"While Nymix might isolate a key logger, ScreenPass could offer Nymix a
means to secure password entry to avoid spoofing attacks by providing a
trusted password entry keyboard."

The mechanism: credentials are typed into a hypervisor-owned dialog that
the AnonVM cannot observe; the hypervisor then injects the secret into
the guest's form as opaque paste data, so no per-key events ever occur
inside the (possibly keylogged) guest.  The dialog also displays a
user-recognizable security image per nym, defeating guest-drawn fake
dialogs (spoofing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.nymbox import NymBox
from repro.errors import NymixError
from repro.obs import Observability


@dataclass(frozen=True)
class KeystrokeEvent:
    """One key event observable *inside* a guest."""

    vm_id: str
    key: str


class GuestKeylogger:
    """Malware with root in the AnonVM, recording in-guest key events."""

    def __init__(self) -> None:
        self.captured: List[KeystrokeEvent] = []

    def observe(self, event: KeystrokeEvent) -> None:
        self.captured.append(event)

    def captured_text(self, vm_id: str) -> str:
        return "".join(e.key for e in self.captured if e.vm_id == vm_id)


class TrustedPasswordEntry:
    """The hypervisor's ScreenPass dialog.

    ``keyloggers`` models whatever malware is resident in guests: in-guest
    typing feeds it; trusted entry does not.
    """

    def __init__(self, obs=None) -> None:
        self._security_images: Dict[str, str] = {}
        self.keyloggers: List[GuestKeylogger] = []
        self.entries_via_trusted_path = 0
        self.entries_typed_in_guest = 0
        self.obs = Observability() if obs is None else obs
        self._obs_trusted = self.obs.metrics.counter("screenpass.trusted_entries")
        self._obs_in_guest = self.obs.metrics.counter("screenpass.guest_entries")

    # -- anti-spoofing ----------------------------------------------------------

    def enroll_security_image(self, nym_name: str, image: str) -> None:
        """The user picks a recognition image for this nym's dialog."""
        if not image:
            raise NymixError("security image must be non-empty")
        self._security_images[nym_name] = image
        self.obs.event("screenpass.enrolled", nym=nym_name)

    def dialog_banner(self, nym_name: str) -> str:
        """What the real dialog shows.  A guest-drawn fake cannot know it."""
        image = self._security_images.get(nym_name)
        if image is None:
            raise NymixError(f"no security image enrolled for nym {nym_name!r}")
        return f"[hypervisor dialog | {image}]"

    def is_genuine_dialog(self, nym_name: str, banner: str) -> bool:
        try:
            return banner == self.dialog_banner(nym_name)
        except NymixError:
            return False

    # -- the two entry paths ------------------------------------------------------

    def type_in_guest(self, nymbox: NymBox, hostname: str, username: str, password: str) -> None:
        """The unsafe baseline: keystrokes happen inside the AnonVM."""
        for key in password:
            event = KeystrokeEvent(vm_id=nymbox.anonvm.vm_id, key=key)
            for keylogger in self.keyloggers:
                keylogger.observe(event)
        nymbox.sign_in(hostname, username, password)
        self.entries_typed_in_guest += 1
        self._obs_in_guest.inc()
        self.obs.event(
            "screenpass.guest_entry",
            nym=nymbox.nym.name,
            host=hostname,
            keystrokes_exposed=len(password),
        )

    def enter_via_trusted_path(
        self, nymbox: NymBox, hostname: str, username: str, password: str
    ) -> str:
        """ScreenPass: type into the hypervisor dialog, inject the result.

        Returns the banner the user verified before typing.  No per-key
        events reach the guest — resident keyloggers capture nothing.
        """
        banner = self.dialog_banner(nymbox.nym.name)
        # The secret is pasted into the form as one opaque buffer;
        # the guest never sees key events.
        nymbox.sign_in(hostname, username, password)
        self.entries_via_trusted_path += 1
        self._obs_trusted.inc()
        self.obs.event(
            "screenpass.trusted_entry", nym=nymbox.nym.name, host=hostname
        )
        return banner
