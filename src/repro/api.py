"""The supported public entry point: a context-managed Nymix deployment.

A :class:`NymixSession` *is* the paper's Nym Manager (Figure 2), a
:class:`~repro.core.manager.NymManager` that also owns its lifecycle;
every other method and attribute (``nx.timeline``, ``nx.obs``,
``nx.hypervisor``, ``nx.timeline.tenancy``, ...) is the manager's own.

    from repro.api import NymixSession

    with NymixSession(seed=7) as nx:
        nym = nx.create_nym(name="alice")
        nx.timed_browse(nym, "bbc.co.uk")
        nx.store_nym(nym, password="pw")
    # exit tears down every live nymbox; nothing remains on the host
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cloud import make_dropbox, make_google_drive
from repro.core.config import NymixConfig
from repro.core.manager import NymManager
from repro.errors import NymStateError
from repro.runtime import reset_process_caches

__all__ = ["NymixSession"]


class NymixSession(NymManager):
    """A :class:`NymManager` that owns one deployment's lifecycle.

    ``config`` carries every tunable; ``seed`` is a convenience override
    for the common case (``NymixSession(seed=7)``).  With
    ``cloud_providers=True`` (the default) the two standard providers —
    Dropbox and Google Drive lookalikes — are registered so §3.5 cloud
    storage works out of the box.
    """

    def __init__(
        self,
        config: Optional[NymixConfig] = None,
        *,
        seed: Optional[int] = None,
        cloud_providers: bool = True,
    ) -> None:
        config = config or NymixConfig()
        if seed is not None:
            config = replace(config, seed=seed)
        super().__init__(config)
        if cloud_providers:
            self.add_cloud_provider(make_dropbox())
            self.add_cloud_provider(make_google_drive())
        self.obs.event(
            "session.opened", seed=config.seed, providers=sorted(self.providers)
        )

    def open(self) -> "NymixSession":
        """Return the session (``__enter__`` calls this); a closed one refuses."""
        if self.closed:
            raise NymStateError("this NymixSession has been closed")
        return self

    def close(self) -> None:
        """Tear down every live nymbox (amnesia), then seal the session.

        Every VM still on the host goes too (the SaniVM and each
        installed-OS VM).  A closed session boots no VM; its journal, metrics and
        catalog stay readable.  Closing also resets the process-global
        memo caches (ntor keyshares, mixnet keys and keystreams, the
        numpy scratch generator, ...): a session's key material must not
        stay resident in a long-lived worker after the session is gone.
        The reset is invisible in the journal — caches never feed the
        seeded RNG stream — it only costs the next session its warm start.
        """
        if not self.closed:
            for name in sorted(self.nymboxes):
                self.discard_nym(self.nymboxes[name])
            for vm in self.hypervisor.vms():
                self.hypervisor.destroy_vm(vm)
            self.obs.event("session.closed", nyms_stored=len(self.stored_nyms))
            self.closed = True
        reset_process_caches()

    def __enter__(self) -> "NymixSession":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def manager(self) -> "NymixSession":
        """The session itself; kept only because nymbench reads
        ``nx.manager.providers``."""
        return self
