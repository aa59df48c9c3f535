"""The supported public entry point: a context-managed Nymix session.

Every consumer of the reproduction used to repeat the same ~10 lines of
wiring — build a :class:`NymixConfig`, construct a :class:`NymManager`
(which wires the :class:`Timeline`, the simulated :class:`Internet` and
the :class:`Hypervisor`), register the standard cloud providers, and
remember to discard every nymbox at the end.  :class:`NymixSession`
owns that lifecycle:

    from repro.api import NymixSession

    with NymixSession(seed=7) as nx:
        nym = nx.create_nym(name="alice")
        nx.timed_browse(nym, "bbc.co.uk")
        nx.store_nym(nym, password="pw")
    # exit tears down every live nymbox; nothing remains on the host

The session is a thin facade: ``nx.manager`` (and ``nx.timeline``,
``nx.hypervisor``, ``nx.internet``, ``nx.obs``) expose the full stack
for anything not delegated here.  Two same-seed sessions running the
same workload produce byte-identical event journals, exactly like the
underlying manager.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.core.config import NymixConfig
from repro.core.manager import NymManager
from repro.core.nymbox import NymBox
from repro.errors import NymStateError
from repro.tenancy.registry import TenantRegistry

__all__ = ["NymixSession"]


class NymixSession:
    """Context manager owning one fully wired Nymix deployment.

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
        if config is None:
            config = NymixConfig(seed=seed if seed is not None else 0)
        elif seed is not None:
            config = replace(config, seed=seed)
        self.config = config
        self._cloud_providers = cloud_providers
        self._manager: Optional[NymManager] = None
        self.closed = False

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> "NymixSession":
        """Wire the stack (idempotent; ``__enter__`` calls this)."""
        if self.closed:
            raise NymStateError("this NymixSession has been closed")
        if self._manager is None:
            self._manager = NymManager(self.config)
            if self._cloud_providers:
                from repro.cloud import make_dropbox, make_google_drive

                self._manager.add_cloud_provider(make_dropbox())
                self._manager.add_cloud_provider(make_google_drive())
            self._manager.obs.event(
                "session.opened", seed=self.config.seed,
                providers=sorted(self._manager.providers),
            )
        return self

    def close(self) -> None:
        """Tear down every live nymbox (amnesia), then seal the session.

        Closing also resets the process-global memo caches (ntor
        keyshares, mixnet keys/keystreams, the shared base image): a
        session's key material must not stay resident in a long-lived
        worker after the session is gone.  The reset is invisible in the
        journal — caches never feed the seeded RNG stream — it only costs
        the next session its warm start.
        """
        from repro.runtime import reset_process_caches

        if self.closed or self._manager is None:
            self.closed = True
            reset_process_caches()
            return
        manager = self._manager
        for name in sorted(manager.nymboxes):
            manager.discard_nym(manager.nymboxes[name])
        manager.obs.event("session.closed", nyms_stored=len(manager.stored_nyms))
        self.closed = True
        reset_process_caches()

    def __enter__(self) -> "NymixSession":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the wired stack ----------------------------------------------------

    @property
    def manager(self) -> NymManager:
        if self._manager is None:
            if self.closed:
                raise NymStateError("this NymixSession has been closed")
            self.open()
        return self._manager

    @property
    def timeline(self):
        return self.manager.timeline

    @property
    def obs(self):
        return self.manager.obs

    @property
    def hypervisor(self):
        return self.manager.hypervisor

    @property
    def internet(self):
        return self.manager.internet

    @property
    def tenants(self) -> TenantRegistry:
        """The tenancy control plane: the session timeline's own registry."""
        return self.timeline.tenancy

    # -- delegated operations ------------------------------------------------

    def create_nym(self, **kwargs) -> NymBox:
        return self.manager.create_nym(**kwargs)

    def load_nym(self, name: str, password: str) -> NymBox:
        return self.manager.load_nym(name, password)

    def store_nym(self, nymbox: NymBox, **kwargs):
        return self.manager.store_nym(nymbox, **kwargs)

    def snapshot_nym(self, nymbox: NymBox, password: str, **kwargs):
        return self.manager.snapshot_nym(nymbox, password, **kwargs)

    def discard_nym(self, nymbox: NymBox) -> None:
        self.manager.discard_nym(nymbox)

    def recover_nym(self, name: str, password: str) -> NymBox:
        return self.manager.recover_nym(name, password)

    def close_session(self, nymbox: NymBox, password: Optional[str] = None):
        return self.manager.close_session(nymbox, password)

    def timed_browse(self, nymbox: NymBox, hostname: str):
        return self.manager.timed_browse(nymbox, hostname)

    def add_cloud_provider(self, provider):
        return self.manager.add_cloud_provider(provider)

    def create_cloud_account(self, provider_host: str, username: str, password: str):
        return self.manager.create_cloud_account(provider_host, username, password)

    def live_nyms(self) -> List[str]:
        return self.manager.live_nyms()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("open" if self._manager else "unopened")
        return f"NymixSession(seed={self.config.seed}, {state})"
