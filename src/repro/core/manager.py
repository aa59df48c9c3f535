"""The Nym Manager: supervisory control over nym creation, longevity, destruction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.anonymizers.base import Anonymizer
from repro.anonymizers.compose import SerialComposition
from repro.anonymizers.dissent.client import DissentClient
from repro.anonymizers.dissent.dcnet import DcNetDeployment
from repro.anonymizers.incognito import IncognitoMode
from repro.anonymizers.stegotorus import StegoTorusWrapper
from repro.anonymizers.sweet import SweetTunnel
from repro.anonymizers.tor.client import TorClient
from repro.anonymizers.tor.directory import DirectoryAuthority
from repro.anonymizers.tor.guard import GuardManager
from repro.cloud.provider import CloudAccount, CloudProvider
from repro.core.config import NymixConfig
from repro.core.nym import Nym, NymUsageModel
from repro.core.nymbox import NymBox, StartupPhases
from repro.core.persistence import FsSnapshot, NymStore, StoreReceipt
from repro.errors import AnonymizerError, NymError, NymStateError, PersistenceError
from repro.guest.browser import PageLoad
from repro.guest.installed_os import INSTALLED_OS_CATALOG, InstalledOs
from repro.guest.websites import populate_internet
from repro.memory.remanence import RemanenceTracker
from repro.mixnet.client import MixnetClient
from repro.mixnet.topology import MixTopology
from repro.net.internet import Internet
from repro.net.nat import MasqueradeNat
from repro.sanitize.sanivm import SaniVm, TransferRecord
from repro.sanitize.transforms import ParanoiaLevel
from repro.sim.clock import Timeline
from repro.sim.rng import SeededRng
from repro.unionfs.layer import Layer
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.vm import VirtualMachine, VmSpec

#: Every transport a nym can name (§3.3), by kind; ``repro catalog``
#: lists it.  A kind string may also chain them (``"tor+dissent"``) or
#: camouflage one (``"stegotorus[:inner]"``, Tor by default).
TRANSPORTS: Dict[str, Type[Anonymizer]] = {
    "dissent": DissentClient,
    "incognito": IncognitoMode,
    "mixnet": MixnetClient,
    "sweet": SweetTunnel,
    "tor": TorClient,
}


@dataclass
class StoredNymRecord:
    """Catalog entry for a quasi-persistent nym (no password is kept!)."""

    name: str
    usage_model: NymUsageModel
    anonymizer_kind: str
    provider_host: Optional[str]  # None = local storage
    account_username: Optional[str]
    blob_name: str
    save_cycles: int = 0
    receipts: List[StoreReceipt] = field(default_factory=list)


@dataclass(frozen=True)
class InstalledOsNymReport:
    """Table 1's row for one installed-OS nym session."""

    os_name: str
    repair_seconds: float
    boot_seconds: float
    cow_bytes: int
    physical_disk_modified: bool


class NymManager:
    """The user-facing supervisor (Figure 2's "Nym Manager").

    Owns the whole stack: timeline, simulated Internet, hypervisor, the
    shared Tor test deployment and Dissent deployment, cloud providers,
    the SaniVM, and every live nymbox.
    """

    def __init__(self, config: Optional[NymixConfig] = None) -> None:
        self.config = config or NymixConfig()
        self.timeline = Timeline(seed=self.config.seed)
        #: the shared per-simulation observability sink (metrics, tracer,
        #: event journal) — every component reaches it as ``timeline.obs``
        self.obs = self.timeline.obs
        host = self.config.host
        self.internet = Internet(
            self.timeline, uplink_bps=host.uplink_bps, rtt_s=host.uplink_rtt_s
        )
        self.web_servers = populate_internet(self.internet)
        self.hypervisor = Hypervisor(
            self.timeline,
            self.internet,
            host=host,
            verify_base_image=self.config.verify_base_image,
            ksm_enabled=self.config.ksm_enabled,
        )
        self.directory = DirectoryAuthority(
            self.timeline.fork_rng("tor-directory"), relay_count=self.config.tor_relay_count
        )
        # The Dissent and mixnet deployments are lazy: their keygen costs
        # X25519 operations, and most managers launch neither kind of nym.
        self._dcnet: Optional[DcNetDeployment] = None
        self._mixnet: Optional[MixTopology] = None
        self.store = NymStore(self.timeline, self.timeline.fork_rng("store"))
        self.providers: Dict[str, CloudProvider] = {}
        self._accounts: Dict[Tuple[str, str], CloudAccount] = {}
        self._local_blobs: Dict[str, bytes] = {}
        self.stored_nyms: Dict[str, StoredNymRecord] = {}
        self.nymboxes: Dict[str, NymBox] = {}
        #: set once the deployment is closed (``NymixSession.close``);
        #: a closed manager launches no nym and boots no VM
        self.closed = False
        self._sanivm: Optional[SaniVm] = None
        self._nym_counter = itertools.count(1)
        self._dissent_slot = itertools.count(0)
        # Host-side trace accounting (§3.4's Dunn discussion): guest pages
        # are erased at teardown, but host copies persist until reboot.
        self.remanence = RemanenceTracker(
            ephemeral_channels=self.config.ephemeral_channels, obs=self.obs
        )
        self.hypervisor.acquire_lan_address()

    # -- cloud providers -----------------------------------------------------------

    def add_cloud_provider(self, provider: CloudProvider) -> CloudProvider:
        self.internet.add_server(provider)
        self.providers[provider.hostname] = provider
        return provider

    def create_cloud_account(
        self, provider_host: str, username: str, password: str
    ) -> CloudAccount:
        """Open a pseudonymous account (one per nym is the intended pattern)."""
        provider = self._provider(provider_host)
        account = provider.create_account(username, password)
        self._accounts[(provider_host, username)] = account
        return account

    def _provider(self, provider_host: str) -> CloudProvider:
        try:
            return self.providers[provider_host]
        except KeyError:
            raise NymError(f"no cloud provider registered for {provider_host!r}") from None

    def _account(self, provider_host: str, username: str) -> CloudAccount:
        try:
            return self._accounts[(provider_host, username)]
        except KeyError:
            raise NymError(
                f"no account {username!r} known at {provider_host!r}"
            ) from None

    # -- anonymizer construction -------------------------------------------------------

    def _transport(
        self, kind: str, guard_manager: Optional[GuardManager] = None
    ) -> Callable[[MasqueradeNat, SeededRng], Anonymizer]:
        """Resolve ``kind`` against :data:`TRANSPORTS` into a function that builds it.

        Resolving builds nothing, so an unknown kind anywhere in the
        string raises before the nym has a VM.  ``guard_manager`` reaches
        a bare ``"tor"`` only, never a stage or a camouflaged Tor.
        """
        if "+" in kind:
            stages = [self._transport(stage_kind) for stage_kind in kind.split("+")]
            return lambda nat, rng: SerialComposition(
                [build(nat, rng.fork(f"stage:{i}")) for i, build in enumerate(stages)]
            )
        if kind == "stegotorus" or kind.startswith("stegotorus:"):
            # "stegotorus" camouflages Tor by default; "stegotorus:<kind>"
            # wraps any other transport.
            inner = self._transport(kind.partition(":")[2] or "tor")
            return lambda nat, rng: StegoTorusWrapper(inner(nat, rng.fork("steg-inner")))
        if kind not in TRANSPORTS:
            known = ", ".join(sorted(TRANSPORTS))
            raise AnonymizerError(f"unknown anonymizer {kind!r} (known: {known})")
        return lambda nat, rng: self._make_transport(kind, nat, rng, guard_manager)

    def _make_transport(
        self,
        kind: str,
        nat: MasqueradeNat,
        rng: SeededRng,
        guard_manager: Optional[GuardManager],
    ) -> Anonymizer:
        """One table transport, joined to the deployment its kind shares."""
        args = (self.timeline, self.internet, nat, rng)
        if kind == "tor":
            return TorClient(*args, directory=self.directory, guard_manager=guard_manager)
        if kind == "dissent":
            slot = next(self._dissent_slot) % self.dcnet.num_clients
            return DissentClient(*args, deployment=self.dcnet, client_index=slot)
        if kind == "mixnet":
            return MixnetClient(
                *args,
                topology=self.mixnet_topology(),
                cover_rate_pps=self.config.mixnet_cover_rate_pps,
                mean_hop_delay_s=self.config.mixnet_mean_hop_delay_s,
            )
        return TRANSPORTS[kind](*args)

    @property
    def dcnet(self) -> DcNetDeployment:
        """The shared Dissent deployment, built on first use."""
        if self._dcnet is None:
            self._dcnet = DcNetDeployment(
                self.timeline.fork_rng("dcnet"),
                num_clients=self.config.dissent_clients,
                num_servers=self.config.dissent_servers,
            )
        return self._dcnet

    def mixnet_topology(self, create: bool = True):
        """The shared mix deployment, built on first use.

        ``create=False`` peeks without building (the fault injector uses
        this so a ``mixnet.node_crash`` against a mixnet-less run is a
        recorded no-op instead of a surprise keygen).
        """
        if self._mixnet is None and create:
            self._mixnet = MixTopology(
                self.timeline.fork_rng("mixnet"),
                layers=self.config.mixnet_layers,
                nodes_per_layer=self.config.mixnet_nodes_per_layer,
                obs=self.obs,
            )
        return self._mixnet

    # -- nym lifecycle -----------------------------------------------------------------

    def _build_nymbox(
        self,
        name: str,
        anonymizer_kind: str,
        usage: NymUsageModel,
        anon_spec: Optional[VmSpec],
        comm_spec: Optional[VmSpec],
        guard_manager: Optional[GuardManager],
        chain_commvms: bool = False,
    ) -> NymBox:
        build_anonymizer = self._transport(anonymizer_kind, guard_manager)
        nym = Nym(
            name=name,
            usage_model=usage,
            anonymizer_kind=anonymizer_kind,
            created_at=self.timeline.now,
        )
        hv = self.hypervisor
        created_vms = []
        stage_kinds = (
            anonymizer_kind.split("+") if chain_commvms else [anonymizer_kind]
        )
        try:
            # The base AnonVM+CommVM pair is flash-cloned.  The template is
            # a plain key, so building one per nym costs no hypervisor state.
            template = hv.nymbox_template(
                anon_spec or VmSpec.anonvm(),
                comm_spec or VmSpec.commvm(),
                anonymizer=stage_kinds[0],
            )
            anonvm, commvm, wire = hv.flash_clone(template, name)
            created_vms.extend([anonvm, commvm])
            # Serial chaining (§3.3): one CommVM per further stage, each
            # wired to the previous; the NAT hangs off the last hop.
            extra_commvms = []
            last_comm = commvm
            for position, stage_kind in enumerate(stage_kinds[1:]):
                next_comm = hv.create_vm(
                    comm_spec or VmSpec.commvm(),
                    name=f"{name}-comm{position + 2}",
                    anonymizer=stage_kind,
                )
                created_vms.append(next_comm)
                hv.wire_comm_chain(last_comm, next_comm, position)
                extra_commvms.append(next_comm)
                last_comm = next_comm
            nat = hv.attach_nat(last_comm)
            rng = self.timeline.fork_rng(f"nym:{name}")
            anonymizer = build_anonymizer(nat, rng.fork("anonymizer"))
        except Exception:
            # Partial construction must not leak VMs or names.
            for vm in created_vms:
                hv.destroy_vm(vm)
            raise
        nymbox = NymBox(
            timeline=self.timeline,
            nym=nym,
            anonvm=anonvm,
            commvm=commvm,
            wire=wire,
            nat=nat,
            anonymizer=anonymizer,
            rng=rng,
            extra_commvms=extra_commvms,
        )
        self.nymboxes[name] = nymbox
        return nymbox

    def _check_open(self) -> None:
        """Refuse a launch once closed: a later VM would outlive amnesia."""
        if self.closed:
            raise NymStateError("this deployment is closed; it boots no VM")

    def _boot(self, vm: VirtualMachine, rng, advance: bool = True) -> float:
        """Boot ``vm`` inside a ``vm.boot`` span, which ``repro trace`` renders.

        The span is the manager's: a fleet boots its VMs without one.
        """
        with self.obs.span("vm.boot", vm=vm.vm_id, role=vm.spec.role.value):
            return vm.boot(rng, advance=advance)

    def _launch(self, nymbox: NymBox) -> None:
        """Boot the VMs (in parallel) and start the anonymizer, timing phases."""
        rng = nymbox.rng
        with self.obs.span("nymbox.launch", nym=nymbox.nym.name):
            t0 = self.timeline.now
            # All guests boot concurrently; the AnonVM (the longest boot) sets the pace.
            self._boot(nymbox.commvm, rng, advance=False)
            for extra in nymbox.extra_commvms:
                self._boot(extra, rng, advance=False)
            self._boot(nymbox.anonvm, rng)
            nymbox.startup.boot_vm_s = self.timeline.now - t0
            t1 = self.timeline.now
            nymbox.anonymizer.start()
            nymbox.startup.start_anonymizer_s = self.timeline.now - t1
            self.hypervisor.ksm.scan(passes=2)
        self.obs.metrics.histogram("nym.launch_s").observe(
            nymbox.startup.boot_vm_s + nymbox.startup.start_anonymizer_s
        )

    def create_nym(
        self,
        *,
        name: Optional[str] = None,
        anonymizer: Optional[str] = None,
        usage: NymUsageModel = NymUsageModel.EPHEMERAL,
        anon_spec: Optional[VmSpec] = None,
        comm_spec: Optional[VmSpec] = None,
        guard_manager: Optional[GuardManager] = None,
        chain_commvms: bool = False,
        tenant: str = "",
    ) -> NymBox:
        """Start a fresh nym ("start a fresh nym" in the §3.5 workflow).

        Every parameter is keyword-only.  With ``chain_commvms`` and a
        composed transport like ``"tor+dissent"``, each stage gets its own
        CommVM wired in serial (§3.3) instead of stacking inside one
        CommVM.  ``tenant`` binds the nym's sends to that tenant's policy
        in ``timeline.tenancy``; ``""`` leaves it untenanted.
        """
        self._check_open()
        name = name or f"nym-{next(self._nym_counter)}"
        if name in self.nymboxes:
            raise NymError(f"a nymbox named {name!r} is already running")
        kind = anonymizer or self.config.default_anonymizer
        nymbox = self._build_nymbox(
            name, kind, usage, anon_spec, comm_spec, guard_manager,
            chain_commvms=chain_commvms,
        )
        # Session-level tenant binding: the outermost anonymizer carries
        # it so the ingress shaper can meter this nym's sends.  Not
        # persisted with stored nyms — a restore re-binds on creation.
        nymbox.tenant = tenant
        nymbox.anonymizer.tenant = tenant
        self._launch(nymbox)
        self.obs.metrics.counter("nym.created").inc()
        self.obs.metrics.gauge("nym.live").set(len(self.nymboxes))
        self.obs.event(
            "nym.created", nym=name, anonymizer=kind, usage=usage.value
        )
        return nymbox

    def timed_browse(self, nymbox: NymBox, hostname: str) -> PageLoad:
        """Browse and record the Figure 7 "Load webpage" phase (first load)."""
        t0 = self.timeline.now
        load = nymbox.browse(hostname)
        if nymbox.startup.load_page_s == 0.0:
            nymbox.startup.load_page_s = self.timeline.now - t0
        return load

    def discard_nym(self, nymbox: NymBox) -> None:
        """Turn off a pseudonym: amnesia (§3.4).

        Wipes the VMs' memory and writable layers; the wire comes down;
        nothing about the nym remains on the host.
        """
        footprint = nymbox.memory_bytes()
        with self.obs.span("nymbox.discard", nym=nymbox.nym.name):
            nymbox.anonymizer.stop()
            for vm in nymbox.all_vms:
                self.hypervisor.destroy_vm(vm)
            nymbox.destroyed = True
            self.nymboxes.pop(nymbox.nym.name, None)
            self.remanence.record_nym_teardown(nymbox.nym.name, footprint)
            self.hypervisor.ksm.reset_coverage()
            self.hypervisor.ksm.scan(passes=2)
        self.obs.metrics.counter("nym.discarded").inc()
        self.obs.metrics.gauge("nym.live").set(len(self.nymboxes))
        self.obs.event(
            "nym.discarded", nym=nymbox.nym.name, footprint_bytes=footprint
        )

    # -- quasi-persistence (§3.5) -----------------------------------------------------------

    def store_nym(
        self,
        nymbox: NymBox,
        *,
        password: Optional[str] = None,
        provider_host: Optional[str] = None,
        account_username: Optional[str] = None,
        blob_name: Optional[str] = None,
    ) -> StoreReceipt:
        """The "store nym" workflow: seal the nym's state and put it away.

        Everything after ``nymbox`` is keyword-only.  With a
        ``provider_host`` the blob goes to the cloud through the nym's own
        anonymizer; with none it goes to local media (the §3.5
        security-tradeoff alternative).
        """
        if password is None:
            raise PersistenceError("store_nym needs the nym's password")

        nym = nymbox.nym
        blob = blob_name or f"{nym.name}.nymbox"
        with self.obs.span("nymbox.store", nym=nym.name):
            if provider_host is not None:
                provider = self._provider(provider_host)
                if account_username is None:
                    raise NymError("cloud storage needs an account username")
                account = self._account(provider_host, account_username)
                receipt = self.store.save(nymbox, blob, password, provider, account)
            else:
                nymbox.pause()
                snapshot = FsSnapshot.capture(nymbox)
                sealed, receipt = self.store.pack(snapshot, password)
                nymbox.resume()
                self._local_blobs[blob] = sealed
                receipt = StoreReceipt(
                    nym_name=nym.name,
                    blob_name=blob,
                    raw_bytes=receipt.raw_bytes,
                    compressed_bytes=receipt.compressed_bytes,
                    encrypted_bytes=receipt.encrypted_bytes,
                    pack_seconds=receipt.pack_seconds,
                    upload_seconds=0.0,
                )
        nym.storage_provider = provider_host
        nym.storage_blob = blob
        nym.save_cycles += 1
        if nym.usage_model is NymUsageModel.EPHEMERAL:
            nym.usage_model = NymUsageModel.PERSISTENT
        record = self.stored_nyms.get(nym.name)
        if record is None:
            record = StoredNymRecord(
                name=nym.name,
                usage_model=nym.usage_model,
                anonymizer_kind=nym.anonymizer_kind,
                provider_host=provider_host,
                account_username=account_username,
                blob_name=blob,
            )
            self.stored_nyms[nym.name] = record
        record.usage_model = nym.usage_model
        record.save_cycles += 1
        record.receipts.append(receipt)
        self.obs.metrics.counter("nym.stored").inc()
        self.obs.event(
            "nym.stored",
            nym=nym.name,
            blob=blob,
            cloud=provider_host is not None,
            encrypted_bytes=receipt.encrypted_bytes,
        )
        return receipt

    def snapshot_nym(self, nymbox: NymBox, password: str, **kwargs) -> StoreReceipt:
        """Store once and mark pre-configured: later sessions never re-save."""
        receipt = self.store_nym(nymbox, password=password, **kwargs)
        nymbox.nym.usage_model = NymUsageModel.PRECONFIGURED
        self.stored_nyms[nymbox.nym.name].usage_model = NymUsageModel.PRECONFIGURED
        return receipt

    def load_nym(self, name: str, password: str) -> NymBox:
        """The "load an existing nym" workflow (§3.5).

        For cloud-stored nyms, a one-shot ephemeral nym fetches the sealed
        blob anonymously, is destroyed, and the real nym then starts from
        the decrypted state — with its preserved Tor guards.  The elapsed
        phases land in the returned nymbox's ``startup`` (including the
        "Ephemeral Nym" component of Figure 7).
        """
        self._check_open()
        record = self.stored_nyms.get(name)
        if record is None:
            raise PersistenceError(f"no stored nym named {name!r}")
        if name in self.nymboxes:
            raise NymStateError(f"nym {name!r} is already running")

        with self.obs.span("nymbox.load", nym=name):
            eph_start = self.timeline.now
            if record.provider_host is not None:
                provider = self._provider(record.provider_host)
                account = self._account(record.provider_host, record.account_username)
                with self.obs.span("nymbox.load.ephemeral_fetch", nym=name):
                    loader = self.create_nym(name=f"{name}-loader", anonymizer="tor")
                    sealed = self.store.download(
                        loader, record.blob_name, provider, account
                    )
                    self.discard_nym(loader)
            else:
                sealed = self._local_blobs.get(record.blob_name)
                if sealed is None:
                    raise PersistenceError(f"local blob {record.blob_name!r} is missing")
            snapshot = self.store.unpack(sealed, password)
            ephemeral_s = self.timeline.now - eph_start

            guard_manager = None
            if self.config.deterministic_guards and record.anonymizer_kind == "tor":
                guard_manager = GuardManager.deterministic(
                    storage_location=f"{record.provider_host or 'local'}/{record.blob_name}",
                    password=password,
                )
            nymbox = self._build_nymbox(
                name=name,
                anonymizer_kind=record.anonymizer_kind,
                usage=record.usage_model,
                anon_spec=None,
                comm_spec=None,
                guard_manager=guard_manager,
            )
            nymbox.anonymizer.import_state(snapshot.anonymizer_state)
            rng = nymbox.rng
            t0 = self.timeline.now
            self._boot(nymbox.commvm, rng, advance=False)
            self._boot(nymbox.anonvm, rng)
            NymStore.restore_files(nymbox, snapshot)
            nymbox.startup.boot_vm_s = self.timeline.now - t0
            t1 = self.timeline.now
            nymbox.anonymizer.start()
            nymbox.startup.start_anonymizer_s = self.timeline.now - t1
            nymbox.startup.ephemeral_nym_s = ephemeral_s
            nymbox.nym.storage_provider = record.provider_host
            nymbox.nym.storage_blob = record.blob_name
            nymbox.nym.save_cycles = record.save_cycles
            self.hypervisor.ksm.scan(passes=2)
        self.obs.metrics.counter("nym.loaded").inc()
        self.obs.metrics.gauge("nym.live").set(len(self.nymboxes))
        self.obs.event(
            "nym.loaded",
            nym=name,
            cloud=record.provider_host is not None,
            ephemeral_s=round(ephemeral_s, 6),
        )
        return nymbox

    def recover_nym(self, name: str, password: str) -> NymBox:
        """Relaunch a crashed nymbox from its quasi-persistent state.

        A crash is not amnesia: the wreck is discarded (its host traces
        scrubbed exactly like a normal teardown) and the nym comes back
        through the full §3.5 load path — ephemeral download nym, restored
        guards, re-imported file state.  Only stored nyms can recover;
        an unstored nym's state died with its VMs.
        """
        nymbox = self.nymboxes.get(name)
        if nymbox is None:
            raise NymError(f"no live nymbox named {name!r}")
        if not nymbox.crashed:
            raise NymStateError(f"nymbox {name!r} has not crashed")
        if name not in self.stored_nyms:
            raise PersistenceError(
                f"crashed nym {name!r} was never stored; its state is gone"
            )
        self.obs.metrics.counter("nym.recovered").inc()
        self.obs.event("nymbox.relaunch", nym=name)
        self.discard_nym(nymbox)
        return self.load_nym(name, password)

    def close_session(self, nymbox: NymBox, password: Optional[str] = None) -> Optional[StoreReceipt]:
        """End a session honoring the nym's usage model.

        Persistent nyms re-save (needs the password); pre-configured and
        ephemeral nyms just discard.
        """
        receipt = None
        nym = nymbox.nym
        if nym.usage_model is NymUsageModel.PERSISTENT and nym.save_cycles > 0:
            if password is None:
                raise PersistenceError(
                    f"persistent nym {nym.name!r} needs its password to re-save"
                )
            record = self.stored_nyms[nym.name]
            receipt = self.store_nym(
                nymbox,
                password=password,
                provider_host=record.provider_host,
                account_username=record.account_username,
                blob_name=record.blob_name,
            )
        self.discard_nym(nymbox)
        return receipt

    # -- sanitized transfer (§3.6) -------------------------------------------------------

    def sanivm(self) -> SaniVm:
        """The (single, air-gapped) SaniVM, created and booted on first use."""
        self._check_open()
        if self._sanivm is None:
            vm = self.hypervisor.create_vm(VmSpec.sanivm(), name="sanivm")
            self._boot(vm, self.timeline.fork_rng("sanivm-boot"))
            self._sanivm = SaniVm(self.timeline, vm)
        return self._sanivm

    def mount_host_filesystem(self, name: str, layer: Layer) -> None:
        self.sanivm().mount_host_filesystem(name, layer)

    def transfer_file_to_nym(
        self,
        mount: str,
        path: str,
        nymbox: NymBox,
        level: ParanoiaLevel = ParanoiaLevel.MEDIUM,
    ) -> TransferRecord:
        """SaniVM scrub -> hypervisor hand-off -> destination AnonVM inbox."""
        sanivm = self.sanivm()
        record = sanivm.transfer(mount, path, nymbox.nym.name, level)
        outbox = sanivm.outbox_for(nymbox.nym.name)
        for file_path in outbox.paths():
            outbox.move_to(file_path, nymbox.inbox)
        return record

    # -- installed OS as a nym (§3.7) ------------------------------------------------------

    def boot_installed_os_nym(self, os_name: str) -> Tuple[InstalledOsNymReport, VirtualMachine, InstalledOs]:
        """Boot the machine's installed OS in a non-anonymous nymbox."""
        self._check_open()
        try:
            profile = INSTALLED_OS_CATALOG[os_name]
        except KeyError:
            known = ", ".join(sorted(INSTALLED_OS_CATALOG))
            raise NymError(f"unknown installed OS {os_name!r} (known: {known})") from None
        ios = InstalledOs(profile, self.timeline.fork_rng(f"installed:{os_name}"))
        ios.attach_cow()
        repair_s = ios.repair(self.timeline)
        vm = self.hypervisor.create_vm(
            VmSpec.hostos(boot_seconds=profile.boot_seconds),
            name=f"hostos-{os_name.lower().replace(' ', '-')}-{next(self._nym_counter)}",
            image_id=ios.physical_disk.image_id,
        )
        self._boot(vm, self.timeline.fork_rng(f"installed-boot:{os_name}"), advance=False)
        boot_s = ios.boot(self.timeline)
        self.obs.metrics.counter("nym.installed_os_boots").inc()
        self.obs.event(
            "nym.installed_os_boot",
            os=os_name,
            repair_s=round(repair_s, 6),
            boot_s=round(boot_s, 6),
        )
        report = InstalledOsNymReport(
            os_name=os_name,
            repair_seconds=repair_s,
            boot_seconds=boot_s,
            cow_bytes=ios.cow_bytes,
            physical_disk_modified=ios.physical_disk_modified,
        )
        return report, vm, ios

    def reboot_host(self) -> int:
        """Power-cycle the machine: every live nym dies, volatile traces go.

        Returns the residual bytes cleared from host RAM.
        """
        killed = len(self.nymboxes)
        for nymbox in list(self.nymboxes.values()):
            self.discard_nym(nymbox)
        cleared = self.remanence.reboot()
        self.obs.event("host.reboot", nyms_killed=killed, cleared_bytes=cleared)
        return cleared

    # -- introspection --------------------------------------------------------------------

    def live_nyms(self) -> List[str]:
        return sorted(self.nymboxes)

    def __repr__(self) -> str:
        return (
            f"NymManager(live={len(self.nymboxes)}, stored={len(self.stored_nyms)}, "
            f"t={self.timeline.now:.1f}s)"
        )
