"""Interface conformance for every pluggable transport.

Parametrized over every kind in the manager's ``TRANSPORTS`` table (tor,
dissent, sweet, incognito, mixnet) plus the composite spellings
(``stegotorus``, ``stegotorus:mixnet``, ``tor+dissent``) that wrap table
transports.  Plain ``socks`` is request framing inside the CommVM, not a
transport of the table, so it has no row here.

Each kind boots a real nym through the manager and must honour the
:class:`repro.anonymizers.base.Anonymizer` contract end to end: start,
plan, exit addressing, fetch, state export/import, stop.
"""

import pytest

from repro.anonymizers.base import TransferPlan
from repro.core import NymManager, NymixConfig
from repro.core.manager import TRANSPORTS
from repro.net.addresses import Ipv4Address

COMPOSITE_KINDS = ("stegotorus", "stegotorus:mixnet", "tor+dissent")
ALL_KINDS = tuple(sorted(TRANSPORTS)) + COMPOSITE_KINDS


def test_every_expected_transport_is_registered():
    assert set(TRANSPORTS) == {
        "tor",
        "dissent",
        "sweet",
        "incognito",
        "mixnet",
    }


@pytest.fixture(params=ALL_KINDS)
def kind(request):
    return request.param


@pytest.fixture
def nymbox(kind):
    manager = NymManager(NymixConfig(seed=13))
    box = manager.create_nym(name="conform", anonymizer=kind)
    yield manager, box
    if not box.destroyed:
        manager.discard_nym(box)


class TestAnonymizerConformance:
    def test_started_with_recorded_startup_time(self, nymbox):
        _, box = nymbox
        assert box.anonymizer.started
        assert box.anonymizer.startup_seconds is not None
        assert box.anonymizer.startup_seconds >= 0.0

    def test_plan_is_a_sane_transfer_plan(self, nymbox):
        _, box = nymbox
        plan = box.anonymizer.plan(4096)
        assert isinstance(plan, TransferPlan)
        assert plan.overhead_factor >= 1.0
        assert plan.path_latency_s >= 0.0
        assert plan.handshake_rtts >= 0.0
        assert plan.per_flow_ceiling_bps > 0.0

    def test_exit_address_matches_identity_claim(self, nymbox):
        _, box = nymbox
        anonymizer = box.anonymizer
        exit_ip = anonymizer.exit_address()
        assert isinstance(exit_ip, Ipv4Address)
        if anonymizer.protects_network_identity:
            assert exit_ip != anonymizer.nat.public_ip
        else:
            assert exit_ip == anonymizer.nat.public_ip

    def test_fetch_carries_a_page(self, nymbox):
        manager, box = nymbox
        load = manager.timed_browse(box, "bbc.co.uk")
        assert load.payload_bytes > 0
        assert load.duration_s > 0.0
        assert box.anonymizer.bytes_carried > 0

    def test_resolve_returns_the_site_address(self, nymbox):
        manager, box = nymbox
        resolved = box.anonymizer.resolve("bbc.co.uk")
        assert resolved == manager.internet.resolve("bbc.co.uk")

    def test_state_round_trips_into_a_fresh_instance(self, nymbox, kind):
        manager, box = nymbox
        state = box.anonymizer.export_state()
        assert state.kind == box.anonymizer.kind
        clone = manager._transport(kind)(
            box.nat, manager.timeline.fork_rng("conform-clone")
        )
        clone.import_state(state)

    def test_stop_is_idempotent_and_blocks_traffic(self, nymbox):
        _, box = nymbox
        anonymizer = box.anonymizer
        anonymizer.stop()
        anonymizer.stop()
        assert not anonymizer.started
        from repro.errors import AnonymizerError

        with pytest.raises(AnonymizerError):
            anonymizer.resolve("bbc.co.uk")
