"""Incognito, SWEET and serial composition."""

import pytest

from repro.anonymizers import (
    DissentClient,
    IncognitoMode,
    SerialComposition,
    SweetTunnel,
    TorClient,
)
from repro.anonymizers.tor.directory import DirectoryAuthority
from repro.errors import AnonymizerError
from repro.net import Internet, MasqueradeNat, PacketCapture
from repro.net.addresses import Ipv4Address
from repro.sim import Timeline


@pytest.fixture
def env():
    timeline = Timeline(seed=8)
    internet = Internet(timeline)
    from repro.guest.websites import populate_internet

    populate_internet(internet)
    nat = MasqueradeNat(
        timeline, "nat(m)", Ipv4Address.parse("203.0.113.77"), internet,
        host_capture=PacketCapture(timeline),
    )
    return timeline, internet, nat


def _make(env, cls, **kwargs):
    timeline, internet, nat = env
    return cls(timeline, internet, nat, timeline.fork_rng(cls.kind), **kwargs)


class TestIncognito:
    def test_fast_start(self, env):
        incognito = _make(env, IncognitoMode)
        assert incognito.start() < 1.0

    def test_no_identity_protection(self, env):
        _, internet, nat = env
        incognito = _make(env, IncognitoMode)
        incognito.start()
        assert not incognito.protects_network_identity
        incognito.fetch("bbc.co.uk", path="tok")
        server = internet.server_named("bbc.co.uk")
        assert server.seen_client_ips[-1] == nat.public_ip

    def test_minimal_overhead(self, env):
        incognito = _make(env, IncognitoMode)
        assert incognito.plan(0).overhead_factor < 1.05


class TestSweet:
    def test_extreme_latency(self, env):
        sweet = _make(env, SweetTunnel)
        plan = sweet.plan(0)
        assert plan.path_latency_s >= 1.0
        assert plan.per_flow_ceiling_bps <= 1_000_000

    def test_mime_overhead(self, env):
        sweet = _make(env, SweetTunnel)
        assert sweet.plan(0).overhead_factor > 1.3

    def test_exit_is_mail_provider(self, env):
        sweet = _make(env, SweetTunnel)
        sweet.start()
        assert str(sweet.exit_address()) == "198.51.103.1"


class TestSerialComposition:
    def _tor_dissent(self, env):
        timeline, internet, nat = env
        directory = DirectoryAuthority(timeline.fork_rng("dir"), relay_count=12)
        tor = _make(env, TorClient, directory=directory)
        dissent = _make(env, DissentClient)
        return SerialComposition([tor, dissent])

    def test_costs_compose(self, env):
        combo = self._tor_dissent(env)
        combo.start()
        plan = combo.plan(0)
        tor_plan = combo.stages[0].plan(0)
        dissent_plan = combo.stages[1].plan(0)
        assert plan.overhead_factor == pytest.approx(
            tor_plan.overhead_factor * dissent_plan.overhead_factor
        )
        assert plan.path_latency_s == pytest.approx(
            tor_plan.path_latency_s + dissent_plan.path_latency_s
        )
        assert plan.per_flow_ceiling_bps == dissent_plan.per_flow_ceiling_bps

    def test_exit_is_last_stage(self, env):
        combo = self._tor_dissent(env)
        combo.start()
        assert combo.exit_address() == combo.stages[-1].exit_address()

    def test_identity_protected_if_any_stage_protects(self, env):
        incognito = _make(env, IncognitoMode)
        combo = SerialComposition([incognito])
        assert not combo.protects_network_identity
        timeline, internet, nat = env
        directory = DirectoryAuthority(timeline.fork_rng("dir2"), relay_count=12)
        tor = _make(env, TorClient, directory=directory)
        assert SerialComposition([incognito, tor]).protects_network_identity

    def test_kind_names_stages(self, env):
        combo = self._tor_dissent(env)
        assert combo.kind == "tor+dissent"

    def test_state_roundtrip(self, env):
        combo = self._tor_dissent(env)
        combo.start()
        state = combo.export_state()
        timeline, internet, nat = env
        directory = combo.stages[0].directory
        tor2 = _make(env, TorClient, directory=directory)
        dissent2 = _make(env, DissentClient)
        combo2 = SerialComposition([tor2, dissent2])
        combo2.import_state(state)
        assert tor2.guard_manager.guards == combo.stages[0].guard_manager.guards

    def test_empty_composition_rejected(self):
        with pytest.raises(AnonymizerError):
            SerialComposition([])

    def test_mismatched_state_rejected(self, env):
        combo = self._tor_dissent(env)
        incognito = _make(env, IncognitoMode)
        with pytest.raises(AnonymizerError):
            combo.import_state(incognito.export_state())
