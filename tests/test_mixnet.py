"""The layered mixnet: packet format, topology, client, faults, determinism."""

import pytest

from repro.core import NymManager, NymixConfig
from repro.errors import MixnetError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.mixnet import (
    LAYER_OVERHEAD_BYTES,
    MixTopology,
    PAYLOAD_BYTES,
    build_packet,
    build_reply_block,
    open_body,
    open_reply,
    packet_bytes,
)
from repro.mixnet.packet import BODY_BYTES, encode_body, peel_layer
from repro.sim.rng import SeededRng


@pytest.fixture
def topology(rng):
    return MixTopology(rng.fork("topo"), layers=3, nodes_per_layer=3)


def _pump(path, packet):
    """Walk a packet through every node on ``path``; returns the body."""
    for node in path:
        next_hop, packet = node.process(packet)
    assert next_hop is None  # the exit saw the terminal routing slot
    return packet


class TestPacketFormat:
    def test_round_trip_recovers_payload(self, topology, rng):
        path = topology.sample_path(rng)
        packet = build_packet(rng, path, b"hello mixnet")
        assert open_body(_pump(path, packet)) == b"hello mixnet"

    def test_packet_size_is_payload_independent(self, topology, rng):
        path = topology.sample_path(rng)
        sizes = {
            len(build_packet(rng, path, payload))
            for payload in (b"", b"x", b"y" * PAYLOAD_BYTES)
        }
        assert sizes == {packet_bytes(len(path))}
        assert packet_bytes(3) == BODY_BYTES + 3 * LAYER_OVERHEAD_BYTES

    def test_oversized_payload_rejected(self, topology, rng):
        path = topology.sample_path(rng)
        with pytest.raises(MixnetError):
            build_packet(rng, path, b"z" * (PAYLOAD_BYTES + 1))

    def test_replay_rejected_per_node(self, topology, rng):
        path = topology.sample_path(rng)
        packet = build_packet(rng, path, b"once only")
        _, inner = path[0].process(packet)
        with pytest.raises(MixnetError):
            path[0].process(packet)
        assert path[0].replays_rejected == 1
        # the peeled inner packet still flows through the rest of the path
        for node in path[1:]:
            _, inner = node.process(inner)
        assert open_body(inner) == b"once only"

    def test_tampered_packet_fails_authentication(self, topology, rng):
        path = topology.sample_path(rng)
        packet = build_packet(rng, path, b"intact")
        tampered = packet[:-1] + bytes([packet[-1] ^ 0xFF])
        with pytest.raises(MixnetError):
            path[0].process(tampered)

    def test_wrong_node_cannot_peel(self, topology, rng):
        path = topology.sample_path(rng)
        packet = build_packet(rng, path, b"strict onion")
        other = next(
            node for node in topology.layer(0) if node.name != path[0].name
        )
        with pytest.raises(MixnetError):
            peel_layer(other.private_key, packet)


class TestReplyBlocks:
    def test_reply_round_trip(self, topology, rng):
        path = topology.sample_path(rng)
        block = build_reply_block(rng, path)
        body = encode_body(b"echoed", rng.token_bytes(8))
        header = block.header
        for node in path:
            _, header, body = node.process_reply(header, body)
        assert open_reply(block, body) == b"echoed"

    def test_reply_block_is_single_use(self, topology, rng):
        path = topology.sample_path(rng)
        block = build_reply_block(rng, path)
        body = encode_body(b"first", rng.token_bytes(8))
        header = block.header
        for node in path:
            _, header, body = node.process_reply(header, body)
        assert open_reply(block, body) == b"first"
        with pytest.raises(MixnetError):
            open_reply(block, body)


class TestTopology:
    def test_paths_take_one_alive_node_per_layer(self, topology, rng):
        path = topology.sample_path(rng)
        assert [node.layer_index for node in path] == [0, 1, 2]
        assert all(node.alive for node in path)

    def test_crash_and_restore(self, topology):
        name = topology.crash_node("mix1-00")
        assert name == "mix1-00"
        assert not topology.node("mix1-00").alive
        assert topology.alive_nodes == topology.total_nodes - 1
        topology.node("mix1-00").restore()
        assert topology.node("mix1-00").alive

    def test_victim_picker_spares_single_survivor_layers(self, rng):
        topology = MixTopology(rng.fork("small"), layers=2, nodes_per_layer=2)
        first = topology.crash_node("")
        assert first is not None
        # Crash the other layer's busiest too; after that every layer has
        # exactly one survivor and the picker must refuse to finish a layer.
        second = topology.crash_node("")
        assert second is not None
        assert topology.crash_node("") is None
        for layer_index in range(2):
            assert len(topology.alive_in_layer(layer_index)) >= 1

    def test_exhausted_layer_fails_path_sampling(self, topology, rng):
        for node in topology.layer(1):
            node.crash()
        with pytest.raises(MixnetError):
            topology.sample_path(rng)


def _mixnet_manager(seed=7, **overrides):
    return NymManager(NymixConfig(seed=seed, **overrides))


class TestMixnetClient:
    def test_browse_and_send_through_the_mix(self):
        manager = _mixnet_manager()
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        load = manager.timed_browse(box, "bbc.co.uk")
        assert load.payload_bytes > 0
        assert box.anonymizer.send_payload(b"end to end") == b"end to end"
        plan = box.anonymizer.plan(0)
        assert plan.overhead_factor > 1.0
        assert plan.path_latency_s > 0.0

    def test_exit_address_is_gateway_not_client(self):
        manager = _mixnet_manager()
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        exit_ip = box.anonymizer.exit_address()
        assert exit_ip == manager.mixnet_topology().gateway_ip
        assert exit_ip != box.anonymizer.nat.public_ip

    def test_cover_traffic_flows_while_idle(self):
        manager = _mixnet_manager(mixnet_cover_rate_pps=2.0)
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        before = box.anonymizer.cover_packets_sent
        manager.timeline.sleep(20.0)
        sent = box.anonymizer.cover_packets_sent - before
        assert sent > 10  # ~40 expected at 2 pps
        snapshot = manager.obs.snapshot()
        delivered = snapshot.get("mixnet.cover.loop", 0) + snapshot.get(
            "mixnet.cover.drop", 0
        )
        assert delivered == box.anonymizer.cover_packets_sent

    def test_node_crash_forces_reroute(self):
        manager = _mixnet_manager()
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        client = box.anonymizer
        victim = client._path[1]
        manager.mixnet_topology().crash_node(victim.name)
        manager.timed_browse(box, "bbc.co.uk")
        assert client.reroutes == 1
        assert all(node.alive for node in client._path)

    def test_stop_cancels_cover(self):
        manager = _mixnet_manager()
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        client = box.anonymizer
        client.stop()
        sent = client.cover_packets_sent
        manager.timeline.sleep(10.0)
        assert client.cover_packets_sent == sent


class TestMixnetFaults:
    def test_node_crash_fault_hits_topology(self):
        manager = _mixnet_manager()
        manager.create_nym(name="mixy", anonymizer="mixnet")
        plan = FaultPlan([FaultSpec(at_s=1.0, kind="mixnet.node_crash")])
        manager.timeline.faults.arm(plan, manager)
        manager.timeline.sleep(2.0)
        topology = manager.mixnet_topology(create=False)
        assert topology.alive_nodes == topology.total_nodes - 1

    def test_fault_without_mixnet_records_no_mixnet(self):
        manager = _mixnet_manager()
        manager.create_nym(name="plain")  # default tor nym, no mixnet built
        plan = FaultPlan([FaultSpec(at_s=1.0, kind="mixnet.node_crash")])
        injector = manager.timeline.faults.arm(plan, manager)
        manager.timeline.sleep(2.0)
        assert injector.injected[0]["outcome"] == "no_mixnet"
        assert manager.mixnet_topology(create=False) is None

    def test_seeded_plan_appends_mixnet_crashes_without_moving_others(self):
        base = FaultPlan.seeded(SeededRng(3).fork("plan"), 100.0)
        extended = FaultPlan.seeded(
            SeededRng(3).fork("plan"), 100.0, mixnet_node_crashes=2
        )
        assert [e.export() for e in base] == [
            e.export()
            for e in extended
            if e.kind != "mixnet.node_crash"
        ]
        assert len(extended.by_kind("mixnet.node_crash")) == 2


class TestMixnetDeterminism:
    def _journal(self, seed):
        manager = _mixnet_manager(seed=seed)
        box = manager.create_nym(name="mixy", anonymizer="mixnet")
        manager.timed_browse(box, "bbc.co.uk")
        box.anonymizer.send_payload(b"same bytes every run")
        manager.timeline.sleep(15.0)
        return manager.obs.journal.export_jsonl()

    def test_same_seed_byte_identical_journals(self):
        assert self._journal(21) == self._journal(21)

    def test_warm_key_cache_does_not_change_the_journal(self, monkeypatch):
        from tests.seed_oracles import MIXNET_CACHE_OFF, apply

        cold_state = self._journal(22)
        # The process-global sender cache is now warm; a rerun must burn
        # the same RNG draws and produce the same bytes.
        warm_state = self._journal(22)
        with monkeypatch.context() as patch:
            apply(patch, MIXNET_CACHE_OFF)
            disabled_state = self._journal(22)
        assert cold_state == warm_state == disabled_state

    def test_different_seeds_diverge(self):
        assert self._journal(23) != self._journal(24)
