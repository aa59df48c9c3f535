"""The stratified mix deployment: L layers of M nodes each.

A forward path visits exactly one node per layer, in layer order.  Node
keypairs derive from per-node RNG forks (stable against consumption
order, like Tor relay keys), so the same seed always yields the same
deployment.  Nodes can be crashed by the fault injector; paths are then
re-sampled from the survivors of the same layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.x25519 import x25519_keypair
from repro.errors import MixnetError
from repro.mixnet.packet import (
    peel_layer,
    peel_reply_layer,
)
from repro.net.addresses import Ipv4Address
from repro.obs import Observability
from repro.sim.rng import SeededRng

#: the address destinations observe for mixnet-carried traffic: the
#: deployment's shared exit gateway, never the client
GATEWAY_IP = Ipv4Address.parse("198.51.103.1")

#: directory document sizing: per-node descriptor + signed preamble
_DESCRIPTOR_BYTES = 96
_DOCUMENT_PREAMBLE_BYTES = 512


class MixNode:
    """One mix: a long-term X25519 keypair, a replay window, a liveness bit."""

    def __init__(self, name: str, layer_index: int, rng: SeededRng) -> None:
        self.name = name
        self.layer_index = layer_index
        self.private_key, self.public_key = x25519_keypair(rng)
        self.alive = True
        self.packets_processed = 0
        self.replays_rejected = 0
        self._seen_tags: Set[bytes] = set()
        self._peel_memo: Dict[bytes, bytes] = {}

    def _require_alive(self) -> None:
        if not self.alive:
            raise MixnetError(f"mix node {self.name} is down")

    def _check_replay(self, tag: bytes) -> None:
        if tag in self._seen_tags:
            self.replays_rejected += 1
            raise MixnetError(f"mix node {self.name} rejected a replayed packet")
        self._seen_tags.add(tag)

    def process(self, packet: bytes) -> Tuple[Optional[str], bytes]:
        """Peel one forward layer: (next hop name or None at the exit, inner)."""
        self._require_alive()
        next_hop, inner, tag = peel_layer(self.private_key, packet, self._peel_memo)
        self._check_replay(tag)
        self.packets_processed += 1
        return next_hop, inner

    def process_reply(
        self, header: bytes, body: bytes
    ) -> Tuple[Optional[str], bytes, bytes]:
        """Peel one reply-header layer and re-encrypt the body."""
        self._require_alive()
        next_hop, rest, new_body, tag = peel_reply_layer(
            self.private_key, header, body, self._peel_memo
        )
        self._check_replay(tag)
        self.packets_processed += 1
        return next_hop, rest, new_body

    def crash(self) -> None:
        self.alive = False

    def restore(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"MixNode({self.name}, layer={self.layer_index}, {state})"


class MixTopology:
    """The deployment directory: every node, by layer and by name."""

    def __init__(
        self,
        rng: SeededRng,
        layers: int = 3,
        nodes_per_layer: int = 3,
        obs=None,
    ) -> None:
        if layers < 1:
            raise MixnetError(f"a mixnet needs at least one layer, got {layers}")
        if nodes_per_layer < 1:
            raise MixnetError(
                f"a layer needs at least one node, got {nodes_per_layer}"
            )
        self.num_layers = layers
        self.nodes_per_layer = nodes_per_layer
        self.obs = Observability() if obs is None else obs
        self.gateway_ip = GATEWAY_IP
        self._grid: List[List[MixNode]] = []
        self._by_name: Dict[str, MixNode] = {}
        for layer_index in range(layers):
            row = []
            for slot in range(nodes_per_layer):
                name = f"mix{layer_index}-{slot:02d}"
                node = MixNode(name, layer_index, rng.fork(f"mix:{name}"))
                row.append(node)
                self._by_name[name] = node
            self._grid.append(row)

    # -- lookup ----------------------------------------------------------

    def node(self, name: str) -> MixNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise MixnetError(f"unknown mix node {name!r}") from None

    def layer(self, index: int) -> List[MixNode]:
        return list(self._grid[index])

    def alive_in_layer(self, index: int) -> List[MixNode]:
        return [node for node in self._grid[index] if node.alive]

    @property
    def total_nodes(self) -> int:
        return len(self._by_name)

    @property
    def alive_nodes(self) -> int:
        return sum(1 for node in self._by_name.values() if node.alive)

    def document_bytes(self) -> int:
        """Size of the signed directory document a client fetches at start."""
        return _DOCUMENT_PREAMBLE_BYTES + self.total_nodes * _DESCRIPTOR_BYTES

    # -- routing ---------------------------------------------------------

    def sample_path(self, rng: SeededRng) -> List[MixNode]:
        """One live node per layer, in layer order."""
        path = []
        for index in range(self.num_layers):
            candidates = self.alive_in_layer(index)
            if not candidates:
                raise MixnetError(f"mixnet layer {index} has no surviving nodes")
            path.append(rng.choice(candidates))
        return path

    # -- churn (the mixnet.node_crash fault) ------------------------------

    def pick_victim(self) -> Optional[str]:
        """The busiest live node in a layer that can lose one.

        Layers with a single survivor are spared so the deployment stays
        routable — the fault models node churn, not a partition.
        """
        best: Optional[MixNode] = None
        for index in range(self.num_layers):
            survivors = self.alive_in_layer(index)
            if len(survivors) < 2:
                continue
            for node in survivors:
                if best is None or (node.packets_processed, node.name) > (
                    best.packets_processed,
                    best.name,
                ):
                    best = node
        return best.name if best is not None else None

    def crash_node(self, name: str = "") -> Optional[str]:
        """Take a node down (named, or a deterministically picked victim)."""
        victim = name or self.pick_victim()
        if victim is None:
            return None
        node = self.node(victim)
        if not node.alive:
            return None
        node.crash()
        self.obs.metrics.counter("mixnet.node.crashes").inc()
        self.obs.event("mixnet.node.crashed", node=node.name, layer=node.layer_index)
        return node.name

    def __repr__(self) -> str:
        return (
            f"MixTopology({self.num_layers}x{self.nodes_per_layer}, "
            f"alive={self.alive_nodes}/{self.total_nodes})"
        )
