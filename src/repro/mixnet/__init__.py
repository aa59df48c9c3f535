"""A layered (stratified) mixnet anonymizer — the third transport family.

The paper evaluates onion routing (Tor) and DC-nets (Dissent); this
package adds the design point between them: an Outfox/Loopix-style
mixnet with N layers of mix nodes, fixed-size layered-AEAD packets,
Poisson per-hop delays, loop/drop cover traffic, and single-use reply
blocks for bidirectional flows.

* :mod:`repro.mixnet.packet` — the fixed-size packet format: one
  ChaCha20-Poly1305 layer per hop over X25519-derived keys, peeled one
  layer per mix; reply blocks (SURBs) for the return path.
* :mod:`repro.mixnet.topology` — the stratified deployment: L layers of
  M nodes each, forward paths pick one node per layer.
* :mod:`repro.mixnet.client` — the :class:`~repro.anonymizers.base.Anonymizer`
  implementation the Nym Manager builds for ``"mixnet"``.
"""

from repro.mixnet.client import MixnetClient
from repro.mixnet.packet import (
    LAYER_OVERHEAD_BYTES,
    PAYLOAD_BYTES,
    ReplyBlock,
    build_packet,
    build_reply_block,
    open_body,
    open_reply,
    packet_bytes,
)
from repro.mixnet.topology import MixNode, MixTopology

__all__ = [
    "LAYER_OVERHEAD_BYTES",
    "PAYLOAD_BYTES",
    "MixNode",
    "MixTopology",
    "MixnetClient",
    "ReplyBlock",
    "build_packet",
    "build_reply_block",
    "open_body",
    "open_reply",
    "packet_bytes",
]
