"""Top-level configuration for a Nymix instance."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vmm.hypervisor import HostSpec


@dataclass(frozen=True)
class NymixConfig:
    """Everything tunable about a simulated Nymix deployment.

    Defaults reproduce the paper's evaluation setup: an i7 quad-core host
    with 16 GB RAM, a 10 Mbit/s / 80 ms path to a 40-relay test Tor
    deployment, Tor as the default anonymizer, and KSM enabled.
    """

    seed: int = 0
    host: HostSpec = field(default_factory=HostSpec)
    default_anonymizer: str = "tor"
    tor_relay_count: int = 40
    dissent_clients: int = 8
    dissent_servers: int = 3
    #: stratified mixnet deployment shape (built lazily on first use)
    mixnet_layers: int = 3
    mixnet_nodes_per_layer: int = 3
    #: loop/drop cover packets per second each mixnet client emits
    mixnet_cover_rate_pps: float = 1.0
    #: mean of the exponential per-hop mixing delay
    mixnet_mean_hop_delay_s: float = 0.05
    ksm_enabled: bool = True
    #: verify every base-image read against the published Merkle root (§3.4)
    verify_base_image: bool = False
    #: derive Tor entry guards from (storage location, password) so even the
    #: ephemeral download nym uses the nym's own guards (§3.5 mitigation)
    deterministic_guards: bool = False
    #: Dunn-style ephemeral-channel scrubbing of host-side traces (§3.4);
    #: the paper defers this for its hardware/compute cost, so default off
    ephemeral_channels: bool = False
