"""The tagged microbenchmark registry behind ``repro bench``.

Each bench times one hot path of the live code in real wall-clock time,
built with default settings so it measures what users run.  A bench
function returns the :class:`BenchResult` fields other than its name and
tags, which the registry holds.

Tags group benches for ``repro bench --tag``:

* ``memory``  — GuestMemory churn and KSM accounting
* ``crypto``  — ChaCha20 / Poly1305 / onion layering
* ``sim``     — event queue machinery
* ``scenario``— end-to-end figure workloads under wall-clock timing
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.perfbench.harness import (
    FULL_BUDGET_S,
    QUICK_BUDGET_S,
    BenchResult,
    measure,
)

MIB = 1024 * 1024


@dataclass(frozen=True)
class Bench:
    """One registered microbenchmark."""

    name: str
    tags: List[str]
    description: str
    func: Callable[[bool], Dict[str, object]]

    def run(self, quick: bool) -> BenchResult:
        return BenchResult(name=self.name, tags=list(self.tags), **self.func(quick))


def _budget(quick: bool) -> float:
    return QUICK_BUDGET_S if quick else FULL_BUDGET_S


# -- memory -----------------------------------------------------------------


def _bench_memory_churn(quick: bool) -> Dict[str, object]:
    """A nym lifetime's worth of page churn: map, dirty, wipe."""
    from repro.memory.pages import GuestMemory

    guest_bytes = (64 if quick else 512) * MIB
    dirty_steps = 32

    def churn() -> None:
        guest = GuestMemory("bench", guest_bytes)
        guest.map_image("nymix-image", guest_bytes // 4)
        step = guest_bytes // 2 // dirty_steps
        for _ in range(dirty_steps):
            guest.dirty(step)
        guest.stats()
        guest.secure_erase()

    iterations, seconds = measure(churn, _budget(quick))
    return dict(
        unit="churn",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"map+dirty+erase a {guest_bytes // MIB} MiB guest in "
            f"{dirty_steps} steps"
        ),
        extra={"guest_mib": guest_bytes // MIB, "dirty_steps": dirty_steps},
    )


def _bench_ksm_stats(quick: bool) -> Dict[str, object]:
    """The per-wakeup ksmd accounting when guest memory hasn't changed."""
    from repro.memory.ksm import Ksm
    from repro.memory.pages import GuestMemory

    n_guests = 2 if quick else 4
    guest_bytes = (32 if quick else 128) * MIB
    ksm = Ksm(enabled=True)
    for index in range(n_guests):
        guest = GuestMemory(f"bench-{index}", guest_bytes)
        guest.map_image("nymix-image", 8 * MIB if quick else 24 * MIB)
        guest.dirty(guest_bytes // 8)
        ksm.register(guest)
    ksm.run_to_completion()

    iterations, seconds = measure(ksm.stats, _budget(quick))
    return dict(
        unit="stats",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"steady-state stats() over {n_guests} guests, served from the "
            "version-memoized index"
        ),
        extra={"guests": n_guests, "total_pages": ksm.total_guest_pages},
    )


# -- crypto -----------------------------------------------------------------


def _bench_onion_throughput(quick: bool) -> Dict[str, object]:
    """Full onion round trips through a built 3-hop circuit."""
    from repro.anonymizers.tor.circuit import Circuit
    from repro.anonymizers.tor.relay import Relay
    from repro.net.addresses import Ipv4Address
    from repro.sim.clock import Timeline
    from repro.sim.rng import SeededRng

    timeline = Timeline(seed=1234)
    rng = SeededRng(1234)
    relays = [
        Relay(
            f"bench{i}",
            Ipv4Address.parse(f"10.9.0.{i + 1}"),
            10e6,
            frozenset({"Guard", "Exit"}),
            rng.fork(f"bench{i}"),
        )
        for i in range(3)
    ]
    circuit = Circuit(timeline, rng)
    circuit.build(relays)
    cell = bytes(range(256)) * 2  # one 512 B payload

    def round_trip() -> bytes:
        onion = circuit.onion_encrypt(cell)
        plain = circuit.relay_forward(onion)
        back = circuit.relay_backward(plain)
        return circuit.onion_decrypt(back)

    assert round_trip() == cell

    iterations, seconds = measure(round_trip, _budget(quick))
    return dict(
        unit="cell",
        iterations=iterations,
        seconds=seconds,
        notes="512 B cell, 3 hops, both directions, XORed against cached keystreams",
        extra={"hops": len(relays), "cell_bytes": len(cell)},
    )


def _bench_poly1305(quick: bool) -> Dict[str, object]:
    """One-shot MAC over a large message (the AEAD tag path)."""
    from repro.crypto.poly1305 import poly1305_mac

    key = bytes(range(32))
    message = bytes(range(256)) * ((128 if quick else 1024) * 4)

    iterations, seconds = measure(lambda: poly1305_mac(key, message), _budget(quick))
    return dict(
        unit="byte",
        work_per_iteration=len(message),
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"{len(message) // 1024} KiB message, reduced mod 2^130-5 once "
            "per block batch"
        ),
        extra={"message_bytes": len(message)},
    )


def _bench_chacha20_xor(quick: bool) -> Dict[str, object]:
    """Bulk stream encryption (nym state sealing, cell payloads)."""
    from repro.crypto.chacha20 import chacha20_block, chacha20_xor, xor_bytes

    key = bytes(range(32))
    nonce = bytes(range(12))
    data = bytes(range(256)) * ((32 if quick else 256) * 4)
    n_blocks = (len(data) + 63) // 64
    stream = b"".join(chacha20_block(key, i, nonce) for i in range(n_blocks))
    assert chacha20_xor(key, nonce, data) == xor_bytes(data, stream[: len(data)])

    iterations, seconds = measure(
        lambda: chacha20_xor(key, nonce, data), _budget(quick)
    )
    return dict(
        unit="byte",
        work_per_iteration=len(data),
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"{len(data) // 1024} KiB buffer through the vectorized "
            "20-round function"
        ),
        extra={"data_bytes": len(data)},
    )


def _bench_mixnet_packet(quick: bool) -> Dict[str, object]:
    """Packets through a 3-layer mix: build, peel per hop, open.

    The sender reuses one cached ephemeral exchange per node and every
    node memoizes its half.
    """
    from repro.mixnet.packet import build_packet, open_body
    from repro.mixnet.topology import MixTopology
    from repro.sim.rng import SeededRng

    topology = MixTopology(SeededRng(77), layers=3, nodes_per_layer=2)
    payload = bytes(range(256)) * 2  # one 512 B application payload
    rng = SeededRng(78)
    path = topology.sample_path(rng)

    def pump() -> bytes:
        packet = build_packet(rng, path, payload)
        for node in path:
            _, packet = node.process(packet)
        return open_body(packet)

    assert pump() == payload

    iterations, seconds = measure(pump, _budget(quick))
    return dict(
        unit="packet",
        iterations=iterations,
        seconds=seconds,
        notes="512 B payload, 3 layers: wrap + 3 peels + open",
        extra={"layers": 3, "payload_bytes": len(payload)},
    )


# -- sim --------------------------------------------------------------------


def _bench_event_queue_load(quick: bool) -> Dict[str, object]:
    """Schedule/cancel/drain churn with len() polling between cancels."""
    from repro.sim.clock import Clock, EventQueue

    n_events = 500 if quick else 5_000

    def churn() -> None:
        clock = Clock()
        queue = EventQueue(clock)
        events = [queue.schedule_in(float(i + 1), lambda: None) for i in range(n_events)]
        for index, event in enumerate(events):
            if index % 2:
                event.cancel()
                len(queue)  # the scheduler polls queue depth after cancels
        queue.run_all()

    iterations, seconds = measure(churn, _budget(quick))
    return dict(
        unit="churn",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"schedule {n_events}, cancel half with len() polls, drain; "
            "tombstone compaction keeps cancelled events from pinning the heap"
        ),
        extra={"events": n_events},
    )


# -- scenarios --------------------------------------------------------------


def _make_manager(seed: int):
    from repro.core import NymManager, NymixConfig

    return NymManager(NymixConfig(seed=seed))


def _bench_fig3_scenario(quick: bool) -> Dict[str, object]:
    """Wall-clock cost of the Figure 3 memory-experiment measurement loop."""
    from repro.workloads.browsing import run_memory_experiment_step

    nyms = 1 if quick else 3
    counter = [0]

    def scenario() -> None:
        counter[0] += 1
        manager = _make_manager(seed=counter[0])
        for index in range(nyms):
            run_memory_experiment_step(manager, index)

    iterations, seconds = measure(scenario, _budget(quick), min_iterations=2)
    return dict(
        unit="run",
        iterations=iterations,
        seconds=seconds,
        notes=f"fresh manager, {nyms} nyms: launch, measure, browse, re-measure",
        extra={"nyms": nyms},
    )


def _bench_nym_lifecycle(quick: bool) -> Dict[str, object]:
    """Create, browse, and discard one nym on a shared manager."""
    manager = _make_manager(seed=7)
    counter = [0]

    def lifecycle() -> None:
        counter[0] += 1
        nymbox = manager.create_nym(name=f"bench-{counter[0]}")
        manager.timed_browse(nymbox, "bbc.co.uk")
        manager.discard_nym(nymbox)

    for _ in range(2 if quick else 8):  # warm the manager's launch caches
        lifecycle()
    iterations, seconds = measure(lifecycle, _budget(quick), min_iterations=2)
    return dict(
        unit="nym",
        iterations=iterations,
        seconds=seconds,
        notes="create_nym + one page load + discard_nym on a warm manager",
    )


def _bench_content_draw(quick: bool) -> Dict[str, object]:
    """Bulk incompressible-content generation: the store-path hot loop.

    A browser-cache file's bytes are drawn when something first reads
    them, in practice ``store_nym`` capturing the nym's state (one
    ~717 KiB incompressible draw per cached MiB); a create/browse/discard
    draws none.  Large draws run through the vectorized numpy MT19937
    mirror of ``random.Random.randbytes``.
    """
    from repro.sim.rng import SeededRng

    # The browser cache chunk: int(1 MiB * 0.7) incompressible bytes.
    chunk = int(MIB * 0.7)
    draws = 2 if quick else 8
    rng = SeededRng(23)

    def draw() -> None:
        for _ in range(draws):
            rng.content_bytes(chunk)

    iterations, seconds = measure(draw, _budget(quick), min_iterations=2)
    return dict(
        unit="draw",
        iterations=iterations * draws,
        seconds=seconds,
        notes=(
            f"{draws}x {chunk} B incompressible cache-content draws per "
            "round through the numpy MT19937 mirror"
        ),
        extra={"chunk_bytes": chunk, "draws_per_round": draws},
    )


def _bench_nym_launch(quick: bool) -> Dict[str, object]:
    """Steady-state create/discard throughput on a warm default manager:
    flash-cloned nymboxes (zygote memory templates, shared mount layers)
    with precomputed-base keygen and warm ntor caches.
    """
    # Cache fill (one keygen per distinct relay) is a one-time cost, and
    # this bench measures steady state.
    warmup = 8 if quick else 40
    manager = _make_manager(seed=11)
    for _ in range(warmup):
        manager.discard_nym(manager.create_nym())

    def launch() -> None:
        manager.discard_nym(manager.create_nym())

    iterations, seconds = measure(launch, _budget(quick), min_iterations=2)
    return dict(
        unit="launch",
        iterations=iterations,
        seconds=seconds,
        notes="create_nym + discard_nym on a warm manager",
        extra={"warmup_launches": warmup},
    )


def _bench_fleet_arrival(quick: bool) -> Dict[str, object]:
    """Multi-host placement throughput: nymboxes arriving across a fleet.

    The default fleet admits the arrival stream one :meth:`Fleet.place`
    at a time: every host hypervisor flash-clones from its zygote
    template, admission re-derives verdicts only for hosts that changed,
    and accounting is O(Δ).
    """
    from repro.fleet import Fleet
    from repro.sim.clock import Timeline
    from repro.tenancy.policy import FleetPolicies
    from repro.workloads.fleet import fleet_workload

    hosts = 2 if quick else 4
    arrivals = 8 if quick else 24

    def arrival() -> None:
        timeline = Timeline(seed=5)
        fleet = Fleet(
            timeline, hosts=hosts, policies=FleetPolicies(placement="ksm-aware")
        )
        workload = fleet_workload(timeline.fork_rng("bench.workload"), arrivals)
        for item in workload:
            fleet.place(item.name, item.image_id)
        fleet.settle_ksm()

    arrival()  # warm per-process state before timing
    iterations, seconds = measure(arrival, _budget(quick), min_iterations=2)
    return dict(
        unit="wave",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"{arrivals} nymbox arrivals across {hosts} hosts with the "
            "ksm-aware policy, one place() each, then settle_ksm"
        ),
        extra={"hosts": hosts, "arrivals": arrivals},
    )


def _bench_fleet_wave(quick: bool) -> Dict[str, object]:
    """Admission at fleet scale: one big arrival burst, many hosts."""
    from repro.fleet import Fleet
    from repro.sim.clock import Timeline
    from repro.tenancy.policy import FleetPolicies
    from repro.workloads.fleet import fleet_workload

    hosts = 4 if quick else 16
    arrivals = 32 if quick else 256

    def wave() -> None:
        timeline = Timeline(seed=11)
        fleet = Fleet(
            timeline, hosts=hosts, policies=FleetPolicies(placement="ksm-aware")
        )
        workload = fleet_workload(timeline.fork_rng("bench.workload"), arrivals)
        for item in workload:
            fleet.place(item.name, item.image_id)
        fleet.settle_ksm()
        fleet.stats()

    wave()  # warm per-process state (zygote templates) before timing
    iterations, seconds = measure(wave, _budget(quick), min_iterations=2)
    return dict(
        unit="wave",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"{arrivals} simultaneous arrivals across {hosts} hosts, "
            "ksm-aware, one place() each with change-driven admission, "
            "then settle_ksm + stats"
        ),
        extra={"hosts": hosts, "arrivals": arrivals},
    )


def _bench_fleet_shard(quick: bool) -> Dict[str, object]:
    """The sharded scale path end to end: epoch barriers + streamed spools.

    Measures whole sharded runs — arrival placement across shard
    timelines, barrier merges, and every journal streamed to a spool on
    disk — the configuration the scale-smoke CI gate and the
    BENCH_fleet scale trajectory run.  On multi-core machines the
    serial run is re-measured against a multiprocess (``procs``) run of
    the same seed and the wall-clock ratio is recorded in ``extra`` —
    never gated here, because on single-core runners spawn overhead
    legitimately makes the parallel run slower (the byte-identity gate
    lives in the scale-smoke CI job and tests/test_fleet_parallel.py, and
    holds on any core count).
    """
    import os as _os
    import shutil
    import tempfile
    import time as _time

    from repro.fleet.shard import ShardConfig, run_sharded_fleet

    shards = 2 if quick else 4
    nyms = 60 if quick else 400
    config = ShardConfig(
        seed=11, shards=shards, hosts_per_shard=4, nyms=nyms, epoch_s=30.0
    )

    def run(procs: int = 1) -> None:
        spool_dir = tempfile.mkdtemp(prefix="bench-shard-")
        try:
            run_sharded_fleet(config, spool_dir, procs=procs)
        finally:
            shutil.rmtree(spool_dir, ignore_errors=True)

    budget = _budget(quick)
    run()  # warm per-process state (zygote templates) before timing
    iterations, seconds = measure(run, budget, min_iterations=2)
    cpu_count = _os.cpu_count() or 1
    extra = {
        "shards": shards,
        "nyms": nyms,
        "epoch_s": config.epoch_s,
        "cpu_count": cpu_count,
        "procs": 1,
    }
    if cpu_count > 1 and not quick:
        procs = min(cpu_count, shards)
        start = _time.perf_counter()
        run(procs=procs)
        parallel_wall = _time.perf_counter() - start
        serial_wall = seconds / iterations
        extra.update(
            {
                "procs": procs,
                "parallel_wall_seconds": round(parallel_wall, 4),
                "parallel_speedup": round(serial_wall / parallel_wall, 3)
                if parallel_wall > 0
                else 0.0,
            }
        )
    return dict(
        unit="run",
        iterations=iterations,
        seconds=seconds,
        notes=(
            f"{nyms} arrivals over {shards} shards x 4 hosts with epoch "
            "barriers, per-shard KSM settlement, and every journal "
            "streamed to a JSONL spool (fresh spool dir per run)"
        ),
        extra=extra,
    )


# -- registry ---------------------------------------------------------------

BENCHES: Dict[str, Bench] = {
    bench.name: bench
    for bench in [
        Bench(
            "memory_churn",
            ["memory"],
            "GuestMemory map/dirty/erase churn",
            _bench_memory_churn,
        ),
        Bench(
            "ksm_stats",
            ["memory", "ksm"],
            "ksmd wakeup accounting on an unchanged host",
            _bench_ksm_stats,
        ),
        Bench(
            "onion_throughput",
            ["crypto", "tor"],
            "3-hop onion round trips",
            _bench_onion_throughput,
        ),
        Bench(
            "poly1305",
            ["crypto"],
            "large-message Poly1305 MAC",
            _bench_poly1305,
        ),
        Bench(
            "chacha20_xor",
            ["crypto"],
            "bulk ChaCha20 stream encryption",
            _bench_chacha20_xor,
        ),
        Bench(
            "mixnet_packet",
            ["crypto", "mixnet"],
            "3-layer mix packet pump",
            _bench_mixnet_packet,
        ),
        Bench(
            "event_queue_load",
            ["sim"],
            "schedule/cancel/drain churn with len() polling",
            _bench_event_queue_load,
        ),
        Bench(
            "fig3_scenario",
            ["scenario", "memory"],
            "the Figure 3 measurement loop under wall-clock timing",
            _bench_fig3_scenario,
        ),
        Bench(
            "nym_lifecycle",
            ["scenario"],
            "create/browse/discard one nym under wall-clock timing",
            _bench_nym_lifecycle,
        ),
        Bench(
            "content_draw",
            ["memory", "content"],
            "bulk cache-content draws",
            _bench_content_draw,
        ),
        Bench(
            "nym_launch",
            ["scenario", "launch"],
            "create/discard launches on a warm manager",
            _bench_nym_launch,
        ),
        Bench(
            "fleet_arrival",
            ["scenario", "fleet"],
            "fleet placement waves",
            _bench_fleet_arrival,
        ),
        Bench(
            "fleet_wave",
            ["scenario", "fleet"],
            "admission of one arrival burst across many hosts",
            _bench_fleet_wave,
        ),
        Bench(
            "fleet_shard",
            ["scenario", "fleet"],
            "sharded epoch-barrier runs with streamed journal spools",
            _bench_fleet_shard,
        ),
    ]
}


def select_benches(
    only: Optional[List[str]] = None, tag: Optional[str] = None
) -> List[Bench]:
    """Resolve a ``--only``/``--tag`` selection (raises KeyError on typos)."""
    if only:
        missing = [name for name in only if name not in BENCHES]
        if missing:
            raise KeyError(
                f"unknown bench(es): {', '.join(missing)}; "
                f"available: {', '.join(sorted(BENCHES))}"
            )
        selected = [BENCHES[name] for name in only]
    else:
        selected = list(BENCHES.values())
    if tag:
        selected = [bench for bench in selected if tag in bench.tags]
        if not selected and only:
            raise KeyError(
                f"none of the named benches ({', '.join(only)}) has tag {tag!r}"
            )
        if not selected:
            tags = sorted({t for bench in BENCHES.values() for t in bench.tags})
            raise KeyError(f"no bench has tag {tag!r}; available: {', '.join(tags)}")
    return selected
