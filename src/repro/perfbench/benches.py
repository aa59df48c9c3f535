"""The tagged microbenchmark registry behind ``repro bench``.

Each bench measures a hot path in real wall-clock time; where a frozen
seed implementation exists (:mod:`repro.perfbench.legacy`), it runs in the
same process right after the live code so the recorded speedup compares
the same machine, same interpreter, same inputs.

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
    run: Callable[[bool], BenchResult]


def _budget(quick: bool) -> float:
    return QUICK_BUDGET_S if quick else FULL_BUDGET_S


# -- memory -----------------------------------------------------------------


def _bench_memory_churn(quick: bool) -> BenchResult:
    """A nym lifetime's worth of page churn: map, dirty, wipe."""
    from repro.memory.pages import GuestMemory
    from repro.perfbench.legacy import LegacyGuestMemory

    guest_bytes = (64 if quick else 512) * MIB
    dirty_steps = 32

    def churn(cls) -> None:
        guest = cls("bench", guest_bytes)
        guest.map_image("nymix-image", guest_bytes // 4)
        step = guest_bytes // 2 // dirty_steps
        for _ in range(dirty_steps):
            guest.dirty(step)
        guest.stats()
        guest.secure_erase()

    budget = _budget(quick)
    iterations, seconds = measure(lambda: churn(GuestMemory), budget)
    base_iters, base_seconds = measure(lambda: churn(LegacyGuestMemory), budget)
    return BenchResult(
        name="memory_churn",
        tags=["memory"],
        unit="churn",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"map+dirty+erase a {guest_bytes // MIB} MiB guest in "
            f"{dirty_steps} steps; seed keeps one dict entry per page"
        ),
        extra={"guest_mib": guest_bytes // MIB, "dirty_steps": dirty_steps},
    )


def _ksm_scenario(quick: bool, cls):
    """Build the shared fig3-style guest set used by the KSM stats bench."""
    guests = []
    n_guests = 2 if quick else 4
    guest_bytes = (32 if quick else 128) * MIB
    for index in range(n_guests):
        guest = cls(f"bench-{index}", guest_bytes)
        guest.map_image("nymix-image", 24 * MIB if not quick else 8 * MIB)
        guest.dirty(guest_bytes // 8)
        guests.append(guest)
    return guests


def _bench_ksm_stats(quick: bool) -> BenchResult:
    """The per-wakeup ksmd accounting when guest memory hasn't changed."""
    from repro.memory.ksm import Ksm
    from repro.memory.pages import GuestMemory
    from repro.perfbench.legacy import LegacyGuestMemory, legacy_ksm_stats

    guests = _ksm_scenario(quick, GuestMemory)
    ksm = Ksm(enabled=True)
    for guest in guests:
        ksm.register(guest)
    ksm.run_to_completion()

    legacy_guests = _ksm_scenario(quick, LegacyGuestMemory)
    coverage = ksm.coverage

    budget = _budget(quick)
    iterations, seconds = measure(ksm.stats, budget)
    base_iters, base_seconds = measure(
        lambda: legacy_ksm_stats(legacy_guests, coverage), budget
    )
    return BenchResult(
        name="ksm_stats",
        tags=["memory", "ksm"],
        unit="stats",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"steady-state stats() over {len(guests)} guests; seed rescans "
            "every page group per call, live code serves the version-memoized index"
        ),
        extra={"guests": len(guests), "total_pages": ksm.total_guest_pages},
    )


# -- crypto -----------------------------------------------------------------


def _bench_onion_throughput(quick: bool) -> BenchResult:
    """Full onion round trips through a built 3-hop circuit."""
    from repro.anonymizers.tor.circuit import Circuit
    from repro.anonymizers.tor.relay import Relay
    from repro.net.addresses import Ipv4Address
    from repro.perfbench.legacy import legacy_onion_round_trip
    from repro.sim.clock import Timeline
    from repro.sim.rng import SeededRng

    timeline = Timeline(seed=1234, observability=False)
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

    forward_keys = [hop.forward_key for hop in circuit._hops]
    backward_keys = [hop.backward_key for hop in circuit._hops]
    nonce = b"\x00" * 12
    assert round_trip() == cell
    assert legacy_onion_round_trip(forward_keys, backward_keys, nonce, cell) == cell

    budget = _budget(quick)
    iterations, seconds = measure(round_trip, budget)
    base_iters, base_seconds = measure(
        lambda: legacy_onion_round_trip(forward_keys, backward_keys, nonce, cell),
        budget,
    )
    return BenchResult(
        name="onion_throughput",
        tags=["crypto", "tor"],
        unit="cell",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            "512 B cell, 3 hops, both directions; seed recomputes every "
            "layer's keystream, live code XORs against cached streams"
        ),
        extra={"hops": len(relays), "cell_bytes": len(cell)},
    )


def _bench_poly1305(quick: bool) -> BenchResult:
    """One-shot MAC over a large message (the AEAD tag path)."""
    from repro.crypto.poly1305 import poly1305_mac
    from repro.perfbench.legacy import legacy_poly1305_mac

    key = bytes(range(32))
    message = bytes(range(256)) * ((128 if quick else 1024) * 4)
    assert poly1305_mac(key, message) == legacy_poly1305_mac(key, message)

    budget = _budget(quick)
    iterations, seconds = measure(lambda: poly1305_mac(key, message), budget)
    base_iters, base_seconds = measure(
        lambda: legacy_poly1305_mac(key, message), budget
    )
    return BenchResult(
        name="poly1305",
        tags=["crypto"],
        unit="byte",
        work_per_iteration=len(message),
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"{len(message) // 1024} KiB message; seed reduces mod 2^130-5 "
            "per 16 B block, live code once per 32-block batch"
        ),
        extra={"message_bytes": len(message)},
    )


def _bench_chacha20_xor(quick: bool) -> BenchResult:
    """Bulk stream encryption (nym state sealing, cell payloads)."""
    from repro.crypto.chacha20 import chacha20_block, chacha20_xor, xor_bytes

    key = bytes(range(32))
    nonce = bytes(range(12))
    data = bytes(range(256)) * ((32 if quick else 256) * 4)

    def scalar_xor() -> bytes:
        n_blocks = (len(data) + 63) // 64
        stream = b"".join(chacha20_block(key, i, nonce) for i in range(n_blocks))
        return xor_bytes(data, stream[: len(data)])

    assert scalar_xor() == chacha20_xor(key, nonce, data)

    budget = _budget(quick)
    iterations, seconds = measure(lambda: chacha20_xor(key, nonce, data), budget)
    base_iters, base_seconds = measure(scalar_xor, budget)
    return BenchResult(
        name="chacha20_xor",
        tags=["crypto"],
        unit="byte",
        work_per_iteration=len(data),
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"{len(data) // 1024} KiB buffer; baseline is the scalar "
            "block-at-a-time 20-round function"
        ),
        extra={"data_bytes": len(data)},
    )


def _bench_mixnet_packet(quick: bool) -> BenchResult:
    """Packets through a 3-layer mix: build, peel per hop, open.

    Live path: the sender reuses one cached ephemeral exchange per node
    and every node memoizes its half; baseline runs the same code inside
    :func:`seed_mixnet_mode` — a fresh x25519 exchange per layer per
    packet on both ends.
    """
    from repro.mixnet.packet import build_packet, open_body
    from repro.mixnet.topology import MixTopology
    from repro.perfbench.legacy import seed_mixnet_mode
    from repro.sim.rng import SeededRng

    topology = MixTopology(SeededRng(77), layers=3, nodes_per_layer=2)
    payload = bytes(range(256)) * 2  # one 512 B application payload

    def make_pump(rng: SeededRng):
        path = topology.sample_path(rng)

        def pump() -> bytes:
            packet = build_packet(rng, path, payload)
            for node in path:
                _, packet = node.process(packet)
            return open_body(packet)

        return pump

    pump = make_pump(SeededRng(78))
    assert pump() == payload

    budget = _budget(quick)
    iterations, seconds = measure(pump, budget)
    with seed_mixnet_mode():
        seed_pump = make_pump(SeededRng(79))
        assert seed_pump() == payload
        base_iters, base_seconds = measure(seed_pump, budget)
    return BenchResult(
        name="mixnet_packet",
        tags=["crypto", "mixnet"],
        unit="packet",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            "512 B payload, 3 layers: wrap + 3 peels + open; seed runs a "
            "fresh x25519 exchange per layer on sender and node alike"
        ),
        extra={"layers": 3, "payload_bytes": len(payload)},
    )


# -- sim --------------------------------------------------------------------


def _bench_event_queue_load(quick: bool) -> BenchResult:
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

    budget = _budget(quick)
    iterations, seconds = measure(churn, budget)
    return BenchResult(
        name="event_queue_load",
        tags=["sim"],
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


def _bench_fig3_scenario(quick: bool) -> BenchResult:
    """Wall-clock cost of the Figure 3 memory-experiment measurement loop."""
    from repro.workloads.browsing import run_memory_experiment_step

    nyms = 1 if quick else 3
    counter = [0]

    def scenario() -> None:
        counter[0] += 1
        manager = _make_manager(seed=counter[0])
        for index in range(nyms):
            run_memory_experiment_step(manager, index)

    budget = _budget(quick)
    iterations, seconds = measure(scenario, budget, min_iterations=2)
    return BenchResult(
        name="fig3_scenario",
        tags=["scenario", "memory"],
        unit="run",
        iterations=iterations,
        seconds=seconds,
        notes=f"fresh manager, {nyms} nyms: launch, measure, browse, re-measure",
        extra={"nyms": nyms},
    )


def _bench_nym_lifecycle(quick: bool) -> BenchResult:
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
    budget = _budget(quick)
    iterations, seconds = measure(lifecycle, budget, min_iterations=2)
    return BenchResult(
        name="nym_lifecycle",
        tags=["scenario"],
        unit="nym",
        iterations=iterations,
        seconds=seconds,
        notes="create_nym + one page load + discard_nym on a warm manager",
    )


def _bench_content_draw(quick: bool) -> BenchResult:
    """Bulk incompressible-content generation: the browse-path hot loop.

    Profiling the flash-clone lifecycle shows ~80% of a warm
    create/browse/discard sits in ``SeededRng.content_bytes`` filling
    the browser cache (one ~717 KiB incompressible draw per cached MiB).
    Live path: the vectorized numpy MT19937 mirror — bit-identical bytes
    and stream position to the seed draw.  Baseline: the seed
    pure-python ``random.Random.randbytes`` inside
    :func:`seed_content_mode`.
    """
    from repro.perfbench.legacy import seed_content_mode
    from repro.sim.rng import SeededRng

    # The browser cache chunk: int(1 MiB * 0.7) incompressible bytes.
    chunk = int(MIB * 0.7)
    draws = 2 if quick else 8
    rng = SeededRng(23)

    def draw() -> None:
        for _ in range(draws):
            rng.content_bytes(chunk)

    budget = _budget(quick)
    iterations, seconds = measure(draw, budget, min_iterations=2)
    with seed_content_mode():
        base_iters, base_seconds = measure(draw, budget, min_iterations=2)
    return BenchResult(
        name="content_draw",
        tags=["memory", "content"],
        unit="draw",
        iterations=iterations * draws,
        seconds=seconds,
        baseline_iterations=base_iters * draws,
        baseline_seconds=base_seconds,
        notes=(
            f"{draws}x {chunk} B incompressible cache-content draws per "
            "round; seed renders the byte stream through pure-python "
            "getrandbits, live mirrors the identical MT19937 stream "
            "through numpy"
        ),
        extra={"chunk_bytes": chunk, "draws_per_round": draws},
    )


def _bench_nym_launch(quick: bool) -> BenchResult:
    """Steady-state create/discard throughput on a warm manager.

    Live path: flash-cloned nymboxes (zygote memory templates, shared
    mount layers) with precomputed-base keygen and warm ntor caches.
    Baseline: the same manager code with ``flash_clone=False`` inside
    :func:`seed_launch_mode` — cold boots, ladder keygen, no handshake
    caches, and the seed O(N) accounting sums.
    """
    from repro.core import NymManager, NymixConfig
    from repro.perfbench.legacy import seed_launch_mode

    warmup = 8 if quick else 40

    def make_loop(flash_clone: bool, warm: int):
        manager = NymManager(NymixConfig(seed=11, flash_clone=flash_clone))
        for _ in range(warm):
            manager.discard_nym(manager.create_nym())

        def launch() -> None:
            manager.discard_nym(manager.create_nym())

        return launch

    budget = _budget(quick)
    # The live loop warms deeper: cache fill (one keygen per distinct
    # relay) is a one-time cost, and this bench measures steady state.
    # The baseline has no caches, so its steady state needs no fill.
    launch = make_loop(flash_clone=True, warm=warmup)
    iterations, seconds = measure(launch, budget, min_iterations=2)
    with seed_launch_mode():
        seed_launch = make_loop(flash_clone=False, warm=2)
        base_iters, base_seconds = measure(seed_launch, budget, min_iterations=2)
    return BenchResult(
        name="nym_launch",
        tags=["scenario", "launch"],
        unit="launch",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            "create_nym + discard_nym on a warm manager; seed cold-boots "
            "both VMs and runs full ntor handshakes per circuit hop"
        ),
        extra={"warmup_launches": warmup},
    )


def _bench_fleet_arrival(quick: bool) -> BenchResult:
    """Multi-host placement throughput: nymboxes arriving across a fleet.

    Both sides admit the arrival stream one :meth:`Fleet.place` at a
    time.  Live path: every host hypervisor flash-clones from its zygote
    template, admission re-derives verdicts only for hosts that changed,
    and accounting is O(Δ).  Baseline: ``flash_clone=False`` fleets
    inside :func:`seed_admission_mode` — per-arrival host-list rebuilds
    and seed accounting sums (crypto is untouched — fleet placement does
    not build circuits).
    """
    from repro.fleet import Fleet
    from repro.tenancy.policy import FleetPolicies
    from repro.perfbench.legacy import seed_admission_mode
    from repro.sim.clock import Timeline
    from repro.workloads.fleet import fleet_workload

    hosts = 2 if quick else 4
    arrivals = 8 if quick else 24

    def make_arrival(flash_clone: bool):
        def arrival() -> None:
            timeline = Timeline(seed=5, observability=False)
            fleet = Fleet(
                timeline,
                hosts=hosts,
                policies=FleetPolicies(placement="ksm-aware"),
                flash_clone=flash_clone,
            )
            workload = fleet_workload(timeline.fork_rng("bench.workload"), arrivals)
            for item in workload:
                fleet.place(item.name, item.image_id)
            fleet.settle_ksm()

        return arrival

    budget = _budget(quick)
    arrival = make_arrival(flash_clone=True)
    arrival()  # warm per-process state before timing
    iterations, seconds = measure(arrival, budget, min_iterations=2)
    with seed_admission_mode():
        seed_arrival = make_arrival(flash_clone=False)
        base_iters, base_seconds = measure(seed_arrival, budget, min_iterations=2)
    return BenchResult(
        name="fleet_arrival",
        tags=["scenario", "fleet"],
        unit="wave",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"{arrivals} nymbox arrivals across {hosts} hosts with the "
            "ksm-aware policy, one place() each, then settle_ksm; seed "
            "cold-boots every placement and re-derives admission per "
            "arrival with seed accounting"
        ),
        extra={"hosts": hosts, "arrivals": arrivals},
    )


def _bench_fleet_wave(quick: bool) -> BenchResult:
    """Admission at fleet scale: one big arrival burst, many hosts.

    Isolates the admission machinery itself — flash-cloning is on for
    *both* sides and both admit one :meth:`Fleet.place` per arrival, so
    the speedup is change-driven admission + O(Δ) accounting against
    the seed per-arrival host-list rebuild (:func:`seed_admission_mode`),
    not cloning.
    """
    from repro.fleet import Fleet
    from repro.tenancy.policy import FleetPolicies
    from repro.perfbench.legacy import seed_admission_mode
    from repro.sim.clock import Timeline
    from repro.workloads.fleet import fleet_workload

    hosts = 4 if quick else 16
    arrivals = 32 if quick else 256

    def wave() -> None:
        timeline = Timeline(seed=11, observability=False)
        fleet = Fleet(
            timeline,
            hosts=hosts,
            policies=FleetPolicies(placement="ksm-aware"),
            flash_clone=True,
        )
        workload = fleet_workload(timeline.fork_rng("bench.workload"), arrivals)
        for item in workload:
            fleet.place(item.name, item.image_id)
        fleet.settle_ksm()
        fleet.stats()

    budget = _budget(quick)
    wave()  # warm per-process state (zygote templates) before timing
    iterations, seconds = measure(wave, budget, min_iterations=2)
    with seed_admission_mode():
        base_iters, base_seconds = measure(wave, budget, min_iterations=2)
    return BenchResult(
        name="fleet_wave",
        tags=["scenario", "fleet"],
        unit="wave",
        iterations=iterations,
        seconds=seconds,
        baseline_iterations=base_iters,
        baseline_seconds=base_seconds,
        notes=(
            f"{arrivals} simultaneous arrivals across {hosts} hosts, "
            "ksm-aware, flash-clone on both sides, one place() each: "
            "change-driven admission vs seed per-arrival admission "
            "(host-list rebuilds + seed accounting sums), then "
            "settle_ksm + stats"
        ),
        extra={"hosts": hosts, "arrivals": arrivals},
    )


def _bench_fleet_shard(quick: bool) -> BenchResult:
    """The sharded scale path end to end: epoch barriers + streamed spools.

    Measures whole sharded runs — arrival placement across shard
    timelines, barrier merges, and every journal streamed to a spool on
    disk — the configuration the scale-smoke CI gate and the
    BENCH_fleet scale trajectory run.  No seed counterpart exists (the
    seed code has no sharded path), so only the live rate is recorded.
    On multi-core machines the serial run is re-measured against a
    multiprocess (``procs``) run of the same seed and the wall-clock
    ratio is recorded in ``extra`` — never gated here, because on
    single-core runners spawn overhead legitimately makes the parallel
    run slower (the byte-identity gate lives in the scale-smoke CI job
    and tests/test_fleet_parallel.py, and holds on any core count).
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
    return BenchResult(
        name="fleet_shard",
        tags=["scenario", "fleet"],
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
            "GuestMemory map/dirty/erase churn vs the seed per-page multiset",
            _bench_memory_churn,
        ),
        Bench(
            "ksm_stats",
            ["memory", "ksm"],
            "ksmd wakeup accounting vs the seed full rescan",
            _bench_ksm_stats,
        ),
        Bench(
            "onion_throughput",
            ["crypto", "tor"],
            "3-hop onion round trips vs the seed per-layer recomputation",
            _bench_onion_throughput,
        ),
        Bench(
            "poly1305",
            ["crypto"],
            "large-message MAC vs the seed per-block reduction loop",
            _bench_poly1305,
        ),
        Bench(
            "chacha20_xor",
            ["crypto"],
            "bulk stream encryption vs the scalar block function",
            _bench_chacha20_xor,
        ),
        Bench(
            "mixnet_packet",
            ["crypto", "mixnet"],
            "3-layer mix packet pump vs the seed per-packet key exchanges",
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
            "bulk cache-content draws vs the seed pure-python randbytes",
            _bench_content_draw,
        ),
        Bench(
            "nym_launch",
            ["scenario", "launch"],
            "flash-cloned nym launches vs the seed cold-boot path",
            _bench_nym_launch,
        ),
        Bench(
            "fleet_arrival",
            ["scenario", "fleet"],
            "fleet placement waves vs cold boots with seed accounting",
            _bench_fleet_arrival,
        ),
        Bench(
            "fleet_wave",
            ["scenario", "fleet"],
            "change-driven admission of a burst vs the seed per-arrival host scan",
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
        if not selected:
            tags = sorted({t for bench in BENCHES.values() for t in bench.tags})
            raise KeyError(f"no bench has tag {tag!r}; available: {', '.join(tags)}")
    return selected


def run_benches(benches: List[Bench], quick: bool) -> List[BenchResult]:
    return [bench.run(quick) for bench in benches]
