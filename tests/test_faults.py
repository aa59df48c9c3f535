"""repro.faults: retry/backoff machinery, fault plans, and the injector."""

import pytest

from repro.api import NymixSession
from repro.errors import (
    CircuitError,
    NetworkError,
    RetryExhaustedError,
    SimulationError,
    TransientCloudError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    retry_call,
)
from repro.sim import Timeline

from tests.gc_counts import cyclic_garbage


@pytest.fixture
def timeline():
    return Timeline(seed=42)


class TestRetryPolicy:
    def test_capped_exponential_sequence(self):
        policy = RetryPolicy(base_backoff_s=0.5, backoff_factor=2.0, max_backoff_s=30.0)
        assert [policy.backoff_s(n) for n in range(1, 9)] == [
            0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0
        ]

    def test_rejects_bad_shapes(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(SimulationError):
            RetryPolicy(base_backoff_s=-1.0)
        with pytest.raises(SimulationError):
            RetryPolicy().backoff_s(0)


class TestRetryCall:
    def test_success_first_try_no_metrics(self, timeline):
        result = retry_call(
            timeline, lambda: 7, policy=RetryPolicy(),
            retryable=NetworkError, site="test.op",
        )
        assert result == 7
        assert "retry.attempts" not in timeline.obs.metrics.snapshot()
        assert timeline.now == 0.0

    def test_retries_sleep_backoff_and_recover(self, timeline):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise NetworkError("transient")
            return "done"

        result = retry_call(
            timeline, flaky,
            policy=RetryPolicy(base_backoff_s=1.0, backoff_factor=2.0),
            retryable=NetworkError, site="test.op",
        )
        assert result == "done"
        assert calls["n"] == 3
        assert timeline.now == pytest.approx(1.0 + 2.0)  # two backoffs
        snapshot = timeline.obs.metrics.snapshot()
        assert snapshot["retry.attempts"] == 2
        assert snapshot["retry.backoff_s"]["count"] == 2
        names = [e.name for e in timeline.obs.journal]
        assert names.count("retry.backoff") == 2
        assert "retry.recovered" in names

    def test_exhaustion_raises_retry_exhausted(self, timeline):
        def always_fails():
            raise NetworkError("permanent")

        with pytest.raises(RetryExhaustedError):
            retry_call(
                timeline, always_fails,
                policy=RetryPolicy(max_attempts=3, base_backoff_s=0.1),
                retryable=NetworkError, site="test.op",
            )
        snapshot = timeline.obs.metrics.snapshot()
        assert snapshot["retry.exhausted"] == 1
        assert snapshot["retry.attempts"] == 3

    def test_reraise_preserves_original_type(self, timeline):
        def always_fails():
            raise CircuitError("relay gone")

        with pytest.raises(CircuitError):
            retry_call(
                timeline, always_fails,
                policy=RetryPolicy(max_attempts=2, base_backoff_s=0.1),
                retryable=CircuitError, site="test.op", reraise=True,
            )

    def test_non_retryable_propagates_immediately(self, timeline):
        calls = {"n": 0}

        def wrong_error():
            calls["n"] += 1
            raise ValueError("not ours")

        with pytest.raises(ValueError):
            retry_call(
                timeline, wrong_error, policy=RetryPolicy(),
                retryable=NetworkError, site="test.op",
            )
        assert calls["n"] == 1

    def test_on_retry_runs_after_backoff(self, timeline):
        seen = []

        def flaky():
            if not seen:
                raise NetworkError("once")
            return "ok"

        def hook(failures, exc):
            seen.append((failures, timeline.now))

        retry_call(
            timeline, flaky, policy=RetryPolicy(base_backoff_s=2.0),
            retryable=NetworkError, site="test.op", on_retry=hook,
        )
        assert seen == [(1, 2.0)]


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            FaultSpec(at_s=50.0, kind="vmm.crash"),
            FaultSpec(at_s=5.0, kind="net.link_flap", param=3.0),
        ])
        assert [e.kind for e in plan] == ["net.link_flap", "vmm.crash"]

    def test_rejects_unknown_kind_and_negative_time(self):
        with pytest.raises(SimulationError):
            FaultSpec(at_s=1.0, kind="bogus.kind")
        with pytest.raises(SimulationError):
            FaultSpec(at_s=-1.0, kind="vmm.crash")

    def test_seeded_plan_is_deterministic(self, timeline):
        a = FaultPlan.seeded(timeline.fork_rng("plan"), 300.0)
        b = FaultPlan.seeded(timeline.fork_rng("plan"), 300.0)
        assert [e.export() for e in a] == [e.export() for e in b]
        other = FaultPlan.seeded(timeline.fork_rng("other"), 300.0)
        assert [e.export() for e in a] != [e.export() for e in other]

    def test_seeded_counts_and_window(self, timeline):
        plan = FaultPlan.seeded(
            timeline.fork_rng("plan"), 100.0,
            relay_churns=2, link_flaps=3, vm_crashes=1,
            upload_failures=1, download_failures=1,
        )
        kinds = [e.kind for e in plan]
        assert kinds.count("tor.relay_churn") == 2
        assert kinds.count("net.link_flap") == 3
        assert kinds.count("vmm.crash") == 1
        assert all(0 <= e.at_s <= 100.0 for e in plan)
        # inline faults arm early
        for e in plan.by_kind("cloud.upload") + plan.by_kind("cloud.download"):
            assert e.at_s <= 10.0


class TestInjector:
    def test_a_fresh_timeline_carries_an_unarmed_inert_injector(self, timeline):
        assert isinstance(timeline.faults, FaultInjector)
        assert not timeline.faults.armed
        assert timeline.faults.take("cloud.upload") is None
        timeline.faults.maybe_fail("cloud.upload")  # no-op
        assert timeline.faults.injected == []
        assert len(timeline.events) == 0
        assert timeline.obs.journal.export_jsonl() == ""

    def test_inline_fault_armed_then_consumed(self, timeline):
        plan = FaultPlan([FaultSpec(at_s=10.0, kind="cloud.upload", param=0.4)])
        injector = timeline.faults.arm(plan)
        assert injector is timeline.faults and injector.armed
        assert injector.take("cloud.upload") is None  # not yet fired
        timeline.sleep(11.0)
        spec = injector.take("cloud.upload")
        assert spec is not None and spec.param == 0.4
        assert injector.take("cloud.upload") is None  # consumed

    def test_maybe_fail_raises_site_error(self, timeline):
        plan = FaultPlan([
            FaultSpec(at_s=0.0, kind="cloud.upload"),
            FaultSpec(at_s=0.0, kind="tor.circuit_build"),
        ])
        injector = timeline.faults.arm(plan)
        timeline.sleep(1.0)
        with pytest.raises(TransientCloudError):
            injector.maybe_fail("cloud.upload")
        with pytest.raises(CircuitError):
            injector.maybe_fail("tor.circuit_build")
        injector.maybe_fail("cloud.upload")  # queue drained: no-op

    def test_injection_is_observable(self, timeline):
        plan = FaultPlan([FaultSpec(at_s=5.0, kind="cloud.upload")])
        timeline.faults.arm(plan)
        timeline.sleep(6.0)
        assert timeline.obs.metrics.snapshot()["faults.injected"] == 1
        names = [e.name for e in timeline.obs.journal]
        assert "faults.armed" in names
        assert "faults.injected" in names

    def test_an_armed_plan_leaves_no_cycle(self):
        # The injector reaches the queue only weakly, so an armed fault's
        # pending callback closes no cycle back to the injector.
        def dropped_timeline_with_an_armed_plan():
            timeline = Timeline(seed=1)
            timeline.faults.arm(
                FaultPlan([FaultSpec(at_s=10.0, kind="cloud.upload")])
            )

        assert cyclic_garbage(dropped_timeline_with_an_armed_plan) == 0

    def test_a_session_armed_as_its_own_manager_leaves_no_cycle(self):
        # The injector holds its manager only weakly, so a session armed
        # with itself as the manager of a timed plan closes no cycle
        # (injector -> manager -> timeline -> injector).
        def dropped_armed_session():
            nx = NymixSession(seed=1)
            injector = nx.timeline.faults.arm(
                FaultPlan([
                    FaultSpec(at_s=10.0, kind="vmm.crash"),
                    FaultSpec(at_s=20.0, kind="cloud.upload"),
                ]),
                nx,
            )
            assert injector.manager is nx

        assert cyclic_garbage(dropped_armed_session) == 0

    def test_double_arm_rejected(self, timeline):
        timeline.faults.arm(FaultPlan([]))
        with pytest.raises(SimulationError):
            timeline.faults.arm(FaultPlan([]))


class TestTimedFaultsAgainstManager:
    def test_vm_crash_and_link_flap_hit_named_nymbox(self, manager):
        nymbox = manager.create_nym(name="victim")
        plan = FaultPlan([
            FaultSpec(at_s=1.0, kind="net.link_flap", target="victim", param=4.0),
            FaultSpec(at_s=2.0, kind="vmm.crash", target="victim"),
        ])
        manager.timeline.faults.arm(plan, manager)
        manager.timeline.sleep(1.5)
        assert not nymbox.wire.up
        manager.timeline.sleep(1.0)
        assert nymbox.crashed
        # the flap recovery still fires on schedule
        manager.timeline.sleep(3.0)
        assert nymbox.wire.up

    def test_relay_churn_removes_current_exit(self, manager):
        nymbox = manager.create_nym(name="churned")
        tor = nymbox.anonymizer
        exit_nick = tor.current_circuit.exit.descriptor.nickname
        plan = FaultPlan([FaultSpec(at_s=1.0, kind="tor.relay_churn")])
        injector = manager.timeline.faults.arm(plan, manager)
        manager.timeline.sleep(2.0)
        assert injector.injected[0]["outcome"] == "churned"
        assert injector.injected[0]["target"] == exit_nick
        consensus = manager.directory.consensus(manager.timeline.now)
        assert exit_nick not in [d.nickname for d in consensus.descriptors]
        assert not tor._current.usable
