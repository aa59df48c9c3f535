"""Watermark-driven fleet autoscaling.

The autoscaler is a periodic timeline tick: every ``interval_s`` it
compares cluster memory utilisation (used / total across live,
non-draining hosts) against the policy watermarks and either adds hosts
or drains-and-removes the emptiest one.  It runs *inside* a timeline
callback, so every action it takes must complete without advancing the
clock — host adds are instant, and scale-down drains use the fleet's
non-advancing evacuation path.

The tick is only scheduled when an :class:`AutoscalePolicy` is
configured, so fleets without autoscaling keep byte-identical journals.
``stop()`` cancels the pending tick; scenarios call it before settling
so the timeline can go quiescent.
"""

from __future__ import annotations

from typing import Optional

from repro.tenancy.policy import AutoscalePolicy


class Autoscaler:
    """Periodic scale-up/scale-down driver for one fleet."""

    def __init__(self, fleet, policy: AutoscalePolicy) -> None:
        self.fleet = fleet
        self.policy = policy
        self.timeline = fleet.timeline
        self.scale_ups = 0
        self.scale_downs = 0
        self._tick = None
        self._active = False

    def start(self) -> "Autoscaler":
        """Schedule the first tick; idempotent."""
        if not self._active:
            self._active = True
            self._schedule()
        return self

    def stop(self) -> None:
        """Cancel the pending tick so the timeline can go quiescent."""
        self._active = False
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None

    def _schedule(self) -> None:
        self._tick = self.timeline.after(self.policy.interval_s, self._on_tick)

    def _on_tick(self) -> None:
        self._tick = None
        if not self._active:
            return
        self.evaluate()
        if self._active:
            self._schedule()

    # -- one scaling decision ---------------------------------------------

    def utilization(self) -> Optional[float]:
        """Cluster memory utilisation over serving hosts, or None if empty."""
        used = total = 0
        for host in self.fleet.serving_hosts():
            used += host.used_bytes
            total += host.total_bytes
        if total == 0:
            return None
        return used / total

    def evaluate(self) -> Optional[str]:
        """Apply one scaling decision; returns "up", "down", or None."""
        policy = self.policy
        hosts = len(self.fleet.serving_hosts())
        pressure = self.utilization()
        if pressure is None:
            return None
        obs = self.timeline.obs
        if pressure >= policy.scale_up_pressure and hosts < policy.max_hosts:
            step = min(policy.step, policy.max_hosts - hosts)
            added = self.fleet.add_hosts(step)
            self.scale_ups += 1
            obs.metrics.counter("tenancy.scale_up").inc()
            obs.event(
                "tenancy.scale_up",
                hosts=[h.host_id for h in added],
                pressure=round(pressure, 6),
            )
            return "up"
        if pressure <= policy.scale_down_pressure and hosts > policy.min_hosts:
            victim = self._emptiest()
            if victim is None:
                return None
            # Non-advancing drain: we are inside a timeline callback.
            self.fleet.drain_host(victim, advance=False, remove=True)
            self.scale_downs += 1
            obs.metrics.counter("tenancy.scale_down").inc()
            obs.event(
                "tenancy.scale_down",
                host=victim,
                pressure=round(pressure, 6),
            )
            return "down"
        return None

    def _emptiest(self) -> Optional[str]:
        """The serving host with the fewest residents (ties: lowest id),
        skipping hosts a placement is still booting on."""
        best = None
        best_key = None
        for host in self.fleet.serving_hosts():
            if host.booting:
                continue
            key = (len(host.residents), host.host_id)
            if best_key is None or key < best_key:
                best, best_key = host.host_id, key
        return best
