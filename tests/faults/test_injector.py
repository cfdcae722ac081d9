"""FaultInjector semantics and fault-injected trial determinism."""

from __future__ import annotations

import math

import pytest

from repro.core.analysis import assess_resilience
from repro.core.runner import run_trial
from repro.core.scenario import EblScenario
from repro.core.trials import TrialConfig
from repro.faults.schedule import FaultEvent, FaultPlan, FaultSchedule


def small_config(**overrides) -> TrialConfig:
    base = dict(
        name="fault-test",
        duration=5.0,
        enable_trace=False,
        track_energy=False,
    )
    base.update(overrides)
    return TrialConfig(**base)


def scenario_with(events, **overrides) -> EblScenario:
    return EblScenario(
        small_config(**overrides), fault_schedule=FaultSchedule(events)
    )


class TestNodeCrash:
    EVENTS = [
        FaultEvent("node-crash", start=1.0, duration=2.0, target=(1,))
    ]

    def test_phy_down_during_window_and_back_up_after(self):
        scenario = scenario_with(self.EVENTS)
        node = scenario.vehicles[1].node
        scenario.start()
        scenario.env.run(until=2.0)
        assert node.phy.up is False
        scenario.env.run(until=5.0)
        assert node.phy.up is True

    def test_log_pairs_inject_with_recover(self):
        scenario = scenario_with(self.EVENTS)
        scenario.run()
        log = scenario.fault_injector.log
        assert [(e.action, e.time) for e in log] == [
            ("inject", pytest.approx(1.0)),
            ("recover", pytest.approx(3.0)),
        ]
        assert all(e.kind == "node-crash" and e.target == (1,) for e in log)

    def test_downed_radio_drops_transmissions(self):
        from repro.net.headers import IpHeader
        from repro.net.packet import Packet, PacketType

        scenario = scenario_with(self.EVENTS)
        phy = scenario.vehicles[1].node.phy
        scenario.start()
        scenario.env.run(until=2.0)  # mid-crash
        sent_before = phy.frames_sent
        pkt = Packet(PacketType.UDP, 100, IpHeader(src=1, dst=0))
        phy.transmit(pkt, duration=0.001)
        assert phy.frames_dropped_down == 1
        assert phy.frames_sent == sent_before  # never hit the air

    def test_aodv_state_reset_counted(self):
        scenario = scenario_with(self.EVENTS, routing="aodv")
        scenario.run()
        stats = scenario.vehicles[1].node.routing.stats
        assert stats.state_resets == 1


class TestLinkOutage:
    EVENTS = [
        FaultEvent("link-outage", start=1.0, duration=2.0, target=(0, 1))
    ]

    def test_pair_blocked_both_directions_then_unblocked(self):
        scenario = scenario_with(self.EVENTS)
        phy_a = scenario.vehicles[0].node.phy
        phy_b = scenario.vehicles[1].node.phy
        scenario.start()
        scenario.env.run(until=2.0)
        blocked = scenario.channel._blocked
        assert (phy_a, phy_b) in blocked and (phy_b, phy_a) in blocked
        scenario.env.run(until=5.0)
        assert not scenario.channel._blocked


class TestOverlappingNodeCrashes:
    """Crash windows on one node may overlap; recovery is refcounted."""

    EVENTS = [
        FaultEvent("node-crash", start=1.0, duration=3.0, target=(1,)),
        FaultEvent("node-crash", start=2.0, duration=1.0, target=(1,)),
    ]

    def test_inner_recovery_does_not_resurrect_radio(self):
        scenario = scenario_with(self.EVENTS)
        phy = scenario.vehicles[1].node.phy
        scenario.start()
        # t=3.5: the inner window [2, 3) has recovered, the outer
        # window [1, 4) is still open — the radio must stay down.
        scenario.env.run(until=3.5)
        assert phy.up is False
        assert phy._down_count == 1
        scenario.env.run(until=5.0)
        assert phy.up is True
        assert phy._down_count == 0

    def test_each_crash_wipes_routing_state(self):
        scenario = scenario_with(self.EVENTS, routing="aodv")
        scenario.run()
        assert scenario.vehicles[1].node.routing.stats.state_resets == 2

    def test_overlapped_crash_trial_is_sanitizer_clean(self):
        from repro.faults.schedule import FaultSchedule

        config = small_config(sanitize=True, routing="aodv")
        scenario = EblScenario(
            config, fault_schedule=FaultSchedule(self.EVENTS)
        )
        scenario.run()
        report = scenario.sanitizer.finalize(scenario)
        assert report.ok, report.render()


class TestCrashDuringRebootWindow:
    """A node re-crashing the instant (and just after) it reboots.

    AODV recovery bumps the sequence number (RFC 3561 §6.13 spirit);
    a crash landing inside that reboot churn must wipe state again and
    bump again on its own recovery — never double-free the radio.
    """

    EVENTS = [
        FaultEvent("node-crash", start=1.0, duration=1.0, target=(1,)),
        # Starts exactly at the first event's recovery instant.
        FaultEvent("node-crash", start=2.0, duration=1.0, target=(1,)),
    ]

    def test_radio_down_through_back_to_back_windows(self):
        scenario = scenario_with(self.EVENTS)
        phy = scenario.vehicles[1].node.phy
        scenario.start()
        scenario.env.run(until=2.5)  # inside the second window
        assert phy.up is False
        scenario.env.run(until=5.0)
        assert phy.up is True
        assert phy._down_count == 0

    def test_seqno_bumped_once_per_reboot(self):
        scenario = scenario_with(self.EVENTS, routing="aodv")
        routing = scenario.vehicles[1].node.routing
        seqno_before = routing.seqno
        scenario.run()
        assert routing.seqno == seqno_before + 2
        assert routing.stats.state_resets == 2

    def test_log_interleaves_inject_recover_pairs(self):
        scenario = scenario_with(self.EVENTS)
        scenario.run()
        actions = [(e.action, e.time) for e in scenario.fault_injector.log]
        # Deterministic FIFO tie-break at t=2.0: the second crash's onset
        # timer was scheduled before the first crash's recovery timer, so
        # the re-crash lands *before* the reboot completes — the radio
        # refcount (2 -> 1) is what keeps the node down through it.
        assert actions == [
            ("inject", pytest.approx(1.0)),
            ("inject", pytest.approx(2.0)),
            ("recover", pytest.approx(2.0)),
            ("recover", pytest.approx(3.0)),
        ]


class TestOverlappingLinkOutages:
    """Two outage windows on the same link: blocking is refcounted, so
    the inner window's recovery must not resurrect the link early."""

    EVENTS = [
        FaultEvent("link-outage", start=1.0, duration=3.0, target=(0, 1)),
        FaultEvent("link-outage", start=2.0, duration=1.0, target=(0, 1)),
    ]

    def test_inner_recovery_keeps_link_blocked(self):
        scenario = scenario_with(self.EVENTS)
        phy_a = scenario.vehicles[0].node.phy
        phy_b = scenario.vehicles[1].node.phy
        scenario.start()
        scenario.env.run(until=2.5)  # both windows open
        assert scenario.channel._blocked[(phy_a, phy_b)] == 2
        assert scenario.channel._blocked[(phy_b, phy_a)] == 2
        # t=3.5: inner window recovered, outer still open.
        scenario.env.run(until=3.5)
        assert scenario.channel._blocked[(phy_a, phy_b)] == 1
        assert scenario.channel._blocked[(phy_b, phy_a)] == 1
        scenario.env.run(until=5.0)
        assert not scenario.channel._blocked

    def test_blocked_frames_attributed_as_link_blocked_mid_overlap(self):
        from repro.faults.schedule import FaultSchedule
        from repro.net.headers import IpHeader
        from repro.net.packet import Packet, PacketType

        scenario = EblScenario(
            small_config(sanitize=True),
            fault_schedule=FaultSchedule(self.EVENTS),
        )
        phy_a = scenario.vehicles[0].node.phy
        scenario.start()
        scenario.env.run(until=3.5)  # inner recovered, link still out
        pkt = Packet(PacketType.UDP, 100, IpHeader(src=0, dst=1))
        phy_a.transmit(pkt, duration=0.001)
        scenario.env.run(until=3.6)
        # The copy offered to the blocked peer never went on the air;
        # the conservation ledger attributes it instead of leaking it.
        record = scenario.sanitizer.ledger._records[pkt.uid]
        assert "link-blocked" in [reason for reason, _ in record.notes]

    def test_unblock_never_goes_negative(self):
        scenario = scenario_with(self.EVENTS)
        phy_a = scenario.vehicles[0].node.phy
        phy_b = scenario.vehicles[1].node.phy
        scenario.run()
        # A spurious extra unblock must stay a no-op, not underflow.
        scenario.channel.unblock_link(phy_a, phy_b)
        assert not scenario.channel._blocked


class TestChannelDegradation:
    def test_loss_rate_set_then_cleared(self):
        events = [
            FaultEvent(
                "channel-degradation",
                start=1.0,
                duration=2.0,
                severity=0.5,
            )
        ]
        scenario = scenario_with(events)
        scenario.start()
        scenario.env.run(until=2.0)
        assert scenario.channel.loss_rate == pytest.approx(0.5)
        scenario.env.run(until=5.0)
        assert scenario.channel.loss_rate == 0.0

    def test_heavy_loss_actually_drops_frames(self):
        events = [
            FaultEvent(
                "channel-degradation",
                start=0.5,
                duration=4.0,
                severity=0.9,
            )
        ]
        scenario = scenario_with(events)
        scenario.run()
        assert scenario.channel.degraded_losses > 0

    def test_overlapping_windows_do_not_clear_early(self):
        events = [
            FaultEvent(
                "channel-degradation", start=1.0, duration=3.0, severity=0.3
            ),
            FaultEvent(
                "channel-degradation", start=2.0, duration=0.5, severity=0.6
            ),
        ]
        scenario = scenario_with(events)
        scenario.start()
        # The inner window has ended; the outer one is still open.
        scenario.env.run(until=2.8)
        assert scenario.channel.loss_rate > 0.0
        scenario.env.run(until=5.0)
        assert scenario.channel.loss_rate == 0.0


class TestPowerDroop:
    def test_tx_power_scaled_then_restored(self):
        events = [
            FaultEvent(
                "power-droop", start=1.0, duration=2.0, target=(2,),
                severity=0.25,
            )
        ]
        scenario = scenario_with(events)
        phy = scenario.vehicles[2].node.phy
        nominal = phy.tx_power
        scenario.start()
        scenario.env.run(until=2.0)
        assert phy.tx_power == pytest.approx(0.25 * nominal)
        scenario.env.run(until=5.0)
        assert phy.tx_power == pytest.approx(nominal)


class TestInjectorLifecycle:
    def test_start_is_idempotent(self):
        scenario = scenario_with(TestNodeCrash.EVENTS)
        scenario.start()
        scenario.fault_injector.start()  # second call must not double-inject
        scenario.env.run(until=5.0)
        assert len(scenario.fault_injector.log) == 2

    def test_injections_helper_filters_inject_entries(self):
        scenario = scenario_with(TestNodeCrash.EVENTS)
        scenario.run()
        injections = scenario.fault_injector.injections()
        assert [e.action for e in injections] == ["inject"]


class TestPlanWiring:
    def test_config_fault_plan_builds_schedule(self):
        config = small_config(
            fault_plan=FaultPlan(node_crashes=1, degradations=1)
        )
        scenario = EblScenario(config)
        assert scenario.fault_schedule is not None
        assert len(scenario.fault_schedule) == 2
        assert scenario.fault_injector is not None

    def test_no_plan_no_injector(self):
        scenario = EblScenario(small_config())
        assert scenario.fault_schedule is None
        assert scenario.fault_injector is None

    def test_explicit_schedule_wins_over_plan(self):
        config = small_config(fault_plan=FaultPlan(node_crashes=3))
        schedule = FaultSchedule(TestNodeCrash.EVENTS)
        scenario = EblScenario(config, fault_schedule=schedule)
        assert scenario.fault_schedule is schedule


class TestDeterminism:
    """ISSUE acceptance: same seed + same schedule => identical metrics."""

    CONFIG = dict(
        duration=14.0,
        seed=11,
        fault_plan=FaultPlan(
            node_crashes=1, link_outages=1, degradations=1
        ),
    )

    @staticmethod
    def fingerprint(result):
        samples = tuple(
            (flow.src, flow.dst, sample.sent_at, sample.received_at)
            for platoon_id in (1, 2)
            for flow in result.platoon(platoon_id).flows
            for sample in flow.delays
        )
        log = tuple(
            (e.time, e.kind, e.action, e.target, e.severity)
            for e in result.fault_log
        )
        return samples, log

    def test_bit_identical_across_runs(self):
        first = run_trial(small_config(**self.CONFIG))
        second = run_trial(small_config(**self.CONFIG))

        assert self.fingerprint(first) == self.fingerprint(second)

        report_a = assess_resilience(first, platoon_id=2)
        report_b = assess_resilience(second, platoon_id=2)
        assert report_a.outcomes == report_b.outcomes
        assert report_a.recovery == report_b.recovery
        assert (
            report_a.delivery_probability == report_b.delivery_probability
        )

    def test_different_seed_changes_fault_times(self):
        base = dict(self.CONFIG)
        base["seed"] = 12
        first = run_trial(small_config(**self.CONFIG))
        second = run_trial(small_config(**base))
        times_a = [e.time for e in first.fault_log]
        times_b = [e.time for e in second.fault_log]
        assert times_a != times_b


class TestResilienceOfTrial:
    def test_crashing_relay_still_yields_report(self):
        config = small_config(
            duration=14.0,
            fault_plan=FaultPlan(node_crashes=2, degradations=1),
        )
        result = run_trial(config)
        report = assess_resilience(result, platoon_id=2)
        assert 0.0 <= report.delivery_probability <= 1.0
        assert len(report.outcomes) == config.platoon_size - 1
        for outcome in report.outcomes:
            if outcome.arrived:
                assert math.isfinite(outcome.delay)
