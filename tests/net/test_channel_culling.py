"""Neighbour lists in the channel's fast path.

Each sender keeps the radios that may reach carrier-sense range before
the list expires; the rest are skipped.  These tests pin when a list is
built, used, dropped and rebuilt, and that skipping never hides a
radio that the full loop would have reached.
"""

import random
from math import inf
from types import SimpleNamespace

import pytest

from repro.des import Environment
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.mobility.base import MobilityModel, StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.net.channel import NEIGHBOUR_MARGIN, WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.obs import api
from repro.perf.fastpath import FASTPATH
from repro.phy.propagation import LogNormalShadowing
from repro.phy.radio import WirelessPhy
from repro.sanitizer.runtime import Sanitizer

pytestmark = pytest.mark.skipif(
    not FASTPATH, reason="neighbour lists live in the fast path"
)

#: Frame airtime; short, so consecutive test transmissions never overlap.
AIRTIME = 1e-3


def frame():
    return Packet(
        ptype=PacketType.CBR,
        size=100,
        ip=IpHeader(src=0, dst=1),
        mac=MacHeader(src=0, dst=1),
    )


def make_phy(env, channel, mobility):
    phy = WirelessPhy(env, mobility)
    channel.attach(phy)
    return phy


def heard(phy):
    """Signals ``phy`` sensed (each arrival at or above carrier sense)."""
    return phy.busy_epoch


def send_at(env, phy, *times):
    def sender(env):
        for t in times:
            yield env.timeout(t - env.now)
            phy.transmit(frame(), AIRTIME)

    env.process(sender(env))


def neighbours(channel, sender):
    return channel._neighbours[sender][2]


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def channel(env):
    return WirelessChannel(env)


def test_far_radios_are_left_out_in_attach_order(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    far = make_phy(env, channel, StationaryMobility(2000.0, 0.0))
    near_b = make_phy(env, channel, StationaryMobility(0.0, 300.0))
    near_a = make_phy(env, channel, StationaryMobility(100.0, 0.0))
    edge = make_phy(env, channel, StationaryMobility(590.0, 0.0))
    send_at(env, tx, 0.0)
    env.run()
    # 590 m is beyond the 550 m carrier-sense range but within the margin.
    assert neighbours(channel, tx) == [near_b, near_a, edge]
    assert heard(far) == 0 and heard(edge) == 0
    assert heard(near_a) == heard(near_b) == 1
    # Stationary radios: the list never expires.
    assert channel._neighbours[tx][0] == inf


def test_list_lifetime_is_margin_over_twice_the_top_speed(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    mover = WaypointMobility(100.0, 0.0)
    mover.set_destination(5.0, 200.0, 0.0, speed=20.0)
    make_phy(env, channel, mover)
    send_at(env, tx, 0.5)
    env.run()
    assert channel._neighbours[tx][0] == 0.5 + NEIGHBOUR_MARGIN / 40.0


def test_expired_list_is_rebuilt_and_catches_an_approaching_radio(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    mover = WaypointMobility(1000.0, 0.0)
    mover.set_destination(0.0, 0.0, 0.0, speed=25.0)  # in range from ~t=18
    rx = make_phy(env, channel, mover)
    audible = []

    def sender(env):
        for _ in range(60):
            yield env.timeout(0.5)
            # What the full loop decides for this transmission.
            power = channel.propagation.rx_power(
                tx.tx_power, tx.distance_to(rx), tx.params.wavelength
            )
            audible.append(power >= rx.params.cs_threshold)
            tx.transmit(frame(), AIRTIME)

    env.process(sender(env))
    env.run()
    assert not all(audible) and any(audible)
    assert heard(rx) == sum(audible)


def test_power_recovery_after_a_droop_rebuilds_the_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    # In carrier-sense range at full power (530 < 550 m); at half power
    # the range is ~462 m, so even with the margin it is left out.
    rx = make_phy(env, channel, StationaryMobility(530.0, 0.0))
    scenario = SimpleNamespace(
        env=env,
        channel=channel,
        config=SimpleNamespace(seed=1),
        vehicles=[SimpleNamespace(node=SimpleNamespace(phy=tx))],
    )
    droop = FaultEvent("power-droop", 1.0, 1.0, target=(0,), severity=0.5)
    FaultInjector(scenario, FaultSchedule([droop])).start()
    send_at(env, tx, 1.5, 2.5)
    env.run()
    assert heard(rx) == 1  # not during the droop, again after it
    assert channel._neighbours[tx][1] == tx.params.tx_power
    assert rx in neighbours(channel, tx)


def test_a_lower_power_reuses_the_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    make_phy(env, channel, StationaryMobility(100.0, 0.0))
    send_at(env, tx, 0.0)
    env.run()
    entry = channel._neighbours[tx]
    tx.power_scale = 0.5
    send_at(env, tx, 1.0)
    env.run()
    assert channel._neighbours[tx] is entry


def test_scheduling_a_leg_drops_every_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    mover = WaypointMobility(700.0, 0.0)  # no legs yet: speed bound 0
    rx = make_phy(env, channel, mover)
    send_at(env, tx, 0.0)
    env.run()
    assert neighbours(channel, tx) == []
    assert channel._neighbours[tx][0] == inf
    mover.set_destination(env.now, 100.0, 0.0, speed=60.0)
    assert channel._neighbours == {}
    send_at(env, tx, 11.0)
    env.run()
    assert heard(rx) == 1


def test_mobility_swap_drops_every_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    old = StationaryMobility(2000.0, 0.0)
    rx = make_phy(env, channel, old)
    send_at(env, tx, 0.0)
    env.run()
    assert neighbours(channel, tx) == []
    rx.mobility = StationaryMobility(100.0, 0.0)
    assert channel._neighbours == {}
    assert old._watchers == ()
    send_at(env, tx, 1.0)
    env.run()
    assert heard(rx) == 1


def test_teleporting_a_stationary_radio_drops_every_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    rx = make_phy(env, channel, StationaryMobility(2000.0, 0.0))
    send_at(env, tx, 0.0)
    env.run()
    assert neighbours(channel, tx) == []
    rx.mobility.x = 100.0
    assert channel._neighbours == {}
    send_at(env, tx, 1.0)
    env.run()
    assert heard(rx) == 1


def test_attach_and_detach_drop_every_list(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    first = make_phy(env, channel, StationaryMobility(100.0, 0.0))
    send_at(env, tx, 0.0)
    env.run()
    late = make_phy(env, channel, StationaryMobility(0.0, 100.0))
    assert channel._neighbours == {}
    send_at(env, tx, 1.0)
    env.run()
    assert heard(late) == 1
    assert neighbours(channel, tx) == [first, late]
    channel.detach(first)
    assert channel._neighbours == {}
    assert first.mobility._watchers == ()
    send_at(env, tx, 2.0)
    env.run()
    assert neighbours(channel, tx) == [late]
    assert heard(first) == 2


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def gauss(self, mu=0.0, sigma=1.0):
        self.draws += 1
        return super().gauss(mu, sigma)


def test_stochastic_shadowing_keeps_the_full_loop(env):
    rng = _CountingRandom(3)
    channel = WirelessChannel(env, LogNormalShadowing(sigma_db=4.0, rng=rng))
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    for x in (100.0, 2000.0, 5000.0):
        make_phy(env, channel, StationaryMobility(x, 0.0))
    send_at(env, tx, 0.0, 1.0, 2.0)
    env.run()
    assert channel._neighbours == {}
    assert rng.draws == 3 * 3  # every receiver, every transmission


class _Unbounded(MobilityModel):
    """A model with no declared speed bound."""

    def __init__(self, x):
        self.x = x

    def position(self, t):
        return (self.x, 0.0)


def test_a_radio_without_a_speed_bound_disables_culling(env, channel):
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    make_phy(env, channel, StationaryMobility(2000.0, 0.0))
    make_phy(env, channel, _Unbounded(3000.0))
    send_at(env, tx, 0.0, 1.0)
    env.run()
    assert channel._neighbours == {}


def _sanitized_channel(env):
    sanitizer = Sanitizer(env, scenario_name="culling")
    api.activate(sanitizer=sanitizer)
    try:
        return WirelessChannel(env), sanitizer
    finally:
        api.deactivate()


def test_sanitize_mode_checks_every_skipped_radio(env):
    channel, sanitizer = _sanitized_channel(env)
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    make_phy(env, channel, StationaryMobility(100.0, 0.0))
    far = make_phy(env, channel, StationaryMobility(2000.0, 0.0))
    send_at(env, tx, 0.0, 1.0, 2.0)
    env.run()
    assert far not in neighbours(channel, tx)
    # Built on the first transmission, checked on the next two.
    assert sanitizer.channel_mon.culled == 2
    assert sanitizer.report.ok
    # The full walk keeps the ledger's per-receiver notes.
    assert sanitizer.ledger.notes_recorded == 3


def test_sanitize_mode_reports_a_radio_wrongly_left_out(env):
    channel, sanitizer = _sanitized_channel(env)
    tx = make_phy(env, channel, StationaryMobility(0.0, 0.0))
    rx = make_phy(env, channel, StationaryMobility(100.0, 0.0))
    channel._neighbours[tx] = (inf, tx.tx_power, [])
    send_at(env, tx, 0.0)
    env.run()
    assert heard(rx) == 1  # the full walk still delivers
    [violation] = sanitizer.report.violations
    assert violation.checker == "cull-unsound"
    assert violation.layer == "net"
