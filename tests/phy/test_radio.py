"""Unit tests for the radio transceiver: carrier sense, capture, collisions."""

import pytest

from repro.des import Environment
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.phy.radio import WirelessPhy


class RecordingMac:
    """Minimal MAC stub recording phy callbacks."""

    def __init__(self):
        self.started = []
        self.received = []
        self.failed = []

    def phy_rx_start(self, pkt):
        self.started.append(pkt)

    def phy_rx_end(self, pkt):
        self.received.append(pkt)

    def phy_rx_failed(self, pkt, reason):
        self.failed.append((pkt, reason))


def make_phy(env, channel, x, y=0.0):
    phy = WirelessPhy(env, StationaryMobility(x, y))
    phy.mac = RecordingMac()
    channel.attach(phy)
    return phy


def data_packet(size=1000):
    return Packet(
        ptype=PacketType.CBR,
        size=size,
        ip=IpHeader(src=0, dst=1),
        mac=MacHeader(src=0, dst=1),
    )


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def channel(env):
    return WirelessChannel(env)


def test_in_range_reception_succeeds(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.004)
    env.run()
    assert len(rx.mac.received) == 1
    assert rx.mac.received[0].uid == pkt.uid
    assert rx.frames_received == 1


def test_out_of_range_reception_never_arrives(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 600.0)  # beyond the 550 m CS range
    tx.transmit(data_packet(), duration=0.004)
    env.run()
    assert rx.mac.received == []
    assert rx.mac.failed == []


def test_sensing_zone_signal_is_not_decoded(env, channel):
    """Between 250 m and 550 m: medium busy but frame not decodable."""
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 400.0)
    tx.transmit(data_packet(), duration=0.004)
    env.step()  # process transmit-side event scheduling
    env.run(until=0.002)
    assert rx.medium_busy
    env.run()
    assert rx.mac.received == []


def test_transmitting_state_and_half_duplex(env, channel):
    tx = make_phy(env, channel, 0.0)
    make_phy(env, channel, 100.0)
    tx.transmit(data_packet(), duration=0.01)
    assert tx.transmitting
    with pytest.raises(RuntimeError):
        tx.transmit(data_packet(), duration=0.01)
    env.run()
    assert not tx.transmitting


def test_transmit_requires_channel(env):
    phy = WirelessPhy(env, StationaryMobility(0, 0))
    with pytest.raises(RuntimeError):
        phy.transmit(data_packet(), 0.001)


def test_collision_corrupts_both_frames(env, channel):
    """Two equal-power simultaneous frames destroy each other."""
    tx1 = make_phy(env, channel, 0.0)
    tx2 = make_phy(env, channel, 200.0)
    rx = make_phy(env, channel, 100.0)  # equidistant: equal powers
    tx1.transmit(data_packet(), duration=0.004)
    tx2.transmit(data_packet(), duration=0.004)
    env.run()
    assert rx.mac.received == []
    assert len(rx.mac.failed) >= 1
    assert rx.frames_corrupted >= 1


def test_capture_stronger_frame_survives(env, channel):
    """A much closer transmitter captures the receiver."""
    far = make_phy(env, channel, 240.0)
    near = make_phy(env, channel, 26.0)
    rx = make_phy(env, channel, 0.0)
    far_pkt, near_pkt = data_packet(), data_packet()
    far.transmit(far_pkt, duration=0.004)
    near.transmit(near_pkt, duration=0.004)
    env.run()
    received_uids = [p.uid for p in rx.mac.received]
    assert near_pkt.uid in received_uids
    assert far_pkt.uid not in received_uids


def test_later_stronger_frame_captures_receiver(env, channel):
    """Capture works even when the strong frame starts second."""
    far = make_phy(env, channel, 240.0)
    near = make_phy(env, channel, 26.0)
    rx = make_phy(env, channel, 0.0)
    far_pkt, near_pkt = data_packet(), data_packet()
    far.transmit(far_pkt, duration=0.01)

    def late(env):
        yield env.timeout(0.002)
        near.transmit(near_pkt, duration=0.004)

    env.process(late(env))
    env.run()
    assert [p.uid for p in rx.mac.received] == [near_pkt.uid]


def test_reception_aborted_by_own_transmission(env, channel):
    """Starting to transmit stomps an in-progress reception."""
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.01)

    def preempt(env):
        yield env.timeout(0.002)
        rx.transmit(data_packet(), duration=0.001)

    env.process(preempt(env))
    env.run()
    assert pkt.uid not in [p.uid for p in rx.mac.received]


def test_wait_idle_fires_immediately_when_idle(env, channel):
    phy = make_phy(env, channel, 0.0)
    assert phy.wait_idle().triggered


def test_wait_idle_fires_when_signal_ends(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    waited = []

    def waiter(env):
        yield env.timeout(0.001)  # mid-transmission
        yield rx.wait_idle()
        waited.append(env.now)

    tx.transmit(data_packet(), duration=0.004)
    env.process(waiter(env))
    env.run()
    assert len(waited) == 1
    assert waited[0] == pytest.approx(0.004, abs=1e-5)


def test_busy_epoch_increments_on_activity(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    before = rx.busy_epoch
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert rx.busy_epoch == before + 1
    assert tx.busy_epoch >= before + 1  # its own tx counts too


def test_channel_detach_stops_delivery(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    channel.detach(rx)
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert rx.mac.received == []


def test_channel_rejects_double_attach(env, channel):
    phy = make_phy(env, channel, 0.0)
    with pytest.raises(ValueError):
        channel.attach(phy)


def test_channel_counts_transmissions(env, channel):
    tx = make_phy(env, channel, 0.0)
    make_phy(env, channel, 100.0)
    tx.transmit(data_packet(), duration=0.001)
    env.run()
    assert channel.transmissions == 1


def test_receivers_get_independent_copies(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx1 = make_phy(env, channel, 100.0)
    rx2 = make_phy(env, channel, 150.0)
    pkt = data_packet()
    tx.transmit(pkt, duration=0.004)
    env.run()
    got1 = rx1.mac.received[0]
    got2 = rx2.mac.received[0]
    assert got1 is not got2
    assert got1 is not pkt
    got1.ip.ttl = 1
    assert got2.ip.ttl == 32


def test_propagation_delay_orders_reception(env, channel):
    """The nearer receiver hears the frame (start) earlier."""
    tx = make_phy(env, channel, 0.0)
    rx_near = make_phy(env, channel, 30.0)
    rx_far = make_phy(env, channel, 240.0)
    times = {}

    class TimedMac(RecordingMac):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def phy_rx_start(self, pkt):
            times[self.name] = env.now

    rx_near.mac = TimedMac("near")
    rx_far.mac = TimedMac("far")
    tx.transmit(data_packet(), duration=0.004)
    env.run()
    assert times["near"] < times["far"]
