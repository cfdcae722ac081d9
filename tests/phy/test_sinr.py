"""Tests for the cumulative-SINR reception mode."""

import pytest

from repro.des import Environment
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.phy.radio import RadioParams, WirelessPhy


class RecordingMac:
    def __init__(self):
        self.received = []
        self.failed = []

    def phy_rx_start(self, pkt):
        pass

    def phy_rx_end(self, pkt):
        self.received.append(pkt)

    def phy_rx_failed(self, pkt, reason):
        self.failed.append((pkt, reason))


def make_phy(env, channel, x, sinr=True):
    params = RadioParams(sinr_mode=sinr)
    phy = WirelessPhy(env, StationaryMobility(x, 0.0), params=params)
    phy.mac = RecordingMac()
    channel.attach(phy)
    return phy


def pkt(size=1000):
    return Packet(ptype=PacketType.CBR, size=size,
                  ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1))


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def channel(env):
    return WirelessChannel(env)


def test_clean_reception_in_sinr_mode(env, channel):
    tx = make_phy(env, channel, 0.0)
    rx = make_phy(env, channel, 100.0)
    tx.transmit(pkt(), 0.004)
    env.run()
    assert len(rx.mac.received) == 1


def test_strong_interferer_corrupts_decode(env, channel):
    """An interferer with comparable power at the receiver destroys the
    frame (SINR < 10 dB)."""
    tx = make_phy(env, channel, 0.0)
    jammer = make_phy(env, channel, 200.0)
    rx = make_phy(env, channel, 100.0)  # equidistant: equal powers
    tx.transmit(pkt(), 0.01)

    def jam(env):
        yield env.timeout(0.002)
        jammer.transmit(pkt(), 0.004)

    env.process(jam(env))
    env.run()
    assert rx.mac.received == []
    assert rx.mac.failed


def test_weak_interferer_is_tolerated(env, channel):
    """A far-away interferer leaves SINR above threshold: the frame
    survives in SINR mode (pairwise capture would agree here)."""
    tx = make_phy(env, channel, 90.0)      # 10 m from rx
    far = make_phy(env, channel, 600.0)    # 500 m from rx — weak at rx
    rx = make_phy(env, channel, 100.0)
    tx.transmit(pkt(), 0.01)

    def jam(env):
        yield env.timeout(0.002)
        far.transmit(pkt(), 0.004)

    env.process(jam(env))
    env.run()
    received_uids = [p.uid for p in rx.mac.received]
    assert len(received_uids) == 1


def test_many_weak_interferers_accumulate(env, channel):
    """Individually tolerable interferers jointly push SINR below the
    threshold — the effect pairwise capture cannot express."""

    def run(n_interferers, sinr_mode):
        env = Environment()
        channel = WirelessChannel(env)
        tx = make_phy(env, channel, 60.0, sinr=sinr_mode)   # 40 m from rx
        rx = make_phy(env, channel, 100.0, sinr=sinr_mode)
        jammers = [
            make_phy(env, channel, 100.0 + 160.0 + 5.0 * i, sinr=sinr_mode)
            for i in range(n_interferers)
        ]
        tx.transmit(pkt(), 0.01)

        def jam(env):
            yield env.timeout(0.001)
            for jammer in jammers:
                jammer.transmit(pkt(), 0.008)

        env.process(jam(env))
        env.run()
        return len(rx.mac.received)

    # With zero interferers the frame always survives.
    assert run(0, sinr_mode=True) == 1
    # Each ~160-215 m interferer is individually ~18 dB down (survives),
    # but a crowd of them sums above the -10 dB margin.
    assert run(12, sinr_mode=True) == 0
    # Pairwise capture mode shrugs the same crowd off — documenting the
    # fidelity difference between the two models.
    assert run(12, sinr_mode=False) == 1


def test_receiver_stays_locked_on_first_frame(env, channel):
    """In SINR mode a later (even stronger) frame is interference, not a
    capture opportunity."""
    far = make_phy(env, channel, 240.0)
    near = make_phy(env, channel, 26.0)
    rx = make_phy(env, channel, 0.0)
    far_pkt, near_pkt = pkt(), pkt()
    far.transmit(far_pkt, 0.01)

    def late(env):
        yield env.timeout(0.002)
        near.transmit(near_pkt, 0.004)

    env.process(late(env))
    env.run()
    received = [p.uid for p in rx.mac.received]
    assert near_pkt.uid not in received  # no mid-frame re-lock
    # The far frame was swamped by the near one: also corrupted.
    assert far_pkt.uid not in received


def test_noise_floor_blocks_marginal_signals(env, channel):
    """A decodable-power signal fails if the noise floor alone pushes
    SINR under threshold."""
    env2 = Environment()
    channel2 = WirelessChannel(env2)
    params = RadioParams(sinr_mode=True, noise_floor=1e-10)
    tx = WirelessPhy(env2, StationaryMobility(0.0, 0.0), params=params)
    rx = WirelessPhy(env2, StationaryMobility(240.0, 0.0), params=params)
    tx.mac, rx.mac = RecordingMac(), RecordingMac()
    channel2.attach(tx)
    channel2.attach(rx)
    # At 240 m, rx power ≈ 4.3e-10 W: above rx_threshold but barely 4.3x
    # the inflated noise floor — below the 10x SINR threshold.
    tx.transmit(pkt(), 0.004)
    env2.run()
    assert rx.mac.received == []
