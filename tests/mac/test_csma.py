"""Tests for the plain CSMA MAC."""

import pytest

from repro.des import Environment
from repro.mac.csma import CsmaMac, CsmaParams
from repro.mobility.base import StationaryMobility
from repro.net.addresses import BROADCAST
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy


def build_mac(env, channel, address, x, params=None):
    phy = WirelessPhy(env, StationaryMobility(x, 0.0))
    channel.attach(phy)
    mac = CsmaMac(env, address, phy, DropTailQueue(env), params=params)
    mac.start()
    return mac


def data_packet(src, dst, size=500):
    return Packet(
        ptype=PacketType.CBR,
        size=size,
        ip=IpHeader(src=src, dst=dst),
        mac=MacHeader(src=src, dst=dst),
    )


@pytest.fixture
def env():
    return Environment()


def test_idle_channel_delivery(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    got = []
    b.recv_callback = got.append
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert len(got) == 1
    assert a.stats.data_sent == 1


def test_busy_channel_defers(env):
    """A second sender defers while the first is on the air."""
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 50.0)
    c = build_mac(env, channel, 2, 100.0)
    got = []
    c.recv_callback = got.append
    a.ifq.put(data_packet(0, 2, size=1500))

    def second(env):
        yield env.timeout(0.001)  # while a's 6 ms frame is in flight
        b.ifq.put(data_packet(1, 2))

    env.process(second(env))
    env.run(until=1.0)
    assert len(got) == 2
    assert all(m.phy.frames_corrupted == 0 for m in (a, b, c))


def test_gives_up_after_max_attempts(env):
    channel = WirelessChannel(env)
    params = CsmaParams(max_attempts=3, mean_backoff=1e-4)
    a = build_mac(env, channel, 0, 0.0, params=params)
    jammer = build_mac(env, channel, 1, 10.0)
    failures = []
    a.link_failure_callback = failures.append

    # Keep the channel permanently busy with back-to-back huge frames.
    def jam(env):
        while True:
            if not jammer.phy.transmitting:
                jammer.phy.transmit(data_packet(1, BROADCAST, size=1500), 0.01)
            yield env.timeout(0.01)

    env.process(jam(env))

    def later(env):
        yield env.timeout(0.005)
        a.ifq.put(data_packet(0, 1))

    env.process(later(env))
    env.run(until=2.0)
    assert len(failures) == 1


def test_broadcast_delivery(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    c = build_mac(env, channel, 2, 200.0)
    got = []
    b.recv_callback = got.append
    c.recv_callback = got.append
    a.ifq.put(data_packet(0, BROADCAST))
    env.run(until=1.0)
    assert len(got) == 2


def test_optimistic_success_feedback(env):
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    build_mac(env, channel, 1, 100.0)
    successes = []
    a.link_success_callback = successes.append
    a.ifq.put(data_packet(0, 1))
    env.run(until=1.0)
    assert len(successes) == 1


def test_csma_param_validation():
    params = CsmaParams()
    assert params.mean_backoff > 0
    assert params.max_attempts > 0
