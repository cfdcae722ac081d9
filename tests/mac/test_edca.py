"""Tests for EDCA prioritised access."""

import random

import pytest

from repro.des import Environment
from repro.mac.dcf import Dcf80211Mac
from repro.mac.edca import EdcaMac, EdcaParams
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import EblHeader, IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy


def build_mac(env, channel, address, x, cls=EdcaMac, seed=0):
    phy = WirelessPhy(env, StationaryMobility(x, 0.0))
    channel.attach(phy)
    mac = cls(env, address, phy, DropTailQueue(env, limit=300),
              rng=random.Random(seed * 100 + address))
    mac.start()
    return mac


def packet(src, dst, ptype=PacketType.CBR, size=1000):
    return Packet(ptype=ptype, size=size,
                  ip=IpHeader(src=src, dst=dst),
                  mac=MacHeader(src=src, dst=dst))


def test_edca_requires_edca_params():
    env = Environment()
    channel = WirelessChannel(env)
    phy = WirelessPhy(env, StationaryMobility(0, 0))
    channel.attach(phy)
    from repro.mac.dcf import DcfParams

    with pytest.raises(TypeError):
        EdcaMac(env, 0, phy, DropTailQueue(env), params=DcfParams())


def test_access_category_classification():
    assert EdcaMac.access_category(packet(0, 1, PacketType.EBL)) == "safety"
    assert EdcaMac.access_category(packet(0, 1, PacketType.AODV)) == "safety"
    assert EdcaMac.access_category(packet(0, 1, PacketType.TCP)) == "data"
    assert EdcaMac.access_category(packet(0, 1, PacketType.CBR)) == "data"


def test_aifs_formula():
    params = EdcaParams()
    assert params.aifs(2) == pytest.approx(params.sifs + 2 * params.slot_time)
    assert params.aifs(params.safety_aifsn) < params.aifs(params.data_aifsn)


def test_edca_delivers_both_categories():
    env = Environment()
    channel = WirelessChannel(env)
    a = build_mac(env, channel, 0, 0.0)
    b = build_mac(env, channel, 1, 100.0)
    got = []
    b.recv_callback = got.append
    a.ifq.put(packet(0, 1, PacketType.EBL, size=200))
    a.ifq.put(packet(0, 1, PacketType.TCP))
    env.run(until=1.0)
    assert len(got) == 2
    assert a.safety_frames_sent == 1
    assert a.data_frames_sent == 1


def test_safety_beats_data_in_head_to_head_contention():
    """Two stations raise a frame at the same instant, one safety and one
    data: across many seeds the safety frame must win the channel far
    more often than it loses."""
    wins = 0
    rounds = 30
    for seed in range(rounds):
        env = Environment()
        channel = WirelessChannel(env)
        safety_tx = build_mac(env, channel, 0, 0.0, seed=seed)
        data_tx = build_mac(env, channel, 1, 50.0, seed=seed + 1000)
        rx = build_mac(env, channel, 2, 100.0, seed=seed + 2000)
        arrivals = []
        rx.recv_callback = lambda p: arrivals.append(p.ptype)

        def offer(env):
            yield env.timeout(0.01)
            safety_tx.ifq.put(packet(0, 2, PacketType.EBL, size=500))
            data_tx.ifq.put(packet(1, 2, PacketType.CBR, size=500))

        env.process(offer(env))
        env.run(until=0.5)
        if arrivals and arrivals[0] == PacketType.EBL:
            wins += 1
    assert wins >= 0.8 * rounds


def test_warning_latency_under_background_load_edca_vs_dcf():
    """A brake warning injected into a saturated cell: EDCA's priority
    access gets it on the air faster than plain DCF."""

    def run(cls):
        env = Environment()
        channel = WirelessChannel(env)
        bulk1 = build_mac(env, channel, 0, 0.0, cls=cls)
        bulk2 = build_mac(env, channel, 1, 60.0, cls=cls)
        warner = build_mac(env, channel, 2, 30.0, cls=cls)
        rx = build_mac(env, channel, 3, 90.0, cls=cls)
        latency = []

        def on_rx(p):
            if p.ptype == PacketType.EBL:
                latency.append(env.now - p.timestamp)

        rx.recv_callback = on_rx

        def saturate(env, mac, dst):
            while True:
                if len(mac.ifq) < 5:
                    mac.ifq.put(packet(mac.address, dst))
                yield env.timeout(0.002)

        env.process(saturate(env, bulk1, 3))
        env.process(saturate(env, bulk2, 3))

        def warn(env):
            for i in range(20):
                yield env.timeout(0.1)
                pkt = packet(2, 3, PacketType.EBL, size=200)
                pkt.timestamp = env.now
                pkt.headers["ebl"] = EblHeader(vehicle=2, warning_seq=i)
                warner.ifq.put(pkt)

        env.process(warn(env))
        env.run(until=2.5)
        assert latency, "no warnings delivered"
        return sum(latency) / len(latency)

    edca_latency = run(EdcaMac)
    dcf_latency = run(Dcf80211Mac)
    assert edca_latency < dcf_latency
