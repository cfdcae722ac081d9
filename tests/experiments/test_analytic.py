"""Cross-validation: closed-form models vs the simulator."""

import pytest

from repro.des import Environment
from repro.experiments.analytic import BianchiModel, TdmaModel
from repro.mac.dcf import Dcf80211Mac
from repro.mac.tdma import TdmaMac, TdmaParams
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy


def data_packet(src, dst, size=1000):
    return Packet(ptype=PacketType.CBR, size=size,
                  ip=IpHeader(src=src, dst=dst),
                  mac=MacHeader(src=src, dst=dst))


# -- TDMA model -----------------------------------------------------------------


def test_tdma_model_arithmetic():
    params = TdmaParams(num_slots=16, slot_packet_len=1500)
    model = TdmaModel(params)
    assert model.frame_time == pytest.approx(16 * model.slot_time)
    assert model.mean_access_delay() == pytest.approx(model.frame_time / 2)
    assert model.mean_packet_delay(1000) > model.mean_access_delay()


def test_tdma_model_matches_simulated_saturation_throughput():
    """A saturated TDMA node must carry exactly one packet per frame."""
    params = TdmaParams(num_slots=8, slot_packet_len=1500)
    model = TdmaModel(params)

    env = Environment()
    channel = WirelessChannel(env)

    def build(address, x):
        phy = WirelessPhy(env, StationaryMobility(x, 0.0))
        channel.attach(phy)
        mac = TdmaMac(env, address, phy, DropTailQueue(env, limit=500),
                      TdmaParams(num_slots=8, slot_packet_len=1500))
        mac.start()
        return mac

    a = build(0, 0.0)
    b = build(1, 100.0)
    got = []
    b.recv_callback = got.append

    def feeder(env):
        while True:
            if len(a.ifq) < 10:
                a.ifq.put(data_packet(0, 1))
            yield env.timeout(0.005)

    env.process(feeder(env))
    horizon = 20.0
    env.run(until=horizon)
    simulated_bps = sum(p.size for p in got) * 8 / horizon
    assert simulated_bps == pytest.approx(
        model.saturation_throughput(1000), rel=0.05
    )


def test_tdma_model_matches_simulated_access_delay():
    """Unqueued packets arriving at random times should average half a
    frame of access delay (plus transmission)."""
    params = TdmaParams(num_slots=8, slot_packet_len=1500)
    model = TdmaModel(params)

    env = Environment()
    channel = WirelessChannel(env)

    def build(address, x):
        phy = WirelessPhy(env, StationaryMobility(x, 0.0))
        channel.attach(phy)
        mac = TdmaMac(env, address, phy, DropTailQueue(env),
                      TdmaParams(num_slots=8, slot_packet_len=1500))
        mac.start()
        return mac

    a = build(0, 0.0)
    b = build(1, 100.0)
    delays = []
    b.recv_callback = lambda p: delays.append(env.now - p.timestamp)

    import random

    rng = random.Random(42)

    def feeder(env):
        # One packet at a time, at incommensurate random gaps, so there
        # is never queueing — pure access delay.
        for _ in range(150):
            pkt = data_packet(0, 1)
            pkt.timestamp = env.now
            a.ifq.put(pkt)
            yield env.timeout(rng.uniform(0.15, 0.35))

    env.process(feeder(env))
    env.run()
    mean = sum(delays) / len(delays)
    assert mean == pytest.approx(model.mean_packet_delay(1000), rel=0.15)


# -- Bianchi model -----------------------------------------------------------------


def test_bianchi_requires_two_stations():
    with pytest.raises(ValueError):
        BianchiModel(n_stations=1)


def test_bianchi_fixed_point_properties():
    model = BianchiModel(n_stations=5)
    tau, p = model.solve()
    assert 0 < tau < 1
    assert 0 < p < 1
    # Residual of the fixed point is ~0.
    assert p == pytest.approx(1 - (1 - tau) ** 4, abs=1e-9)


def test_bianchi_collision_probability_grows_with_n():
    p_small = BianchiModel(n_stations=2).collision_probability()
    p_large = BianchiModel(n_stations=20).collision_probability()
    assert p_large > p_small


def test_bianchi_throughput_decreases_for_large_n():
    few = BianchiModel(n_stations=3).saturation_throughput()
    many = BianchiModel(n_stations=50).saturation_throughput()
    assert many < few


def test_bianchi_throughput_below_channel_rate():
    model = BianchiModel(n_stations=4, packet_bytes=1000)
    s = model.saturation_throughput()
    assert 0 < s < model.bitrate


def test_bianchi_matches_simulated_dcf_saturation():
    """Two saturated DCF stations vs Bianchi's prediction (±20%)."""
    model = BianchiModel(n_stations=2, packet_bytes=1000)
    predicted = model.saturation_throughput()

    env = Environment()
    channel = WirelessChannel(env)

    received = []

    def build(address, x):
        phy = WirelessPhy(env, StationaryMobility(x, 0.0))
        channel.attach(phy)
        mac = Dcf80211Mac(env, address, phy, DropTailQueue(env, limit=500))
        mac.recv_callback = received.append
        mac.start()
        return mac

    a = build(0, 0.0)
    b = build(1, 100.0)

    def feeder(env, mac, dst):
        while True:
            if len(mac.ifq) < 10:
                mac.ifq.put(data_packet(mac.address, dst))
            yield env.timeout(0.004)

    env.process(feeder(env, a, 1))
    env.process(feeder(env, b, 0))
    horizon = 10.0
    env.run(until=horizon)
    # Count payload bits of delivered data frames (sizes include 1000 B
    # payload; Bianchi counts payload only).
    simulated = sum(1000 * 8 for _ in received) / horizon
    assert simulated == pytest.approx(predicted, rel=0.2)
