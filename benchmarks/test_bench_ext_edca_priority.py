"""X7: extension — prioritised access for safety frames (EDCA).

DSRC/WAVE (the deployment context the paper's CAMP/VSCC scenarios feed
into) gives safety messages priority channel access.  This bench
measures brake-warning latency through a saturated 802.11 cell with and
without EDCA-style priority, quantifying what the mechanism buys the EBL
use case.
"""

import random

import pytest

from repro.des import Environment
from repro.mac.dcf import Dcf80211Mac
from repro.mac.edca import EdcaMac
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import EblHeader, IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue
from repro.phy.radio import WirelessPhy


def _packet(src, dst, ptype=PacketType.CBR, size=1000):
    return Packet(ptype=ptype, size=size,
                  ip=IpHeader(src=src, dst=dst),
                  mac=MacHeader(src=src, dst=dst))


def _build(env, channel, address, x, cls):
    phy = WirelessPhy(env, StationaryMobility(x, 0.0))
    channel.attach(phy)
    mac = cls(env, address, phy, DropTailQueue(env, limit=100),
              rng=random.Random(address + 42))
    mac.start()
    return mac


def measure_latency(cls, horizon=4.0):
    """Mean EBL-warning latency through a cell saturated by two bulk
    senders."""
    env = Environment()
    channel = WirelessChannel(env)
    bulk1 = _build(env, channel, 0, 0.0, cls)
    bulk2 = _build(env, channel, 1, 60.0, cls)
    warner = _build(env, channel, 2, 30.0, cls)
    rx = _build(env, channel, 3, 90.0, cls)
    latencies = []

    def on_rx(pkt):
        if pkt.ptype == PacketType.EBL:
            latencies.append(env.now - pkt.timestamp)

    rx.recv_callback = on_rx

    def saturate(env, mac):
        while True:
            if len(mac.ifq) < 5:
                mac.ifq.put(_packet(mac.address, 3))
            yield env.timeout(0.002)

    env.process(saturate(env, bulk1))
    env.process(saturate(env, bulk2))

    def warn(env):
        seq = 0
        while True:
            yield env.timeout(0.1)
            pkt = _packet(2, 3, PacketType.EBL, size=200)
            pkt.timestamp = env.now
            pkt.headers["ebl"] = EblHeader(vehicle=2, warning_seq=seq)
            warner.ifq.put(pkt)
            seq += 1

    env.process(warn(env))
    env.run(until=horizon)
    assert latencies, "no warnings delivered"
    return sum(latencies) / len(latencies), max(latencies)


def run_comparison():
    return {
        "dcf": measure_latency(Dcf80211Mac),
        "edca": measure_latency(EdcaMac),
    }


def test_bench_ext_edca_priority(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    dcf_mean, dcf_max = results["dcf"]
    edca_mean, edca_max = results["edca"]
    # Priority access cuts both the mean and the tail of warning latency.
    assert edca_mean < dcf_mean
    assert edca_max <= dcf_max * 1.2

    benchmark.extra_info["dcf_mean_ms"] = round(dcf_mean * 1000, 2)
    benchmark.extra_info["dcf_max_ms"] = round(dcf_max * 1000, 2)
    benchmark.extra_info["edca_mean_ms"] = round(edca_mean * 1000, 2)
    benchmark.extra_info["edca_max_ms"] = round(edca_max * 1000, 2)
    benchmark.extra_info["speedup"] = round(dcf_mean / edca_mean, 2)
