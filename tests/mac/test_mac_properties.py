"""Property-based MAC tests: fairness, ladder bounds, slot ownership."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.mac.dcf import Dcf80211Mac
from repro.mac.rate_control import DEFAULT_RATES, ArfRateController
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


@given(
    st.lists(st.booleans(), min_size=0, max_size=500),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_arf_never_leaves_the_ladder(outcomes, up_after, down_after):
    """Any success/failure sequence keeps the index in bounds and the
    rate on the ladder."""
    arf = ArfRateController(up_after=up_after, down_after=down_after)
    for success in outcomes:
        if success:
            arf.on_success()
        else:
            arf.on_failure()
        assert 0 <= arf.current_index < len(DEFAULT_RATES)
        assert arf.current_rate in DEFAULT_RATES


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_dcf_long_run_fairness(seed):
    """Two saturated DCF stations split the channel roughly evenly."""
    env = Environment()
    channel = WirelessChannel(env)

    def build(address, x):
        phy = WirelessPhy(env, StationaryMobility(x, 0.0))
        channel.attach(phy)
        mac = Dcf80211Mac(env, address, phy, DropTailQueue(env, limit=300),
                          rng=random.Random(seed * 10 + address))
        mac.start()
        return mac

    a = build(0, 0.0)
    b = build(1, 50.0)
    rx = build(2, 100.0)
    got = {0: 0, 1: 0}
    rx.recv_callback = lambda p: got.__setitem__(
        p.ip.src, got[p.ip.src] + 1
    )

    def saturate(env, mac):
        while True:
            if len(mac.ifq) < 5:
                mac.ifq.put(data_packet(mac.address, 2))
            yield env.timeout(0.003)

    env.process(saturate(env, a))
    env.process(saturate(env, b))
    env.run(until=3.0)
    total = got[0] + got[1]
    assert total > 200
    share = got[0] / total
    assert 0.35 < share < 0.65


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_tdma_slot_ownership_arithmetic(num_slots, address, now):
    """next_slot_start always lands on this node's own slot boundary and
    never in the past."""
    env = Environment()
    channel = WirelessChannel(env)
    phy = WirelessPhy(env, StationaryMobility(0.0, 0.0))
    channel.attach(phy)
    mac = TdmaMac(env, address, phy, DropTailQueue(env),
                  TdmaParams(num_slots=num_slots))
    start = mac.next_slot_start(now)
    assert start >= now - 1e-9
    # The start is an integer number of frames past this node's offset.
    offset = mac.slot_index * mac.slot_duration
    cycles = (start - offset) / mac.frame_time
    assert cycles == pytest.approx(round(cycles), abs=1e-6)
    # And it is within one frame of "now".
    assert start - now < mac.frame_time + 1e-9
