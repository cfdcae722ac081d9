"""Channel/mobility interplay: connectivity follows positions over time."""

import pytest

from repro.des import Environment
from repro.mac.dcf import Dcf80211Mac
from repro.mobility.waypoint import WaypointMobility
from repro.net.channel import WirelessChannel
from repro.net.node import Node
from repro.routing.static_routing import StaticRouting
from repro.transport.udp import UdpAgent, UdpSink


def build_mobile_pair(env, speed=50.0):
    channel = WirelessChannel(env)
    static = WaypointMobility(0.0, 0.0)
    mover = WaypointMobility(100.0, 0.0)
    nodes = []
    for address, mobility in ((0, static), (1, mover)):
        node = Node(env, address, mobility, channel,
                    lambda e, a, p, q: Dcf80211Mac(e, a, p, q))
        StaticRouting(node)
        nodes.append(node)
        node.start()
    return nodes, mover


@pytest.fixture
def env():
    return Environment()


def test_link_breaks_as_receiver_drives_away(env):
    """Periodic datagrams stop arriving once the receiver crosses the
    250 m range boundary — and the cut-off time matches the kinematics."""
    nodes, mover = build_mobile_pair(env)
    mover.set_destination(0.0, 1000.0, 0.0, speed=50.0)  # away at 50 m/s
    agent, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    agent.connect(1, 1)

    def app(env):
        while True:
            agent.send(100)
            yield env.timeout(0.25)

    env.process(app(env))
    env.run(until=10.0)
    assert sink.packets > 5
    last_arrival = sink.records[-1].received_at
    # Range crossed at (250 - 100) / 50 = 3.0 s.
    assert last_arrival == pytest.approx(3.0, abs=0.4)


def test_link_forms_as_receiver_drives_into_range(env):
    nodes, _ = build_mobile_pair(env)
    # Replace the mover: start far away and approach.
    far = WaypointMobility(600.0, 0.0)
    far.set_destination(0.0, 100.0, 0.0, speed=50.0)
    nodes[1].mobility = far  # re-points the radio too
    agent, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    agent.connect(1, 1)

    def app(env):
        while True:
            agent.send(100)
            yield env.timeout(0.25)

    env.process(app(env))
    env.run(until=10.0)
    assert sink.packets > 5
    first_arrival = sink.records[0].received_at
    # In range from (600 - 250) / 50 = 7.0 s.
    assert first_arrival == pytest.approx(7.0, abs=0.4)


def test_power_computed_at_transmission_time(env):
    """Each transmission samples the geometry afresh: deliveries track
    the receiver's instantaneous position, not its initial one."""
    nodes, mover = build_mobile_pair(env)
    # Oscillate: out of range, then back in.
    mover.set_destination(0.0, 400.0, 0.0, speed=100.0)   # out by t=3
    mover.set_destination(4.0, 100.0, 0.0, speed=100.0)   # back by t=7
    agent, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    agent.connect(1, 1)

    def app(env):
        while True:
            agent.send(100)
            yield env.timeout(0.2)

    env.process(app(env))
    env.run(until=10.0)
    times = [r.received_at for r in sink.records]
    # Out of range from (250-100)/100 = 1.5 s until the return leg
    # crosses 250 m again at 4 + (400-250)/100 = 5.5 s.
    early = [t for t in times if t < 1.4]
    gap = [t for t in times if 1.8 < t < 5.3]
    late = [t for t in times if t > 5.7]
    assert early, "no deliveries while initially in range"
    assert late, "no deliveries after returning to range"
    assert not gap, f"deliveries during the out-of-range window: {gap}"
