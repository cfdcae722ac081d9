"""Tests for node assembly and its data paths."""

import pytest

from repro.core.scenario import EblScenario
from repro.core.trials import TrialConfig
from repro.des import Environment
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader
from repro.net.node import Node
from repro.net.packet import Packet, PacketType
from repro.mac.dcf import Dcf80211Mac
from repro.mobility.base import StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.obs import ObservabilityConfig
from repro.routing.static_routing import StaticRouting
from repro.trace.writer import Tracer
from repro.transport.udp import UdpAgent, UdpSink

from tests.conftest import build_line_topology, start_all


@pytest.fixture
def env():
    return Environment()


def test_node_requires_valid_address(env):
    channel = WirelessChannel(env)
    with pytest.raises(ValueError):
        Node(env, -1, StationaryMobility(0, 0), channel,
             lambda e, a, p, q: Dcf80211Mac(e, a, p, q))


def test_node_start_requires_routing(env):
    channel = WirelessChannel(env)
    node = Node(env, 0, StationaryMobility(0, 0), channel,
                lambda e, a, p, q: Dcf80211Mac(e, a, p, q))
    with pytest.raises(RuntimeError):
        node.start()


def test_node_position_tracks_mobility(env):
    channel = WirelessChannel(env)
    mobility = WaypointMobility(0.0, 0.0)
    mobility.set_destination(0.0, 100.0, 0.0, speed=10.0)
    node = Node(env, 0, mobility, channel,
                lambda e, a, p, q: Dcf80211Mac(e, a, p, q))
    StaticRouting(node)
    node.start()
    env.run(until=5.0)
    assert node.position == (50.0, 0.0)
    assert node.phy.position == (50.0, 0.0)


def test_agent_port_demux(env):
    _, nodes = build_line_topology(env, 2)
    start_all(nodes)
    agent_a = UdpAgent(nodes[0], 1)
    agent_b = UdpAgent(nodes[0], 2)
    sink_1 = UdpSink(nodes[1], 1)
    sink_2 = UdpSink(nodes[1], 2)
    agent_a.connect(1, 1)
    agent_b.connect(1, 2)

    def app(env):
        yield env.timeout(0.1)
        agent_a.send(100)
        agent_b.send(100)
        agent_b.send(100)

    env.process(app(env))
    env.run(until=1.0)
    assert sink_1.packets == 1
    assert sink_2.packets == 2


def test_packet_to_unbound_port_is_ignored(env):
    _, nodes = build_line_topology(env, 2)
    start_all(nodes)
    agent = UdpAgent(nodes[0], 1)
    agent.connect(1, 99)  # no agent at port 99

    def app(env):
        yield env.timeout(0.1)
        agent.send(100)

    env.process(app(env))
    env.run(until=1.0)
    assert nodes[1].packets_delivered == 1  # delivered at IP level


def test_node_counters(env):
    _, nodes = build_line_topology(env, 3, spacing=200.0)
    nodes[0].routing.add_route(2, 1)
    start_all(nodes)
    agent, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[2], 1)
    agent.connect(2, 1)

    def app(env):
        yield env.timeout(0.1)
        agent.send(100)

    env.process(app(env))
    env.run(until=1.0)
    assert nodes[0].packets_originated == 1
    assert nodes[1].packets_forwarded == 1
    assert nodes[2].packets_delivered == 1


def test_tracer_sees_all_layers(env):
    tracer = Tracer()
    _, nodes = build_line_topology(env, 2, tracer=tracer)
    start_all(nodes)
    agent, sink = UdpAgent(nodes[0], 1), UdpSink(nodes[1], 1)
    agent.connect(1, 1)

    def app(env):
        yield env.timeout(0.1)
        agent.send(100)

    env.process(app(env))
    env.run(until=1.0)
    layers = {(r.event, r.layer) for r in tracer.records}
    assert ("s", "AGT") in layers  # origination
    assert ("s", "RTR") in layers  # routing enqueue
    assert ("s", "MAC") in layers  # MAC transmission
    assert ("r", "MAC") in layers  # MAC reception
    assert ("r", "AGT") in layers  # delivery


def test_queue_drops_counted_by_node(env):
    _, nodes = build_line_topology(env, 2)
    # Don't start the MAC: everything queued past the limit is dropped.
    agent = UdpAgent(nodes[0], 1)
    agent.connect(1, 1)
    for _ in range(60):
        agent.send(100)
    assert nodes[0].packets_dropped == 10  # queue limit is 50


def test_repr(env):
    channel = WirelessChannel(env)
    node = Node(env, 3, StationaryMobility(1, 2), channel,
                lambda e, a, p, q: Dcf80211Mac(e, a, p, q))
    assert "Node 3" in repr(node)


def test_node_fans_trace_events_out_to_the_sinks_active_at_build(env):
    _, (bare,) = build_line_topology(env, 1)
    assert bare._sinks == ()

    config = TrialConfig(
        duration=1.0,
        enable_trace=True,
        observability=ObservabilityConfig(
            metrics=False, journeys=True, tracing=True
        ),
        sanitize=True,
    )
    scenario = EblScenario(config)
    tracer = scenario.tracer
    journeys = scenario.observability.journeys
    spans = scenario.observability.spans
    ledger = scenario.sanitizer.ledger
    node = scenario.vehicles[0].node
    assert node._sinks == (
        tracer.record, journeys.record, spans.record, ledger.record
    )
    assert node.mac.trace_callback == node._trace

    pkt = Packet(ptype=PacketType.CBR, size=100, ip=IpHeader(src=0, dst=1))
    events = [("s", "AGT"), ("s", "MAC"), ("r", "MAC"), ("r", "AGT"),
              ("D", "IFQ")]

    def fire(_event):
        for code, layer in events:
            node._trace(code, pkt, layer)

    event = scenario.env.event()
    event.callbacks.append(fire)
    scenario.env.schedule(event, delay=0.5)
    scenario.env.run(until=0.75)

    assert [
        (r.event, r.layer, r.time) for r in tracer.records if r.uid == pkt.uid
    ] == [(code, layer, 0.5) for code, layer in events]
    assert [(h.event, h.layer) for h in journeys.journey(pkt.uid).hops] == events
    (marked,) = [span for span in spans.finalize() if pkt.uid in span.uids]
    assert [(m.code, m.layer, m.uid) for m in marked.marks] == [
        (code, layer, pkt.uid) for code, layer in events
    ]
    record = ledger._records[pkt.uid]
    assert record.delivered and record.r_mac and record.dropped
    assert record.last_time == 0.5
