"""Tests for the radio energy model."""

import pytest

from repro.des import Environment
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.phy.energy import EnergyModel, EnergyParams
from repro.phy.radio import WirelessPhy


def test_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(initial_energy=0)
    with pytest.raises(ValueError):
        EnergyParams(tx_power=-1)


def test_idle_only_consumption():
    env = Environment()
    model = EnergyModel(env, EnergyParams(idle_power=2.0))
    env.timeout(10.0)
    env.run()
    assert model.consumed() == pytest.approx(20.0)
    assert model.idle_seconds() == pytest.approx(10.0)


def test_tx_and_rx_accounting():
    env = Environment()
    model = EnergyModel(
        env, EnergyParams(tx_power=1.4, rx_power=0.9, idle_power=0.0)
    )
    model.note_tx(2.0)
    model.note_rx(3.0)
    assert model.tx_energy == pytest.approx(2.8)
    assert model.rx_energy == pytest.approx(2.7)
    assert model.consumed(now=100.0) == pytest.approx(5.5)


def test_breakdown_sums_to_consumed():
    env = Environment()
    model = EnergyModel(env)
    model.note_tx(1.0)
    model.note_rx(1.0)
    parts = model.breakdown(now=10.0)
    assert sum(parts.values()) == pytest.approx(model.consumed(now=10.0))


def test_depletion():
    env = Environment()
    model = EnergyModel(
        env, EnergyParams(initial_energy=5.0, idle_power=1.0)
    )
    assert not model.depleted(now=4.0)
    assert model.depleted(now=5.0)
    assert model.remaining(now=100.0) == 0.0


def test_negative_durations_rejected():
    model = EnergyModel(Environment())
    with pytest.raises(ValueError):
        model.note_tx(-1)
    with pytest.raises(ValueError):
        model.note_rx(-1)


def test_radio_charges_tx_and_rx():
    env = Environment()
    channel = WirelessChannel(env)

    class Mac:
        def phy_rx_start(self, p):
            pass

        def phy_rx_end(self, p):
            pass

        def phy_rx_failed(self, p, r):
            pass

    tx = WirelessPhy(env, StationaryMobility(0.0, 0.0))
    rx = WirelessPhy(env, StationaryMobility(100.0, 0.0))
    tx.mac, rx.mac = Mac(), Mac()
    channel.attach(tx)
    channel.attach(rx)
    tx.energy = EnergyModel(env, EnergyParams(idle_power=0.0))
    rx.energy = EnergyModel(env, EnergyParams(idle_power=0.0))

    pkt = Packet(ptype=PacketType.CBR, size=1000,
                 ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1))
    tx.transmit(pkt, duration=0.004)
    env.run()

    assert tx.energy.tx_seconds == pytest.approx(0.004)
    assert tx.energy.rx_seconds == 0.0
    assert rx.energy.rx_seconds == pytest.approx(0.004)
    assert rx.energy.tx_energy == 0.0
    # Transmit draws more than receive at WaveLAN power levels.
    assert tx.energy.consumed() > rx.energy.consumed()


def test_sensing_only_signals_not_charged_as_rx():
    env = Environment()
    channel = WirelessChannel(env)

    class Mac:
        def phy_rx_start(self, p):
            pass

        def phy_rx_end(self, p):
            pass

        def phy_rx_failed(self, p, r):
            pass

    tx = WirelessPhy(env, StationaryMobility(0.0, 0.0))
    rx = WirelessPhy(env, StationaryMobility(400.0, 0.0))  # sensing zone
    tx.mac, rx.mac = Mac(), Mac()
    channel.attach(tx)
    channel.attach(rx)
    rx.energy = EnergyModel(env, EnergyParams(idle_power=0.0))
    pkt = Packet(ptype=PacketType.CBR, size=1000,
                 ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1))
    tx.transmit(pkt, duration=0.004)
    env.run()
    assert rx.energy.rx_seconds == 0.0
