"""Tests for channel error models and their radio integration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.mobility.base import StationaryMobility
from repro.net.channel import WirelessChannel
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.phy.error_models import (
    DistanceDependentErrorModel,
    GilbertElliotErrorModel,
    UniformErrorModel,
)
from repro.phy.radio import WirelessPhy


def pkt(size=1000):
    return Packet(ptype=PacketType.CBR, size=size,
                  ip=IpHeader(src=0, dst=1), mac=MacHeader(src=0, dst=1))


# -- uniform -------------------------------------------------------------------


def test_uniform_rate_bounds():
    with pytest.raises(ValueError):
        UniformErrorModel(rate=-0.1)
    with pytest.raises(ValueError):
        UniformErrorModel(rate=1.1)
    with pytest.raises(ValueError):
        UniformErrorModel(rate=0.5, unit="bit")


def test_uniform_zero_rate_never_corrupts():
    model = UniformErrorModel(rate=0.0)
    assert not any(model.corrupts(pkt(), 100.0, 1e-9) for _ in range(100))
    assert model.observed_rate == 0.0


def test_uniform_one_rate_always_corrupts():
    model = UniformErrorModel(rate=1.0)
    assert all(model.corrupts(pkt(), 100.0, 1e-9) for _ in range(100))
    assert model.observed_rate == 1.0


def test_uniform_packet_rate_statistics():
    model = UniformErrorModel(rate=0.3, rng=random.Random(1))
    n = 5000
    losses = sum(model.corrupts(pkt(), 0, 0) for _ in range(n))
    assert losses / n == pytest.approx(0.3, abs=0.03)


def test_uniform_byte_rate_penalises_large_frames():
    small_model = UniformErrorModel(rate=1e-4, unit="byte",
                                    rng=random.Random(2))
    big_model = UniformErrorModel(rate=1e-4, unit="byte",
                                  rng=random.Random(2))
    n = 3000
    small = sum(small_model.corrupts(pkt(100), 0, 0) for _ in range(n))
    big = sum(big_model.corrupts(pkt(1500), 0, 0) for _ in range(n))
    assert big > small * 2


def test_counters_and_reset():
    model = UniformErrorModel(rate=0.5, rng=random.Random(3))
    for _ in range(10):
        model.corrupts(pkt(), 0, 0)
    assert model.frames_checked == 10
    model.reset_counters()
    assert model.frames_checked == 0
    assert model.observed_rate == 0.0


# -- Gilbert-Elliot ----------------------------------------------------------------


def test_ge_parameter_validation():
    with pytest.raises(ValueError):
        GilbertElliotErrorModel(p_good_to_bad=1.5)
    with pytest.raises(ValueError):
        GilbertElliotErrorModel(bad_loss=-0.1)


def test_ge_steady_state_loss_formula():
    model = GilbertElliotErrorModel(
        p_good_to_bad=0.1, p_bad_to_good=0.3, good_loss=0.0, bad_loss=1.0
    )
    # pi_bad = 0.1 / 0.4 = 0.25.
    assert model.steady_state_loss == pytest.approx(0.25)


def test_ge_long_run_matches_steady_state():
    model = GilbertElliotErrorModel(
        p_good_to_bad=0.05, p_bad_to_good=0.25,
        good_loss=0.0, bad_loss=0.8, rng=random.Random(4),
    )
    n = 20000
    losses = sum(model.corrupts(pkt(), 0, 0) for _ in range(n))
    assert losses / n == pytest.approx(model.steady_state_loss, abs=0.02)


def test_ge_losses_are_bursty():
    """Consecutive losses should be far more common than independence
    would predict for the same average rate."""
    model = GilbertElliotErrorModel(
        p_good_to_bad=0.02, p_bad_to_good=0.2,
        good_loss=0.0, bad_loss=1.0, rng=random.Random(5),
    )
    outcomes = [model.corrupts(pkt(), 0, 0) for _ in range(20000)]
    rate = sum(outcomes) / len(outcomes)
    pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
    pair_rate = pairs / (len(outcomes) - 1)
    assert pair_rate > 2 * rate * rate  # strong positive correlation


# -- distance-dependent ------------------------------------------------------------


def test_distance_model_monotone_in_distance():
    model = DistanceDependentErrorModel()
    assert model.loss_probability(50.0) < model.loss_probability(200.0)
    assert model.loss_probability(400.0) <= model.max_loss


def test_distance_model_validation():
    with pytest.raises(ValueError):
        DistanceDependentErrorModel(reference_distance=0)
    with pytest.raises(ValueError):
        DistanceDependentErrorModel(base_loss=2.0)
    with pytest.raises(ValueError):
        DistanceDependentErrorModel(exponent=0)


@given(st.floats(min_value=1.0, max_value=1000.0))
@settings(max_examples=100, deadline=None)
def test_distance_model_probability_valid(distance):
    model = DistanceDependentErrorModel()
    p = model.loss_probability(distance)
    assert 0.0 <= p <= model.max_loss


# -- radio integration ---------------------------------------------------------------


def test_error_model_drops_frames_at_radio():
    env = Environment()
    channel = WirelessChannel(env)

    received, failed = [], []

    class Mac:
        def phy_rx_start(self, p):
            pass

        def phy_rx_end(self, p):
            received.append(p)

        def phy_rx_failed(self, p, reason):
            failed.append(reason)

    tx = WirelessPhy(env, StationaryMobility(0.0, 0.0))
    rx = WirelessPhy(env, StationaryMobility(100.0, 0.0))
    tx.mac, rx.mac = Mac(), Mac()
    channel.attach(tx)
    channel.attach(rx)
    rx.error_model = UniformErrorModel(rate=1.0)

    tx.transmit(pkt(), 0.004)
    env.run()
    assert received == []
    assert failed == ["error-model"]
    assert rx.error_model.frames_checked == 1


def test_error_model_sees_true_distance():
    env = Environment()
    channel = WirelessChannel(env)
    seen = []

    class Probe(DistanceDependentErrorModel):
        def corrupts(self, p, distance, power):
            seen.append(distance)
            return False

    class Mac:
        def phy_rx_start(self, p):
            pass

        def phy_rx_end(self, p):
            pass

        def phy_rx_failed(self, p, reason):
            pass

    tx = WirelessPhy(env, StationaryMobility(0.0, 0.0))
    rx = WirelessPhy(env, StationaryMobility(120.0, 0.0))
    tx.mac, rx.mac = Mac(), Mac()
    channel.attach(tx)
    channel.attach(rx)
    rx.error_model = Probe()
    tx.transmit(pkt(), 0.004)
    env.run()
    assert seen == [pytest.approx(120.0)]
