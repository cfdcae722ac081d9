"""``max_speed()`` bounds every model's motion; velocity follows the
same governing leg as position.

The channel sizes its neighbour lists from ``max_speed()``, so the bound
must hold between *any* two times, across leg boundaries and preempted
legs alike.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.base import MobilityModel, StationaryMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.waypoint import WaypointMobility

HORIZON = 60.0

times = st.floats(min_value=0.0, max_value=HORIZON, allow_nan=False)
coords = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


@st.composite
def waypoint_models(draw):
    model = WaypointMobility(draw(coords), draw(coords))
    starts = sorted(draw(st.lists(times, max_size=6)))
    for start in starts:
        model.set_destination(
            start,
            draw(coords),
            draw(coords),
            draw(st.floats(min_value=0.5, max_value=60.0)),
        )
    return model


@st.composite
def random_waypoint_models(draw):
    return RandomWaypointMobility(
        width=draw(st.floats(min_value=10.0, max_value=2000.0)),
        height=draw(st.floats(min_value=10.0, max_value=2000.0)),
        speed_range=(1.0, draw(st.floats(min_value=1.0, max_value=40.0))),
        pause_time=draw(st.floats(min_value=0.0, max_value=5.0)),
        horizon=HORIZON,
        rng=random.Random(draw(st.integers(0, 2**16))),
    )


@st.composite
def manhattan_models(draw):
    return ManhattanGridMobility(
        blocks_x=draw(st.integers(1, 6)),
        blocks_y=draw(st.integers(1, 6)),
        block_size=draw(st.floats(min_value=20.0, max_value=300.0)),
        speed=draw(st.floats(min_value=1.0, max_value=40.0)),
        horizon=HORIZON,
        rng=random.Random(draw(st.integers(0, 2**16))),
    )


models = st.one_of(
    st.builds(StationaryMobility, coords, coords),
    waypoint_models(),
    random_waypoint_models(),
    manhattan_models(),
)


@given(models, times, times)
@settings(max_examples=300, deadline=None)
def test_displacement_never_outruns_max_speed(model, t0, t1):
    bound = model.max_speed()
    assert bound is not None
    (x0, y0), (x1, y1) = model.position(t0), model.position(t1)
    travelled = math.hypot(x1 - x0, y1 - y0)
    assert travelled <= bound * abs(t1 - t0) + 1e-6 * (1.0 + travelled)


def test_bounds_per_model():
    assert MobilityModel().max_speed() is None
    assert StationaryMobility(1.0, 2.0).max_speed() == 0.0
    m = WaypointMobility(0.0, 0.0)
    assert m.max_speed() == 0.0
    m.set_destination(0.0, 10.0, 0.0, speed=5.0)
    m.set_destination(1.0, 0.0, 0.0, speed=12.0)
    m.set_destination(2.0, 5.0, 0.0, speed=3.0)
    assert m.max_speed() == 12.0


def test_set_destination_notifies_watchers():
    m = WaypointMobility(0.0, 0.0)
    calls = []
    m.watch(lambda: calls.append("moved"))
    m.set_destination(0.0, 10.0, 0.0, speed=5.0)
    assert calls == ["moved"]


def test_velocity_follows_the_preempting_leg():
    m = WaypointMobility(0.0, 0.0)
    m.set_destination(0.0, 100.0, 0.0, speed=10.0)
    # Preempts the first leg at (20, 0); the node rests at (20, 5) from
    # t=2.5 although the first leg would run until t=10.
    m.set_destination(2.0, 20.0, 5.0, speed=10.0)
    assert m.position(5.0) == (20.0, 5.0)
    assert m.velocity(2.25) == pytest.approx((0.0, 10.0))
    assert m.velocity(5.0) == (0.0, 0.0)
    assert m.speed(5.0) == 0.0
