"""setdest-style waypoint mobility (ns-2 ``$node setdest x y speed``)."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.mobility.base import MobilityModel, Position


@dataclass
class _Segment:
    """One straight-line movement leg.

    Distance, duration, and end time are fixed once the leg is built, so
    they are computed eagerly — ``position_at`` runs on every channel
    transmission and must not redo the hypotenuse each call.
    """

    start_time: float
    x0: float
    y0: float
    x1: float
    y1: float
    speed: float
    distance: float = field(init=False)
    duration: float = field(init=False)
    end_time: float = field(init=False)

    def __post_init__(self) -> None:
        self.distance = math.hypot(self.x1 - self.x0, self.y1 - self.y0)
        if self.speed <= 0 or self.distance == 0:
            self.duration = 0.0
        else:
            self.duration = self.distance / self.speed
        self.end_time = self.start_time + self.duration

    def position_at(self, t: float) -> Position:
        if self.duration == 0 or t >= self.end_time:
            return (self.x1, self.y1)
        frac = max(0.0, (t - self.start_time)) / self.duration
        return (
            self.x0 + frac * (self.x1 - self.x0),
            self.y0 + frac * (self.y1 - self.y0),
        )


class WaypointMobility(MobilityModel):
    """Piecewise-linear motion driven by timed ``setdest`` commands.

    Commands must be added in non-decreasing time order; each command moves
    the node from wherever it is at that time toward the new destination at
    constant speed, then it rests there until the next command.
    """

    def __init__(self, x: float, y: float) -> None:
        self._initial: Position = (float(x), float(y))
        self._segments: list[_Segment] = []
        #: Segment start times, kept parallel to ``_segments`` so
        #: ``position`` can bisect instead of scanning every leg.
        self._start_times: list[float] = []
        self._max_speed = 0.0

    def set_destination(self, at_time: float, x: float, y: float, speed: float) -> None:
        """Schedule a movement starting at ``at_time`` (ns-2 ``setdest``)."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        if self._segments and at_time < self._segments[-1].start_time:
            raise ValueError(
                "waypoints must be added in non-decreasing time order"
            )
        x0, y0 = self.position(at_time)
        self._segments.append(
            _Segment(at_time, x0, y0, float(x), float(y), float(speed))
        )
        self._start_times.append(at_time)
        self._max_speed = max(self._max_speed, float(speed))
        # Any new leg may move the node at times a channel has already
        # sized neighbour lists for (it can start in the past).
        self._changed()

    def position(self, t: float) -> Position:
        # The governing leg is the last one that has started by ``t``
        # (with equal start times the later command wins, as in the
        # original linear scan).
        i = bisect_right(self._start_times, t) - 1
        if i < 0:
            return self._initial
        return self._segments[i].position_at(t)

    def velocity(self, t: float) -> Position:
        # The same governing leg as :meth:`position`: a later command
        # preempts an earlier leg even while that leg is unfinished.
        i = bisect_right(self._start_times, t) - 1
        if i < 0:
            return (0.0, 0.0)
        leg = self._segments[i]
        if leg.duration == 0 or t >= leg.end_time:
            return (0.0, 0.0)
        return (
            (leg.x1 - leg.x0) / leg.duration,
            (leg.y1 - leg.y0) / leg.duration,
        )

    def max_speed(self) -> float:
        """The fastest scheduled leg's speed (0 before any leg)."""
        return self._max_speed

    @property
    def waypoint_count(self) -> int:
        """Number of scheduled movement legs."""
        return len(self._segments)

    def arrival_time(self) -> float:
        """Time the final scheduled movement completes (0 if none)."""
        return self._segments[-1].end_time if self._segments else 0.0
