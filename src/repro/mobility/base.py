"""Mobility model interface."""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

Position = Tuple[float, float]


class MobilityModel:
    """Maps simulated time to a node position.

    Positions are metres in a flat 2-D plane (matching ns-2's wireless
    topography).  Models are *functional*: ``position(t)`` may be queried
    for any time, repeatedly, without side effects.
    """

    #: Callbacks run whenever the trajectory changes (see :meth:`watch`).
    #: A class-level empty tuple, so unwatched models carry nothing.
    _watchers: tuple[Callable[[], None], ...] = ()

    def position(self, t: float) -> Position:
        """Node position ``(x, y)`` at time ``t``."""
        raise NotImplementedError

    def max_speed(self) -> Optional[float]:
        """Upper bound on speed over the whole trajectory, or None if unknown.

        A bound ``v`` promises ``|position(t1) - position(t0)| <= v·|t1 - t0|``
        for all times; the channel sizes its neighbour lists from it.
        """
        return None

    def watch(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` whenever the trajectory (or speed bound) changes."""
        self._watchers = self._watchers + (callback,)

    def unwatch(self, callback: Callable[[], None]) -> None:
        """Stop calling a callback registered with :meth:`watch`."""
        watchers = list(self._watchers)
        watchers.remove(callback)
        self._watchers = tuple(watchers)

    def _changed(self) -> None:
        for callback in self._watchers:
            callback()

    def velocity(self, t: float) -> Position:
        """Velocity vector at time ``t`` (numeric differentiation default)."""
        eps = 1e-3
        x0, y0 = self.position(max(0.0, t - eps))
        x1, y1 = self.position(t + eps)
        dt = (t + eps) - max(0.0, t - eps)
        return ((x1 - x0) / dt, (y1 - y0) / dt)

    def speed(self, t: float) -> float:
        """Scalar speed at time ``t``."""
        vx, vy = self.velocity(t)
        return math.hypot(vx, vy)


class StationaryMobility(MobilityModel):
    """A node that never moves on its own.

    Assigning ``x`` or ``y`` teleports it; watchers hear of the jump, since
    no speed bound covers it.
    """

    def __init__(self, x: float, y: float) -> None:
        self._position: Position = (float(x), float(y))

    @property
    def x(self) -> float:
        return self._position[0]

    @x.setter
    def x(self, value: float) -> None:
        self._position = (float(value), self._position[1])
        self._changed()

    @property
    def y(self) -> float:
        return self._position[1]

    @y.setter
    def y(self, value: float) -> None:
        self._position = (self._position[0], float(value))
        self._changed()

    def position(self, t: float) -> Position:
        return self._position

    def max_speed(self) -> float:
        return 0.0

    def velocity(self, t: float) -> Position:
        return (0.0, 0.0)
