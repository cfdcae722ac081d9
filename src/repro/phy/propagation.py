"""Radio propagation models (ns-2 equivalents).

All models answer one question: given transmit power and a
transmitter/receiver geometry, what power arrives at the receiver?
Powers are in watts, distances in metres, matching ns-2's conventions so
ns-2's default thresholds can be reused directly.
"""

from __future__ import annotations

import math
import random
from typing import Optional

#: Speed of light (m/s), used for wavelength and propagation delay.
SPEED_OF_LIGHT = 299_792_458.0


class PropagationModel:
    """Base class for propagation models."""

    #: True when ``rx_power`` is a pure function of its arguments.  The
    #: channel's fast-path link cache only memoises deterministic models —
    #: caching a stochastic model would skip its per-call RNG draws and
    #: change the random stream.  Stochastic subclasses must override this.
    #: The channel's neighbour lists also rely on a deterministic model's
    #: power never rising with distance.
    deterministic = True

    def rx_power(
        self,
        tx_power: float,
        distance: float,
        wavelength: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
        tx_height: float = 1.5,
        rx_height: float = 1.5,
        system_loss: float = 1.0,
    ) -> float:
        """Received power in watts at ``distance`` metres."""
        raise NotImplementedError

    def range_for_threshold(
        self, tx_power: float, threshold: float, wavelength: float, **kwargs: float
    ) -> float:
        """Distance at which received power falls to ``threshold`` watts.

        Solved numerically by bisection so subclasses get it for free.
        """
        if self.rx_power(tx_power, 1e-3, wavelength, **kwargs) < threshold:
            return 0.0
        lo, hi = 1e-3, 1.0
        while self.rx_power(tx_power, hi, wavelength, **kwargs) >= threshold:
            hi *= 2
            if hi > 1e7:  # pragma: no cover - absurd range guard
                return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.rx_power(tx_power, mid, wavelength, **kwargs) >= threshold:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def friis(
    tx_power: float,
    distance: float,
    wavelength: float,
    tx_gain: float,
    rx_gain: float,
    system_loss: float,
) -> float:
    """Friis free-space equation: Pr = Pt·Gt·Gr·λ² / ((4πd)²·L)."""
    if distance <= 0:
        return tx_power
    denom = (4.0 * math.pi * distance) ** 2 * system_loss
    return tx_power * tx_gain * rx_gain * wavelength**2 / denom


class FreeSpace(PropagationModel):
    """Ideal free-space (Friis) propagation."""

    def rx_power(
        self,
        tx_power: float,
        distance: float,
        wavelength: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
        tx_height: float = 1.5,
        rx_height: float = 1.5,
        system_loss: float = 1.0,
    ) -> float:
        return friis(tx_power, distance, wavelength, tx_gain, rx_gain, system_loss)


class TwoRayGround(PropagationModel):
    """Two-ray ground-reflection model (ns-2's wireless default).

    Friis up to the crossover distance ``dc = 4π·ht·hr / λ``; beyond it the
    ground reflection dominates and power falls with d⁴:
    ``Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)``.
    """

    def __init__(self) -> None:
        # Geometry is fixed per radio profile, so the crossover for a given
        # (wavelength, heights) triple is computed once; rx_power runs per
        # receiver per transmission.
        self._crossover_memo: dict[tuple[float, float, float], float] = {}

    def crossover_distance(
        self, wavelength: float, tx_height: float = 1.5, rx_height: float = 1.5
    ) -> float:
        """Distance where the two-ray term takes over from Friis."""
        key = (wavelength, tx_height, rx_height)
        crossover = self._crossover_memo.get(key)
        if crossover is None:
            crossover = 4.0 * math.pi * tx_height * rx_height / wavelength
            self._crossover_memo[key] = crossover
        return crossover

    def rx_power(
        self,
        tx_power: float,
        distance: float,
        wavelength: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
        tx_height: float = 1.5,
        rx_height: float = 1.5,
        system_loss: float = 1.0,
    ) -> float:
        if distance <= 0:
            return tx_power
        crossover = self.crossover_distance(wavelength, tx_height, rx_height)
        if distance <= crossover:
            return friis(
                tx_power, distance, wavelength, tx_gain, rx_gain, system_loss
            )
        return (
            tx_power
            * tx_gain
            * rx_gain
            * (tx_height * rx_height) ** 2
            / (distance**4 * system_loss)
        )


class LogNormalShadowing(PropagationModel):
    """Log-normal shadowing: path-loss exponent plus Gaussian dB noise.

    ``Pr(d) [dB] = Pr(d0) [dB] - 10·β·log10(d/d0) + X``, X ~ N(0, σ_dB).
    Deterministic when ``sigma_db == 0``.
    """

    def __init__(
        self,
        path_loss_exponent: float = 2.0,
        sigma_db: float = 4.0,
        reference_distance: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if path_loss_exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if sigma_db < 0:
            raise ValueError("sigma_db must be non-negative")
        if reference_distance <= 0:
            raise ValueError("reference distance must be positive")
        self.path_loss_exponent = path_loss_exponent
        self.sigma_db = sigma_db
        self.reference_distance = reference_distance
        self._rng = rng or random.Random(0)
        # With shadowing noise every call draws from the RNG; caching
        # would freeze the fade and starve the stream.
        self.deterministic = sigma_db == 0

    def rx_power(
        self,
        tx_power: float,
        distance: float,
        wavelength: float,
        tx_gain: float = 1.0,
        rx_gain: float = 1.0,
        tx_height: float = 1.5,
        rx_height: float = 1.5,
        system_loss: float = 1.0,
    ) -> float:
        if distance <= 0:
            return tx_power
        reference_power = friis(
            tx_power,
            self.reference_distance,
            wavelength,
            tx_gain,
            rx_gain,
            system_loss,
        )
        distance = max(distance, self.reference_distance)
        path_loss_db = (
            10.0
            * self.path_loss_exponent
            * math.log10(distance / self.reference_distance)
        )
        shadowing_db = (
            self._rng.gauss(0.0, self.sigma_db) if self.sigma_db > 0 else 0.0
        )
        return reference_power * 10.0 ** ((-path_loss_db + shadowing_db) / 10.0)
