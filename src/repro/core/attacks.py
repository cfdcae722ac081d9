"""Denial-of-service attack modelling (paper §III.E's security trade-off).

The paper closes its analysis noting that 802.11's performance comes
with a DoS exposure, and that "a combination of TDMA and Frequency
Hopping Spread Spectrum (FHSS) may be used as a means to help prevent
Denial-of-Service attacks on IVC networks" (citing the authors' own SAE
work).  This module provides the pieces to quantify that trade-off:

* :class:`JammerApp` — a radio that ignores carrier sense and emits
  noise frames continuously or in duty-cycled bursts.
* :func:`fhss_effective_loss` — the fraction of slots a single-channel
  jammer can hit when the victims hop over ``n_channels`` (modelled in
  simulation as an equivalent random frame-loss rate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.mobility.base import StationaryMobility
from repro.net.addresses import BROADCAST
from repro.net.headers import IpHeader, MacHeader
from repro.net.packet import Packet, PacketType
from repro.phy.radio import RadioParams, WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment
    from repro.net.channel import WirelessChannel


class _DeafMac:
    """MAC stub for the jammer: it never listens."""

    def phy_rx_start(self, pkt: Packet) -> None:
        pass

    def phy_rx_end(self, pkt: Packet) -> None:
        pass

    def phy_rx_failed(self, pkt: Packet, reason: str) -> None:
        pass


def _noise_frame(size: int) -> Packet:
    """A meaningless frame addressed to nobody."""
    return Packet(
        ptype=PacketType.MAC,
        size=size,
        ip=IpHeader(src=BROADCAST, dst=BROADCAST),
        mac=MacHeader(src=BROADCAST, dst=BROADCAST, subtype="noise"),
    )


class JammerApp:
    """A carrier-sense-ignoring noise source.

    Parameters
    ----------
    env / channel:
        Simulation environment and the channel to pollute.
    position:
        Fixed jammer location, metres.
    noise_size:
        Bytes per noise frame (sets burst airtime).
    duty_cycle:
        Fraction of time on the air, in (0, 1].  1.0 = continuous
        jamming; smaller values alternate burst/silence periods.
    period:
        Length of one on/off cycle, seconds (ignored at duty 1.0).
    """

    def __init__(
        self,
        env: "Environment",
        channel: "WirelessChannel",
        position: tuple[float, float],
        noise_size: int = 1500,
        duty_cycle: float = 1.0,
        period: float = 0.05,
        radio_params: Optional[RadioParams] = None,
    ) -> None:
        if not 0 < duty_cycle <= 1:
            raise ValueError("duty_cycle must be in (0, 1]")
        if period <= 0:
            raise ValueError("period must be positive")
        if noise_size <= 0:
            raise ValueError("noise_size must be positive")
        self.env = env
        self.duty_cycle = duty_cycle
        self.period = period
        self.noise_size = noise_size
        self.phy = WirelessPhy(
            env, StationaryMobility(*position), params=radio_params
        )
        self.phy.mac = _DeafMac()
        channel.attach(self.phy)
        self.frames_emitted = 0
        self._running = False

    @property
    def frame_airtime(self) -> float:
        """Airtime of one noise frame."""
        from repro.mac.base import PLCP_OVERHEAD

        return (
            PLCP_OVERHEAD
            + (self.noise_size + MacHeader.WIRE_SIZE) * 8.0
            / self.phy.params.bitrate
        )

    def start(self, at: float = 0.0) -> None:
        """Begin jamming at time ``at``."""
        self.env.process(self._run(at))

    def stop(self) -> None:
        """Cease fire."""
        self._running = False

    def _run(self, at: float):
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self._running = True
        airtime = self.frame_airtime
        while self._running:
            on_time = (
                self.period * self.duty_cycle
                if self.duty_cycle < 1.0
                else airtime
            )
            burst_end = self.env.now + on_time
            while self._running and self.env.now < burst_end:
                self.phy.transmit(_noise_frame(self.noise_size), airtime)
                self.frames_emitted += 1
                yield self.env.timeout(airtime)
            if self.duty_cycle < 1.0:
                yield self.env.timeout(self.period * (1.0 - self.duty_cycle))


def fhss_effective_loss(
    n_channels: int, jammer_channels: int = 1
) -> float:
    """Fraction of transmissions a fixed jammer hits under FHSS.

    Victims hop uniformly across ``n_channels``; a jammer parked on
    ``jammer_channels`` of them corrupts exactly the hops that land
    there.  In simulation the mitigation is therefore equivalent to a
    clean channel with a random frame-loss rate of this value — compose
    it with :class:`repro.phy.error_models.UniformErrorModel` or the
    trial config's ``error_rate``.
    """
    if n_channels < 1:
        raise ValueError("n_channels must be at least 1")
    if not 0 <= jammer_channels <= n_channels:
        raise ValueError("jammer_channels must be in [0, n_channels]")
    return jammer_channels / n_channels
