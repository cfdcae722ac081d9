"""The shared wireless channel.

A single broadcast medium.  A transmission reaches every other attached
radio whose received power, computed from the propagation model and the
node geometry at transmission time, is at or above that radio's
carrier-sense threshold; delivery is delayed by distance/c.  Radios below
the threshold never hear the signal at all (ns-2's "interference
distance" filter).

The reference loop in :meth:`WirelessChannel.transmit` visits every radio
to find them.  The fast path visits only the sender's *neighbour list*
(a Verlet list, as in molecular dynamics): the radios that could reach
carrier-sense range before the list expires.  See
:meth:`WirelessChannel._build_neighbours` for why skipping the rest
changes nothing.
"""

from __future__ import annotations

import random
from math import hypot, inf
from typing import TYPE_CHECKING, Optional

from repro.des.events import DeferredBatch
from repro.net.packet import Packet
from repro.obs import api as obs
from repro.perf.fastpath import FASTPATH
from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel, TwoRayGround
from repro.phy.radio import WirelessPhy

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment
    from repro.mobility.base import MobilityModel

#: Slack, metres, a neighbour list keeps beyond carrier-sense range.  A
#: list stays valid while no sender/receiver pair can close this gap,
#: i.e. for ``NEIGHBOUR_MARGIN / (2·v_max)`` seconds: about 1.1 s among
#: vehicles at 50 mph (22.4 m/s).
NEIGHBOUR_MARGIN = 50.0


class WirelessChannel:
    """Broadcast radio channel connecting :class:`WirelessPhy` instances."""

    def __init__(
        self,
        env: "Environment",
        propagation: Optional[PropagationModel] = None,
    ) -> None:
        self.env = env
        self.propagation = propagation or TwoRayGround()
        self._phys: list[WirelessPhy] = []
        #: Directed pairs that cannot hear each other (fault injection);
        #: both directions are stored so membership tests stay O(1).  The
        #: value is an outage refcount: two overlapping outages on the
        #: same link must not resurrect it when the first one ends.
        self._blocked: dict[tuple[WirelessPhy, WirelessPhy], int] = {}
        self._ledger = obs.packet_ledger()
        #: Channel-wide frame-loss probability in [0, 1) while degraded.
        self.loss_rate = 0.0
        self._loss_rng: Optional[random.Random] = None
        #: Statistics: total transmissions offered to the channel.
        self.transmissions = 0
        #: Frames lost to an active channel-degradation window.
        self.degraded_losses = 0
        self._obs_tx = obs.counter("channel.transmissions")
        self._obs_degraded = obs.counter("channel.degraded_losses")
        #: Fast path: per sender, a per-receiver map of the last
        #: ``(sender_pos, receiver_pos, tx_power, distance, rx_power)``.
        #: Platoon geometry is static or slowly moving, so consecutive
        #: transmissions usually see identical positions; a position or
        #: tx-power change misses the cache and recomputes, so mobility
        #: updates invalidate entries implicitly.  Only used when the
        #: propagation model is deterministic (a stochastic model draws
        #: from its RNG per call and must never be cached).  Nested dicts
        #: rather than (sender, receiver) tuple keys: the sender map is
        #: fetched once per transmission, avoiding a tuple allocation per
        #: receiver in the fan-out loop.
        self._link_cache: dict[
            WirelessPhy,
            dict[
                WirelessPhy,
                tuple[
                    tuple[float, float], tuple[float, float], float, float, float
                ],
            ],
        ] = {}
        #: Fast path: per sender, ``(expires, tx_power, receivers)``: the
        #: radios, in attach order, that may hear the sender before
        #: ``expires`` at any transmit power up to ``tx_power``.  Built
        #: and used only for deterministic propagation, like the link
        #: cache; dropped whenever a radio or its motion changes.
        self._neighbours: dict[
            WirelessPhy, tuple[float, float, list[WirelessPhy]]
        ] = {}
        self._san = obs.monitor("channel_mon")
        #: Sanitize mode: walk every radio anyway and check each one the
        #: neighbour list skips (ledger notes keep their order and count).
        self._audit = self._san is not obs.NULL_MONITOR

    def attach(self, phy: WirelessPhy) -> None:
        """Connect a radio to this channel."""
        if phy in self._phys:
            raise ValueError("phy already attached")
        phy.channel = self
        phy.propagation = self.propagation
        self._phys.append(phy)
        phy.mobility.watch(self._forget_neighbours)
        self._forget_neighbours()

    def detach(self, phy: WirelessPhy) -> None:
        """Disconnect a radio (e.g. a vehicle leaving the scenario)."""
        self._phys.remove(phy)
        phy.channel = None
        phy.mobility.unwatch(self._forget_neighbours)
        self._forget_neighbours()
        self._link_cache.pop(phy, None)
        for receivers in self._link_cache.values():
            receivers.pop(phy, None)

    def mobility_changed(self, phy: WirelessPhy, previous: "MobilityModel") -> None:
        """An attached radio now follows a different mobility model."""
        previous.unwatch(self._forget_neighbours)
        phy.mobility.watch(self._forget_neighbours)
        self._forget_neighbours()

    def _forget_neighbours(self) -> None:
        self._neighbours.clear()

    @property
    def phys(self) -> tuple[WirelessPhy, ...]:
        """Radios currently attached."""
        return tuple(self._phys)

    # -- fault hooks -------------------------------------------------------

    def block_link(self, a: WirelessPhy, b: WirelessPhy) -> None:
        """Make ``a`` and ``b`` mutually inaudible (link outage)."""
        for pair in ((a, b), (b, a)):
            self._blocked[pair] = self._blocked.get(pair, 0) + 1

    def unblock_link(self, a: WirelessPhy, b: WirelessPhy) -> None:
        """Restore a link previously taken down by :meth:`block_link`.

        Refcounted: with overlapping outages on the same link, only the
        last :meth:`unblock_link` actually restores it.
        """
        for pair in ((a, b), (b, a)):
            count = self._blocked.get(pair, 0) - 1
            if count > 0:
                self._blocked[pair] = count
            else:
                self._blocked.pop(pair, None)

    def set_degradation(self, loss_rate: float, rng: random.Random) -> None:
        """Drop frames channel-wide with probability ``loss_rate``."""
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = loss_rate
        self._loss_rng = rng

    def clear_degradation(self) -> None:
        """End the channel-degradation window."""
        self.loss_rate = 0.0
        self._loss_rng = None

    def transmit(self, sender: WirelessPhy, pkt: Packet, duration: float) -> None:
        """Offer ``pkt`` from ``sender`` to every other attached radio."""
        if not sender.up:
            return
        self.transmissions += 1
        self._obs_tx.inc()
        if FASTPATH:
            self._transmit_fast(sender, pkt, duration)
            return
        params = sender.params
        blocked = self._blocked
        ledger = self._ledger
        for receiver in self._phys:
            if receiver is sender:
                continue
            if blocked and (sender, receiver) in blocked:
                if ledger is not None:
                    ledger.note(pkt, "link-blocked", self.env.now)
                continue
            distance = sender.distance_to(receiver)
            power = self.propagation.rx_power(
                sender.tx_power,
                distance,
                params.wavelength,
                tx_gain=params.tx_gain,
                rx_gain=receiver.params.rx_gain,
                tx_height=params.antenna_height,
                rx_height=receiver.params.antenna_height,
                system_loss=params.system_loss,
            )
            if power < receiver.params.cs_threshold:
                if ledger is not None:
                    ledger.note(pkt, "out-of-range", self.env.now)
                continue
            if (
                self._loss_rng is not None
                and self._loss_rng.random() < self.loss_rate
            ):
                self.degraded_losses += 1
                self._obs_degraded.inc()
                if ledger is not None:
                    ledger.note(pkt, "degraded", self.env.now)
                continue
            delay = distance / SPEED_OF_LIGHT
            self.env.process(
                self._deliver(
                    receiver,
                    pkt.copy(keep_uid=True),
                    power,
                    duration,
                    delay,
                    distance,
                )
            )

    def _transmit_fast(
        self, sender: WirelessPhy, pkt: Packet, duration: float
    ) -> None:
        """Fast-path fan-out: cached link budgets, trampoline delivery.

        Observably identical to the reference loop in :meth:`transmit`:
        the same receivers get the same power at the same simulated time,
        in the same event order (see
        :class:`~repro.des.events.DeferredCall`).
        """
        env = self.env
        params = sender.params
        blocked = self._blocked
        propagation = self.propagation
        cacheable = getattr(propagation, "deterministic", False)
        links: dict[WirelessPhy, tuple] = {}
        tx_power = sender.tx_power
        receivers = self._phys
        neighbours = None
        if cacheable:
            sender_links = self._link_cache.get(sender)
            if sender_links is None:
                sender_links = self._link_cache[sender] = {}
            links = sender_links
            entry = self._neighbours.get(sender)
            if entry is not None and env.now < entry[0] and tx_power <= entry[1]:
                neighbours = entry[2]
                if not self._audit:
                    receivers = neighbours
        sender_pos = sender.position
        loss_rng = self._loss_rng
        ledger = self._ledger
        deliveries: list[tuple] = []
        for receiver in receivers:
            if receiver is sender:
                continue
            if blocked and (sender, receiver) in blocked:
                if ledger is not None:
                    ledger.note(pkt, "link-blocked", env.now)
                continue
            receiver_pos = receiver.position
            entry = links.get(receiver)
            if (
                entry is not None
                and entry[0] == sender_pos
                and entry[1] == receiver_pos
                and entry[2] == tx_power
            ):
                distance = entry[3]
                power = entry[4]
            else:
                # hypot, not sqrt(dx²+dy²): the reference path uses
                # Phy.distance_to (math.hypot) and the two can differ in
                # the last ulp, which the equivalence gate would catch.
                distance = hypot(
                    receiver_pos[0] - sender_pos[0],
                    receiver_pos[1] - sender_pos[1],
                )
                power = propagation.rx_power(
                    tx_power,
                    distance,
                    params.wavelength,
                    tx_gain=params.tx_gain,
                    rx_gain=receiver.params.rx_gain,
                    tx_height=params.antenna_height,
                    rx_height=receiver.params.antenna_height,
                    system_loss=params.system_loss,
                )
                if cacheable:
                    links[receiver] = (
                        sender_pos,
                        receiver_pos,
                        tx_power,
                        distance,
                        power,
                    )
            if power < receiver.params.cs_threshold:
                if ledger is not None:
                    ledger.note(pkt, "out-of-range", env.now)
                continue
            if loss_rng is not None and loss_rng.random() < self.loss_rate:
                self.degraded_losses += 1
                self._obs_degraded.inc()
                if ledger is not None:
                    ledger.note(pkt, "degraded", env.now)
                continue
            deliveries.append(
                (
                    distance / SPEED_OF_LIGHT,
                    _Delivery(receiver, pkt.copy(keep_uid=True), power,
                              duration, distance),
                )
            )
        if deliveries:
            DeferredBatch(env, deliveries)
        if not cacheable:
            return
        if neighbours is None:
            self._build_neighbours(sender, tx_power, links)
        elif self._audit:
            listed = set(neighbours)
            for receiver in self._phys:
                if receiver is sender or receiver in listed:
                    continue
                if blocked and (sender, receiver) in blocked:
                    continue
                self._san.on_culled(sender, receiver, links[receiver][4])

    def _build_neighbours(
        self,
        sender: WirelessPhy,
        tx_power: float,
        links: dict[WirelessPhy, tuple],
    ) -> None:
        """List the radios that may hear ``sender`` before the list expires.

        Runs right after a full fan-out, so ``links`` holds every
        unblocked receiver's current distance ``d`` and power.  A receiver
        is left out only if the link budget at ``max(d - margin, 0)`` is
        below its carrier-sense threshold.  Until the list expires no pair
        closes the margin (each radio moves at most ``v_max`` per second),
        and a deterministic model's power never rises with distance, so a
        left-out receiver stays out of range: the full loop would skip it
        too (radio constants are fixed, as the link cache also assumes).
        Transmit power above the list's rebuilds it; below it only shrinks
        the range.  Blocked receivers have no fresh budget and are kept.
        With any radio's speed unbounded, no list is stored and every
        transmission keeps the full loop.
        """
        v_max = 0.0
        for phy in self._phys:
            bound = phy.mobility.max_speed()
            if bound is None:
                return
            v_max = max(v_max, bound)
        params = sender.params
        blocked = self._blocked
        neighbours = []
        for receiver in self._phys:
            if receiver is sender:
                continue
            if not (blocked and (sender, receiver) in blocked):
                distance, power = links[receiver][3:]
                threshold = receiver.params.cs_threshold
                if power < threshold and self.propagation.rx_power(
                    tx_power,
                    max(distance - NEIGHBOUR_MARGIN, 0.0),
                    params.wavelength,
                    tx_gain=params.tx_gain,
                    rx_gain=receiver.params.rx_gain,
                    tx_height=params.antenna_height,
                    rx_height=receiver.params.antenna_height,
                    system_loss=params.system_loss,
                ) < threshold:
                    continue
            neighbours.append(receiver)
        lifetime = NEIGHBOUR_MARGIN / (2.0 * v_max) if v_max > 0 else inf
        self._neighbours[sender] = (self.env.now + lifetime, tx_power, neighbours)

    def _deliver(
        self,
        receiver: WirelessPhy,
        pkt: Packet,
        power: float,
        duration: float,
        delay: float,
        distance: float,
    ):
        yield self.env.timeout(delay)
        receiver.begin_receive(pkt, power, duration, distance=distance)


class _Delivery:
    """Delivery event callback (cheaper than a closure per frame)."""

    __slots__ = ("receiver", "pkt", "power", "duration", "distance")

    def __init__(
        self,
        receiver: WirelessPhy,
        pkt: Packet,
        power: float,
        duration: float,
        distance: float,
    ) -> None:
        self.receiver = receiver
        self.pkt = pkt
        self.power = power
        self.duration = duration
        self.distance = distance

    def __call__(self, _event: object = None) -> None:
        self.receiver.begin_receive(
            self.pkt, self.power, self.duration, distance=self.distance
        )
