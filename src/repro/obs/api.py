"""The process-wide instrumentation context every component binds from.

Instrumented components (MACs, queues, TCP agents, ...) bind their
instruments, monitors and packet sinks at construction time::

    from repro.obs import api as obs
    ...
    self._obs_retx = obs.counter("mac.dcf.retransmissions")
    self._san = obs.monitor("queue_mon")

While a context is active (:class:`repro.core.scenario.EblScenario`
activates one when its :class:`~repro.core.trials.TrialConfig` enables
observability or sanitizing) the accessors return live objects from it;
otherwise they return shared null objects whose update methods are
no-ops.  Binding happens once per component, so the disabled path costs
a single no-op method call per instrumented event.  The per-trace-event
objects (journey tracker, packet ledger) are ``Optional`` instead:
there an ``is not None`` test is cheaper than a no-op call.

The context is deliberately process-wide, matching how scenarios are
built (serially, one at a time, in the worker process that runs them);
the scenario activates it only for the span of stack construction and
always deactivates in a ``finally``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.des import resources as des_resources
from repro.obs.registry import (
    LATENCY_EDGES,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.journey import JourneyTracker
    from repro.obs.tracing.spans import SpanTracer
    from repro.sanitizer.ledger import PacketLedger
    from repro.sanitizer.runtime import Sanitizer

#: A packet-event sink: ``record(event, time, node, layer, pkt)``.
PacketSink = Callable[[str, float, int, str, Any], None]


class _NullMonitor:
    """Shared no-op monitor bound while the sanitizer is disabled.

    One class carries every hook any protocol monitor exposes, so a
    single shared instance serves queues, TCP agents, and MACs alike.
    """

    __slots__ = ()

    def on_occupancy(self, queue: Any, occupancy: int) -> None:
        """Queue occupancy after an insert (no-op)."""

    def on_segment_sent(self, agent: Any, seqno: int) -> None:
        """TCP sender emitted a segment (no-op)."""

    def on_ack(self, agent: Any, ackno: int) -> None:
        """TCP sender received an ACK (no-op)."""

    def on_sink(self, sink: Any) -> None:
        """TCP sink processed a data segment (no-op)."""

    def on_slot_tx(self, mac: Any, start: float, duration: float) -> None:
        """TDMA MAC began a slot transmission (no-op)."""

    def on_nav(self, mac: Any, until: float) -> None:
        """802.11 MAC updated its NAV (no-op)."""

    def on_backoff(self, mac: Any, slots: int) -> None:
        """802.11 MAC drew a backoff (no-op)."""

    def on_culled(self, sender: Any, receiver: Any, power: float) -> None:
        """Channel skipped a receiver through a neighbour list (no-op)."""


NULL_MONITOR = _NullMonitor()

_registry: Optional[MetricRegistry] = None
_journeys: Optional["JourneyTracker"] = None
_spans: Optional["SpanTracer"] = None
_sanitizer: Optional["Sanitizer"] = None


def activate(
    registry: Optional[MetricRegistry] = None,
    journeys: Optional["JourneyTracker"] = None,
    spans: Optional["SpanTracer"] = None,
    sanitizer: Optional["Sanitizer"] = None,
) -> None:
    """Install the context components bind from.

    With a sanitizer, every kernel resource built from here on is also
    reported to it for the end-of-trial occupancy audit.
    """
    global _registry, _journeys, _spans, _sanitizer
    _registry = registry
    _journeys = journeys
    _spans = spans
    _sanitizer = sanitizer
    des_resources._AUDIT_HOOK = (
        sanitizer.resources.append if sanitizer is not None else None
    )


def deactivate() -> None:
    """Clear the context (components bound so far stay bound)."""
    activate()


def counter(name: str) -> Counter:
    """The named counter from the active registry, or the null counter."""
    if _registry is None:
        return NULL_COUNTER  # type: ignore[return-value]
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """The named gauge from the active registry, or the null gauge."""
    if _registry is None:
        return NULL_GAUGE  # type: ignore[return-value]
    return _registry.gauge(name)


def histogram(
    name: str, edges: tuple[float, ...] = LATENCY_EDGES
) -> Histogram:
    """The named histogram from the active registry, or the null one."""
    if _registry is None:
        return NULL_HISTOGRAM  # type: ignore[return-value]
    return _registry.histogram(name, edges)


def journey_tracker() -> Optional["JourneyTracker"]:
    """The active packet-journey tracker, or None when disabled."""
    return _journeys


def packet_ledger() -> Optional["PacketLedger"]:
    """The active conservation ledger, or None when not sanitizing."""
    return _sanitizer.ledger if _sanitizer is not None else None


def monitor(attr: str) -> Any:
    """The sanitizer's protocol monitor ``attr`` (``"queue_mon"``,
    ``"tcp_mon"``, ``"tdma_mon"``, ``"dcf_mon"``, ``"channel_mon"``), or
    the null monitor."""
    if _sanitizer is None:
        return NULL_MONITOR
    return getattr(_sanitizer, attr)


def packet_sinks(tracer: Optional[Any] = None) -> tuple[PacketSink, ...]:
    """The ``record`` callables a node fans each packet event out to.

    In order: the ns-2 ``tracer`` (passed by the node's builder), the
    journey tracker, the span tracer and the packet ledger; absent ones
    are left out, so a node built with nothing active gets ``()``.
    """
    return tuple(
        sink.record
        for sink in (tracer, _journeys, _spans, packet_ledger())
        if sink is not None
    )
