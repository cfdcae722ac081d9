"""Observability configuration carried by :class:`TrialConfig`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.tracing.spans import DEFAULT_MAX_SPANS


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to observe during one trial.

    Carried on :class:`repro.core.trials.TrialConfig` (``None`` there
    means fully disabled — the no-op fast path).  Frozen and
    dependency-free so campaign workers can pickle it.
    """

    #: Collect named metrics (counters/gauges/histograms).
    metrics: bool = True
    #: Record per-packet journey spans.
    journeys: bool = True
    #: Heartbeat period in *simulated* seconds; None disables heartbeats.
    heartbeat_interval: Optional[float] = None
    #: JSONL file heartbeat records are appended to (append-per-record,
    #: so a killed run leaves every heartbeat it emitted on disk).
    heartbeat_path: Optional[str] = None
    #: Record a causal span per executed kernel event (SpanTracer).
    tracing: bool = False
    #: Span cap — raw spans pin their events, so memory grows with it.
    max_spans: int = DEFAULT_MAX_SPANS
    #: Attribute host wall-clock time per component (WallClockProfiler).
    profile_wall: bool = False

    def __post_init__(self) -> None:
        if self.max_spans <= 0:
            raise ValueError("max_spans must be positive")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if not (
            self.metrics
            or self.journeys
            or self.heartbeat_interval
            or self.tracing
            or self.profile_wall
        ):
            raise ValueError(
                "observability config enables nothing; use None on the "
                "trial config instead"
            )
