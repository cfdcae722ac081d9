"""Wall-clock benchmark harness behind ``ebl-sim bench`` / ``make bench``.

Runs the paper's canonical Trial 1-3 configurations under
``time.perf_counter``, recording for each trial:

* best-of-N wall-clock seconds (minimum is the standard noise filter),
* kernel events processed and events/second,
* channel transmissions (packets offered) and packets/second,
* process peak RSS.

Reports are schema-versioned JSON (``repro-bench/v1``) so a checked-in
baseline stays comparable across harness changes, and
:func:`compare_reports` turns two reports into a list of regressions —
the CLI exits non-zero when any trial slowed down by more than the
threshold (15% by default), which is what the CI bench step gates on.

Timestamps are deliberately absent: two benches of the same tree must
produce byte-identical JSON apart from the measured numbers.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Iterable, Optional

from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3, TrialConfig
from repro.obs.config import ObservabilityConfig
from repro.perf.fastpath import fastpath_enabled

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

#: Report schema identifier; bump when the JSON layout changes.
SCHEMA = "repro-bench/v1"

#: Trials benched, keyed by the name used in the report.
BENCH_TRIALS: dict[str, TrialConfig] = {
    "trial1": TRIAL_1,
    "trial2": TRIAL_2,
    "trial3": TRIAL_3,
}

#: Named profiles: ``smoke`` keeps CI fast, ``paper`` uses the paper's
#: trial durations (trial 3 shortened — 802.11 contention makes it the
#: slowest by far and 20 s already yields stable rates).
PROFILES: dict[str, dict[str, Any]] = {
    "smoke": {
        "repeats": 1,
        "durations": {"trial1": 6.0, "trial2": 6.0, "trial3": 4.0},
    },
    "paper": {
        "repeats": 3,
        "durations": {"trial1": 60.0, "trial2": 60.0, "trial3": 20.0},
    },
}

#: Relative slowdown tolerated before ``--compare`` fails.
DEFAULT_THRESHOLD = 0.15


def _peak_rss_kb() -> Optional[int]:
    """Process high-water RSS in KiB (None where unsupported)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return peak


def bench_trial(
    config: TrialConfig,
    duration: float,
    repeats: int,
    observe: bool = False,
    sanitize: bool = False,
    trace: bool = False,
    profile_wall: bool = False,
) -> dict[str, Any]:
    """Benchmark one trial config, returning its report entry.

    With ``observe`` the benched runs carry the full metric registry and
    journey tracker, so the entry additionally reports the compact metric
    snapshot — and the measured wall clock *includes* the observability
    overhead (the <10% bench guard measures exactly this).  ``sanitize``
    does the same for the runtime sanitizer: the wall clock includes the
    invariant-checking overhead, and the entry reports the violation
    count (which must be zero on the canonical trials).  ``trace`` runs
    with the causal span tracer recording — the entry reports the span
    count, and its wall clock is what the <10% tracing-overhead gate
    compares against an untraced run.  ``profile_wall`` attributes host
    time per component; the entry carries the hottest collapsed stacks
    (``profile_top``) and the full flamegraph lines (``collapsed``).
    """
    observability = None
    if observe or trace or profile_wall:
        observability = ObservabilityConfig(
            metrics=observe,
            journeys=observe,
            tracing=trace,
            profile_wall=profile_wall,
        )
    cfg = config.with_overrides(
        duration=duration,
        enable_trace=False,
        observability=observability,
        sanitize=sanitize,
    )
    best_wall = float("inf")
    events = 0
    packets = 0
    metrics: dict[str, float] = {}
    violations = 0
    spans = 0
    spans_dropped = 0
    collapsed: list[str] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()  # simlint: disable=SIM002
        result = run_trial(cfg)
        wall = time.perf_counter() - start  # simlint: disable=SIM002
        if wall < best_wall:
            best_wall = wall
            scenario = result.scenario
            events = scenario.env.events_processed if scenario else 0
            packets = scenario.channel.transmissions if scenario else 0
            obs = result.observability
            if obs is not None and obs.registry is not None:
                metrics = obs.registry.compact()
            if obs is not None and obs.spans is not None:
                spans = len(obs.spans)
                spans_dropped = obs.spans.dropped
            if obs is not None and obs.profiler is not None:
                collapsed = obs.profiler.collapsed_stacks()
            report = result.sanitizer_report
            if report is not None:
                violations = len(report) + report.overflow
    entry = {
        "duration_s": duration,
        "repeats": max(1, repeats),
        "wall_s": best_wall,
        "events": events,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
        "packets": packets,
        "packets_per_sec": packets / best_wall if best_wall > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if observe:
        entry["metrics"] = metrics
    if sanitize:
        entry["violations"] = violations
    if trace:
        entry["spans"] = spans
        entry["spans_dropped"] = spans_dropped
    if profile_wall:
        entry["profile_top"] = collapsed[:10]
        entry["collapsed"] = collapsed
    return entry


def run_bench(
    profile: str = "paper",
    repeats: Optional[int] = None,
    duration: Optional[float] = None,
    trials: Optional[Iterable[str]] = None,
    observe: bool = False,
    sanitize: bool = False,
    trace: bool = False,
    profile_wall: bool = False,
) -> dict[str, Any]:
    """Run the bench suite and return the full report dict."""
    if profile not in PROFILES:
        raise ValueError(f"unknown bench profile {profile!r}")
    settings = PROFILES[profile]
    names = list(trials) if trials is not None else list(BENCH_TRIALS)
    unknown = [n for n in names if n not in BENCH_TRIALS]
    if unknown:
        raise ValueError(f"unknown bench trials: {unknown}")
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "profile": profile,
        "fastpath": fastpath_enabled(),
        "observability": observe,
        "sanitizer": sanitize,
        "tracing": trace,
        "profile_wall": profile_wall,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "trials": {},
    }
    for name in names:
        report["trials"][name] = bench_trial(
            BENCH_TRIALS[name],
            duration if duration is not None else settings["durations"][name],
            repeats if repeats is not None else settings["repeats"],
            observe=observe,
            sanitize=sanitize,
            trace=trace,
            profile_wall=profile_wall,
        )
    return report


def write_report(report: dict[str, Any], path: str) -> None:
    """Write ``report`` as stable, human-diffable JSON."""
    with open(path, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_report(path: str) -> dict[str, Any]:
    """Load a report, rejecting unknown schema versions."""
    with open(path) as stream:
        report = json.load(stream)
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} (expected {SCHEMA!r})"
        )
    return report


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Regression messages for trials slower than ``baseline`` by > threshold.

    A trial regresses when wall-clock grew or events/sec shrank by more
    than ``threshold`` relative to the baseline.  Trials present in only
    one report are ignored (profiles may differ in coverage).
    """
    regressions: list[str] = []
    for name, base in sorted(baseline.get("trials", {}).items()):
        cur = current.get("trials", {}).get(name)
        if cur is None:
            continue
        base_wall = base.get("wall_s")
        cur_wall = cur.get("wall_s")
        if base_wall and cur_wall and cur_wall > base_wall * (1 + threshold):
            regressions.append(
                f"{name}: wall {cur_wall:.3f}s vs baseline {base_wall:.3f}s "
                f"(+{100 * (cur_wall / base_wall - 1):.1f}% > "
                f"{100 * threshold:.0f}%)"
            )
        base_eps = base.get("events_per_sec")
        cur_eps = cur.get("events_per_sec")
        if base_eps and cur_eps and cur_eps < base_eps / (1 + threshold):
            regressions.append(
                f"{name}: {cur_eps:,.0f} events/s vs baseline "
                f"{base_eps:,.0f} "
                f"(-{100 * (1 - cur_eps / base_eps):.1f}% > "
                f"{100 * threshold:.0f}%)"
            )
    return regressions


def format_report(report: dict[str, Any]) -> str:
    """Human-readable table of a bench report."""
    lines = [
        f"bench profile={report['profile']} "
        f"fastpath={'on' if report['fastpath'] else 'off'} "
        f"obs={'on' if report.get('observability') else 'off'} "
        f"trace={'on' if report.get('tracing') else 'off'} "
        f"python={report['python']}",
        f"{'trial':>8} {'sim s':>7} {'wall s':>8} {'events/s':>12} "
        f"{'packets/s':>10} {'rss MB':>7}",
    ]
    for name, entry in sorted(report["trials"].items()):
        rss = entry.get("peak_rss_kb")
        lines.append(
            f"{name:>8} {entry['duration_s']:7.1f} {entry['wall_s']:8.3f} "
            f"{entry['events_per_sec']:12,.0f} "
            f"{entry['packets_per_sec']:10,.0f} "
            f"{(rss / 1024 if rss else 0):7.1f}"
        )
    return "\n".join(lines)
