"""Differential-digest guard: instrumentation must not perturb results.

Every instrument is advertised as free of side effects on the
simulation.  Metrics, journeys and the heartbeat introspector (which
schedules its own timeout events); the span tracer and wall-clock
profiler, which switch the kernel to a different run loop; the
sanitizer's ledger, protocol monitors and kernel checks, which flip the
event loop into strict mode.  Each case below runs a trial with some of
them on and compares the complete packet-trace digest and the metric
summary with the same trial run uninstrumented, then checks that the
instruments really recorded something.

Anything that breaks this (an instrument drawing from an RNG, a
heartbeat mutating state, an eid-dependent tiebreak flipping) fails
here before it can silently skew a paper figure.
"""

from __future__ import annotations

import itertools

import pytest

import repro.net.packet as packet_module
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.obs import ObservabilityConfig
from repro.perf.equivalence import metrics_summary, trace_digest

#: Long enough for the brake warning to propagate through both platoons.
DURATION = 12.0

TRIALS = {"trial1": TRIAL_1, "trial2": TRIAL_2, "trial3": TRIAL_3}

#: Metrics, journeys, and the heartbeat process, which inserts extra
#: (state-reading) events into the schedule.
FULL_OBSERVABILITY = ObservabilityConfig(
    metrics=True, journeys=True, heartbeat_interval=1.0
)

#: Instrumentation overrides per case.
CASES = {
    "observability": {"observability": FULL_OBSERVABILITY},
    "sanitize": {"sanitize": True},
    "tracing": {
        "observability": ObservabilityConfig(
            metrics=False, journeys=False, tracing=True
        )
    },
    "everything": {
        "observability": ObservabilityConfig(
            metrics=True,
            journeys=True,
            heartbeat_interval=1.0,
            tracing=True,
            profile_wall=True,
        ),
        "sanitize": True,
    },
}

#: (case, trial) pairs.  Trial 1 (TDMA) and Trial 3 (802.11 contention)
#: cover both kernels' scheduling styles; trial 2 only adds a packet
#: size, so the kernel-swapping cases skip it.  Everything at once runs
#: on trial 1, the cheapest.
RUNS = [
    ("observability", "trial1"),
    ("observability", "trial2"),
    ("observability", "trial3"),
    ("sanitize", "trial1"),
    ("sanitize", "trial2"),
    ("sanitize", "trial3"),
    ("tracing", "trial1"),
    ("tracing", "trial3"),
    ("everything", "trial1"),
]

#: Trials whose spans are resolved for the causal-link check.  Resolving
#: takes longer than the traced run itself (~290k spans on trial 3).
RESOLVE_SPANS = {"trial1"}


def run_fresh(config):
    """Run a trial with the packet uid counter rewound to zero.

    The uid counter is process-global, so back-to-back in-process runs
    would differ in every uid regardless of instrumentation; rewinding
    it makes the two traces comparable field-for-field.
    """
    packet_module._uid_counter = itertools.count()
    return run_trial(config)


def base_config(trial: str):
    return TRIALS[trial].with_overrides(duration=DURATION, enable_trace=True)


def assert_instruments_recorded(result, resolve_spans: bool) -> None:
    """The run was genuinely instrumented, not silently no-op'd."""
    if result.config.sanitize:
        report = result.sanitizer_report
        assert report is not None and report.ok, report.render()
        assert report.counters["audited"] > 0
        assert report.counters["delivered"] > 0
    config = result.config.observability
    if config is None:
        return
    obs = result.observability
    if config.metrics:
        assert obs.registry.counter("mac.data.received").value > 0
    if config.journeys:
        assert obs.journeys.journeys()
    if config.heartbeat_interval is not None:
        assert obs.introspector.records
    if config.tracing:
        assert len(obs.spans) > 0
    if config.tracing and resolve_spans:
        spans = obs.spans.finalize()
        # The causal structure resolved: nearly every span has a parent.
        assert sum(1 for s in spans if s.parent is not None) / len(spans) > 0.9
    if config.profile_wall:
        assert obs.profiler.events > 0


@pytest.fixture(scope="module")
def plain_runs():
    """Uninstrumented runs by trial name, each computed once and shared
    by every case of that trial."""
    return {}


@pytest.fixture(
    scope="module", params=RUNS, ids=[f"{case}-{trial}" for case, trial in RUNS]
)
def run_pair(request, plain_runs):
    """(case, trial, plain run, instrumented run) for one entry of RUNS.

    Module scope makes pytest group both tests of a pair together, so
    each instrumented run happens once and only one is held at a time.
    """
    case, trial = request.param
    if trial not in plain_runs:
        plain_runs[trial] = run_fresh(base_config(trial))
    instrumented = run_fresh(base_config(trial).with_overrides(**CASES[case]))
    return case, trial, plain_runs[trial], instrumented


def test_trace_digest_identical(run_pair):
    case, trial, plain, instrumented = run_pair
    assert trace_digest(instrumented) == trace_digest(plain), (
        f"{trial}: enabling {case} changed the packet trace — the "
        "instrumentation has a simulation side effect"
    )


def test_summary_identical_and_instruments_recorded(run_pair):
    """Field-by-field summary, plus proof the instruments really ran."""
    case, trial, plain, instrumented = run_pair
    assert metrics_summary(instrumented) == metrics_summary(plain)
    assert_instruments_recorded(instrumented, trial in RESOLVE_SPANS)
