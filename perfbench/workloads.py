"""The benchmark's workloads, one trial's measurement, and its digest.

Every trial seed a workload runs comes from its shipped ``seeds`` pool,
and ``reference.json`` holds the digest each pool entry produced at the
commit the benchmark was defined on, so every trial is checked against
a recorded result.  The benchmark seed only chooses the order in which
a run walks its pool.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    """One named set of trials."""

    name: str
    #: Paper trial numbers (1, 2, 3) the pool cycles through.
    trials: tuple[int, ...]
    #: ``TrialConfig`` fields replaced on every trial of the workload.
    overrides: dict = field(default_factory=dict)
    #: Trial seeds with a recorded reference digest.
    seeds: tuple[int, ...] = tuple(range(1, 17))
    #: Platoon ``analyze_trial`` reads.
    platoon: int = 1
    #: Trials in the traced run; fixed, so its counts repeat exactly.
    traced_trials: int = 1
    #: Run the trials through ``run_campaign`` instead of in-process.
    campaign: bool = False

    def pool(self) -> list[tuple[int, int]]:
        return [(trial, seed) for seed in self.seeds for trial in self.trials]

    def order(self, bench_seed: int) -> list[tuple[int, int]]:
        """The pool in the order a run with ``bench_seed`` walks it."""
        pool = self.pool()
        return random.Random(f"{self.name}/{bench_seed}").sample(pool, len(pool))

    def config(self, entry: tuple[int, int]):
        from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3

        trial, seed = entry
        base = {1: TRIAL_1, 2: TRIAL_2, 3: TRIAL_3}[trial]
        return base.with_overrides(seed=seed, **self.overrides)


def reference_key(entry: tuple[int, int]) -> str:
    trial, seed = entry
    return f"trial{trial}/seed{seed}"


WORKLOADS: dict[str, Workload] = {
    # The TrialConfig default: 60 s, with the ns-2 packet Tracer on.
    "paper-tdma-traced": Workload(
        "paper-tdma-traced", (1, 2), {}, seeds=tuple(range(1, 9)),
        traced_trials=8,
    ),
    # 48 vehicles per platoon.  Platoon 1 cannot brake within 1 s, so the
    # analysis reads platoon 2, which communicates from t=0; a 0.25 s
    # throughput period leaves it enough samples for its interval.
    "scaled-96": Workload(
        "scaled-96",
        (3,),
        {"platoon_size": 48, "duration": 1.0, "throughput_interval": 0.25,
         "enable_trace": False},
        seeds=tuple(range(1, 5)),
        platoon=2,
        traced_trials=1,
    ),
    # Trial 3 shortened to 10 s of simulated time: past platoon 1's brake
    # onset (8.39 s), so analyze_trial has its delays, while a 30 s run
    # still completes about 45 trials.
    "campaign-dcf": Workload(
        "campaign-dcf", (3,), {"duration": 10.0, "enable_trace": False},
        traced_trials=3, campaign=True,
    ),
}


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, default=repr).encode()


def trial_digest(scenario, result, analysis) -> str:
    """SHA-256 over the trial's metrics, its event and transmission counts."""
    from repro.perf.equivalence import metrics_summary

    return hashlib.sha256(
        _canonical(
            [
                metrics_summary(result),
                scenario.env.events_processed,
                scenario.channel.transmissions,
                repr(analysis.initial_packet_delay),
                repr(analysis.steady_state_delay),
                analysis.transient_packets,
                repr(analysis.throughput.average),
                repr(analysis.confidence.mean),
            ]
        )
    ).hexdigest()


def campaign_digest(metrics: dict) -> str:
    """SHA-256 over the per-trial metrics a campaign outcome carries."""
    return hashlib.sha256(_canonical(metrics)).hexdigest()


@dataclass
class TrialRun:
    """Host times, counts and digest of one in-process trial."""

    build_s: float
    run_s: float
    analyze_s: float
    tx: int
    events: int
    digest: str
    scenario: Any = field(repr=False, default=None)


def _call(_layer, _counter, fn, *args):
    return fn(*args)


def run_trial(config, platoon: int, clock=None, timer=perf_counter) -> TrialRun:
    """Build, run, harvest and analyse one trial.

    ``run_s`` spans ``scenario.run()`` through ``harvest`` and
    ``analyze_trial``; the digest is computed outside every timed span.
    ``timer`` reads the clock the spans are measured on.  With a
    :class:`~layers.LayerClock`, harvest and analysis are spans of the
    ``stats`` layer and the scenario is kept for its counters.
    """
    from repro.core.analysis import analyze_trial
    from repro.core.runner import harvest
    from repro.core.scenario import EblScenario

    start = timer()
    scenario = EblScenario(config)
    built = timer()
    scenario.run()
    ran = timer()
    span = _call if clock is None else clock.span
    result = span("stats", "stats.harvest", harvest, scenario)
    analysis = span("stats", "stats.analyze", analyze_trial, result, platoon)
    done = timer()
    return TrialRun(
        build_s=built - start,
        run_s=done - built,
        analyze_s=done - ran,
        tx=scenario.channel.transmissions,
        events=scenario.env.events_processed,
        digest=trial_digest(scenario, result, analysis),
        scenario=None if clock is None else scenario,
    )


def load_reference() -> dict:
    with REFERENCE.open() as handle:
        return json.load(handle)


def expected(reference: dict, workload: Workload, entry) -> Optional[dict]:
    """The recorded reference for one pool entry, if any."""
    return reference["trials"].get(workload.name, {}).get(reference_key(entry))
