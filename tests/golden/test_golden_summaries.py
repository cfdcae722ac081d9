"""Golden determinism regression tests.

Each trial's bit-exact metric summary (per-flow delay samples, throughput
series, delivery counts — floats serialised via ``repr``) is snapshotted
as JSON next to this file.  Any change to the event stream — an RNG
drawn in a different order, a float computed differently, an event
reordered — shows up here as a diff against the snapshot.

When a change is *intended* to alter results (new physics, a fixed bug),
regenerate the snapshots and commit them with the change::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

The diff of the regenerated JSON then documents exactly what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.perf.equivalence import metrics_summary
from repro.perf.fastpath import FASTPATH

GOLDEN_DIR = Path(__file__).resolve().parent

#: Short enough to keep the suite fast, long enough that both platoons
#: exchange traffic and the brake warning propagates.
GOLDEN_DURATION = 12.0

GOLDEN_TRIALS = {
    "trial1": TRIAL_1.with_overrides(duration=GOLDEN_DURATION),
    "trial2": TRIAL_2.with_overrides(duration=GOLDEN_DURATION),
    "trial3": TRIAL_3.with_overrides(duration=GOLDEN_DURATION),
    # Scaled platoons: their far ends sit beyond the 550 m carrier-sense
    # range, so these are the snapshots that see receivers out of range.
    "trial3_48": TRIAL_3.with_overrides(platoon_size=48, duration=1.0),
    "trial1_24": TRIAL_1.with_overrides(platoon_size=24, duration=5.0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRIALS))
def test_metric_summary_matches_golden(name, request):
    summary = metrics_summary(run_trial(GOLDEN_TRIALS[name]))
    path = GOLDEN_DIR / f"{name}_summary.json"

    if request.config.getoption("--update-golden"):
        path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"golden snapshot regenerated: {path.name}")

    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"'python -m pytest tests/golden --update-golden'"
    )
    golden = json.loads(path.read_text())
    assert summary == golden, (
        f"{name} metric summary drifted from its golden snapshot; if the "
        f"change is intentional, regenerate with --update-golden and "
        f"commit the JSON diff"
    )


@pytest.mark.parametrize("name", ["trial1_24", "trial3_48"])
def test_scaled_golden_holds_under_sanitizer(name):
    """The scaled runs again with simsan on: the summary must not move,
    and every radio a neighbour list skipped must be out of range."""
    result = run_trial(GOLDEN_TRIALS[name].with_overrides(sanitize=True))
    report = result.sanitizer_report
    assert report.ok, report.render()
    if FASTPATH:
        assert report.counters["culled"] > 0
    golden = json.loads((GOLDEN_DIR / f"{name}_summary.json").read_text())
    assert metrics_summary(result) == golden


def test_golden_snapshots_are_committed():
    """Every trial has a snapshot on disk (guards against skipped setup)."""
    missing = [
        name
        for name in GOLDEN_TRIALS
        if not (GOLDEN_DIR / f"{name}_summary.json").exists()
    ]
    assert not missing, f"golden snapshots missing for: {missing}"
