"""The benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import gc
import importlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from calibrate import calibration_s
from layers import ENTRY_POINTS, LAYERS, LayerClock
from run import EXACT, Gate, metric_units, trace_trials
from workloads import HERE, WORKLOADS, expected, load_reference

REFERENCE = load_reference()

# Short trials: a TDMA pair with the packet tracer on, and 3 s of 802.11
# analysed on platoon 2, which communicates from t=0.  The DCF variant
# has no recorded reference, so its gate compares the traced run with
# the untraced one.
CASES = {
    "tdma": (WORKLOADS["paper-tdma-traced"], [(1, 1), (2, 3)]),
    "dcf": (
        replace(WORKLOADS["campaign-dcf"], name="test-dcf-3s", platoon=2,
                campaign=False,
                overrides={"duration": 3.0, "enable_trace": False}),
        [(3, 4)],
    ),
}


def _profile(case: str):
    workload, entries = CASES[case]
    gate = Gate(workload, REFERENCE)
    metrics, clock, _ = trace_trials(gate, entries)
    assert gate.failed == 0
    assert gate.attempted == 2 * len(entries)
    return metrics, clock


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_counts_repeat_and_self_times_add_up(case):
    first, clock = _profile(case)
    second, _ = _profile(case)
    # campaign.failed is only measured on the campaign workload.
    exact = [name for name in EXACT if name != "campaign.failed"]
    assert {name: first[name] for name in exact} == {
        name: second[name] for name in exact
    }
    assert first["channel.tx"] > 0 and first["des.events"] > 0
    wall = first["bench.traced_wall_s"]
    total = sum(first[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(wall, rel=1e-9)
    # The des residual holds at least the time its own spans measured:
    # no span was charged twice.
    assert first["des.self_s"] >= clock.self_s["des"] - 1e-6
    assert all(first[f"{layer}.self_s"] >= 0 for layer in LAYERS)


def test_every_pool_entry_has_a_reference():
    for workload in WORKLOADS.values():
        for entry in workload.pool():
            ref = expected(REFERENCE, workload, entry)
            assert ref is not None, (workload.name, entry)
            assert ref["tx"] > 0 and len(ref["digest"]) == 64
            if workload.campaign:
                assert len(ref["campaign"]) == 64


def test_layer_clock_restores_every_entry_point():
    def current():
        return [
            getattr(importlib.import_module(module), cls).__dict__.get(attr)
            for module, cls, attr, _, _ in ENTRY_POINTS
        ]

    before = current()
    with LayerClock():
        assert current() != before
    assert current() == before


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper-tdma-traced",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(metric_units(section))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_calibration_restores_the_collector():
    assert gc.isenabled()
    assert calibration_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert calibration_s() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
