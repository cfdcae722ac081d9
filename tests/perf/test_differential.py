"""Differential-equivalence tests: fast path vs reference mode.

The performance fast path (``repro.perf.fastpath.FASTPATH``) changes how
work is executed — slotted classes, trampolined deliveries, link-budget
caching — but must never change *what* is computed: the equivalence
contract is a bit-identical packet event trace and metric summary.

Because the flag is read once at import time (class layouts depend on
it), the two modes cannot coexist in one interpreter: each run happens
in a subprocess and reports its trace digest on stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_DIGEST_SCRIPT = """
import json
import sys
from repro.core.runner import run_trial
from repro.core.trials import TRIAL_1, TRIAL_2, TRIAL_3
from repro.perf.equivalence import trace_digest
from repro.perf.fastpath import fastpath_enabled

configs = {"trial1": TRIAL_1, "trial2": TRIAL_2, "trial3": TRIAL_3}
config = configs[sys.argv[1]].with_overrides(**json.loads(sys.argv[2]))
result = run_trial(config)
print(f"{int(fastpath_enabled())} {trace_digest(result)}")
"""

#: Case -> (trial, overrides).  Durations keep each subprocess run
#: around a second; trial 3 (802.11 contention) is by far the slowest
#: per simulated second.  In ``trial3_48`` most receivers sit beyond
#: carrier-sense range: the fast path skips them through its neighbour
#: lists while the reference loop visits every radio, so this case is
#: the one that proves the culling sound.
_CASES = {
    "trial1": ("trial1", {"duration": 10.0}),
    "trial2": ("trial2", {"duration": 10.0}),
    "trial3": ("trial3", {"duration": 5.0}),
    "trial3_48": ("trial3", {"duration": 1.0, "platoon_size": 48}),
}


def _run_digest(case: str, fastpath: bool) -> tuple[bool, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    if fastpath:
        env.pop("REPRO_NO_FASTPATH", None)
    else:
        env["REPRO_NO_FASTPATH"] = "1"
    trial, overrides = _CASES[case]
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, trial, json.dumps(overrides)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    mode, digest = result.stdout.split()
    return bool(int(mode)), digest


@pytest.mark.parametrize("trial", sorted(_CASES))
def test_fastpath_is_bit_identical_to_reference(trial):
    fast_mode, fast_digest = _run_digest(trial, fastpath=True)
    ref_mode, ref_digest = _run_digest(trial, fastpath=False)
    assert fast_mode is True, "fast-path subprocess ran in reference mode"
    assert ref_mode is False, "REPRO_NO_FASTPATH=1 did not disable the fast path"
    assert fast_digest == ref_digest, (
        f"{trial}: optimized run diverged from the reference "
        f"(REPRO_NO_FASTPATH=1) run — the fast path changed observable "
        f"behaviour, not just speed"
    )
