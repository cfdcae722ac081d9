"""One cold start: import what a trial needs and build its scenario.

Run in a fresh interpreter by ``run.py``; prints one JSON object with
``import_s`` and ``build_s`` (the scenario build, stopping just before
``run()``), both in CPU seconds of this process scaled to the nominal
host speed by the calibration passes around them (see ``calibrate.py``).
"""

from time import process_time

from calibrate import NOMINAL_S, calibration_s

before = calibration_s()
start = process_time()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (puts src on sys.path)

from repro.core.analysis import analyze_trial  # noqa: E402,F401
from repro.core.runner import harvest  # noqa: E402,F401
from repro.core.scenario import EblScenario  # noqa: E402

imported = process_time()
workload = WORKLOADS[sys.argv[1]]
config = workload.config(workload.order(int(sys.argv[2]))[0])
begin = process_time()
EblScenario(config)
built = process_time()
scale = 2.0 * NOMINAL_S / (before + calibration_s())
print(json.dumps({"import_s": (imported - start) * scale,
                  "build_s": (built - begin) * scale}))
