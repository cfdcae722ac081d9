"""Record ``reference.json``: every pool entry's digest and counts.

    python3 perfbench/record_reference.py [workload ...]

Run it on the commit whose results are the reference; each later run
of the benchmark compares its trials with what this recorded.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (
    REFERENCE,
    WORKLOADS,
    campaign_digest,
    reference_key,
    run_trial,
)


def record(workload) -> dict:
    entries = {}
    for entry in workload.pool():
        run = run_trial(workload.config(entry), workload.platoon)
        entries[reference_key(entry)] = {
            "digest": run.digest, "tx": run.tx, "events": run.events,
        }
        print(workload.name, reference_key(entry), run.events, run.tx,
              file=sys.stderr)
    if workload.campaign:
        from repro.experiments.campaign import campaign_trials, run_campaign

        pool = workload.pool()
        trials = campaign_trials(workload.config(pool[0]),
                                 [seed for _, seed in pool])
        result = run_campaign(trials, jobs=len(os.sched_getaffinity(0)))
        for entry, outcome in zip(pool, result.outcomes):
            if outcome.status != "ok":
                raise RuntimeError(f"{outcome.key}: {outcome.error}")
            entries[reference_key(entry)]["campaign"] = campaign_digest(
                outcome.metrics)
    return entries


def main(names: list[str]) -> None:
    reference = {"trials": {}}
    if REFERENCE.exists():
        with REFERENCE.open() as handle:
            reference = json.load(handle)
    for name in names or sorted(WORKLOADS):
        reference["trials"][name] = record(WORKLOADS[name])
    with REFERENCE.open("w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
