"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-dcf --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
on CPU time scaled to a nominal host speed by :mod:`calibrate`;
``--trace 1`` runs a fixed set of trials twice, untraced and under
:class:`layers.LayerClock`, and reports the per-layer metrics.  Every
trial's digest is checked against ``reference.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Optional

from calibrate import NOMINAL_S, calibration_s
from layers import LayerClock
from workloads import (
    HERE,
    SRC,
    WORKLOADS,
    TrialRun,
    Workload,
    campaign_digest,
    expected,
    load_reference,
    reference_key,
    run_trial,
)

#: Fewest timed trials a run reports a median over, whatever ``--seconds``.
MIN_TRIALS = 3
#: Fresh interpreters ``setup_s`` and ``core.import_s`` take a median over.
COLD_STARTS = 3
#: Seconds a cold start may take before the run is abandoned.
COLD_START_TIMEOUT = 120
#: Campaign trials per worker slot in one ``run_campaign`` batch.
BATCH_PER_JOB = 4


class Gate:
    """Counts attempted and failed trials; a failure raised or mismatched."""

    def __init__(self, workload: Workload, reference: dict,
                 timer=perf_counter) -> None:
        self.workload = workload
        self.reference = reference
        #: Clock the in-process trials' spans are timed on.
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        #: First digest seen per (kind, entry) with no recorded reference.
        self._seen: dict = {}

    def check(self, entry, digest: str, kind: str = "digest") -> bool:
        ref = expected(self.reference, self.workload, entry)
        want = ref[kind] if ref else self._seen.setdefault((kind, entry), digest)
        if digest != want:
            print(f"mismatch: {self.workload.name} {reference_key(entry)} "
                  f"{kind} {digest} != {want}", file=sys.stderr)
            return False
        return True

    def trial(self, entry, clock: Optional[LayerClock] = None) -> Optional[TrialRun]:
        """One in-process trial; None (and a failure) if it raised or mismatched."""
        self.attempted += 1
        try:
            run = run_trial(self.workload.config(entry), self.workload.platoon,
                            clock, self.timer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not self.check(entry, run.digest):
            self.failed += 1
            return None
        return run

    def reference_tx(self, entry) -> int:
        return expected(self.reference, self.workload, entry)["tx"]


def cold_starts(workload: Workload, seed: int) -> list[dict]:
    """``COLD_STARTS`` fresh interpreters, each importing and building."""
    samples = []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload.name, str(seed)],
            capture_output=True,
            text=True,
            timeout=COLD_START_TIMEOUT,
            check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_trials(gate: Gate, order: list,
                 seconds: float) -> tuple[list[TrialRun], list[float]]:
    """Trials in ``order`` until ``seconds`` pass (at least ``MIN_TRIALS``).

    Returns the trials and, for each, the factor that scales its times to
    the nominal host speed: ``NOMINAL_S`` over the mean of the calibration
    passes just before and just after it.  Each trial starts from a
    collected heap, so the cyclic collector's work in it does not depend
    on what the trials before it left behind.
    """
    runs, scales = [], []
    start = perf_counter()
    index = 0
    before = calibration_s()
    while index < MIN_TRIALS or perf_counter() - start < seconds:
        gc.collect()
        run = gate.trial(order[index % len(order)])
        after = calibration_s()
        if run is not None:
            runs.append(run)
            scales.append(2.0 * NOMINAL_S / (before + after))
        before = after
        index += 1
    return runs, scales


def campaign_batch(gate: Gate, entries: list, jobs: int) -> dict:
    """One ``run_campaign`` over ``entries``; wall, outcomes, slot waits."""
    from repro.experiments.campaign import campaign_trials, run_campaign

    base = gate.workload.config(entries[0])
    trials = campaign_trials(base, [seed for _, seed in entries])
    finished: dict[str, float] = {}
    start = perf_counter()
    result = run_campaign(
        trials, jobs=jobs,
        progress=lambda outcome: finished.setdefault(outcome.key, perf_counter()),
    )
    wall = perf_counter() - start
    ok = []
    for entry, outcome in zip(entries, result.outcomes):
        gate.attempted += 1
        if outcome.status == "ok" and gate.check(
            entry, campaign_digest(outcome.metrics), "campaign"
        ):
            ok.append((entry, outcome))
        else:
            print(f"campaign trial {outcome.key}: {outcome.status} {outcome.error}",
                  file=sys.stderr)
            gate.failed += 1
    waits = [finished[o.key] - start - o.elapsed for o in result.outcomes]
    return {"wall": wall, "ok": ok, "waits": waits}


def campaign_phase(gate: Gate, order: list, seconds: float, jobs: int):
    """Campaign batches until ``seconds`` pass, at the nominal host speed.

    A batch's wall time and its workers' elapsed times are scaled like an
    in-process trial's, by the calibration passes around the batch; these
    are wall times, so the passes are timed on the wall clock too.
    """
    size = BATCH_PER_JOB * jobs
    walls, elapsed, tx = [], [], 0
    start = perf_counter()
    before = calibration_s(perf_counter)
    while not walls or perf_counter() - start < seconds:
        cursor = len(walls) * size
        entries = [order[(cursor + k) % len(order)] for k in range(size)]
        batch = campaign_batch(gate, entries, jobs)
        after = calibration_s(perf_counter)
        scale = 2.0 * NOMINAL_S / (before + after)
        before = after
        walls.append(batch["wall"] * scale)
        for entry, outcome in batch["ok"]:
            elapsed.append(outcome.elapsed * scale)
            tx += gate.reference_tx(entry)
    throughput = _ratio(len(elapsed), sum(walls))
    return elapsed, tx, throughput, peak_rss_mb(resource.RUSAGE_CHILDREN)


def in_process_phase(gate: Gate, order: list, seconds: float):
    """In-process trials until ``seconds`` pass, at the nominal host speed.

    The throughput is one driving process's: trials per CPU second of
    the median trial's build and run.
    """
    runs, scales = timed_trials(gate, order, seconds)
    run_s = [r.run_s * k for r, k in zip(runs, scales)]
    per_trial = [(r.build_s + r.run_s) * k for r, k in zip(runs, scales)]
    throughput = _ratio(1.0, statistics.median(per_trial)) if runs else 0.0
    if runs:
        unscaled = statistics.median(r.run_s for r in runs)
        print(f"unscaled CPU run_s median {unscaled:.6f} s; host speed factor "
              f"median {statistics.median(scales):.4f} "
              f"(range {min(scales):.4f}-{max(scales):.4f})")
    return (run_s, sum(r.tx for r in runs), throughput,
            peak_rss_mb(resource.RUSAGE_SELF))


def measure(workload: Workload, gate: Gate, seed: int, seconds: float,
            jobs: int) -> dict[str, float]:
    """The end-to-end metrics, tracing off."""
    order = workload.order(seed)
    gate.trial(order[0])  # warm-up: lazy imports, first-touch allocation
    if workload.campaign:
        run_s, tx, throughput, rss = campaign_phase(gate, order, seconds, jobs)
    else:
        run_s, tx, throughput, rss = in_process_phase(gate, order, seconds)
    # Cold starts come last: their interpreters must not count towards
    # the campaign's RUSAGE_CHILDREN peak.
    setup = [s["import_s"] + s["build_s"] for s in cold_starts(workload, seed)]
    print(f"{workload.name}: {len(run_s)} timed trials, "
          f"{gate.attempted} attempted, {gate.failed} failed, "
          f"error_rate {_ratio(gate.failed, gate.attempted):.4f} ratio")
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run_s) if run_s else 0.0,
        "us_per_tx": _ratio(sum(run_s), tx) * 1e6,
        "peak_rss_mb": rss,
        "trials_per_s": throughput,
    }


def scenario_counts(scenario) -> Counter:
    """Deterministic protocol counters of one finished scenario."""
    counts: Counter = Counter()
    counts["events"] = scenario.env.events_processed
    counts["tx"] = scenario.channel.transmissions
    for vehicle in scenario.vehicles:
        node = vehicle.node
        stats = node.mac.stats
        counts["mac.data_sent"] += stats.data_sent
        counts["mac.retransmissions"] += stats.retransmissions
        counts["mac.drops"] += stats.drops
        counts["net.ifq.drops"] += node.ifq.dropped
        aodv = getattr(node.routing, "stats", None)
        if aodv is not None:
            counts["routing.control_tx"] += (
                aodv.rreq_sent + aodv.rreq_forwarded + aodv.rrep_sent
                + aodv.rrep_forwarded + aodv.rerr_sent + aodv.hello_sent
            )
    for flow in scenario.app1.flows + scenario.app2.flows:
        counts["tcp.sent"] += flow.sender.segments_sent
        counts["tcp.delivered"] += flow.sink.delivered_segments
    return counts


#: Per-layer metrics that are deterministic counts (or ratios of them)
#: and must repeat bit-for-bit between traced runs of one seed.
EXACT = (
    "des.events", "des.events_per_tx", "channel.tx", "channel.deliveries_per_tx",
    "channel.link_budgets_per_tx", "phy.rx.calls", "phy.tx.calls",
    "phy.rx_ok_ratio", "mac.steps_per_tx", "mac.retransmissions",
    "mac.ack_ratio", "mac.drops", "routing.calls", "routing.control_tx",
    "transport.calls", "transport.goodput_ratio", "net.ifq.puts",
    "net.ifq.drops", "net.copies_per_tx", "mobility.position_calls_per_tx",
    "trace.records", "campaign.failed",
)


def layer_metrics(clock: LayerClock, counts: Counter, wall: float) -> dict:
    """Per-layer metrics from the traced trials' spans and counters."""
    calls = clock.calls
    own = clock.layer_self_s(wall)
    tx = counts["tx"]
    sent, retx = counts["mac.data_sent"], counts["mac.retransmissions"]
    metrics = {
        "des.events": counts["events"],
        "des.events_per_tx": _ratio(counts["events"], tx),
        "des.ns_per_event": _ratio(own["des"], counts["events"]) * 1e9,
        "channel.tx": calls["channel.tx"],
        "channel.us_per_tx_self": _ratio(own["channel"], tx) * 1e6,
        "channel.deliveries_per_tx": _ratio(calls["phy.rx"], tx),
        "channel.link_budgets_per_tx": _ratio(calls["phy.rx_power"], tx),
        "phy.rx.calls": calls["phy.rx"],
        "phy.tx.calls": calls["phy.tx"],
        "phy.rx_ok_ratio": _ratio(calls["mac.phy_rx_end"], calls["phy.rx"]),
        "mac.steps_per_tx": _ratio(calls["mac.steps"], tx),
        "mac.retransmissions": retx,
        "mac.ack_ratio": _ratio(sent, sent + retx),
        "mac.drops": counts["mac.drops"],
        "routing.calls": calls["routing.route_packet"]
        + calls["routing.handle_packet"],
        "routing.control_tx": counts["routing.control_tx"],
        "transport.calls": calls["transport.agent_receive"]
        + calls["transport.sink_receive"],
        "transport.goodput_ratio": _ratio(counts["tcp.delivered"],
                                          counts["tcp.sent"]),
        "net.ifq.puts": calls["net.ifq.put"],
        "net.ifq.drops": counts["net.ifq.drops"],
        "net.copies_per_tx": _ratio(calls["net.packet.copy"], tx),
        "mobility.position_calls_per_tx": _ratio(calls["mobility.position"], tx),
        "trace.records": calls["trace.record"],
        "bench.traced_wall_s": wall,
    }
    for layer, seconds in own.items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def trace_trials(gate: Gate, entries: list) -> tuple[dict, LayerClock, list]:
    """Each entry untraced, then traced; the traced trials' layer metrics.

    Returns the metrics, the clock, and the untraced runs.  A traced
    trial must reproduce its untraced digest like any other trial.
    """
    clock = LayerClock()
    counts: Counter = Counter()
    plain, traced = [], []
    for entry in entries:
        run = gate.trial(entry)
        with clock:
            traced_run = gate.trial(entry, clock)
        if run is None or traced_run is None:
            continue
        plain.append(run)
        traced.append(traced_run)
        counts.update(scenario_counts(traced_run.scenario))
        traced_run.scenario = None
    metrics = layer_metrics(clock, counts, sum(r.build_s + r.run_s for r in traced))
    metrics["bench.trace_overhead"] = _ratio(
        sum(r.run_s for r in traced), sum(r.run_s for r in plain)) - 1.0
    return metrics, clock, plain


def measure_layers(workload: Workload, gate: Gate, seed: int,
                   jobs: int) -> dict[str, float]:
    """The per-layer metrics: fixed trials, each untraced then traced."""
    order = workload.order(seed)
    gate.trial(order[0])  # warm-up
    entries = [order[k % len(order)] for k in range(workload.traced_trials)]
    metrics, _, plain = trace_trials(gate, entries)
    campaign = {"campaign.busy_frac": 0.0, "campaign.overhead_s_per_trial": 0.0,
                "campaign.slot_wait_s": 0.0, "campaign.failed": 0}
    if workload.campaign:
        failed_before = gate.failed
        size = BATCH_PER_JOB * jobs
        batch = campaign_batch(gate, [order[k % len(order)] for k in range(size)],
                               jobs)
        elapsed = [trial.elapsed for _, trial in batch["ok"]]
        in_process = statistics.mean(r.build_s + r.run_s for r in plain)
        campaign = {
            "campaign.busy_frac": _ratio(sum(elapsed), jobs * batch["wall"]),
            "campaign.overhead_s_per_trial": statistics.mean(elapsed) - in_process,
            "campaign.slot_wait_s": statistics.mean(batch["waits"]),
            "campaign.failed": gate.failed - failed_before,
        }
    metrics.update(campaign)
    cold = cold_starts(workload, seed)
    metrics["core.import_s"] = statistics.median(s["import_s"] for s in cold)
    metrics["core.build_s"] = statistics.median(r.build_s for r in plain)
    metrics["stats.analyze_s"] = statistics.median(r.analyze_s for r in plain)
    print(f"{workload.name}: {len(plain)} traced trials, "
          f"{gate.attempted} attempted, {gate.failed} failed")
    return metrics


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Fail before any trial when the checkout's simulator is missing: a
    # trial that raises only counts as failed, an absent program must not
    # report, and an installed copy elsewhere is not the code under test.
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"repro was imported from {repro.__file__}, not from {SRC}")
    import repro.core.analysis  # noqa: F401
    import repro.core.scenario  # noqa: F401
    import repro.experiments.campaign  # noqa: F401

    workload = WORKLOADS[args.workload]
    # Untraced trials are timed on CPU time, which leaves out the time a
    # shared host takes the CPU away; spans of the traced run stay on
    # perf_counter, which costs a sixth as much to read.
    gate = Gate(workload, load_reference(),
                perf_counter if args.trace else process_time)
    jobs = len(os.sched_getaffinity(0))
    if args.trace:
        values = measure_layers(workload, gate, args.seed, jobs)
        units = metric_units("per_layer")
    else:
        values = measure(workload, gate, args.seed, args.seconds, jobs)
        units = metric_units("end_to_end")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:34s} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
