"""Crash-tolerant campaign execution on a parallel worker pool.

:func:`run_campaign` runs a batch of trials the way a long unattended
sweep has to be run: every trial in its own subprocess (a segfault or a
runaway loop cannot take the campaign down), up to ``jobs`` trials in
flight at once, a watchdog deadline per worker, structured
:class:`TrialOutcome` records instead of raised exceptions, and a JSONL
checkpoint so an interrupted campaign resumes where it stopped instead
of recomputing finished trials.

The scheduler is a parent-side event loop that **continuously drains
each worker's result queue while waiting**.  That is a correctness
property, not just a throughput one: a worker whose result payload
exceeds the OS pipe buffer (a large ``violations`` list, say) blocks in
its queue feeder thread until the parent reads, so a join-before-drain
protocol deadlocks — the watchdog then kills a *finished* trial and
records a synthetic ``timeout``.  Draining while waiting removes that
failure mode structurally; ``jobs=1`` keeps the exact sequential trial
ordering while still using the drain-while-waiting protocol.

Scheduling never touches results: each worker computes its metrics from
its own config and seed, so per-trial records are bit-identical at any
``jobs`` value, and :class:`CampaignResult` always lists outcomes in
trial order regardless of completion order.  Only the parent appends to
the checkpoint (single writer), in completion order — resume indexes by
key and is order-insensitive.

For exercising the failure paths themselves (tests, the CI smoke
campaign), a :class:`CampaignTrial` can carry a synthetic ``kind``:
``inject-crash`` makes the worker raise, ``inject-hang`` makes it sleep
past any watchdog, and ``inject-large-result`` reports a >1 MiB result
payload — producing real ``error``/``timeout`` records and a real
pipe-drain exercise through the real machinery.

This module is host-side orchestration, not simulation: it deliberately
reads the wall clock (per-trial wall time is one of its outputs) and the
SIM002 suppressions below mark exactly those reads.
"""

from __future__ import annotations

import copy as copy_module
import json
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_for_ready
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.core.analysis import assess_resilience
from repro.core.runner import TrialResult, harvest
from repro.core.trials import TrialConfig
from repro.faults.schedule import FaultPlan
from repro.obs.config import ObservabilityConfig
from repro.obs.introspect import read_last_heartbeat

#: Synthetic trial kinds used to exercise the campaign's failure paths.
TRIAL_KINDS = ("trial", "inject-crash", "inject-hang", "inject-large-result")

#: Trial statuses a campaign can record.  ``violation`` means the trial
#: completed but its runtime sanitizer (simsan) found broken invariants.
STATUSES = ("ok", "error", "timeout", "violation")

#: Records in an ``inject-large-result`` payload; with ~1 KiB per record
#: the serialized result is >1 MiB — far beyond any OS pipe buffer, so
#: the worker's queue feeder cannot flush it until the parent drains.
LARGE_RESULT_RECORDS = 1100

#: Longest the scheduler sleeps between drain rounds, seconds.  Workers
#: normally wake it early (process sentinels and queue readers are both
#: waited on), so this only bounds the latency of edge cases where
#: neither fires.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class CampaignTrial:
    """One unit of campaign work, addressed by a unique ``key``."""

    key: str
    config: Optional[TrialConfig] = None
    kind: str = "trial"
    #: Directory Perfetto traces of *failed/violation* trials are written
    #: to (requires a config with ``tracing`` enabled); None disables.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("trial key must be non-empty")
        if self.kind not in TRIAL_KINDS:
            raise ValueError(
                f"unknown trial kind {self.kind!r}; expected one of {TRIAL_KINDS}"
            )
        if self.kind == "trial" and self.config is None:
            raise ValueError("a real trial needs a config")


@dataclass
class TrialOutcome:
    """What one campaign trial produced — success or structured failure."""

    key: str
    status: str
    metrics: dict = field(default_factory=dict)
    error: str = ""
    #: Structured invariant violations (sanitizing campaigns only); each
    #: entry is an :meth:`InvariantViolation.to_dict` record carrying the
    #: scenario name, sim-time and offending uid, so the failure is
    #: actionable straight from the checkpoint, without a rerun.
    violations: list = field(default_factory=list)
    #: Wall-clock seconds the trial's subprocess ran.
    elapsed: float = 0.0
    #: True when this outcome was loaded from a checkpoint, not re-run.
    resumed: bool = False
    #: Path of the Perfetto trace captured for this failure ('' if none).
    trace: str = ""

    def to_json(self) -> str:
        """One checkpoint line."""
        record = {
            "key": self.key,
            "status": self.status,
            "metrics": self.metrics,
            "error": self.error,
            "elapsed": self.elapsed,
        }
        if self.violations:
            record["violations"] = self.violations
        if self.trace:
            record["trace"] = self.trace
        return json.dumps(record)

    @classmethod
    def from_json(cls, line: str) -> "TrialOutcome":
        data = json.loads(line)
        outcome = cls(
            key=data["key"],
            status=data["status"],
            metrics=dict(data.get("metrics", {})),
            error=data.get("error", ""),
            violations=list(data.get("violations", [])),
            elapsed=float(data.get("elapsed", 0.0)),
            trace=data.get("trace", ""),
        )
        if outcome.status not in STATUSES:
            raise ValueError(f"unknown status {outcome.status!r}")
        return outcome


@dataclass
class CampaignResult:
    """All outcomes of one campaign run, in trial order."""

    outcomes: list[TrialOutcome]

    def by_status(self, status: str) -> list[TrialOutcome]:
        """Outcomes with the given status."""
        return [o for o in self.outcomes if o.status == status]

    @property
    def succeeded(self) -> list[TrialOutcome]:
        return self.by_status("ok")

    @property
    def failed(self) -> list[TrialOutcome]:
        """Error and timeout records together."""
        return [o for o in self.outcomes if o.status != "ok"]

    def outcome(self, key: str) -> TrialOutcome:
        """Outcome for one trial key."""
        for outcome in self.outcomes:
            if outcome.key == key:
                return outcome
        raise KeyError(f"no outcome for trial {key!r}")


def _trial_metrics(result: TrialResult) -> dict:
    """The per-trial numbers a campaign checkpoint carries."""
    platoon1 = result.platoon1
    report = assess_resilience(result)
    initial = min(
        (
            flow.delays.initial_delay
            for flow in platoon1.flows
            if len(flow.delays)
        ),
        default=float("nan"),
    )
    delivered = sum(
        flow.delivered_segments
        for platoon in (result.platoon1, result.platoon2)
        for flow in platoon.flows
    )
    metrics = {
        "initial_packet_delay": initial,
        "delivered_segments": float(delivered),
        "warning_delivery_probability": report.delivery_probability,
        "faults_injected": float(
            sum(1 for entry in result.fault_log if entry.action == "inject")
        ),
    }
    if platoon1.throughput.samples:
        metrics["throughput_avg_mbps"] = platoon1.throughput.summary().average
    recovery = report.recovery_summary()
    if recovery is not None:
        metrics["recovery_latency_avg"] = recovery.average
    return metrics


def _write_failure_trace(trial: CampaignTrial, scenario) -> str:
    """Export the scenario's span trace as a Perfetto file; '' on no-op.

    Only called for failed/violation trials: healthy trials never pay
    the export, and a campaign directory holds exactly the traces worth
    opening in ui.perfetto.dev.
    """
    if trial.trace_dir is None or scenario is None:
        return ""
    obs = scenario.observability
    if obs is None or obs.spans is None or not len(obs.spans):
        return ""
    from repro.obs.tracing import write_chrome_trace

    path = Path(trial.trace_dir) / f"{trial.key}.perfetto.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(str(path), obs.spans.finalize(), label=trial.key)
    return str(path)


def _large_result_payload(trial: CampaignTrial) -> dict:
    """A synthetic >1 MiB result: the pipe-drain exercise for the pool."""
    filler = "payload-" + "x" * 1016  # ~1 KiB per violation record
    return {
        "status": "violation",
        "metrics": {"payload_records": float(LARGE_RESULT_RECORDS)},
        "violations": [
            {
                "checker": "synthetic-large-result",
                "layer": "campaign",
                "message": filler,
                "time": float(index),
                "scenario": trial.key,
            }
            for index in range(LARGE_RESULT_RECORDS)
        ],
        "error": "synthetic >1 MiB result payload (pipe-drain exercise)",
        "trace": "",
    }


def _worker(trial: CampaignTrial, results: multiprocessing.Queue) -> None:
    """Subprocess entry point: run one trial, report through the queue."""
    # The scenario is built and run in separate steps (rather than via
    # run_trial) so a failing run still leaves the scenario — and its
    # span trace — reachable for the failure-trace export.
    scenario = None
    try:
        if trial.kind == "inject-crash":
            raise RuntimeError(f"injected crash in trial {trial.key!r}")
        if trial.kind == "inject-hang":
            while True:  # exceed any watchdog; the parent will kill us
                time.sleep(3600)
        if trial.kind == "inject-large-result":
            results.put(_large_result_payload(trial))
            return
        from repro.core.scenario import EblScenario

        scenario = EblScenario(trial.config)
        scenario.run()
        result = harvest(scenario)
        report = result.sanitizer_report
        if report is not None and not report.ok:
            results.put(
                {
                    "status": "violation",
                    "metrics": _trial_metrics(result),
                    "violations": [v.to_dict() for v in report.violations],
                    "error": report.render(),
                    "trace": _write_failure_trace(trial, scenario),
                }
            )
            return
        results.put({"status": "ok", "metrics": _trial_metrics(result)})
    except BaseException:
        # The traceback travels up as data; re-raising would only spray it
        # on stderr a second time.
        payload = {"status": "error", "error": traceback.format_exc()}
        try:
            payload["trace"] = _write_failure_trace(trial, scenario)
        except Exception:
            payload["trace"] = ""  # never mask the original failure
        results.put(payload)


def _load_checkpoint(path: Path) -> dict[str, TrialOutcome]:
    """Completed outcomes by key; corrupt lines (a crash mid-write) skipped."""
    completed: dict[str, TrialOutcome] = {}
    if not path.exists():
        return completed
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            outcome = TrialOutcome.from_json(line)
        except (ValueError, KeyError):
            continue  # torn/corrupt line: recompute that trial
        completed[outcome.key] = outcome
    return completed


def _resumed_copy(previous: TrialOutcome) -> TrialOutcome:
    """A deep, ``resumed=True`` copy of a checkpointed outcome.

    Callers own the outcomes a campaign returns and may mutate them
    (metrics post-processing, violation triage).  Handing out the cached
    object itself would let that mutation corrupt resume state on a
    later :func:`run_campaign` call in the same process.
    """
    return TrialOutcome(
        key=previous.key,
        status=previous.status,
        metrics=copy_module.deepcopy(previous.metrics),
        error=previous.error,
        violations=copy_module.deepcopy(previous.violations),
        elapsed=previous.elapsed,
        resumed=True,
        trace=previous.trace,
    )


def _heartbeat_progress(trial: CampaignTrial) -> str:
    """Where a killed trial had got to, from its last on-disk heartbeat.

    The worker's introspector appends heartbeats line-by-line, so even a
    SIGKILL'd trial leaves its progress behind; empty string when the
    trial had no heartbeat file or never wrote one.
    """
    config = trial.config
    if config is None or config.observability is None:
        return ""
    path = config.observability.heartbeat_path
    if path is None:
        return ""
    beat = read_last_heartbeat(path)
    if beat is None:
        return ""
    message = (
        f"; last heartbeat: sim_time={beat.get('sim_time')} "
        f"events={beat.get('events')} "
        f"events_per_wall_s={beat.get('events_per_wall_s')}"
    )
    # The interval rate is the slow-vs-hung discriminator: a trial that
    # was still retiring events in its final beat was slow but alive; one
    # whose per-interval rate had collapsed was effectively hung.  The
    # record survived a kill, so the value may be torn or hand-edited —
    # a non-numeric rate just omits the clause rather than crashing the
    # watchdog report.
    interval_rate = beat.get("interval_events_per_wall_s")
    if interval_rate is not None:
        try:
            message += f" (last interval: {float(interval_rate):,.0f} events/wall-s)"
        except (TypeError, ValueError):
            pass
    return message


def _terminate(process) -> None:
    process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():  # pragma: no cover - stubborn process
        process.kill()
        process.join()


def _poll_result(results: multiprocessing.Queue) -> Optional[dict]:
    """One non-blocking drain attempt; None when nothing (usable) arrived.

    A worker killed mid-flush can leave a torn message behind — that
    surfaces as EOF/OS errors here and counts as "no result", exactly
    like an empty queue.
    """
    try:
        return results.get_nowait()
    except queue_module.Empty:
        return None
    except (EOFError, OSError):  # pragma: no cover - torn post-kill message
        return None


def _retire_queue(results: multiprocessing.Queue) -> None:
    """Release a drained queue's pipe fds and feeder bookkeeping.

    The parent never puts, so ``join_thread`` returns immediately; what
    this buys is prompt fd release — a thousand-trial campaign must not
    hold a pipe pair per finished trial until garbage collection gets
    around to it.
    """
    results.close()
    results.join_thread()


@dataclass
class _Worker:
    """Parent-side bookkeeping for one in-flight trial subprocess."""

    index: int
    trial: CampaignTrial
    process: object
    results: multiprocessing.Queue
    started: float
    deadline: float
    #: The drained result payload, once the worker reported.
    payload: Optional[dict] = None
    #: Wall-clock instant the payload arrived (elapsed uses it: queue
    #: residency and parent scheduling must not count as trial time).
    reported_at: Optional[float] = None

    def drain(self, now: float) -> None:
        if self.payload is None:
            self.payload = _poll_result(self.results)
            if self.payload is not None:
                self.reported_at = now


def _outcome_from_payload(
    trial: CampaignTrial, payload: dict, elapsed: float
) -> TrialOutcome:
    """The structured record for a worker that reported a result."""
    if payload["status"] == "ok":
        return TrialOutcome(
            key=trial.key,
            status="ok",
            metrics=payload["metrics"],
            elapsed=elapsed,
        )
    if payload["status"] == "violation":
        return TrialOutcome(
            key=trial.key,
            status="violation",
            metrics=payload["metrics"],
            error=payload["error"],
            violations=payload["violations"],
            elapsed=elapsed,
            trace=payload.get("trace", ""),
        )
    return TrialOutcome(
        key=trial.key,
        status="error",
        error=payload["error"],
        elapsed=elapsed,
        trace=payload.get("trace", ""),
    )


def _finalize_worker(
    worker: _Worker, now: float, killed: bool, timeout: float
) -> TrialOutcome:
    """Turn a finished (or just-killed) worker into its outcome record."""
    if worker.payload is not None:
        reported = worker.reported_at if worker.reported_at is not None else now
        return _outcome_from_payload(
            worker.trial, worker.payload, reported - worker.started
        )
    if killed:
        return TrialOutcome(
            key=worker.trial.key,
            status="timeout",
            error=f"trial exceeded its {timeout:g}s watchdog"
            + _heartbeat_progress(worker.trial),
            elapsed=now - worker.started,
        )
    return TrialOutcome(
        key=worker.trial.key,
        status="error",
        error=(
            "worker died without a result "
            f"(exit code {worker.process.exitcode})"
        ),
        elapsed=now - worker.started,
    )


def run_campaign(
    trials: Sequence[CampaignTrial],
    timeout: float = 120.0,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[Callable[[TrialOutcome], None]] = None,
    jobs: int = 1,
) -> CampaignResult:
    """Run every trial in an isolated subprocess; never raise per-trial.

    Parameters
    ----------
    trials:
        The work list; keys must be unique (they index the checkpoint).
    timeout:
        Watchdog per trial, wall-clock seconds, counted from that trial's
        own subprocess start.  A trial still running at its deadline is
        killed; if it had already reported a result by then (a finished
        worker lingering in teardown, or a result still sitting in the
        pipe), the real outcome is recorded — only trials that genuinely
        never reported become ``timeout``.
    checkpoint:
        JSONL file the parent (and only the parent) appends to after
        every finished trial, in completion order.  With ``resume``
        True, trials whose keys already appear in it are not re-run;
        deep copies of their records are returned with ``resumed=True``.
    progress:
        Optional callback invoked with each :class:`TrialOutcome` as it
        is produced: resumed outcomes first (in trial order), then live
        outcomes in completion order.
    jobs:
        Trial subprocesses in flight at once.  Scheduling never feeds
        back into results, so any value produces bit-identical per-trial
        records and the returned result is always in trial order;
        ``jobs=1`` (the default) additionally runs trials strictly in
        sequence.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    keys = [trial.key for trial in trials]
    if len(set(keys)) != len(keys):
        raise ValueError("trial keys must be unique")
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    completed: dict[str, TrialOutcome] = {}
    if resume:
        if checkpoint_path is None:
            raise ValueError("resume requires a checkpoint path")
        completed = _load_checkpoint(checkpoint_path)

    # Fork inherits the loaded modules (fast); spawn is the portable
    # fallback — everything shipped to the worker is picklable either way.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )

    done: dict[int, TrialOutcome] = {}

    def record(outcome: TrialOutcome, index: int, fresh: bool) -> None:
        # Single-writer checkpoint discipline: every append happens here,
        # in the parent, one line per freshly finished trial.
        done[index] = outcome
        if fresh and checkpoint_path is not None:
            with checkpoint_path.open("a") as handle:
                handle.write(outcome.to_json() + "\n")
        if progress is not None:
            progress(outcome)

    pending: list[tuple[int, CampaignTrial]] = []
    for index, trial in enumerate(trials):
        previous = completed.get(trial.key)
        if previous is not None:
            record(_resumed_copy(previous), index, fresh=False)
        else:
            pending.append((index, trial))
    pending.reverse()  # pop() from the tail keeps trial order

    running: list[_Worker] = []
    while pending or running:
        while pending and len(running) < jobs:
            index, trial = pending.pop()
            results: multiprocessing.Queue = context.Queue()
            process = context.Process(
                target=_worker, args=(trial, results), daemon=True
            )
            started = time.monotonic()  # simlint: disable=SIM002
            process.start()
            running.append(
                _Worker(
                    index=index,
                    trial=trial,
                    process=process,
                    results=results,
                    started=started,
                    deadline=started + timeout,
                )
            )

        now = time.monotonic()  # simlint: disable=SIM002
        still_running: list[_Worker] = []
        finished = False
        for worker in running:
            worker.drain(now)
            if not worker.process.is_alive():
                # The feeder flushes before the process exits, so one
                # post-mortem drain catches a result that raced the
                # liveness check above.
                worker.drain(now)
                worker.process.join()
                outcome = _finalize_worker(worker, now, killed=False,
                                           timeout=timeout)
            elif now >= worker.deadline:
                # Watchdog.  Drain once more after the kill too: a trial
                # that finished right at the deadline keeps its real
                # outcome instead of a synthetic timeout.
                _terminate(worker.process)
                worker.drain(now)
                outcome = _finalize_worker(worker, now, killed=True,
                                           timeout=timeout)
            else:
                still_running.append(worker)
                continue
            _retire_queue(worker.results)
            record(outcome, worker.index, fresh=True)
            finished = True
        running = still_running

        # The fill loop above ran until the pool was full or the work
        # list empty, so nothing new can start before a worker finishes
        # — when none did this round, sleep until one shows signs of it.
        if running and not finished:
            _sleep_until_activity(running, timeout=_POLL_INTERVAL)

    return CampaignResult(
        outcomes=[done[index] for index in range(len(trials))]
    )


def _sleep_until_activity(running: Sequence[_Worker], timeout: float) -> None:
    """Block until a worker exits, starts flushing a result, or ``timeout``.

    Waits on each live process's sentinel *and* (where the platform
    exposes it) the result queue's read end — a worker blocked flushing
    an over-pipe-buffer payload never exits until drained, so its
    sentinel alone would sleep the scheduler for the full poll interval.
    """
    waitables = []
    for worker in running:
        waitables.append(worker.process.sentinel)
        if worker.payload is None:
            reader = getattr(worker.results, "_reader", None)
            if reader is not None:
                waitables.append(reader)
    if not waitables:  # pragma: no cover - every worker already reported
        time.sleep(timeout)  # simlint: disable=SIM002
        return
    _wait_for_ready(waitables, timeout)


def campaign_trials(
    base: TrialConfig,
    seeds: Sequence[int],
    fault_plan: Optional[FaultPlan] = None,
    inject_crash: bool = False,
    inject_hang: bool = False,
    heartbeat_dir: Optional[Union[str, Path]] = None,
    heartbeat_interval: float = 1.0,
    sanitize: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
) -> list[CampaignTrial]:
    """One trial per seed over ``base``, plus optional synthetic failures.

    With ``heartbeat_dir`` set, each trial runs with the introspector on,
    appending heartbeats to ``<dir>/<key>.heartbeat.jsonl`` — the
    watchdog then reports how far a killed trial had progressed.  With
    ``sanitize`` True, every trial runs under the full runtime sanitizer
    and invariant violations surface as structured ``violation`` records.
    With ``trace_dir`` set, every trial records a causal span trace and
    the worker exports ``<dir>/<key>.perfetto.json`` for failed and
    violation trials only — a campaign leaves behind exactly the traces
    worth opening in ui.perfetto.dev.
    """

    def observability(key: str) -> Optional[ObservabilityConfig]:
        if heartbeat_dir is None and trace_dir is None:
            return base.observability
        return ObservabilityConfig(
            metrics=True,
            journeys=False,  # campaigns run many trials; keep memory flat
            heartbeat_interval=(
                heartbeat_interval if heartbeat_dir is not None else None
            ),
            heartbeat_path=(
                str(Path(heartbeat_dir) / f"{key}.heartbeat.jsonl")
                if heartbeat_dir is not None
                else None
            ),
            tracing=trace_dir is not None,
        )

    trials = [
        CampaignTrial(
            key=f"{base.name}-seed{seed}",
            config=base.with_overrides(
                name=f"{base.name}-seed{seed}",
                seed=seed,
                enable_trace=False,
                fault_plan=fault_plan,
                observability=observability(f"{base.name}-seed{seed}"),
                sanitize=sanitize or base.sanitize,
            ),
            trace_dir=str(trace_dir) if trace_dir is not None else None,
        )
        for seed in seeds
    ]
    if inject_crash:
        trials.append(CampaignTrial(key="inject-crash", kind="inject-crash"))
    if inject_hang:
        trials.append(CampaignTrial(key="inject-hang", kind="inject-hang"))
    return trials
