"""Crash-tolerant campaign runner: pool scheduling, watchdog, resume."""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.core.trials import TrialConfig
from repro.experiments.campaign import (
    LARGE_RESULT_RECORDS,
    CampaignResult,
    CampaignTrial,
    TrialOutcome,
    _heartbeat_progress,
    campaign_trials,
    run_campaign,
)
from repro.faults.schedule import FaultPlan

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stub workers are closures; only fork ships them to the child",
)


def tiny_config(name: str = "campaign-test", seed: int = 1) -> TrialConfig:
    return TrialConfig(
        name=name,
        seed=seed,
        duration=2.0,
        enable_trace=False,
        track_energy=False,
    )


class TestTrialAndOutcomeTypes:
    def test_trial_key_required(self):
        with pytest.raises(ValueError, match="key"):
            CampaignTrial(key="", config=tiny_config())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CampaignTrial(key="x", kind="inject-typo")

    def test_real_trial_needs_config(self):
        with pytest.raises(ValueError, match="config"):
            CampaignTrial(key="x")

    def test_outcome_json_round_trip(self):
        outcome = TrialOutcome(
            key="t1",
            status="timeout",
            error="trial exceeded its 5s watchdog",
            elapsed=5.01,
        )
        restored = TrialOutcome.from_json(outcome.to_json())
        assert restored == outcome

    def test_outcome_json_rejects_unknown_status(self):
        line = json.dumps({"key": "t1", "status": "exploded"})
        with pytest.raises(ValueError, match="status"):
            TrialOutcome.from_json(line)

    def test_violation_outcome_json_round_trip(self):
        outcome = TrialOutcome(
            key="t1",
            status="violation",
            error="sanitizer report ...",
            violations=[
                {
                    "checker": "queue-over-limit",
                    "layer": "net",
                    "message": "interface queue holds 51 packets, limit 50",
                    "time": 1.25,
                    "scenario": "t1",
                }
            ],
        )
        restored = TrialOutcome.from_json(outcome.to_json())
        assert restored == outcome
        assert restored.violations[0]["checker"] == "queue-over-limit"

    def test_violation_counts_as_failed(self):
        result = CampaignResult(
            outcomes=[
                TrialOutcome(key="a", status="ok"),
                TrialOutcome(key="b", status="violation"),
            ]
        )
        assert [o.key for o in result.failed] == ["b"]

    def test_campaign_result_lookups(self):
        outcomes = [
            TrialOutcome(key="a", status="ok"),
            TrialOutcome(key="b", status="error", error="boom"),
            TrialOutcome(key="c", status="timeout"),
        ]
        result = CampaignResult(outcomes=outcomes)
        assert [o.key for o in result.succeeded] == ["a"]
        assert [o.key for o in result.failed] == ["b", "c"]
        assert result.outcome("b").error == "boom"
        with pytest.raises(KeyError):
            result.outcome("missing")


class TestRunCampaign:
    def test_validates_timeout_and_duplicate_keys(self):
        trial = CampaignTrial(key="a", config=tiny_config())
        with pytest.raises(ValueError, match="timeout"):
            run_campaign([trial], timeout=0.0)
        dupes = [trial, CampaignTrial(key="a", config=tiny_config(seed=2))]
        with pytest.raises(ValueError, match="unique"):
            run_campaign(dupes)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            run_campaign(
                [CampaignTrial(key="a", config=tiny_config())], resume=True
            )

    def test_mixed_campaign_survives_crash_and_hang(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        trials = campaign_trials(
            tiny_config(),
            seeds=[1],
            fault_plan=FaultPlan(node_crashes=1),
            inject_crash=True,
            inject_hang=True,
        )
        seen: list[str] = []
        result = run_campaign(
            trials,
            timeout=5.0,
            checkpoint=checkpoint,
            progress=lambda o: seen.append(o.key),
        )

        assert [o.status for o in result.outcomes] == [
            "ok", "error", "timeout",
        ]
        assert seen == [t.key for t in trials]

        ok = result.outcome("campaign-test-seed1")
        assert ok.metrics["faults_injected"] == 1
        crash = result.outcome("inject-crash")
        assert "RuntimeError" in crash.error  # full traceback, not a summary
        hang = result.outcome("inject-hang")
        assert "watchdog" in hang.error
        assert hang.elapsed >= 5.0

        # One checkpoint line per outcome, each parseable.
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 3
        restored = [TrialOutcome.from_json(line) for line in lines]
        assert [o.key for o in restored] == [t.key for t in trials]

    def test_resume_skips_recorded_outcomes_and_runs_new(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        done = TrialOutcome(key="old", status="error", error="boom")
        checkpoint.write_text(done.to_json() + "\n")

        trials = [
            CampaignTrial(key="old", config=tiny_config(name="old")),
            CampaignTrial(key="new", config=tiny_config(name="new", seed=2)),
        ]
        result = run_campaign(
            trials, timeout=60.0, checkpoint=checkpoint, resume=True
        )

        old = result.outcome("old")
        assert old.resumed is True
        assert old.status == "error"  # failures are data, not re-run
        new = result.outcome("new")
        assert new.resumed is False
        assert new.status == "ok"
        # Only the newly-run trial was appended.
        assert len(checkpoint.read_text().splitlines()) == 2

    def test_resume_deduplicates_duplicate_checkpoint_records(self, tmp_path):
        # A crash between the checkpoint append and the process exit can
        # leave the same key recorded twice (e.g. a re-run after a kill
        # -9 mid-flush).  Resume must count each key once — the last
        # record wins — not replay or double-report it.
        checkpoint = tmp_path / "campaign.jsonl"
        first = TrialOutcome(key="dup", status="error", error="first try")
        second = TrialOutcome(key="dup", status="ok")
        checkpoint.write_text(
            first.to_json() + "\n"
            + second.to_json() + "\n"
            + first.to_json() + "\n"  # stale duplicate after the ok
        )
        result = run_campaign(
            [
                CampaignTrial(key="dup", config=tiny_config(name="dup")),
                CampaignTrial(key="new", config=tiny_config(name="new")),
            ],
            checkpoint=checkpoint,
            resume=True,
        )
        assert len(result.outcomes) == 2
        dup = result.outcome("dup")
        assert dup.resumed is True
        # Later records supersede earlier ones for the same key.
        assert dup.status == "error"
        assert result.outcome("new").status == "ok"
        # Only the genuinely new trial was appended to the checkpoint.
        assert len(checkpoint.read_text().splitlines()) == 4

    def test_corrupt_checkpoint_lines_tolerated(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        good = TrialOutcome(key="a", status="ok")
        checkpoint.write_text(
            "not json at all\n"
            + json.dumps({"key": "b", "status": "exploded"})
            + "\n"
            + good.to_json()
            + "\n"
        )
        result = run_campaign(
            [CampaignTrial(key="a", config=tiny_config())],
            checkpoint=checkpoint,
            resume=True,
        )
        assert result.outcome("a").resumed is True


class TestWorkerPool:
    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(
                [CampaignTrial(key="a", kind="inject-crash")], jobs=0
            )

    def test_large_result_payload_survives_the_pipe(self, tmp_path):
        """Deadlock repro: a result bigger than the OS pipe buffer.

        Under the old join-before-drain protocol the worker's queue
        feeder blocks flushing the payload, the worker can never exit,
        ``join(timeout)`` burns the whole watchdog, and a *finished*
        trial is killed and recorded as a synthetic ``timeout``.  The
        pool drains while waiting, so the trial completes in well under
        the watchdog with its real outcome intact.
        """
        checkpoint = tmp_path / "campaign.jsonl"
        started = time.monotonic()  # simlint: disable=SIM002
        result = run_campaign(
            [CampaignTrial(key="big", kind="inject-large-result")],
            timeout=30.0,
            checkpoint=checkpoint,
        )
        wall = time.monotonic() - started  # simlint: disable=SIM002
        outcome = result.outcome("big")
        assert outcome.status == "violation"  # the real outcome, no timeout
        assert len(outcome.violations) == LARGE_RESULT_RECORDS
        assert wall < 15.0  # finished by draining, not by watchdog firing
        # The payload genuinely crossed the pipe: >1 MiB on one line.
        line = checkpoint.read_text().splitlines()[0]
        assert len(line) > 2**20
        restored = TrialOutcome.from_json(line)
        assert restored.violations == outcome.violations

    def test_parallel_matches_sequential_bit_identical(self, tmp_path):
        """Same trials at jobs=4 and jobs=1: identical per-trial records."""
        from repro.perf.campaign_scaling import compare_outcomes

        trials = campaign_trials(
            tiny_config(name="diff"),
            seeds=range(1, 9),
            fault_plan=FaultPlan(link_outages=1),
        )
        chk_seq = tmp_path / "seq.jsonl"
        chk_par = tmp_path / "par.jsonl"
        sequential = run_campaign(
            trials, timeout=60.0, checkpoint=chk_seq, jobs=1
        )
        parallel = run_campaign(
            trials, timeout=60.0, checkpoint=chk_par, jobs=4
        )
        # Results come back in trial order regardless of completion order.
        assert [o.key for o in parallel.outcomes] == [t.key for t in trials]
        assert compare_outcomes(sequential, parallel) == []
        # Checkpoints hold the same records modulo order and elapsed.
        assert self._canonical(chk_seq) == self._canonical(chk_par)

    @staticmethod
    def _canonical(path: Path) -> dict[str, str]:
        records = {}
        for line in path.read_text().splitlines():
            data = json.loads(line)
            data.pop("elapsed")
            records[data["key"]] = json.dumps(data, sort_keys=True)
        return records

    def test_resume_from_a_parallel_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        base = tiny_config(name="res")
        first = campaign_trials(base, seeds=range(1, 9))
        run_campaign(first, timeout=60.0, checkpoint=checkpoint, jobs=4)
        assert len(checkpoint.read_text().splitlines()) == 8

        extended = campaign_trials(base, seeds=range(1, 11))
        second = run_campaign(
            extended, timeout=60.0, checkpoint=checkpoint, resume=True,
            jobs=4,
        )
        assert [o.key for o in second.outcomes] == [
            t.key for t in extended
        ]
        resumed = [o for o in second.outcomes if o.resumed]
        assert sorted(o.key for o in resumed) == sorted(
            t.key for t in first
        )
        fresh = [o for o in second.outcomes if not o.resumed]
        assert sorted(o.key for o in fresh) == ["res-seed10", "res-seed9"]
        assert len(checkpoint.read_text().splitlines()) == 10
        # Resumed records are deep copies: corrupting one cannot bleed
        # into a later resume from the same checkpoint.
        second.outcome("res-seed1").metrics["delivered_segments"] = -1.0
        third = run_campaign(
            extended, timeout=60.0, checkpoint=checkpoint, resume=True,
            jobs=2,
        )
        assert (
            third.outcome("res-seed1").metrics["delivered_segments"] != -1.0
        )

    def test_concurrent_watchdog_kills_overlap(self):
        """Two hung trials share their watchdog window instead of queuing."""
        trials = [
            CampaignTrial(key="hang-a", kind="inject-hang"),
            CampaignTrial(key="hang-b", kind="inject-hang"),
            CampaignTrial(key="crash", kind="inject-crash"),
        ]
        started = time.monotonic()  # simlint: disable=SIM002
        result = run_campaign(trials, timeout=2.0, jobs=3)
        wall = time.monotonic() - started  # simlint: disable=SIM002
        assert [o.status for o in result.outcomes] == [
            "timeout", "timeout", "error",
        ]
        for key in ("hang-a", "hang-b"):
            outcome = result.outcome(key)
            assert "watchdog" in outcome.error
            assert outcome.elapsed >= 2.0
        assert wall < 3.5  # both 2s watchdogs ran concurrently

    @needs_fork
    def test_deadline_prefers_reported_result_over_timeout(
        self, monkeypatch
    ):
        """A worker that reported but lingers is killed — its real outcome
        is recorded, not a synthetic ``timeout``."""
        import repro.experiments.campaign as campaign_module

        def lingering_worker(trial, results):
            results.put({"status": "ok", "metrics": {"marker": 1.0}})
            while True:
                time.sleep(3600)

        monkeypatch.setattr(campaign_module, "_worker", lingering_worker)
        started = time.monotonic()  # simlint: disable=SIM002
        result = run_campaign(
            [CampaignTrial(key="linger", kind="inject-hang")], timeout=2.0
        )
        wall = time.monotonic() - started  # simlint: disable=SIM002
        outcome = result.outcome("linger")
        assert outcome.status == "ok"
        assert outcome.metrics == {"marker": 1.0}
        assert wall < 10.0  # the lingering process did get terminated

    @pytest.mark.skipif(
        not Path("/proc/self/fd").exists(), reason="needs procfs"
    )
    def test_queue_lifecycle_releases_fds(self):
        """A campaign's queues are closed as trials finish, not leaked."""

        def fd_count() -> int:
            return len(list(Path("/proc/self/fd").iterdir()))

        def crash_trials(prefix: str) -> list[CampaignTrial]:
            return [
                CampaignTrial(key=f"{prefix}{i}", kind="inject-crash")
                for i in range(12)
            ]

        # Warm-up run: multiprocessing lazily creates its resource
        # tracker and semaphores on first use.
        run_campaign(crash_trials("warm"), timeout=30.0, jobs=3)
        before = fd_count()
        run_campaign(crash_trials("meas"), timeout=30.0, jobs=3)
        assert fd_count() <= before + 4


class TestResumedCopies:
    def test_resumed_outcomes_are_independent_copies(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        done = TrialOutcome(
            key="done",
            status="violation",
            metrics={"delivered_segments": 7.0},
            error="sanitizer report ...",
            violations=[{"checker": "queue-over-limit", "time": 1.0}],
        )
        checkpoint.write_text(done.to_json() + "\n")
        trial = CampaignTrial(key="done", config=tiny_config())

        first = run_campaign([trial], checkpoint=checkpoint, resume=True)
        second = run_campaign([trial], checkpoint=checkpoint, resume=True)
        a = first.outcome("done")
        b = second.outcome("done")
        assert a.resumed and b.resumed
        assert a is not b
        # Mutating one caller's outcome corrupts neither the other run's
        # record nor nested structures like the violations list.
        a.metrics["delivered_segments"] = -1.0
        a.violations[0]["checker"] = "hacked"
        assert b.metrics == {"delivered_segments": 7.0}
        assert b.violations[0]["checker"] == "queue-over-limit"


class TestHeartbeatProgressGuard:
    @staticmethod
    def _trial_with_heartbeat(tmp_path, record: dict) -> CampaignTrial:
        from repro.obs.config import ObservabilityConfig

        path = tmp_path / "t.heartbeat.jsonl"
        path.write_text(json.dumps(record) + "\n")
        config = tiny_config().with_overrides(
            observability=ObservabilityConfig(
                metrics=True,
                journeys=False,
                heartbeat_interval=1.0,
                heartbeat_path=str(path),
            )
        )
        return CampaignTrial(key="t", config=config)

    def test_numeric_interval_rate_formatted(self, tmp_path):
        trial = self._trial_with_heartbeat(
            tmp_path,
            {
                "sim_time": 1.5,
                "events": 1000,
                "events_per_wall_s": 5000.0,
                "interval_events_per_wall_s": 12345.6,
            },
        )
        message = _heartbeat_progress(trial)
        assert "last heartbeat: sim_time=1.5" in message
        assert "(last interval: 12,346 events/wall-s)" in message

    def test_non_numeric_interval_rate_tolerated(self, tmp_path):
        """A torn/hand-edited heartbeat must not crash the watchdog report."""
        trial = self._trial_with_heartbeat(
            tmp_path,
            {
                "sim_time": 1.5,
                "events": 1000,
                "events_per_wall_s": 5000.0,
                "interval_events_per_wall_s": "torn",
            },
        )
        message = _heartbeat_progress(trial)
        assert "last heartbeat: sim_time=1.5" in message
        assert "last interval" not in message


class TestCampaignTrials:
    def test_per_seed_configs(self):
        base = tiny_config(name="sweep")
        plan = FaultPlan(node_crashes=1)
        trials = campaign_trials(base, seeds=[1, 2, 3], fault_plan=plan)
        assert [t.key for t in trials] == [
            "sweep-seed1", "sweep-seed2", "sweep-seed3",
        ]
        for seed, trial in zip([1, 2, 3], trials):
            assert trial.config.seed == seed
            assert trial.config.fault_plan is plan
            assert trial.config.enable_trace is False

    def test_synthetic_failures_optional(self):
        base = tiny_config()
        assert len(campaign_trials(base, seeds=[1])) == 1
        keys = [
            t.key
            for t in campaign_trials(
                base, seeds=[1], inject_crash=True, inject_hang=True
            )
        ]
        assert keys == ["campaign-test-seed1", "inject-crash", "inject-hang"]

    def test_sanitize_flag_enables_full_sanitizer(self):
        trials = campaign_trials(tiny_config(), seeds=[1, 2], sanitize=True)
        for trial in trials:
            assert trial.config.sanitize is True
        plain = campaign_trials(tiny_config(), seeds=[1])
        assert plain[0].config.sanitize is False


class TestCampaignViolationStatus:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="needs fork so the seeded bug reaches the worker process",
    )
    def test_sanitizer_violation_surfaces_as_structured_outcome(
        self, tmp_path, monkeypatch
    ):
        # Seed the off-by-one queue bug in this process; the forked
        # campaign worker inherits it and the sanitizer catches it.
        from tests.sanitizer.test_fuzz import (
            bug_triggering_config,
            install_off_by_one_queue_bug,
        )

        install_off_by_one_queue_bug(monkeypatch)
        checkpoint = tmp_path / "campaign.jsonl"
        result = run_campaign(
            [CampaignTrial(key="buggy", config=bug_triggering_config())],
            timeout=60.0,
            checkpoint=checkpoint,
        )
        outcome = result.outcome("buggy")
        assert outcome.status == "violation"
        assert [o.key for o in result.failed] == ["buggy"]
        assert outcome.violations[0]["checker"] == "queue-over-limit"
        assert "queue-over-limit" in outcome.error
        # The violation round-trips through the checkpoint.
        restored = TrialOutcome.from_json(
            checkpoint.read_text().splitlines()[0]
        )
        assert restored.status == "violation"
        assert restored.violations == outcome.violations


class TestCampaignTraceDir:
    def test_trace_dir_arms_tracing_on_every_trial(self, tmp_path):
        trials = campaign_trials(
            tiny_config(), seeds=[1, 2], trace_dir=tmp_path / "traces"
        )
        for trial in trials:
            assert trial.trace_dir == str(tmp_path / "traces")
            assert trial.config.observability.tracing is True
            # Memory discipline: no journeys, no heartbeat unless asked.
            assert trial.config.observability.journeys is False
        plain = campaign_trials(tiny_config(), seeds=[1])
        assert plain[0].trace_dir is None

    def test_ok_trials_leave_no_trace_files(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trials = campaign_trials(tiny_config(), seeds=[1], trace_dir=trace_dir)
        result = run_campaign(
            trials, timeout=60.0, checkpoint=tmp_path / "c.jsonl"
        )
        outcome = result.outcome("campaign-test-seed1")
        assert outcome.status == "ok"
        assert outcome.trace == ""
        assert not trace_dir.exists() or not list(trace_dir.iterdir())

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="needs fork so the seeded bug reaches the worker process",
    )
    def test_violation_trial_exports_a_valid_perfetto_trace(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import ObservabilityConfig
        from repro.obs.tracing import validate_chrome_trace
        from tests.sanitizer.test_fuzz import (
            bug_triggering_config,
            install_off_by_one_queue_bug,
        )

        install_off_by_one_queue_bug(monkeypatch)
        trace_dir = tmp_path / "traces"
        trial = CampaignTrial(
            key="buggy",
            config=bug_triggering_config(
                observability=ObservabilityConfig(
                    metrics=False, journeys=False, tracing=True
                )
            ),
            trace_dir=str(trace_dir),
        )
        result = run_campaign(
            [trial], timeout=60.0, checkpoint=tmp_path / "c.jsonl"
        )
        outcome = result.outcome("buggy")
        assert outcome.status == "violation"
        assert outcome.trace == str(trace_dir / "buggy.perfetto.json")
        doc = json.loads((trace_dir / "buggy.perfetto.json").read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"] == {"scenario": "buggy"}
        # The trace path survives the checkpoint round trip.
        restored = TrialOutcome.from_json(
            (tmp_path / "c.jsonl").read_text().splitlines()[0]
        )
        assert restored.trace == outcome.trace
