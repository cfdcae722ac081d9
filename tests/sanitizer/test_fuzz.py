"""Scenario fuzzer: generation determinism, round-trips, shrinking.

The seeded-bug tests patch a deliberate off-by-one into the drop-tail
queue (accepting one packet beyond the declared limit) and prove the
sanitizer catches it through the fuzz probe, and that the shrinker
minimizes the failing config while staying on the same failure
signature.
"""

from __future__ import annotations

import json

import pytest

from repro.core.trials import TrialConfig
from repro.experiments.campaign import TrialOutcome
from repro.faults.schedule import FaultPlan
from repro.net.queues import DropTailQueue
from repro.sanitizer.fuzz import (
    config_from_dict,
    config_to_dict,
    failure_signature,
    generate_config,
    generate_configs,
    in_process_probe,
    load_config,
    repro_command,
    run_fuzz,
    save_config,
    shrink,
)


class TestGeneration:
    def test_fixed_seed_reproduces_identical_sequence(self):
        assert generate_configs(1, 10) == generate_configs(1, 10)

    def test_different_seeds_differ(self):
        assert generate_configs(1, 5) != generate_configs(2, 5)

    def test_index_stream_independence(self):
        # Config i never depends on how many configs came before it.
        assert generate_config(1, 5) == generate_configs(1, 6)[5]

    def test_configs_are_valid_and_sanitized(self):
        for config in generate_configs(3, 20):
            assert isinstance(config, TrialConfig)  # validated on init
            assert config.sanitize is True
            assert config.enable_trace is False
            if (config.platoon_size - 1) * config.spacing > 600:
                assert 1.0 <= config.duration <= 2.0  # long platoon
            else:
                assert 3.0 <= config.duration <= 8.0

    def test_some_platoons_outgrow_carrier_sense_range(self):
        # So the sanitizer's culling check sees skipped receivers.
        lengths = [
            (config.platoon_size - 1) * config.spacing
            for config in generate_configs(1, 25)
        ]
        assert any(length > 600 for length in lengths)
        assert any(length < 550 for length in lengths)

    def test_names_encode_seed_and_index(self):
        assert generate_config(7, 12).name == "fuzz-7-0012"

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_configs(1, -1)


class TestConfigRoundTrip:
    def test_dict_round_trip_exact(self):
        for config in generate_configs(5, 10):
            # Through JSON, so tuples inside FaultPlan become lists.
            data = json.loads(json.dumps(config_to_dict(config)))
            assert config_from_dict(data) == config

    def test_dict_sanitize_from_old_repro_rejected(self):
        # Repro files saved while ``sanitize`` was a checker-config object
        # carry a dict there; it must fail loudly, not run as truthy.
        data = config_to_dict(generate_config(5, 0))
        data["sanitize"] = {"ledger": True, "kernel": True, "protocols": True}
        with pytest.raises(ValueError, match="sanitize"):
            config_from_dict(data)

    def test_file_round_trip(self, tmp_path):
        config = generate_config(5, 3)
        path = tmp_path / "cfg.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_repro_command_names_the_saved_file(self, tmp_path):
        command = repro_command(tmp_path / "x.min.json")
        assert "sanitize --config" in command
        assert str(tmp_path / "x.min.json") in command


class TestFailureSignature:
    def test_ok_is_none(self):
        assert failure_signature(TrialOutcome(key="k", status="ok")) is None

    def test_violation_keyed_by_first_checker(self):
        outcome = TrialOutcome(
            key="k", status="violation",
            violations=[{"checker": "queue-over-limit"}, {"checker": "x"}],
        )
        assert failure_signature(outcome) == "violation:queue-over-limit"

    def test_timeout_literal(self):
        outcome = TrialOutcome(key="k", status="timeout")
        assert failure_signature(outcome) == "timeout"

    def test_error_keyed_by_exception_class(self):
        outcome = TrialOutcome(
            key="k", status="error",
            error="Traceback ...\nValueError: bad spacing",
        )
        assert failure_signature(outcome) == "error:ValueError"


class TestShrinkSynthetic:
    """Shrinker behaviour on a pure predicate — no trials are run."""

    def failing_config(self) -> TrialConfig:
        return generate_config(3, 0).with_overrides(
            queue_limit=4,
            error_bursts=True,
            platoon_size=4,
            fault_plan=FaultPlan(node_crashes=2, link_outages=1),
        )

    @staticmethod
    def fails(config: TrialConfig) -> bool:
        return config.queue_limit <= 10 and config.error_bursts

    def test_converges_to_boundary(self):
        result = shrink(self.failing_config(), self.fails)
        assert not result.exhausted
        shrunk = result.config
        # The two load-bearing fields sit exactly on the failure
        # boundary; everything else went to its simplest value.
        assert shrunk.queue_limit == 10
        assert shrunk.error_bursts is True
        assert shrunk.duration == 1.0
        assert shrunk.platoon_size == 2
        assert shrunk.fault_plan is None
        assert self.fails(shrunk)

    def test_reductions_recorded_in_order(self):
        result = shrink(self.failing_config(), self.fails)
        names = [name for name, _, _ in result.reductions]
        assert "duration" in names and "fault_plan" in names
        assert result.probes > 0

    def test_probe_budget_respected(self):
        result = shrink(self.failing_config(), self.fails, max_probes=3)
        assert result.probes <= 3
        assert result.exhausted
        assert self.fails(result.config)  # never returns a passing config

    def test_seed_and_sanitize_pinned(self):
        original = self.failing_config()
        result = shrink(original, self.fails)
        assert result.config.seed == original.seed
        assert result.config.sanitize == original.sanitize


def install_off_by_one_queue_bug(monkeypatch):
    """Accept one packet beyond the declared drop-tail limit."""

    def buggy_put(self, pkt):
        self._obs_occ.observe(len(self._items))
        if self._getters:
            self._getters.pop(0).succeed(pkt)
            self.enqueued += 1
            self.dequeued += 1
            self._obs_enq.inc()
            return True
        if len(self._items) > self.limit:  # BUG: should be >=
            self._drop(pkt, "IFQ")
            return False
        self._insert(pkt)
        self.enqueued += 1
        self._obs_enq.inc()
        self._san.on_occupancy(self, len(self._items))
        return True

    monkeypatch.setattr(DropTailQueue, "put", buggy_put)


def bug_triggering_config(**overrides) -> TrialConfig:
    base = dict(
        name="seeded-bug",
        duration=3.0,
        queue_limit=2,
        cbr_interval=0.02,
        mac_type="tdma",
        enable_trace=False,
        track_energy=False,
        sanitize=True,
        fault_plan=FaultPlan(link_outages=1),
    )
    base.update(overrides)
    return TrialConfig(**base)


class TestSeededInvariantBug:
    """Acceptance: a deliberately seeded invariant bug is caught by the
    sanitizer through the fuzz probe and shrunk to a minimal config."""

    def test_probe_catches_the_bug(self, monkeypatch):
        install_off_by_one_queue_bug(monkeypatch)
        outcome = in_process_probe(bug_triggering_config())
        assert outcome.status == "violation"
        assert failure_signature(outcome) == "violation:queue-over-limit"
        first = outcome.violations[0]
        assert first["scenario"] == "seeded-bug"
        assert "limit is 2" in first["message"]

    def test_without_bug_probe_is_clean(self):
        outcome = in_process_probe(bug_triggering_config())
        assert outcome.status == "ok"

    def test_shrinker_minimizes_while_keeping_signature(self, monkeypatch):
        install_off_by_one_queue_bug(monkeypatch)
        signature = "violation:queue-over-limit"

        def fails(config: TrialConfig) -> bool:
            return failure_signature(in_process_probe(config)) == signature

        result = shrink(
            bug_triggering_config(), fails, max_probes=30
        )
        shrunk = result.config
        # Still the same bug, on a strictly simpler scenario.
        assert fails(shrunk)
        assert shrunk.duration <= 1.5
        assert shrunk.fault_plan is None
        assert result.reductions

    def test_run_fuzz_reports_and_saves_repro(self, monkeypatch, tmp_path):
        install_off_by_one_queue_bug(monkeypatch)
        report = run_fuzz(
            seed=0,
            count=1,
            probe=in_process_probe,
            configs=[bug_triggering_config()],
            max_shrink_probes=12,
            save_dir=tmp_path,
        )
        assert not report.ok
        assert report.statuses == {"violation": 1}
        failure = report.failures[0]
        assert failure.signature == "violation:queue-over-limit"
        assert failure.shrunk is not None
        min_path = tmp_path / "seeded-bug.min.json"
        assert min_path.exists()
        assert failure.repro == repro_command(min_path)
        # The saved minimal config is ready to run as-is.
        reloaded = load_config(min_path)
        assert failure_signature(in_process_probe(reloaded)) == (
            "violation:queue-over-limit"
        )
        assert "queue-over-limit" in report.render()


class TestRunFuzzCleanPath:
    def test_all_ok_report(self):
        ok = TrialOutcome(key="k", status="ok")
        seen = []

        def fake_probe(config):
            seen.append(config.name)
            return ok

        report = run_fuzz(seed=9, count=4, probe=fake_probe)
        assert report.ok
        assert report.statuses == {"ok": 4}
        assert seen == [f"fuzz-9-{i:04d}" for i in range(4)]
        assert "OK" in report.render()

    def test_progress_callback_sees_every_config(self):
        calls = []
        run_fuzz(
            seed=9, count=3,
            probe=lambda c: TrialOutcome(key=c.name, status="ok"),
            progress=lambda index, outcome: calls.append(index),
        )
        assert calls == [0, 1, 2]

    def test_report_write_schema(self, tmp_path):
        report = run_fuzz(
            seed=9, count=2,
            probe=lambda c: TrialOutcome(key=c.name, status="ok"),
        )
        path = tmp_path / "report.json"
        report.write(path)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.fuzz/1"
        assert data["ok"] is True
        assert data["count"] == 2


class TestParallelSweep:
    """``jobs > 1`` runs the initial sweep as one parallel campaign."""

    @staticmethod
    def _tiny_configs(count: int) -> list[TrialConfig]:
        return [
            TrialConfig(
                name=f"psweep-{index}",
                seed=index + 1,
                duration=1.0,
                enable_trace=False,
                track_energy=False,
                sanitize=True,
            )
            for index in range(count)
        ]

    def test_parallel_sweep_matches_sequential(self):
        configs = self._tiny_configs(3)
        sequential = run_fuzz(
            seed=1, count=0, configs=configs, jobs=1, shrink_failures=False
        )
        parallel = run_fuzz(
            seed=1, count=0, configs=configs, jobs=2, shrink_failures=False
        )
        assert sequential.statuses == {"ok": 3}
        assert parallel.statuses == {"ok": 3}
        assert parallel.ok and sequential.ok

    def test_parallel_sweep_progress_stays_in_config_order(self):
        configs = self._tiny_configs(3)
        calls = []
        run_fuzz(
            seed=1,
            count=0,
            configs=configs,
            jobs=3,
            shrink_failures=False,
            progress=lambda index, outcome: calls.append(
                (index, outcome.key)
            ),
        )
        assert calls == [
            (0, "psweep-0"), (1, "psweep-1"), (2, "psweep-2"),
        ]

    def test_custom_probe_ignores_jobs(self):
        # An injected probe has unknown semantics; jobs must not bypass it.
        seen = []
        report = run_fuzz(
            seed=9,
            count=3,
            probe=lambda c: (
                seen.append(c.name) or TrialOutcome(key=c.name, status="ok")
            ),
            jobs=4,
        )
        assert report.statuses == {"ok": 3}
        assert len(seen) == 3
