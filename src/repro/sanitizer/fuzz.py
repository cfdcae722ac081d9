"""Scenario fuzzer: seed-derived random-but-valid trials + shrinking.

The fuzzer closes the loop the sanitizer opens: simsan can *detect* a
broken invariant, the fuzzer goes looking for configurations that break
one.  Three pieces:

* :func:`generate_configs` — a seed-derived stream of random but always
  *valid* :class:`~repro.core.trials.TrialConfig` instances (every draw
  comes from :func:`repro.core.seeding.derive_rng`, so a fixed fuzz seed
  reproduces the identical config sequence on any host);
* :func:`run_fuzz` — runs each config as a short trial under the full
  sanitizer, by default through the campaign runner's subprocess
  isolation (a segfault in config #17 must not take the fuzzer down);
* :func:`shrink` — a deterministic config minimizer: given a failing
  config and a reproduction predicate, it walks every field back toward
  its simplest value (bisecting numerics), keeping a change only when
  the *same failure signature* still reproduces.  The result is emitted
  as a ready-to-run JSON config plus a one-line repro command.

The fuzzer never draws from the shrinker: shrinking is pure bisection,
so a minimal repro is itself reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.core.seeding import derive_rng
from repro.core.trials import (
    MAC_TYPES,
    QUEUE_TYPES,
    ROUTING_TYPES,
    TrialConfig,
)
from repro.faults.schedule import FaultPlan
from repro.obs.config import ObservabilityConfig

#: Seed-derivation stream name for config generation (one index per
#: generated config, so config *i* never depends on how many came first).
FUZZ_STREAM = "fuzz.config"

#: Packet sizes the generator draws from (bytes).  Spans tiny control
#: frames to near-MTU data, including the paper's 500/1000 settings.
_PACKET_SIZES = (64, 128, 256, 500, 700, 1000, 1200, 1460)

#: TCP variants the stack implements.
_TCP_VARIANTS = ("reno", "tahoe", "newreno")

#: Share of configs whose platoons are longer than the 550 m
#: carrier-sense range (over 600 m), so some receivers are out of range
#: and the channel's neighbour lists cull them.  Those trials carry 40-56
#: vehicles, so they run 1-2 simulated seconds instead of 3-8.
_LONG_PLATOON_SHARE = 0.2


# -- config generation -------------------------------------------------------


def generate_config(seed: int, index: int) -> TrialConfig:
    """The ``index``-th fuzz config for fuzz ``seed`` — always valid.

    Each config draws from its own derived stream, so inserting or
    re-running configs never perturbs the others.  All configs run short
    trials (3-8 simulated seconds, 1-2 for long platoons) with the full
    sanitizer enabled and tracing off.
    """
    rng = derive_rng(seed, FUZZ_STREAM, index)
    mac_type = rng.choice(MAC_TYPES)
    platoon_size = rng.randint(2, 4)
    fault_plan: Optional[FaultPlan] = None
    if rng.random() < 0.6:
        plan = FaultPlan(
            node_crashes=rng.randint(0, 2),
            link_outages=rng.randint(0, 2),
            power_droops=rng.randint(0, 1),
            degradations=rng.randint(0, 1),
        )
        if plan.total_events > 0:
            fault_plan = plan
    config = TrialConfig(
        name=f"fuzz-{seed}-{index:04d}",
        packet_size=rng.choice(_PACKET_SIZES),
        mac_type=mac_type,
        queue_type=rng.choice(QUEUE_TYPES),
        routing=rng.choice(ROUTING_TYPES),
        speed_mps=round(rng.uniform(10.0, 40.0), 2),
        spacing=round(rng.uniform(15.0, 40.0), 1),
        platoon_size=platoon_size,
        duration=round(rng.uniform(3.0, 8.0), 1),
        throughput_interval=rng.choice((0.25, 0.5, 1.0)),
        seed=rng.randrange(1, 2**31),
        tcp_window=rng.randint(1, 32),
        tcp_variant=rng.choice(_TCP_VARIANTS),
        queue_limit=rng.randint(4, 64),
        tdma_num_slots=rng.choice((None, 4, 8, 16, 24)),
        rts_threshold=rng.choice((0, 256, 3000)),
        cbr_interval=(
            round(rng.uniform(0.05, 0.5), 3) if rng.random() < 0.4 else None
        ),
        error_rate=(
            round(rng.uniform(0.02, 0.3), 3) if rng.random() < 0.4 else 0.0
        ),
        error_bursts=rng.random() < 0.3,
        track_energy=rng.random() < 0.5,
        use_arp=rng.random() < 0.3,
        enable_trace=False,
        fault_plan=fault_plan,
        sanitize=True,
    )
    # Drawn last, so choosing a long platoon shifts no other field.
    if rng.random() < _LONG_PLATOON_SHARE:
        config = config.with_overrides(
            platoon_size=rng.randint(20, 28),
            spacing=round(rng.uniform(32.0, 40.0), 1),
            duration=round(rng.uniform(1.0, 2.0), 1),
        )
    return config


def generate_configs(seed: int, count: int) -> list[TrialConfig]:
    """The first ``count`` configs of fuzz stream ``seed``."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [generate_config(seed, index) for index in range(count)]


# -- config (de)serialization ------------------------------------------------


def config_to_dict(config: TrialConfig) -> dict:
    """A JSON-serializable dict round-trippable via :func:`config_from_dict`."""
    return asdict(config)


def config_from_dict(data: dict) -> TrialConfig:
    """Rebuild a :class:`TrialConfig` from :func:`config_to_dict` output.

    Accepts JSON-decoded input, where tuples have become lists.
    """
    payload = dict(data)
    plan = payload.get("fault_plan")
    if plan is not None:
        payload["fault_plan"] = FaultPlan(
            **{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in plan.items()
            }
        )
    observability = payload.get("observability")
    if observability is not None:
        payload["observability"] = ObservabilityConfig(**observability)
    return TrialConfig(**payload)


def save_config(config: TrialConfig, path: Union[str, Path]) -> None:
    """Write ``config`` as ready-to-run JSON (see ``ebl-sim sanitize``)."""
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_config(path: Union[str, Path]) -> TrialConfig:
    """Load a JSON trial config written by :func:`save_config`."""
    return config_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )


def repro_command(config_path: Union[str, Path]) -> str:
    """The one-liner that re-runs a saved config under the sanitizer."""
    return (
        "PYTHONPATH=src python -m repro.cli sanitize "
        f"--config {Path(config_path)}"
    )


# -- probing -----------------------------------------------------------------


def failure_signature(outcome) -> Optional[str]:
    """A stable label for *how* a trial failed, or None for success.

    Violations are keyed by the first violation's checker name (the
    shrinker must not wander onto a different bug while minimizing),
    errors by the exception's final line class, timeouts by the literal
    ``"timeout"``.
    """
    if outcome.status == "ok":
        return None
    if outcome.status == "violation":
        checker = "?"
        if outcome.violations:
            checker = outcome.violations[0].get("checker", "?")
        return f"violation:{checker}"
    if outcome.status == "timeout":
        return "timeout"
    last = ""
    for line in reversed(outcome.error.strip().splitlines()):
        if line.strip():
            last = line.strip()
            break
    return f"error:{last.split(':')[0] or '?'}"


def subprocess_probe(config: TrialConfig, timeout: float = 60.0):
    """Run one config in campaign subprocess isolation; never raises.

    Returns the campaign's :class:`~repro.experiments.campaign.TrialOutcome`
    (status ``ok``/``violation``/``error``/``timeout``).
    """
    from repro.experiments.campaign import CampaignTrial, run_campaign

    trial = CampaignTrial(key=config.name, config=config)
    result = run_campaign([trial], timeout=timeout)
    return result.outcomes[0]


def in_process_probe(config: TrialConfig):
    """Run one config in this process (tests; no crash isolation)."""
    from repro.experiments.campaign import TrialOutcome
    from repro.core.runner import run_trial

    try:
        result = run_trial(config)
    except Exception as exc:  # structured record, like the campaign worker
        return TrialOutcome(
            key=config.name,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )
    report = result.sanitizer_report
    if report is not None and not report.ok:
        return TrialOutcome(
            key=config.name,
            status="violation",
            error=report.render(),
            violations=[v.to_dict() for v in report.violations],
        )
    return TrialOutcome(key=config.name, status="ok")


# -- shrinking ---------------------------------------------------------------

#: Fields the shrinker walks, most-structural first.  ``duration`` leads:
#: a shorter trial makes every later probe cheaper.  ``name``/``seed``/
#: ``sanitize`` are pinned — the repro must stay byte-reproducible.
_SHRINK_ORDER = (
    "duration",
    "fault_plan",
    "mac_type",
    "routing",
    "queue_type",
    "platoon_size",
    "use_arp",
    "error_bursts",
    "error_rate",
    "cbr_interval",
    "track_energy",
    "enable_trace",
    "observability",
    "tcp_variant",
    "tcp_window",
    "tdma_num_slots",
    "rts_threshold",
    "packet_size",
    "queue_limit",
    "throughput_interval",
    "speed_mps",
    "spacing",
    "bitrate",
    "deceleration",
)

#: Per-field "simplest" targets that differ from the dataclass default:
#: a minimal repro wants the *cheapest* trial, not the paper's 60 s one.
_SHRINK_TARGETS = {
    "duration": 1.0,
    "platoon_size": 2,
    "track_energy": False,
    "enable_trace": False,
    "fault_plan": None,
    "observability": None,
}

#: Bisection steps for float fields (2^-12 of the range ≈ close enough).
_FLOAT_BISECT_STEPS = 12


@dataclass
class ShrinkResult:
    """What the minimizer achieved for one failing config."""

    config: TrialConfig
    #: ``(field, from, to)`` for every accepted reduction, in order.
    reductions: list = field(default_factory=list)
    #: Reproduction probes spent (each one runs a trial).
    probes: int = 0
    #: True when the probe budget ran out before a fixpoint.
    exhausted: bool = False


def _simplest(name: str, default) -> object:
    return _SHRINK_TARGETS.get(name, default)


def shrink(
    config: TrialConfig,
    fails: Callable[[TrialConfig], bool],
    max_probes: int = 150,
) -> ShrinkResult:
    """Deterministically minimize ``config`` while ``fails`` stays true.

    ``fails`` must return True when a candidate still reproduces the
    original failure (same signature — see :func:`failure_signature`).
    Every field is walked toward its simplest value in a fixed order;
    numeric fields bisect to the boundary closest to that target.  Passes
    repeat until a whole pass changes nothing.
    """
    defaults = {f.name: f.default for f in fields(TrialConfig)}
    result = ShrinkResult(config=config)

    def probe(candidate: TrialConfig) -> bool:
        if result.probes >= max_probes:
            result.exhausted = True
            return False
        result.probes += 1
        return fails(candidate)

    def try_value(current: TrialConfig, name: str, value) -> Optional[TrialConfig]:
        if getattr(current, name) == value:
            return None
        try:
            candidate = current.with_overrides(**{name: value})
        except ValueError:
            return None  # invalid combination; skip
        if result.exhausted or not probe(candidate):
            return None
        result.reductions.append((name, getattr(current, name), value))
        return candidate

    current = config
    changed = True
    while changed and not result.exhausted:
        changed = False
        for name in _SHRINK_ORDER:
            target = _simplest(name, defaults[name])
            value = getattr(current, name)
            if value == target:
                continue
            # Pass 1: jump straight to the simplest value.
            reduced = try_value(current, name, target)
            if reduced is not None:
                current = reduced
                changed = True
                continue
            # Pass 2: bisect numerics toward the target.
            if name == "fault_plan" and value is not None:
                plan = _shrink_plan(current, value, try_value)
                if plan is not current:
                    current = plan
                    changed = True
                continue
            if isinstance(value, bool) or not isinstance(
                target, (int, float)
            ) or not isinstance(value, (int, float)):
                continue
            reduced = _bisect_field(current, name, value, target, try_value)
            if reduced is not None:
                current = reduced
                changed = True
    result.config = current
    return result


def _bisect_field(
    current: TrialConfig,
    name: str,
    value,
    target,
    try_value,
) -> Optional[TrialConfig]:
    """The value nearest ``target`` that still fails, by bisection."""
    accepted: Optional[TrialConfig] = None
    if isinstance(value, int) and isinstance(target, int):
        lo, hi = target, value  # lo passes (just tried), hi fails
        while abs(hi - lo) > 1:
            mid = (lo + hi) // 2
            reduced = try_value(current, name, mid)
            if reduced is not None:
                current, hi, accepted = reduced, mid, reduced
            else:
                lo = mid
        return accepted
    lo, hi = float(target), float(value)
    for _ in range(_FLOAT_BISECT_STEPS):
        mid = (lo + hi) / 2.0
        reduced = try_value(current, name, mid)
        if reduced is not None:
            current, hi, accepted = reduced, mid, reduced
        else:
            lo = mid
    if accepted is not None:
        # Prefer a tidy value when the rounded boundary still fails.
        rounded = try_value(accepted, name, round(hi, 2))
        if rounded is not None:
            return rounded
    return accepted


def _shrink_plan(current: TrialConfig, plan: FaultPlan, try_value):
    """Find each fault-class count's minimum failing value by bisection.

    Assumes (heuristically, like every shrinker) that a failure present
    at N events of a class is present at more of them.  A candidate that
    would zero the whole plan is skipped — ``fault_plan=None`` was
    already probed before this runs.
    """
    for count_field in (
        "node_crashes", "link_outages", "power_droops", "degradations"
    ):
        lo, hi = 0, getattr(plan, count_field)  # hi is known to fail
        while lo < hi:
            mid = (lo + hi) // 2
            candidate_plan = _plan_with(plan, count_field, mid)
            reduced = (
                try_value(current, "fault_plan", candidate_plan)
                if candidate_plan is not None
                else None
            )
            if reduced is not None:
                current, plan, hi = reduced, candidate_plan, mid
            else:
                lo = mid + 1
    return current


def _plan_with(plan: FaultPlan, name: str, value: int) -> Optional[FaultPlan]:
    data = asdict(plan)
    data[name] = value
    data = {
        key: tuple(v) if isinstance(v, list) else v
        for key, v in data.items()
    }
    candidate = FaultPlan(**data)
    return candidate if candidate.total_events > 0 else None


# -- the fuzz run ------------------------------------------------------------


@dataclass
class FuzzFailure:
    """One failing config with its minimized reproduction."""

    index: int
    signature: str
    status: str
    error: str = ""
    violations: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    shrunk: Optional[dict] = None
    shrink_probes: int = 0
    shrink_reductions: int = 0
    #: Saved-config paths + ready-to-run command (when ``save_dir`` set).
    config_path: str = ""
    shrunk_path: str = ""
    repro: str = ""

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "signature": self.signature,
            "status": self.status,
            "error": self.error,
            "violations": self.violations,
            "config": self.config,
            "shrink_probes": self.shrink_probes,
            "shrink_reductions": self.shrink_reductions,
        }
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk
        if self.config_path:
            out["config_path"] = self.config_path
        if self.shrunk_path:
            out["shrunk_path"] = self.shrunk_path
        if self.repro:
            out["repro"] = self.repro
        return out


@dataclass
class FuzzReport:
    """Everything one fuzz run produced."""

    seed: int
    count: int
    statuses: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": "repro.fuzz/1",
            "seed": self.seed,
            "count": self.count,
            "ok": self.ok,
            "statuses": dict(self.statuses),
            "failures": [f.to_dict() for f in self.failures],
        }

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    def render(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.count} configs, "
            + ", ".join(
                f"{status}={n}" for status, n in sorted(self.statuses.items())
            )
        ]
        for failure in self.failures:
            lines.append(
                f"  config #{failure.index}: {failure.signature} "
                f"(shrunk in {failure.shrink_probes} probes, "
                f"{failure.shrink_reductions} reductions)"
            )
            if failure.repro:
                lines.append(f"    repro: {failure.repro}")
        if self.ok:
            lines.append("  OK — no failing configs")
        return "\n".join(lines)


def run_fuzz(
    seed: int,
    count: int,
    timeout: float = 60.0,
    probe: Optional[Callable[[TrialConfig], object]] = None,
    shrink_failures: bool = True,
    max_shrink_probes: int = 150,
    save_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[int, object], None]] = None,
    configs: Optional[Sequence[TrialConfig]] = None,
    jobs: int = 1,
) -> FuzzReport:
    """Fuzz ``count`` configs from ``seed``; shrink whatever fails.

    ``probe`` runs one config and returns a campaign-style outcome; the
    default is :func:`subprocess_probe` (full isolation).  Tests inject
    :func:`in_process_probe` or a synthetic predicate.  ``configs``
    overrides generation (the CLI's re-run path).

    With ``jobs > 1`` and the default probe, the initial sweep runs as
    one parallel campaign (``jobs`` isolated subprocesses in flight);
    outcomes and the report are identical to the sequential sweep, and
    ``progress`` is still called in config order — just after the sweep
    instead of during it.  Shrinking stays sequential: each probe
    depends on the previous verdict.
    """
    default_probe = probe is None
    if probe is None:
        def probe(config: TrialConfig):  # pragma: no cover - thin default
            return subprocess_probe(config, timeout=timeout)

    work = list(configs) if configs is not None else generate_configs(
        seed, count
    )
    report = FuzzReport(seed=seed, count=len(work))
    save_path = Path(save_dir) if save_dir is not None else None
    if save_path is not None:
        save_path.mkdir(parents=True, exist_ok=True)
    sweep_outcomes: Optional[list] = None
    names = [config.name for config in work]
    if jobs > 1 and default_probe and len(set(names)) == len(names):
        from repro.experiments.campaign import CampaignTrial, run_campaign

        sweep = run_campaign(
            [
                CampaignTrial(key=config.name, config=config)
                for config in work
            ],
            timeout=timeout,
            jobs=jobs,
        )
        sweep_outcomes = sweep.outcomes  # always in config order
    for index, config in enumerate(work):
        outcome = (
            sweep_outcomes[index]
            if sweep_outcomes is not None
            else probe(config)
        )
        if progress is not None:
            progress(index, outcome)
        status = outcome.status
        report.statuses[status] = report.statuses.get(status, 0) + 1
        signature = failure_signature(outcome)
        if signature is None:
            continue
        failure = FuzzFailure(
            index=index,
            signature=signature,
            status=status,
            error=outcome.error,
            violations=list(outcome.violations),
            config=config_to_dict(config),
        )
        if shrink_failures:
            def still_fails(candidate: TrialConfig) -> bool:
                return failure_signature(probe(candidate)) == signature

            shrunk = shrink(config, still_fails, max_probes=max_shrink_probes)
            failure.shrunk = config_to_dict(shrunk.config)
            failure.shrink_probes = shrunk.probes
            failure.shrink_reductions = len(shrunk.reductions)
        if save_path is not None:
            config_file = save_path / f"{config.name}.json"
            save_config(config, config_file)
            failure.config_path = str(config_file)
            if failure.shrunk is not None:
                min_file = save_path / f"{config.name}.min.json"
                Path(min_file).write_text(
                    json.dumps(failure.shrunk, indent=2, sort_keys=True)
                    + "\n",
                    encoding="utf-8",
                )
                failure.shrunk_path = str(min_file)
                failure.repro = repro_command(min_file)
            else:
                failure.repro = repro_command(config_file)
        report.failures.append(failure)
    return report
