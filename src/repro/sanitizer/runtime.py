"""Per-trial sanitizer runtime: ledger + monitors + finalize.

:class:`Sanitizer` is what a scenario owns when its trial config sets
``sanitize``.  The scenario passes it to :func:`repro.obs.api.activate`
around stack construction (so components bind its ledger and live
monitors, and kernel resources register for the occupancy audit), and
:func:`repro.core.runner.harvest` calls :meth:`finalize` to run the
end-of-trial checkers and collect the
:class:`~repro.sanitizer.violations.SanitizerReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sanitizer.checkers import (
    ChannelMonitor,
    DcfMonitor,
    QueueMonitor,
    TcpMonitor,
    TdmaMonitor,
    check_kernel,
    check_routing,
    collect_resident_uids,
)
from repro.sanitizer.ledger import PacketLedger
from repro.sanitizer.violations import InvariantViolation, SanitizerReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario import EblScenario
    from repro.des.core import Environment

#: Cap on collected violations per trial (a systemic bug would otherwise
#: flood the report with one record per packet).
DEFAULT_MAX_VIOLATIONS = 200

#: Packets whose last sighting falls within this many simulated seconds
#: of the trial end are "in flight at cutoff", not leaked.  Generous on
#: purpose: a frame can legitimately sit out a full TDMA frame plus
#: propagation before its next trace event.
DEFAULT_CUTOFF_GRACE = 1.0


class Sanitizer:
    """Everything checked during one trial."""

    def __init__(self, env: "Environment", scenario_name: str = "") -> None:
        self.env = env
        self.scenario_name = scenario_name
        self.report = SanitizerReport(scenario=scenario_name)
        self.ledger = PacketLedger()
        self.queue_mon = QueueMonitor(self.emit, env)
        self.tcp_mon = TcpMonitor(self.emit, env)
        self.tdma_mon = TdmaMonitor(self.emit, env)
        self.dcf_mon = DcfMonitor(self.emit, env)
        self.channel_mon = ChannelMonitor(self.emit, env)
        #: Kernel resources built while this sanitizer was active.
        self.resources: list[object] = []
        self._finalized = False

    # -- violation sink ----------------------------------------------------

    def emit(self, violation: InvariantViolation) -> None:
        """Collect one violation, stamping the scenario name and capping
        the report at :data:`DEFAULT_MAX_VIOLATIONS`."""
        violation.scenario = self.scenario_name
        if len(self.report.violations) >= DEFAULT_MAX_VIOLATIONS:
            self.report.overflow += 1
            return
        self.report.violations.append(violation)

    # -- finalize ----------------------------------------------------------

    def finalize(self, scenario: "EblScenario") -> SanitizerReport:
        """Run the end-of-trial checkers once; returns the report."""
        if self._finalized:
            return self.report
        self._finalized = True
        check_kernel(scenario, self.env, self.resources, self.emit)
        check_routing(scenario, self.emit)
        observability = scenario.observability
        counters = self.ledger.audit(
            end_time=self.env.now,
            grace=DEFAULT_CUTOFF_GRACE,
            resident_uids=collect_resident_uids(scenario, self.ledger),
            emit=self.emit,
            flooding=scenario.config.routing == "flooding",
            journeys=(
                observability.journeys if observability is not None else None
            ),
        )
        counters["notes"] = self.ledger.notes_recorded
        counters["culled"] = self.channel_mon.culled
        self.report.counters.update(counters)
        return self.report
