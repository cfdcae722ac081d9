"""simsan: opt-in runtime invariant checking for the EBL simulator.

Components bind the sanitizer's ledger and monitors once, at
construction time, through the same context as the metrics
(:mod:`repro.obs.api`); when no sanitizer is active those bindings are
either ``None`` (per-trace-event paths, where an ``is not None`` test is
cheapest) or the shared null monitor whose hook methods are no-ops.
With ``TrialConfig.sanitize`` False a trial's trace digest is
bit-identical to an uninstrumented run; with it True, every checker
family below runs, and the digest is still bit-identical (golden-tested).

Checker families (see docs/ROBUSTNESS.md):

* **ledger** — packet conservation: every data uid seen by the stack
  terminates as delivered, dropped-with-reason, attributed to a
  recorded loss (collision, fault outage, ...), or resident in a
  declared buffer at trial end.  Cross-validated against obs journeys.
* **kernel** — event-heap pop monotonicity (strict mode), heap
  integrity at trial end, no dead MAC service loops, resource/store
  occupancy within declared capacity.
* **protocols** — TCP seq/ack monotonicity, queue occupancy <= limit,
  AODV route entries never pointing at long-dead neighbours, TDMA
  slot-ownership exclusivity, 802.11 NAV/backoff non-negativity.
"""

from repro.sanitizer.runtime import Sanitizer
from repro.sanitizer.violations import InvariantViolation, SanitizerReport

__all__ = [
    "Sanitizer",
    "InvariantViolation",
    "SanitizerReport",
]
