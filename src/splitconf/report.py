"""Structured check reports shared by the verification suites.

A report is a named list of checks.  Each check carries a stable id,
one of three statuses, and expected/actual strings for diagnostics.
"discrepancy-documented" marks a spot where a bundled reference table
disagrees with recomputation; it is informational and never fails a
run.
"""

from dataclasses import dataclass, field

__all__ = [
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_DISCREPANCY",
    "Check",
    "Report",
]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_DISCREPANCY = "discrepancy-documented"


@dataclass(frozen=True)
class Check:
    check_id: str
    status: str
    expected: str
    actual: str
    context: str = ""

    def to_dict(self):
        return {
            "check_id": self.check_id,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "context": self.context,
        }


@dataclass
class Report:
    suite: str
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, check_id, ok, expected, actual, context=""):
        """Record a pass/fail check."""
        status = STATUS_PASS if ok else STATUS_FAIL
        self.checks.append(Check(check_id, status, str(expected), str(actual), context))
        return ok

    def match(self, check_id, ok, expected, context=""):
        """Record an exact pass/fail check: actual is "match" or "mismatch"."""
        return self.add(check_id, ok, expected, "match" if ok else "mismatch", context)

    def bound(self, check_id, dev, tol, context=""):
        """Record a pass/fail check that a deviation is at most tol."""
        return self.add(check_id, dev <= tol, "<= %g" % tol, repr(dev), context)

    def add_comparison(self, check_id, ok, expected, actual, context=""):
        """Record a reference comparison: mismatches are documented, not failed."""
        status = STATUS_PASS if ok else STATUS_DISCREPANCY
        self.checks.append(Check(check_id, status, str(expected), str(actual), context))
        return ok

    def extend(self, other):
        self.checks.extend(other.checks)

    def counts(self):
        out = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_DISCREPANCY: 0}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def passed(self):
        """True when no check failed (documented discrepancies do not fail)."""
        return all(c.status != STATUS_FAIL for c in self.checks)

    def sorted_checks(self):
        # Stable presentation ordering, independent of execution order.
        return sorted(self.checks, key=lambda c: c.check_id)

    def to_dict(self):
        return {
            "suite": self.suite,
            "config": dict(sorted(self.config.items())),
            "counts": self.counts(),
            "checks": [c.to_dict() for c in self.sorted_checks()],
        }
