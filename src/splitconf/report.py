"""Structured check reports shared by the verification suites.

A report is a named list of checks.  Each check carries a stable id,
one of three statuses, and expected/actual strings for diagnostics.
"discrepancy-documented" marks a spot where a bundled reference table
disagrees with recomputation; it is informational and never fails a
run.

``Value`` is the base of the package's value classes (``Check`` here,
``Vector6``, ``MinkowskiPoint``, ``NullVector``): plain classes that list
their fields in ``__slots__``, with ``==``, ``hash``, ``repr`` and
immutability built from those, so the import loads no ``dataclasses``.
"""

from .algebra import CHECK_TOL, is_number

__all__ = [
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_DISCREPANCY",
    "SUITE_DEFAULTS",
    "Value",
    "Check",
    "Report",
]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_DISCREPANCY = "discrepancy-documented"

# A verify suite's (tolerance, seed, samples) where its config has none; RunConfig's too.
SUITE_DEFAULTS = {"tolerance": CHECK_TOL, "seed": 42, "samples": 1000}


class Value:
    """Fields in __slots__: equal within a class, hashable, immutable."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ("%s=%r" % pair for pair in zip(self.__slots__, self._fields()))
        return "%s(%s)" % (type(self).__qualname__, ", ".join(fields))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % (name,))

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()

    @classmethod
    def _expect(cls, v):
        """v itself if it is a cls whose fields are numbers (algebra.is_number),
        else TypeError("expected a cls, got T") or one naming the field."""
        if not isinstance(v, cls):
            raise TypeError("expected a %s, got %s" % (cls.__name__, type(v).__name__))
        for name, c in zip(cls.__slots__, v._fields()):
            if not is_number(c):
                raise TypeError("field %s of %s is of type %s, not a number"
                                % (name, cls.__name__, type(c).__name__))
        return v


class Check(Value):
    __slots__ = ("check_id", "status", "expected", "actual", "context")

    def __init__(self, check_id, status, expected, actual, context=""):
        put = object.__setattr__
        put(self, "check_id", check_id), put(self, "status", status)
        put(self, "expected", expected), put(self, "actual", actual)
        put(self, "context", context)


class Report:
    def __init__(self, suite, config=None):
        self.suite = suite
        self.config = {} if config is None else config
        self.checks = []

    @classmethod
    def for_suite(cls, suite, config=None):
        """A report on a copy of a suite's config (None for none), and the
        config's (tolerance, seed, samples) with SUITE_DEFAULTS filling gaps."""
        config = dict(config or {})
        return cls(suite, config), [config.get(k, d) for k, d in SUITE_DEFAULTS.items()]

    def _append(self, check_id, ok, failed, expected, actual, context):
        status = STATUS_PASS if ok else failed
        self.checks.append(
            Check(str(check_id), status, str(expected), str(actual), str(context))
        )
        return ok

    def add(self, check_id, ok, expected, actual, context=""):
        """Record a pass/fail check; every field is stored as a string."""
        return self._append(check_id, ok, STATUS_FAIL, expected, actual, context)

    def match(self, check_id, ok, expected, context=""):
        """Record an exact pass/fail check: actual is "match" or "mismatch"."""
        return self.add(check_id, ok, expected, "match" if ok else "mismatch", context)

    def bound(self, check_id, dev, tol, context=""):
        """Record a pass/fail check that a deviation is at most tol."""
        return self.add(check_id, dev <= tol, "<= %g" % tol, repr(dev), context)

    def add_comparison(self, check_id, ok, expected, actual, context=""):
        """Record a reference comparison: mismatches are documented, not failed."""
        return self._append(check_id, ok, STATUS_DISCREPANCY, expected, actual, context)

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
