"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st


def fractions_within(bound, max_denominator):
    """Every Fraction n/d in [-bound, bound] with d <= max_denominator:
    the values of st.fractions with those limits, drawn faster."""
    return st.sampled_from(sorted({
        Fraction(n, d)
        for d in range(1, max_denominator + 1)
        for n in range(-bound * d, bound * d + 1)
    }))
