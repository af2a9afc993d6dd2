"""Hypothesis strategies and the reference step route shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from splitconf.clifford import build_P, extract_coords
from splitconf.group import act_on_P


def fractions_within(bound, max_denominator):
    """Every Fraction n/d in [-bound, bound] with d <= max_denominator:
    the values of st.fractions with those limits, drawn faster."""
    return st.sampled_from(sorted({
        Fraction(n, d)
        for d in range(1, max_denominator + 1)
        for n in range(-bound * d, bound * d + 1)
    }))


def reference_route(word, v):
    """act_on_vector's result on the TensorMatrix route: extract_coords of
    act_on_P's conjugation of build_P(v).  The scalar kernel under
    act_on_vector and the numpy batch are each held to it."""
    return extract_coords(act_on_P(word, build_P(v)))
