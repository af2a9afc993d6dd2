"""The float tolerance policy: one rule, one home, and the sites that use it.

``algebra.within`` is the one comparison |x| <= tol * max(1, scale).  The
array sites used to write np.maximum(1.0, scale), which is nan for a nan
scale where Python's max(1, nan) is 1; the references below keep that
older form, so these tests pin that every mask still comes out the same.
"""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitconf
from splitconf.algebra import CHART_TOL, CHECK_TOL, SPAN_TOL, within
from splitconf.batch import build_P_batch, extract_coords_batch
from splitconf.clifford import COORDS, METRIC, Vector6, _rows, metric_form
from splitconf.checks import _null_rows

SRC = Path(splitconf.__file__).parent

inf, nan = math.inf, math.nan
HOSTILE = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e300, -1e300, inf, -inf, nan)
TOLS = (SPAN_TOL, CHART_TOL, CHECK_TOL, 1.0, 5e-324)

hostile = st.sampled_from(HOSTILE) | st.floats()


def rule(x, tol, s):
    """The policy as Python writes it on numbers: max(1, nan) is 1."""
    return abs(x) <= tol * max(1, s)


class TestRule:
    @given(hostile, st.sampled_from(TOLS), hostile)
    def test_numbers(self, x, tol, s):
        assert within(x, tol, s) == rule(x, tol, s)
        assert within(x, tol) == (abs(x) <= tol)

    def test_arrays(self):
        xs, ss = np.array(HOSTILE)[:, None], np.array(HOSTILE)[None, :]
        for tol in TOLS:
            got = within(xs, tol, ss)
            assert got.dtype == bool and got.shape == (len(HOSTILE),) * 2
            want = [[rule(x, tol, s) for s in HOSTILE] for x in HOSTILE]
            assert got.tolist() == want

    def test_exact_values_are_held_to_zero(self):
        tiny = Fraction(1, 10**30)
        assert within(Fraction(0), 0, Fraction(7))
        assert not within(tiny, 0, Fraction(7))
        assert not within(tiny, 0, 10**40)


def _constants(path):
    return [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Constant)]


def test_no_tolerance_literal_outside_the_policy():
    found = [
        "%s:%d %r" % (path.name, node.lineno, node.value)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "algebra.py"
        for node in _constants(path)
        if type(node.value) is float and 0 < node.value < 1e-6
    ]
    assert found == []


def test_no_match_verdict_outside_report():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "report.py"
        for node in _constants(path)
        if node.value == "mismatch"
    ]
    assert found == []


# ---- the array sites against their np.maximum form ----------------------


def batch_ok_reference(p, tol=SPAN_TOL):
    """extract_coords_batch's ok mask, written with np.maximum(1.0, scale),
    from the reader table's own terms: row r % 64, negated when r >= 64."""
    terms = np.array(list(_rows()[0])).reshape(6, 8, 2, 4)
    acc = np.zeros((6, 8, 2, p.shape[1]))
    for r in range(4):
        term = terms[..., r]
        acc += np.where(term < 64, 1.0, -1.0)[..., None] * p[term % 64]
    sym = acc[:, :, 0] + acc[:, :, 1]
    mag = np.abs(sym)
    use_tol = tol * np.maximum(1.0, mag.max(axis=1))
    real = (mag[:, 1:] <= use_tol[:, None]).all(axis=(0, 1))
    metric = np.array([[METRIC[m]] for m in COORDS], float)
    coords = metric * sym[:, 0] / 8 + 0.0
    residual = np.abs(p - build_P_batch(coords)).max(axis=0)
    limit = tol * np.maximum(1.0, np.abs(p).max(axis=0))
    ok = real & (residual <= limit) & np.isfinite(p).all(axis=0)
    return ok & np.isfinite(coords).all(axis=0)


def hostile_columns():
    """(64, n) batches: in-span columns with one coefficient set to each
    hostile value, at a slot and off the slots, and columns whose gather
    sums overflow (so that a scale is inf, or nan from inf - inf)."""
    base = build_P_batch(np.array([[0.5, -0.25, 0.0, 1.0, 2.0, -1.5]]).T)
    slot_rows = {r for r, _ in _rows()[1]}
    rows = [min(slot_rows), min(set(range(64)) - slot_rows), 63]
    cols = []
    for r, value in itertools.product(rows, HOSTILE):
        col = base[:, 0].copy()
        col[r] = value
        cols.append(col)
    for big in (1e308, -1e308, 1.7e308):
        col = build_P_batch(np.full((6, 1), big))[:, 0]
        cols.append(col.copy())
        col[rows[1]] = -big
        cols.append(col)
    return np.array(cols).T


def test_batch_ok_mask_is_the_np_maximum_mask():
    p = hostile_columns()
    with np.errstate(over="ignore", invalid="ignore"):
        for tol in (SPAN_TOL, 0.0, 1e6):
            want = batch_ok_reference(p, tol)
            assert extract_coords_batch(p, tol)[1].tolist() == want.tolist()
            assert want.any() and not want.all()


def null_masks_reference(coords):
    """_null_rows' null and at-infinity masks, written with np.maximum."""
    v = Vector6(*coords.T)
    form, m = metric_form(v), np.abs(coords).max(axis=1)
    null = np.isfinite(form) & (np.abs(form) <= 1e-9 * np.maximum(1.0, m * m))
    negligible = np.abs(v.p + v.q) <= 1e-12 * np.maximum(1.0, m)
    return null, np.isfinite(coords).all(axis=1) & negligible


def hostile_rows():
    """(n, 6) rows: null vectors in and out of the chart, each with one
    coordinate set to each hostile value, and rows whose squares overflow."""
    starts = [
        [0.6, 0.0, 0.0, 0.0, 0.5, 0.5],
        [1.0, 0.0, 0.0, 0.0, 1.0, -1.0],
        [1e200, 0.0, 0.0, 0.0, 1e200, 1.0],
        [0.0] * 6,
    ]
    rows = [list(r) for r in starts]
    for start, k, value in itertools.product(starts, (0, 4), HOSTILE):
        row = list(start)
        row[k] = value
        rows.append(row)
    return np.array(rows)


def test_null_rows_masks_are_the_np_maximum_masks():
    with np.errstate(over="ignore", invalid="ignore"):
        coords = hostile_rows()
        null, at_infinity = null_masks_reference(coords)
        bad = ~null | at_infinity
        assert bad.any() and not bad.all()
        for row, refused in zip(coords, bad):
            if refused:
                with pytest.raises(ValueError):
                    _null_rows(row[None])
            else:
                assert _null_rows(row[None]).tolist() == [row.tolist()]
