import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf import matrices
from splitconf.algebra import _MUL, ELL, K, L, ONE, TensorScalar, ZERO, is_exact, within
from splitconf.clifford import Vector6, build_P, build_X, extract_coords, gamma, metric_form
from splitconf.group import (
    PLANES,
    TRANSLATION_NAMES,
    _nilpotent_generator,
    act_on_P,
    act_on_X,
    generator,
)
from splitconf.matrices import (
    TensorMatrix,
    _sincosh,
    exp_nilpotent,
    exp_pair,
    quadratic_form,
    trace_product,
)

from strategies import fractions_within

exact_values = st.integers(-4, 4) | fractions_within(2, 4)

scalars = st.builds(TensorScalar, st.tuples(*([exact_values] * 8)))

mats2 = st.builds(
    lambda a, b, c, d: TensorMatrix(((a, b), (c, d))),
    scalars,
    scalars,
    scalars,
    scalars,
)


# Entries for the kernel properties: zero entries, and coefficients of
# every numeric type with zeros of each type, both float zeros included.
mixed_values = (
    st.sampled_from([0, 0.0, -0.0])
    | st.integers(-6, 6)
    | fractions_within(4, 8)
    | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
)

mixed_entries = st.just(ZERO) | st.builds(
    TensorScalar, st.tuples(*([mixed_values] * 8))
)


def mixed_pairs(n_max=4):
    """Two same-size square matrices of mixed entries."""
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(*[
            st.builds(
                TensorMatrix,
                st.lists(
                    st.lists(mixed_entries, min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
            )
        ] * 2)
    )


def dense_pair_product(acc, x, y):
    """acc += x * y over all 8 x 8 coefficient pairs, zeros skipped."""
    for p in range(8):
        if x[p]:
            for q in range(8):
                if y[q]:
                    t, sgn = _MUL[p][q]
                    if sgn > 0:
                        acc[t] = acc[t] + x[p] * y[q]
                    else:
                        acc[t] = acc[t] - x[p] * y[q]


def dense_matmul(a, b):
    """The 4x4 product as the dense loop computed it, summing over k."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                x, y = a.rows[i][k], b.rows[k][j]
                if x.nonzero and y.nonzero:
                    if acc is None:
                        acc = [0] * 8
                    dense_pair_product(acc, x.coeffs, y.coeffs)
            row.append(ZERO if acc is None else TensorScalar(acc))
        rows.append(row)
    return TensorMatrix(rows)


def dense_trace_product(a, b):
    acc = [0] * 8
    touched = False
    for i in range(a.n):
        for k in range(a.n):
            x, y = a.rows[i][k], b.rows[k][i]
            if x.nonzero and y.nonzero:
                touched = True
                dense_pair_product(acc, x.coeffs, y.coeffs)
    return TensorScalar(acc) if touched else ZERO


def coefficient_reprs(mat):
    return [[repr(e.coeffs) for e in r] for r in mat.rows]


def diag2(a, b):
    return TensorMatrix(((a, ZERO), (ZERO, b)))


class TestMatrixRing:
    @given(mats2, mats2, mats2)
    def test_associativity_law(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)

    @given(mats2, mats2, mats2)
    def test_distributivity_law(self, a, b, c):
        assert a @ (b + c) == a @ b + a @ c

    @given(mats2)
    def test_identity_law(self, a):
        i = TensorMatrix.identity(2)
        assert i @ a == a
        assert a @ i == a

    @given(mats2, scalars)
    def test_scale_is_left_multiplication(self, a, s):
        want = diag2(s, s) @ a
        assert a.scale(s) == want

    def test_rectangular_rows_rejected(self):
        with pytest.raises(ValueError):
            TensorMatrix(((ONE, ZERO), (ONE,)))


class TestProductKernel:
    @given(mixed_pairs())
    def test_product_equals_the_dense_loop(self, pair):
        a, b = pair
        assert coefficient_reprs(a @ b) == coefficient_reprs(dense_matmul(a, b))

    @given(mixed_pairs())
    def test_trace_product_equals_the_dense_loop(self, pair):
        a, b = pair
        got = trace_product(a, b)
        assert repr(got.coeffs) == repr(dense_trace_product(a, b).coeffs)

    def test_float_sums_keep_the_k_order(self):
        # Entry (0, 0) sums k = 0, 1, 2: (2**53 + 1) - 2**53 == 0.0,
        # while summing k in reverse gives 1.0.
        big = TensorScalar((float(2**53),) + (0,) * 7)
        a = TensorMatrix(((big, ONE, -big), (ZERO,) * 3, (ZERO,) * 3))
        b = TensorMatrix(((ONE,) * 3, (ONE,) * 3, (ONE,) * 3))
        got = a @ b
        assert got.rows[0][0].coeffs[0] == 0.0
        assert coefficient_reprs(got) == coefficient_reprs(dense_matmul(a, b))
        assert trace_product(a, b).coeffs[0] == 0.0


class TestBlocks:
    @given(mats2, mats2, mats2, mats2)
    def test_from_blocks_round_trip(self, tl, tr, bl, br):
        m = TensorMatrix.from_blocks(tl, tr, bl, br)
        assert m.blocks() == (tl, tr, bl, br)


class TestTrace:
    @given(mats2)
    def test_trace_reversal_negates_the_trace(self, a):
        assert a.trace_reversed().trace() == -a.trace()

    @given(mats2)
    def test_double_trace_reversal_restores(self, a):
        # for 2x2 only: tilde(tilde(X)) = X
        assert a.trace_reversed().trace_reversed() == a

    @given(mats2, mats2)
    def test_trace_product_matches_full_product(self, a, b):
        assert trace_product(a, b) == (a @ b).trace()

    @given(mats2, mats2)
    def test_trace_cyclicity_holds_for_the_scalar_part(self, a, b):
        lhs = trace_product(a, b).scalar_part()
        rhs = trace_product(b, a).scalar_part()
        assert lhs == rhs

    def test_full_trace_cyclicity_fails(self):
        # the familiar identity breaks over a noncommutative scalar ring
        a = diag2(K, ZERO)
        b = diag2(L, ZERO)
        assert trace_product(a, b) == K * L
        assert trace_product(b, a) == -(K * L)
        assert trace_product(a, b) != trace_product(b, a)


class TestInvolutions:
    @given(mats2)
    def test_bar_entrywise(self, a):
        assert a.bar().rows[0][1] == a.rows[0][1].bar()

    @given(mats2, mats2)
    def test_bar_is_an_automorphism(self, a, b):
        assert (a @ b).bar() == a.bar() @ b.bar()

    @given(mats2)
    def test_hermitian_symmetrization(self, a):
        sym = a + TensorMatrix(zip(*a.bar().rows))
        assert sym.is_c_hermitian()

    def test_is_c_hermitian_examples(self):
        x = TensorMatrix(((ONE, ONE - ELL), (ONE + ELL, -ONE)))
        assert x.is_c_hermitian()
        y = TensorMatrix(((ONE, ELL), (ELL, ONE)))
        assert not y.is_c_hermitian()


def taylor_exp(gen, theta, terms=24):
    out = TensorMatrix.identity(gen.n)
    power = TensorMatrix.identity(gen.n)
    fact = 1
    for k in range(1, terms):
        power = power @ gen
        fact *= k
        out = out + power.scale(theta ** k / fact)
    return out


class TestExponentials:
    # A plane step is exp((theta/2) gamma(a) gamma(b)); the closed form
    # must agree with the Taylor series.
    def test_rotation_exponential_matches_taylor(self):
        gen = gamma("x") @ gamma("y")  # squares to -I
        got = generator("xy", 1.4)
        assert within((got - taylor_exp(gen, 0.7)).max_abs(), 1e-12)
        assert got.rows[0][0].approx_eq(
            ONE * math.cos(0.7) + ELL * math.sin(0.7), 1e-12
        )

    def test_boost_exponential_matches_taylor(self):
        gen = gamma("t") @ gamma("x")  # squares to +I
        got = generator("tx", -1.8)
        assert within((got - taylor_exp(gen, -0.9)).max_abs(), 1e-12)
        assert got.rows[0][0].approx_eq(ONE * math.cosh(0.9), 1e-12)
        assert got.rows[0][1].approx_eq(L * -math.sinh(0.9), 1e-12)

    def test_off_diagonal_involutory_generator(self):
        gen = TensorMatrix(((ZERO, ONE), (ONE, ZERO)))  # squares to +I
        got, inverse = exp_pair(gen, *_sincosh(0.3, True))
        assert within((got - taylor_exp(gen, 0.3)).max_abs(), 1e-12)
        assert within((inverse - taylor_exp(gen, -0.3)).max_abs(), 1e-12)

    def test_exp_at_zero_is_the_identity(self):
        for name in PLANES + TRANSLATION_NAMES:
            assert generator(name, 0) == TensorMatrix.identity(4)

    def test_nilpotent_exponential_is_affine(self):
        zero_div = ONE + L
        gen = TensorMatrix(((ZERO, zero_div), (ZERO, ZERO)))
        assert (gen @ gen).is_zero()
        got = exp_nilpotent(gen, Fraction(2, 3))
        want = TensorMatrix.identity(2) + gen.scale(Fraction(2, 3))
        assert got == want

    def test_nilpotent_exponential_inverts_by_negation(self):
        gen = TensorMatrix(((ZERO, ONE), (ZERO, ZERO)))
        u = exp_nilpotent(gen, Fraction(1, 2))
        v = exp_nilpotent(gen, Fraction(-1, 2))
        assert u @ v == TensorMatrix.identity(2)

    def test_nilpotent_requires_zero_square(self):
        with pytest.raises(ValueError):
            exp_nilpotent(TensorMatrix.identity(2), 1)

    def test_nilpotency_is_proved_once_per_matrix(self, monkeypatch):
        products = []
        matmul = TensorMatrix.__matmul__

        def counting(a, b):
            products.append(1)
            return matmul(a, b)

        monkeypatch.setattr(TensorMatrix, "__matmul__", counting)
        gen = TensorMatrix(((ZERO, ONE + L), (ZERO, ZERO)))
        for theta in (1, Fraction(-1, 3), 0.25):
            assert exp_nilpotent(gen, theta) == (
                TensorMatrix.identity(2) + gen.scale(theta)
            )
        assert len(products) == 1
        bad = TensorMatrix(((ZERO, ONE), (ONE, ZERO)))
        for _ in range(2):
            with pytest.raises(ValueError, match="square to zero"):
                exp_nilpotent(bad, 1)
        assert len(products) == 2


class TestExactness:
    @pytest.mark.parametrize(
        "entry, exact",
        [
            (TensorScalar((1, -2, 0, 0, 3, 0, 0, 0)), True),
            (TensorScalar((Fraction(1, 3), 0, 0, 0, 0, 0, 0, Fraction(-2, 5))), True),
            (TensorScalar((Fraction(1, 2), 2, 0, 0, 0, 0, 0, 0)), True),
            (TensorScalar((0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)), False),
            (TensorScalar((1, 0, 0, 0, 0, 0, 0, 0.25)), False),
            (TensorScalar((Fraction(1, 2), 0, 0, 0, 0, 0, 0.0, 0)), False),
        ],
        ids=["int", "fraction", "int-and-fraction", "float", "int-and-float",
             "fraction-and-float-zero"],
    )
    def test_regime_follows_every_coefficient(self, entry, exact):
        m = TensorMatrix(((ONE, ZERO), (ZERO, entry)))
        assert m.is_exact() is exact
        # The second call reads the flag cached by the first.
        assert m.is_exact() is exact

    def test_identity_and_zeros_are_exact(self):
        assert TensorMatrix.identity(4).is_exact()
        assert TensorMatrix.zeros(3).is_exact()

    def test_float_scaling_leaves_the_exact_regime(self):
        assert not TensorMatrix.identity(2).scale(0.5).is_exact()
        assert TensorMatrix.identity(2).scale(Fraction(1, 2)).is_exact()


def count_scans(monkeypatch):
    """The coefficients TensorMatrix.is_exact tests from now on, as a list."""
    seen = []

    def counted(x):
        seen.append(x)
        return is_exact(x)

    monkeypatch.setattr(matrices, "is_exact", counted)
    return seen


def fresh(m):
    """m with its regime not yet decided."""
    return TensorMatrix(m.rows)


class TestKnownExactness:
    def test_a_product_of_known_exact_matrices_is_known_exact(self, monkeypatch):
        a, b = fresh(gamma("x")), fresh(gamma("t"))
        assert a.is_exact() and b.is_exact()
        seen = count_scans(monkeypatch)
        assert (a @ b).is_exact() is True
        assert (a @ b @ a).is_exact() is True
        assert seen == []

    def test_an_undecided_operand_leaves_the_product_to_a_scan(self, monkeypatch):
        a, b = fresh(gamma("x")), fresh(gamma("t"))
        assert a.is_exact()
        seen = count_scans(monkeypatch)
        assert (a @ b).is_exact() is True
        assert len(seen) == 128

    def test_a_product_with_a_float_operand_reports_false(self):
        a, f = fresh(gamma("x")), fresh(gamma("t")).scale(0.5)
        assert a.is_exact() and not f.is_exact()
        assert (a @ f).is_exact() is False
        assert (f @ a).is_exact() is False
        assert (f @ f).is_exact() is False

    def test_a_float_operand_whose_floats_meet_only_zeros_gives_an_exact_product(self):
        # The float entry b[1][0] multiplies a[0][1], a zero entry, so
        # no float reaches the product; the scan, not the flags, says so.
        a = TensorMatrix(((ONE, ZERO), (ZERO, ZERO)))
        b = TensorMatrix(((ONE, ZERO), (ONE * 0.5, ZERO)))
        assert a.is_exact() and not b.is_exact()
        assert (a @ b).is_exact() is True

    def test_exp_pair_knows_an_exact_element(self, monkeypatch):
        gen = fresh(_nilpotent_generator("a", "x"))
        assert gen.is_exact()
        seen = count_scans(monkeypatch)
        m, m_inv = exp_pair(gen, 1, Fraction(1, 3))
        assert m.is_exact() is True and m_inv.is_exact() is True
        assert len(seen) == 2
        m, m_inv = exp_pair(gen, 1, 0.5)
        assert m.is_exact() is False and m_inv.is_exact() is False


class TestTermCache:
    # @ keeps one term cache per matrix, _terms: per row, the (column,
    # terms) of each nonzero entry.  It serves the matrix as a left and
    # as a right factor; a cached list must give the product the dense
    # loop and fresh copies give.
    @given(mixed_pairs())
    def test_a_left_factor_reused_as_a_right_factor_gives_fresh_products(self, pair):
        a, b = pair
        a @ b
        cached = a._terms, b._terms
        assert None not in cached
        for x, y in ((b, a), (b, b), (a, b), (a, a)):
            got = coefficient_reprs(x @ y)
            assert got == coefficient_reprs(fresh(x) @ fresh(y))
            assert got == coefficient_reprs(dense_matmul(x, y))
        assert a._terms is cached[0] and b._terms is cached[1]

    def test_the_cache_lists_each_rows_nonzero_entries_by_column(self):
        m = gamma("x") @ gamma("t")
        m @ m
        assert m._terms == [
            [(j, [(i, c) for i, c in enumerate(e.coeffs) if c])
             for j, e in enumerate(r) if e.nonzero]
            for r in m.rows
        ]

    @pytest.mark.parametrize("copy_of", [
        copy.copy,
        lambda m: pickle.loads(pickle.dumps(m)),
    ], ids=["copy", "pickle"])
    def test_copies_with_filled_caches_give_equal_products(self, copy_of):
        a = (gamma("x") @ gamma("t")).scale(0.5) + gamma("p")
        b = gamma("y") @ gamma("q")
        want = [coefficient_reprs(x @ y) for x, y in ((a, b), (b, a), (a, a))]
        a2, b2 = copy_of(a), copy_of(b)
        assert (a2._terms, b2._terms) == (a._terms, b._terms)
        got = [coefficient_reprs(x @ y) for x, y in ((a2, b2), (b2, a2), (a2, a2))]
        assert got == want


def with_coefficient(p, index, value):
    """p with flat coefficient index replaced by value."""
    flat = p.flat()
    flat[index] = value
    return TensorMatrix(
        [[TensorScalar(flat[32 * i + 8 * j:32 * i + 8 * j + 8]) for j in range(4)]
         for i in range(4)]
    )


class TestRefuseOverflow:
    # A float matrix cannot hold an exact coefficient beyond float range:
    # the refusal names it instead of letting float() raise OverflowError.
    @pytest.mark.parametrize("index", [0, 5, 33, 127])
    @pytest.mark.parametrize("route", [
        extract_coords,
        lambda p: act_on_P([("xy", 0.3)], p),
    ], ids=["extract_coords", "act_on_P"])
    def test_an_exact_coefficient_beyond_float_range_is_named(self, route, index):
        p = with_coefficient(build_P(Vector6(x=1.0)), index, Fraction(10**400, 3))
        msg = "^matrix coefficient %d is beyond float range" % index
        with pytest.raises(ValueError, match=msg):
            route(p)

    @pytest.mark.parametrize("indices", [(0, 1), (24, 48)])
    def test_exact_coefficients_that_sum_beyond_float_range_are_named(self, indices):
        # Each coefficient fits a float, their sum does not: the sum
        # meets a float and overflows, or reaches inf without raising.
        # act_on_P's products round them to floats, so its read refuses.
        p = build_P(Vector6(x=1.0))
        for index in indices:
            p = with_coefficient(p, index, Fraction(int(1.5e308)))
        with pytest.raises(ValueError, match="^matrix coefficients sum beyond float range"):
            extract_coords(p)
        with pytest.raises(ValueError):
            act_on_P([("xy", 0.3)], p)

    @pytest.mark.parametrize("bad", [math.nan, Fraction(10**400, 3)])
    def test_a_step_error_comes_before_the_input_refusal(self, bad):
        # act_on_P resolves the whole word before its first product.
        p = with_coefficient(build_P(Vector6(x=1.0)), 5, bad)
        with pytest.raises(OverflowError, match="^boost angle 1000000.0 of 'tx'"):
            act_on_P([("tx", 1e6)], p)
        with pytest.raises(OverflowError, match="^boost angle 1000000.0 of 'tx'"):
            act_on_P([("xy", 0.3), ("tx", 1e6)], p)


class TestQuadraticForm:
    def test_symmetric_off_diagonal(self):
        x = TensorMatrix(((ZERO, ONE), (ONE, ZERO)))
        assert quadratic_form(x) == 1

    def test_split_unit_diagonal(self):
        x = diag2(L, L)
        # X tilde(X) = L*(-L) = -1 on the diagonal
        assert quadratic_form(x) == -1

    def test_exact_inputs_are_checked_exactly(self):
        x = TensorMatrix(((ZERO, K), (L, ZERO)))
        with pytest.raises(ValueError):
            quadratic_form(x)

    @pytest.mark.parametrize("span", [1e4, 1e5, 1e6])
    def test_large_float_inputs_are_held_relative_to_the_scale(self, span):
        # The product's rounding grows with its scale; an absolute
        # SPAN_TOL refused every one of these.
        rng = random.Random(4)
        for _ in range(20):
            v = Vector6(*(rng.uniform(-span, span) for _ in range(6)))
            x = act_on_X([("xy", 0.3), ("tz", 0.7)], build_X(v))
            assert within(quadratic_form(x) - metric_form(v), 1e-9, span * span)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coefficient_is_named(self, bad):
        with pytest.raises(ValueError, match="coefficient %s is not finite" % bad):
            quadratic_form(build_X(Vector6(x=bad, y=1.0)))

    @pytest.mark.parametrize("v", [Vector6(x=1e200), Vector6(x=1e200, t=1e200)])
    def test_an_overflowing_product_of_finite_input_is_named(self, v):
        # The product's entries are inf, and inf - inf is nan; either
        # refusal branch names that, not the shape of the product.
        with pytest.raises(ValueError, match="coefficient (inf|nan) is not finite"):
            quadratic_form(build_X(v))

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_scalar_matrices(self, a, b):
        x = diag2(ONE * a, ONE * a)
        # tilde(aI) = -aI, so the form is -a^2
        assert quadratic_form(x) == -a * a
