from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from splitconf.algebra import (
    _H_MUL,
    _MUL,
    BASIS,
    ELL,
    H_UNITS,
    K,
    KL,
    L,
    ONE,
    UNIT,
    ZERO,
    Complex,
    SplitQuaternion,
    TensorScalar,
    is_exact,
)

exact_values = st.integers(-6, 6) | st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)

scalars = st.builds(
    TensorScalar, st.tuples(*([exact_values] * 8))
)

units = st.sampled_from(BASIS).map(TensorScalar.unit)

# Coefficients of every numeric type the kernel meets, zeros of each
# type and both signed float zeros among them.
mixed_values = (
    st.sampled_from([0, 0.0, -0.0])
    | st.integers(-6, 6)
    | st.fractions(min_value=-4, max_value=4, max_denominator=8)
    | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
)


def dense_product(a, b, table):
    """The product loop as written before the shared kernel: every
    coefficient pair scanned in (a index, b index) order, zeros skipped."""
    out = [0] * len(table)
    for i in range(len(table)):
        if a[i]:
            for j in range(len(table)):
                if b[j]:
                    k, sgn = table[i][j]
                    if sgn > 0:
                        out[k] = out[k] + a[i] * b[j]
                    else:
                        out[k] = out[k] - a[i] * b[j]
    return out


# K^2 = -1, L^2 = (KL)^2 = +1, and the full sign grid of the split units.
H_TABLE = {
    ("1", "1"): (1, "1"),
    ("1", "K"): (1, "K"),
    ("1", "KL"): (1, "KL"),
    ("1", "L"): (1, "L"),
    ("K", "1"): (1, "K"),
    ("K", "K"): (-1, "1"),
    ("K", "KL"): (-1, "L"),
    ("K", "L"): (1, "KL"),
    ("KL", "1"): (1, "KL"),
    ("KL", "K"): (1, "L"),
    ("KL", "KL"): (1, "1"),
    ("KL", "L"): (1, "K"),
    ("L", "1"): (1, "L"),
    ("L", "K"): (-1, "KL"),
    ("L", "KL"): (-1, "K"),
    ("L", "L"): (1, "1"),
}


class TestUnitTable:
    def test_split_unit_products(self):
        for (u, v), (sign, w) in H_TABLE.items():
            got = TensorScalar.unit(u) * TensorScalar.unit(v)
            want = TensorScalar.unit(w) * sign
            assert got == want

    def test_complex_unit_squares_to_minus_one(self):
        assert ELL * ELL == -ONE

    def test_complex_unit_commutes_with_split_units(self):
        for u in H_UNITS:
            h = TensorScalar.unit(u)
            assert ELL * h == h * ELL

    def test_zero_divisors(self):
        a = ONE + L
        b = ONE - L
        assert a.nonzero and b.nonzero
        assert a * b == ZERO

    def test_basis_closure(self):
        # every unit product is +-1 times a unit
        for u in BASIS:
            for v in BASIS:
                prod = TensorScalar.unit(u) * TensorScalar.unit(v)
                hits = [c for c in prod.coeffs if c != 0]
                assert hits in ([1], [-1])


class TestRingLaws:
    @given(scalars, scalars, scalars)
    def test_associativity_law(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars, scalars)
    def test_left_distributivity_law(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars, scalars, scalars)
    def test_right_distributivity_law(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(scalars)
    def test_multiplicative_identity_law(self, a):
        assert ONE * a == a
        assert a * ONE == a

    @given(scalars)
    def test_additive_inverse_law(self, a):
        assert a + (-a) == ZERO
        assert a - a == ZERO

    @given(scalars, scalars)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    def test_associativity_on_all_basis_triples(self):
        els = [TensorScalar.unit(u) for u in BASIS]
        for a in els:
            for b in els:
                for c in els:
                    assert (a * b) * c == a * (b * c)


class TestProductKernel:
    @given(st.tuples(*([mixed_values] * 8)), st.tuples(*([mixed_values] * 8)))
    def test_product_equals_the_dense_loop(self, a, b):
        got = TensorScalar(a) * TensorScalar(b)
        want = dense_product(a, b, _MUL) if any(a) and any(b) else ZERO.coeffs
        assert repr(got.coeffs) == repr(tuple(want))

    def test_float_sums_keep_the_index_order(self):
        # The scalar part sums 1*1, K*K and L*L in that order:
        # (2**53 + 1) - 2**53 == 0.0, while the reverse order gives 1.0.
        big = float(2**53)
        a = TensorScalar((big, 1.0, 0, -big, 0, 0, 0, 0))
        b = TensorScalar((1.0, -1.0, 0, 1.0, 0, 0, 0, 0))
        got = (a * b).coeffs
        assert got[0] == 0.0
        assert repr(got) == repr(tuple(dense_product(a.coeffs, b.coeffs, _MUL)))


class TestInvolutions:
    @given(scalars)
    def test_bar_is_an_involution(self, a):
        assert a.bar().bar() == a

    @given(scalars)
    def test_star_is_an_involution(self, a):
        assert a.star().star() == a

    @given(scalars, scalars)
    def test_bar_is_an_automorphism(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()

    @given(scalars, scalars)
    def test_star_is_an_antiautomorphism(self, a, b):
        assert (a * b).star() == b.star() * a.star()

    @given(scalars)
    def test_bar_and_star_commute(self, a):
        assert a.bar().star() == a.star().bar()

    def test_bar_negates_the_complex_unit_only(self):
        assert ELL.bar() == -ELL
        for u in H_UNITS:
            h = TensorScalar.unit(u)
            assert h.bar() == h

    def test_star_fixes_one_and_the_complex_unit(self):
        assert ONE.star() == ONE
        assert ELL.star() == ELL
        assert K.star() == -K
        assert KL.star() == -KL
        assert L.star() == -L


class TestScalarHelpers:
    @given(scalars)
    def test_scalar_part_reads_the_unit_coefficient(self, a):
        assert a.scalar_part() == a.coeffs[0]

    @given(exact_values)
    def test_from_real_embeds(self, x):
        s = TensorScalar.from_real(x)
        assert s.scalar_part() == x
        assert s.is_real_scalar()

    def test_is_real_scalar_tolerance(self):
        s = TensorScalar.from_real(1.0) + K * 1e-12
        assert not s.is_real_scalar()
        assert s.is_real_scalar(1e-9)

    @given(scalars)
    def test_dict_round_trip(self, a):
        assert TensorScalar.from_dict(a.to_dict()) == a

    @given(scalars)
    def test_number_multiplication_matches_scalar_embedding(self, a):
        assert a * 3 == a * TensorScalar.from_real(3)
        assert 3 * a == a * 3
        assert a * Fraction(1, 2) == TensorScalar.from_real(Fraction(1, 2)) * a

    def test_is_exact_predicate(self):
        assert is_exact(3)
        assert is_exact(Fraction(1, 3))
        assert not is_exact(0.5)
        assert not is_exact(True)

    @given(scalars)
    def test_component_recomposition(self, a):
        rebuilt = TensorScalar.from_parts(*(a.component(u) for u in H_UNITS))
        assert rebuilt == a

    def test_str_uses_basis_labels(self):
        s = K - KL * 2
        assert "K" in str(s)
        assert "KL" in str(s)


class TestComplex:
    @given(exact_values, exact_values, exact_values, exact_values)
    def test_multiplication(self, a, b, c, d):
        x = Complex(a, b)
        y = Complex(c, d)
        assert x * y == Complex(a * c - b * d, a * d + b * c)

    @given(exact_values, exact_values)
    def test_conjugate_squares_to_norm(self, a, b):
        x = Complex(a, b)
        n = x * x.conjugate()
        assert n == Complex(a * a + b * b, 0)

    @given(exact_values, exact_values, exact_values, exact_values)
    def test_to_tensor_is_a_homomorphism(self, a, b, c, d):
        x = Complex(a, b)
        y = Complex(c, d)
        assert (x * y).to_tensor() == x.to_tensor() * y.to_tensor()


class TestSplitQuaternion:
    @given(*([exact_values] * 4))
    def test_conjugate_recovers_the_norm(self, s, k, kl, l):
        q = SplitQuaternion(s, k, kl, l)
        n = q * q.conjugate()
        assert n == SplitQuaternion(q.norm(), 0, 0, 0)

    @given(*([exact_values] * 8))
    def test_norm_is_multiplicative(self, a, b, c, d, e, f, g, h):
        q = SplitQuaternion(a, b, c, d)
        r = SplitQuaternion(e, f, g, h)
        assert (q * r).norm() == q.norm() * r.norm()

    @given(*([exact_values] * 8))
    def test_to_tensor_is_a_homomorphism(self, a, b, c, d, e, f, g, h):
        q = SplitQuaternion(a, b, c, d)
        r = SplitQuaternion(e, f, g, h)
        assert (q * r).to_tensor() == q.to_tensor() * r.to_tensor()

    @given(st.tuples(*([mixed_values] * 8)))
    def test_product_equals_the_dense_loop(self, c):
        q, r = SplitQuaternion(*c[:4]), SplitQuaternion(*c[4:])
        want = dense_product(c[:4], c[4:], _H_MUL)
        assert repr((q * r)._vec()) == repr(tuple(want))

    def test_zero_divisor_witness(self):
        q = SplitQuaternion(1, 0, 0, 1)
        r = SplitQuaternion(1, 0, 0, -1)
        assert q * r == SplitQuaternion()
        assert q.norm() == 0


class TestApproximate:
    def test_approx_eq_window(self):
        a = ONE + K * 1.0
        b = ONE + K * (1.0 + 5e-13)
        assert a.approx_eq(b, 1e-12)
        assert not a.approx_eq(b, 1e-13)

    @given(scalars)
    def test_max_abs_bounds_every_coefficient(self, a):
        m = a.max_abs()
        assert all(abs(c) <= m for c in a.coeffs)
