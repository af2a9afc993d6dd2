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
    TensorScalar,
    is_exact,
)

from strategies import fractions_within

exact_values = st.integers(-6, 6) | fractions_within(4, 8)

scalars = st.builds(
    TensorScalar, st.tuples(*([exact_values] * 8))
)

units = st.sampled_from(BASIS).map(TensorScalar.unit)

# Coefficients of every numeric type the kernel meets, zeros of each
# type and both signed float zeros among them.
mixed_values = (
    st.sampled_from([0, 0.0, -0.0])
    | st.integers(-6, 6)
    | fractions_within(4, 8)
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
        s = TensorScalar((x,) + (0,) * 7)
        assert s.scalar_part() == x
        assert s.is_real_scalar()

    def test_is_real_scalar_tolerance(self):
        s = TensorScalar((1.0,) + (0,) * 7) + K * 1e-12
        assert not s.is_real_scalar()
        assert s.is_real_scalar(1e-9)

    @given(scalars)
    def test_number_multiplication_matches_scalar_embedding(self, a):
        assert a * 3 == a * TensorScalar((3,) + (0,) * 7)
        assert 3 * a == a * 3
        half = Fraction(1, 2)
        assert a * half == TensorScalar((half,) + (0,) * 7) * a

    def test_is_exact_predicate(self):
        assert is_exact(3)
        assert is_exact(Fraction(1, 3))
        assert not is_exact(0.5)
        assert not is_exact(True)

    @given(scalars)
    def test_component_recomposition(self, a):
        # a is the sum over the split units u of (x + y l) u, with x and
        # y its coefficients on u and on u l: l commutes with every u.
        c = a.coeffs
        rebuilt = ZERO
        for h, u in enumerate(H_UNITS):
            rebuilt = rebuilt + (ONE * c[h] + ELL * c[h + 4]) * UNIT[u]
        assert rebuilt == a

    def test_str_uses_basis_labels(self):
        s = K - KL * 2
        assert "K" in str(s)
        assert "KL" in str(s)


def complex_number(a, b):
    """a + b l, in the complex subalgebra {1, l}."""
    return ONE * a + ELL * b


def split_quaternion(s, k, kl, l):
    """s + k K + kl KL + l L, in the split-quaternion subalgebra {1, K, KL, L}."""
    return TensorScalar((s, k, kl, l, 0, 0, 0, 0))


def split_norm(q):
    """The scalar of q q*, the indefinite norm s^2 + k^2 - kl^2 - l^2."""
    return (q * q.star()).scalar_part()


class TestComplex:
    # The l subalgebra {1, l}, whose conjugation is bar.
    @given(exact_values, exact_values, exact_values, exact_values)
    def test_multiplication(self, a, b, c, d):
        x = complex_number(a, b)
        y = complex_number(c, d)
        assert x * y == complex_number(a * c - b * d, a * d + b * c)

    @given(exact_values, exact_values)
    def test_conjugate_squares_to_norm(self, a, b):
        x = complex_number(a, b)
        assert x * x.bar() == complex_number(a * a + b * b, 0)

    @given(exact_values, exact_values, exact_values, exact_values)
    def test_to_tensor_is_a_homomorphism(self, a, b, c, d):
        # Products stay in {1, l}, and bar, the complex conjugation
        # there, is multiplicative on it.
        x = complex_number(a, b)
        y = complex_number(c, d)
        prod = x * y
        assert prod == complex_number(prod.coeffs[0], prod.coeffs[4])
        assert prod.bar() == x.bar() * y.bar()


class TestSplitQuaternion:
    # The split-quaternion subalgebra {1, K, KL, L}, whose conjugation
    # is star.
    @given(*([exact_values] * 4))
    def test_conjugate_recovers_the_norm(self, s, k, kl, l):
        q = split_quaternion(s, k, kl, l)
        assert q * q.star() == split_quaternion(s * s + k * k - kl * kl - l * l, 0, 0, 0)

    @given(*([exact_values] * 8))
    def test_norm_is_multiplicative(self, a, b, c, d, e, f, g, h):
        q = split_quaternion(a, b, c, d)
        r = split_quaternion(e, f, g, h)
        assert split_norm(q * r) == split_norm(q) * split_norm(r)

    @given(*([exact_values] * 8))
    def test_to_tensor_is_a_homomorphism(self, a, b, c, d, e, f, g, h):
        # Products stay in {1, K, KL, L}.
        prod = split_quaternion(a, b, c, d) * split_quaternion(e, f, g, h)
        assert prod == split_quaternion(*prod.coeffs[:4])

    @given(st.tuples(*([mixed_values] * 8)))
    def test_product_equals_the_dense_loop(self, c):
        q, r = split_quaternion(*c[:4]), split_quaternion(*c[4:])
        want = dense_product(c[:4], c[4:], _H_MUL)
        assert repr((q * r).coeffs[:4]) == repr(tuple(want))

    def test_zero_divisor_witness(self):
        q = split_quaternion(1, 0, 0, 1)
        r = split_quaternion(1, 0, 0, -1)
        assert q * r == ZERO
        assert split_norm(q) == 0


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
