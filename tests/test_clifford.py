import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf.algebra import ELL, K, KL, L, ONE, ZERO, TensorScalar
from splitconf.clifford import (
    COORDS,
    METRIC,
    Vector6,
    build_P,
    build_X,
    extract_coords,
    gamma,
    inner_product,
    metric_form,
    sigma,
)
from splitconf.checks import PRINTED_IMAGE_TABLE, verify_clifford
from splitconf.conformal import NullVector
from splitconf.group import PLANES, TRANSLATION_NAMES, _conjugate, act_on_vector
from splitconf.matrices import TensorMatrix, quadratic_form

SYMBOL = {
    "0": ZERO,
    "1": ONE,
    "-1": -ONE,
    "l": ELL,
    "-l": -ELL,
    "K": K,
    "-K": -K,
    "KL": KL,
    "-KL": -KL,
    "L": L,
    "-L": -L,
}


def grid(cells):
    return TensorMatrix(
        tuple(tuple(SYMBOL[c] for c in row) for row in cells)
    )


# Expected entries of the six 4x4 matrices, written out longhand.
GAMMA_GRIDS = {
    "x": (
        ("0", "0", "0", "1"),
        ("0", "0", "1", "0"),
        ("0", "1", "0", "0"),
        ("1", "0", "0", "0"),
    ),
    "y": (
        ("0", "0", "0", "-l"),
        ("0", "0", "l", "0"),
        ("0", "-l", "0", "0"),
        ("l", "0", "0", "0"),
    ),
    "z": (
        ("0", "0", "1", "0"),
        ("0", "0", "0", "-1"),
        ("1", "0", "0", "0"),
        ("0", "-1", "0", "0"),
    ),
    "t": (
        ("0", "0", "L", "0"),
        ("0", "0", "0", "L"),
        ("-L", "0", "0", "0"),
        ("0", "-L", "0", "0"),
    ),
    "q": (
        ("0", "0", "K", "0"),
        ("0", "0", "0", "K"),
        ("-K", "0", "0", "0"),
        ("0", "-K", "0", "0"),
    ),
    "p": (
        ("0", "0", "KL", "0"),
        ("0", "0", "0", "KL"),
        ("-KL", "0", "0", "0"),
        ("0", "-KL", "0", "0"),
    ),
}

exact_values = st.integers(-4, 4) | st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)

exact_vectors = st.builds(Vector6, *([exact_values] * 6))

float_vectors = st.builds(
    Vector6,
    *([st.floats(-2, 2, allow_nan=False, allow_infinity=False)] * 6)
)


class TestGammaGrids:
    def test_every_gamma_matches_its_longhand_grid(self):
        for m, cells in GAMMA_GRIDS.items():
            assert gamma(m) == grid(cells), m

    def test_block_structure(self):
        z2 = TensorMatrix.zeros(2)
        for m in COORDS:
            tl, tr, bl, br = gamma(m).blocks()
            assert tl == z2 and br == z2
            assert tr == sigma(m)
            assert bl.rows == tuple(tuple(e.star() for e in r) for r in sigma(m).rows)

    def test_trace_reversal_equals_star_on_sigmas(self):
        for m in COORDS:
            assert sigma(m).trace_reversed().rows == tuple(
                tuple(e.star() for e in r) for r in sigma(m).rows
            )

    def test_sigmas_are_c_hermitian(self):
        for m in COORDS:
            assert sigma(m).is_c_hermitian()


class TestCliffordRelations:
    def test_anticommutators(self):
        ident = TensorMatrix.identity(4)
        for i, m in enumerate(COORDS):
            for n in COORDS[i:]:
                anti = gamma(m) @ gamma(n) + gamma(n) @ gamma(m)
                g = METRIC[m] if m == n else 0
                assert anti == ident.scale(2 * g), (m, n)

    def test_squares_carry_the_metric(self):
        ident = TensorMatrix.identity(4)
        for m in COORDS:
            assert gamma(m) @ gamma(m) == ident.scale(METRIC[m])

    def test_verify_clifford_report(self):
        rep = verify_clifford()
        assert len(rep.checks) == 21
        assert rep.counts()["fail"] == 0
        assert rep.passed


class TestVectors:
    @given(exact_vectors)
    def test_extract_inverts_build_exactly(self, v):
        assert extract_coords(build_P(v)) == v

    @given(float_vectors)
    def test_extract_inverts_build_approximately(self, v):
        got = extract_coords(build_P(v))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got.as_tuple(), v.as_tuple()))

    @given(exact_vectors)
    def test_embedding_is_linear(self, v):
        assert build_P(v.scale(3)) == build_P(v).scale(3)

    @given(exact_vectors)
    def test_square_is_the_metric_form(self, v):
        p = build_P(v)
        assert p @ p == TensorMatrix.identity(4).scale(metric_form(v))

    @given(exact_vectors)
    def test_two_by_two_form_matches_the_metric_form(self, v):
        assert quadratic_form(build_X(v)) == metric_form(v)

    def test_metric_form_on_basis_vectors(self):
        signs = {"x": 1, "y": 1, "z": 1, "t": -1, "p": -1, "q": 1}
        for m, want in signs.items():
            assert metric_form(Vector6.basis(m)) == want

    @given(exact_vectors)
    def test_p_blocks_carry_x_and_its_reversal(self, v):
        z2 = TensorMatrix.zeros(2)
        x = build_X(v)
        tl, tr, bl, br = build_P(v).blocks()
        assert tl == z2 and br == z2
        assert tr == x
        assert bl == x.trace_reversed()
        assert bl.rows == tuple(tuple(e.star() for e in r) for r in x.rows)

    @given(float_vectors)
    def test_x_is_c_hermitian(self, v):
        assert build_X(v).is_c_hermitian(1e-15)


def dense_P(v):
    """The reference embedding: every gamma scaled by its coordinate, summed."""
    acc = TensorMatrix.zeros(4)
    for m in COORDS:
        acc = acc + gamma(m).scale(v.component(m))
    return acc


class TestSparseEmbedding:
    def test_each_nonzero_gamma_slot_has_one_owner(self):
        owners = {}
        for m in COORDS:
            for i, row in enumerate(gamma(m).rows):
                for j, e in enumerate(row):
                    for k, c in enumerate(e.coeffs):
                        if c:
                            assert c in (1, -1)
                            owners.setdefault((i, j, k), []).append(m)
        assert len(owners) == 24
        assert all(len(ms) == 1 for ms in owners.values())

    @given(exact_vectors)
    def test_matches_the_dense_sum_exactly(self, v):
        assert build_P(v) == dense_P(v)

    @given(float_vectors)
    def test_matches_the_dense_sum_bitwise(self, v):
        got, ref = build_P(v), dense_P(v)
        for got_row, ref_row in zip(got.rows, ref.rows):
            for g, r in zip(got_row, ref_row):
                for gc, rc in zip(g.coeffs, r.coeffs):
                    assert gc == rc
                    if rc:
                        assert float.hex(gc) == float.hex(rc)


class TestInnerProduct:
    def test_gamma_orthogonality(self):
        for m in COORDS:
            for n in COORDS:
                want = METRIC[m] if m == n else 0
                assert inner_product(gamma(m), gamma(n)) == want

    @given(exact_vectors, exact_vectors)
    def test_symmetry(self, u, v):
        a, b = build_P(u), build_P(v)
        assert inner_product(a, b) == inner_product(b, a)

    @given(exact_vectors, exact_vectors)
    def test_polarization(self, u, v):
        # <P_u, P_v> recovers the metric pairing of the coordinates
        want = sum(
            METRIC[m] * u.component(m) * v.component(m) for m in COORDS
        )
        assert inner_product(build_P(u), build_P(v)) == want

    def test_rejects_a_non_real_pairing(self):
        ident = TensorMatrix.identity(4)
        with pytest.raises(ValueError):
            inner_product(ident, ident.scale(ELL))


class TestInputTypes:
    def test_build_P_names_the_vector_type_it_takes(self):
        # A NullVector wraps its Vector6 as .v; build_P does not unwrap it.
        v = Vector6(t=1, q=1)
        for bad in (NullVector(v), v.as_tuple()):
            with pytest.raises(TypeError) as err:
                build_P(bad)
            assert str(err.value) == "expected a Vector6, got %s" % type(bad).__name__

    def test_an_unknown_basis_coordinate_is_a_value_error(self):
        # sigma and gamma refuse it with Vector6.basis' ValueError.
        for build in (Vector6.basis, sigma, gamma):
            with pytest.raises(ValueError) as err:
                build("w")
            assert str(err.value) == "unknown coordinate 'w', not one of %s" % (COORDS,)


class TestExtractErrors:
    def test_identity_is_outside_the_span(self):
        with pytest.raises(ValueError):
            extract_coords(TensorMatrix.identity(4))

    def test_plane_products_are_outside_the_span(self):
        with pytest.raises(ValueError):
            extract_coords(gamma("x") @ gamma("y"))

    def test_a_non_finite_coefficient_off_the_gathered_slots_is_refused(self):
        # Neither coefficient enters a gather sum, and the residual's max
        # passes over a nan, so only the finiteness test sees them.
        nan_diagonal = build_P(Vector6(x=1.0)) + TensorMatrix.identity(4).scale(math.nan)
        rows = [list(r) for r in build_P(Vector6(x=1.0)).rows]
        rows[0][0] = TensorScalar((math.inf,) + (0,) * 7)
        for p in (nan_diagonal, TensorMatrix(rows)):
            with pytest.raises(ValueError, match="is not finite: the step overflowed"):
                extract_coords(p)

    @pytest.mark.parametrize("v", [
        Vector6(x=5e307, t=2.5e307),  # inf coordinate, so an inf residual
        Vector6(x=1e308, t=5e307),  # inf - inf in a K component
    ])
    def test_an_overflowing_gather_sum_is_named(self, v):
        # Every coefficient is finite; the sums extraction forms are not.
        with pytest.raises(ValueError, match=r"trace sums overflowed \((inf|nan)\)"):
            extract_coords(build_P(v))

    def test_near_miss_respects_the_tolerance(self):
        p = build_P(Vector6(x=1.0)) + TensorMatrix.identity(4).scale(1e-6)
        with pytest.raises(ValueError):
            extract_coords(p, tol=1e-9)
        got = extract_coords(p, tol=1e-3)
        assert all(abs(a - b) <= 1e-5 for a, b in zip(got.as_tuple(), (1.0, 0, 0, 0, 0, 0)))


def reference_extract(p, tol=1e-9):
    """extract_coords the long way: six inner products and a dense residual.

    A float zero coordinate is normalised to 0.0, the regime rule of
    extract_coords; every other coordinate is the inner product as is.
    """
    exact = p.is_exact()
    coords = []
    for m in COORDS:
        val = inner_product(gamma(m), p, tol=tol)
        val = val if METRIC[m] == 1 else -val
        coords.append(val if exact else val or 0.0)
    v = Vector6(*coords)
    residual = (p - build_P(v)).max_abs()
    limit = 0 if exact else tol * max(1, p.max_abs())
    if residual > limit:
        raise ValueError(
            "matrix lies outside the span of the gammas (residual %s)" % (residual,)
        )
    return v


def outcome(extract, p, tol=1e-9):
    """The coordinates' reprs and types, or the error message."""
    try:
        v = extract(p, tol=tol)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", tuple((type(c).__name__, repr(c)) for c in v.as_tuple()))


wide_float_vectors = st.builds(
    Vector6,
    *([st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)] * 6)
)

in_span = st.builds(build_P, exact_vectors | float_vectors | wide_float_vectors)

nilpotent_steps = st.tuples(
    st.sampled_from(TRANSLATION_NAMES),
    exact_values | st.floats(-1, 1, allow_nan=False, allow_infinity=False),
)

plane_steps = st.tuples(
    st.sampled_from(PLANES),
    st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
)


@st.composite
def stepped(draw):
    """An in-span matrix pushed through a few plane and nilpotent steps."""
    p = draw(in_span)
    return _conjugate(draw(st.lists(plane_steps | nilpotent_steps, max_size=3)), p)


@st.composite
def perturbed(draw):
    """A matrix moved off the span at a few coefficients."""
    rows = [list(r) for r in draw(stepped()).rows]
    for _ in range(draw(st.integers(1, 3))):
        i, j, k = (draw(st.integers(0, n)) for n in (3, 3, 7))
        eps = draw(
            st.sampled_from([1e-13, 1e-10, 1e-7, 1e-3, 1, Fraction(1, 7), 2])
        )
        coeffs = list(rows[i][j].coeffs)
        coeffs[k] = coeffs[k] + eps
        rows[i][j] = TensorScalar(coeffs)
    return TensorMatrix(rows)


class TestGatherExtraction:
    @given(stepped() | perturbed(), st.sampled_from([1e-9, 1e-3, 0]))
    def test_matches_the_inner_product_reference(self, p, tol):
        assert outcome(extract_coords, p, tol) == outcome(reference_extract, p, tol)

    def test_matches_the_reference_bitwise_on_a_seeded_sweep(self):
        # On dense matrices the order of the signed sums decides the last
        # bit of a coordinate often enough for a fixed sweep to pin the
        # order trace_product adds in.  A loose tolerance lets these
        # off-span matrices through to the coordinates; the strict one
        # compares the error messages.
        rng = random.Random(2013)
        for _ in range(100):
            p = TensorMatrix(
                tuple(
                    tuple(
                        TensorScalar([rng.uniform(-2, 2) for _ in range(8)])
                        for _ in range(4)
                    )
                    for _ in range(4)
                )
            )
            for tol in (1e9, 1e-9):
                assert outcome(extract_coords, p, tol) == outcome(
                    reference_extract, p, tol
                )

    @pytest.mark.parametrize(
        "p, tol",
        [
            (TensorMatrix.identity(4), 1e-9),
            (build_P(Vector6(x=1.0)) + TensorMatrix.identity(4).scale(1e-6), 1e-9),
            (build_P(Vector6(x=1.0)) + TensorMatrix.identity(4).scale(1e-6), 1e-3),
        ]
        + [
            (gamma(a) @ gamma(b), 1e-9)
            for a in COORDS
            for b in COORDS
            if a != b
        ]
        + [
            (build_P(Vector6(x=Fraction(1, 3), t=Fraction(2, 7))).scale(ELL), 1e-9),
            (
                build_P(Vector6(x=Fraction(1, 3), t=Fraction(2, 7)))
                + TensorMatrix.identity(4).scale(Fraction(1, 5)),
                1e-9,
            ),
        ],
    )
    def test_out_of_span_messages_match_the_reference(self, p, tol):
        assert outcome(extract_coords, p, tol) == outcome(reference_extract, p, tol)
        if tol == 1e-9:
            assert outcome(extract_coords, p, tol)[0] == "error"

    # Exact coefficients beyond float range, in the span and off it (a
    # real residual, an imaginary inner product), read as exactly as small
    # ones: the checks never convert an exact sum to a float.
    HUGE = Fraction(10**400, 3)

    @pytest.mark.parametrize(
        "p",
        [
            build_P(Vector6(x=HUGE, t=1, q=-HUGE)),
            build_P(Vector6(y=HUGE, p=Fraction(1, 7)))
            + TensorMatrix.identity(4).scale(Fraction(1, 10**400)),
            build_P(Vector6(x=HUGE)) + TensorMatrix.identity(4).scale(HUGE),
            build_P(Vector6(z=HUGE, t=Fraction(2, 7))).scale(ELL),
        ],
        ids=["in-span", "tiny-residual", "huge-residual", "not-real"],
    )
    @pytest.mark.parametrize("tol", [0, 1e-9, 1e-3])
    def test_coefficients_beyond_float_range_match_the_reference(self, p, tol):
        # A float tol passed with an exact matrix is held to 0 all the same.
        assert p.is_exact()
        assert outcome(extract_coords, p, tol) == outcome(reference_extract, p, 0)

    def test_float_zero_coordinates_are_positive_float_zeros(self):
        v = extract_coords(build_P(Vector6(x=1.0, t=0.5)))
        assert v == Vector6(x=1.0, t=0.5)
        for c in (v.y, v.z, v.p, v.q):
            assert type(c) is float and math.copysign(1.0, c) == 1.0

    def test_exact_coordinates_are_fractions(self):
        v = extract_coords(build_P(Vector6(x=1, t=Fraction(1, 2))))
        assert v == Vector6(x=1, t=Fraction(1, 2))
        assert all(type(c) is Fraction for c in v.as_tuple())

    def test_metric_form_overflows_to_infinity(self):
        assert metric_form(Vector6(x=1e200)) == math.inf
        assert metric_form(Vector6(t=1e200)) == -math.inf


# Large primes, so that the denominators of one matrix are coprime and
# their lcm is large.
PRIMES = (9973, 10007, 65537, 104729, 1000003, 2**31 - 1)

big_fractions = st.builds(
    Fraction, st.integers(-10**9, 10**9), st.sampled_from(PRIMES)
)

big_exact_vectors = st.builds(Vector6, *([st.just(0) | big_fractions] * 6))

exact_nilpotent_steps = st.tuples(st.sampled_from(TRANSLATION_NAMES), big_fractions)

zero_plane_steps = st.tuples(st.sampled_from(PLANES), st.just(0))

exact_fixed = [TensorMatrix.identity(4)] + [
    gamma(a) @ gamma(b) for a in COORDS for b in COORDS
]


@st.composite
def exact_stepped(draw):
    """An exact in-span matrix pushed through nilpotent and int-0 plane steps."""
    word = draw(st.lists(exact_nilpotent_steps | zero_plane_steps, max_size=3))
    return _conjugate(word, build_P(draw(big_exact_vectors)))


@st.composite
def exact_perturbed(draw):
    """An exact matrix moved off the span by Fraction amounts at a few coefficients."""
    rows = [list(r) for r in draw(exact_stepped()).rows]
    for _ in range(draw(st.integers(1, 3))):
        i, j, k = (draw(st.integers(0, n)) for n in (3, 3, 7))
        coeffs = list(rows[i][j].coeffs)
        coeffs[k] = coeffs[k] + draw(big_fractions.filter(bool) | st.just(Fraction(1, 7)))
        rows[i][j] = TensorScalar(coeffs)
    return TensorMatrix(rows)


def null_points(rng):
    """Endless exact null six-vectors: embedded points with prime denominators."""
    while True:
        x, y, z, t = (Fraction(rng.randint(-99, 99), rng.choice(PRIMES)) for _ in range(4))
        n2 = x * x + y * y + z * z - t * t
        yield Vector6(x, y, z, t, (1 + n2) / 2, (1 - n2) / 2)


# The three angles at which the image table's basis vectors are stepped.
TABLE_THETAS = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))


def exact_steps():
    """Seeded (name, theta, v) steps: five per ax..bt name, then the image table's 18."""
    rng = random.Random(1968)
    points = null_points(rng)
    steps = [
        (name, Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.choice(PRIMES)),
         next(points))
        for name in TRANSLATION_NAMES
        for _ in range(5)
    ]
    steps += [
        (name, theta, Vector6.basis(m))
        for name, m in sorted(PRINTED_IMAGE_TABLE)
        for theta in TABLE_THETAS
    ]
    return steps


class TestExactReadout:
    @given(exact_stepped() | exact_perturbed() | st.sampled_from(exact_fixed))
    def test_matches_the_inner_product_reference(self, p):
        assert p.is_exact()
        assert outcome(extract_coords, p) == outcome(reference_extract, p)

    def test_steps_match_the_reference_route(self):
        assert len(TRANSLATION_NAMES) == 8
        steps = exact_steps()
        assert len(steps) == 8 * 5 + 18
        for name, theta, v in steps:
            out = act_on_vector([(name, theta)], v)
            want = reference_extract(_conjugate([(name, theta)], build_P(v)))
            assert [repr(c) for c in out.as_tuple()] == [repr(c) for c in want.as_tuple()]
            assert all(type(c) is Fraction for c in out.as_tuple())
            # 0 for the null points, +-1 for the image table's basis vectors
            assert metric_form(out) == metric_form(v)


class TestVector6:
    def test_basis_and_component(self):
        for m in COORDS:
            v = Vector6.basis(m)
            assert v.component(m) == 1
            assert sum(abs(c) for c in v.as_tuple()) == 1

    @given(exact_vectors)
    def test_keyword_round_trip(self, v):
        assert Vector6(**{m: v.component(m) for m in COORDS}) == v

    def test_exactness_predicate(self):
        assert Vector6(x=1, t=Fraction(1, 3)).is_exact()
        assert not Vector6(x=0.5).is_exact()
