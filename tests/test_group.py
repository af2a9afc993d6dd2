import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf import checks, group
from splitconf.algebra import L, ONE, TensorScalar, is_exact, within
from splitconf.checks import (
    _invariance_devs,
    appendix_check,
    build_reference,
    verify_group,
    verify_properties,
)
from splitconf.clifford import COORDS, METRIC, Vector6, build_P, build_X, metric_form
from splitconf.conformal import step_vector
from splitconf.group import (
    _BOOST_LIMIT,
    PLANES,
    TRANSLATION_NAMES,
    _adjoint,
    _conjugate,
    _half_angle,
    _resolve,
    _so6_slots,
    _so6_stack,
    act_on_P,
    act_on_X,
    act_on_coords,
    act_on_vector,
    canonical_plane,
    compose_so6,
    generator,
    metric6,
    pi_project,
    plane_kind,
    so6_matrix,
    so6_step,
)
from splitconf.matrices import TensorMatrix, _sincosh, exp_pair, quadratic_form
from splitconf.realrep import exp_real_generator

from strategies import fractions_within, reference_route

angles = st.floats(-1.2, 1.2, allow_nan=False, allow_infinity=False)

plane_names = st.sampled_from(PLANES)

words = st.lists(st.tuples(plane_names, angles), max_size=4)

# Words over all 23 step names, nilpotent ones included.
step_words = st.lists(
    st.tuples(st.sampled_from(PLANES + TRANSLATION_NAMES), angles), max_size=4
)

float_vectors = st.builds(
    Vector6,
    *([st.floats(-1, 1, allow_nan=False, allow_infinity=False)] * 6)
)

# Nilpotent steps at exact angles, and exact vectors: exact on every route.
exact_words = st.lists(
    st.tuples(st.sampled_from(TRANSLATION_NAMES), fractions_within(2, 4)), max_size=4
)

exact_vectors = st.builds(Vector6, *([fractions_within(2, 4)] * 6))

# a plane rotates when the two metric signs agree and boosts otherwise
EXPECTED_KINDS = {
    "xy": "rotation",
    "yz": "rotation",
    "zx": "rotation",
    "qx": "rotation",
    "qy": "rotation",
    "qz": "rotation",
    "tp": "rotation",
    "tx": "boost",
    "ty": "boost",
    "tz": "boost",
    "tq": "boost",
    "px": "boost",
    "py": "boost",
    "pz": "boost",
    "pq": "boost",
}


class TestPlaneNames:
    def test_canonical_resolution(self):
        assert canonical_plane("zx") == ("zx", 1)
        assert canonical_plane("xz") == ("zx", -1)
        assert canonical_plane("pq") == ("pq", 1)
        assert canonical_plane("qp") == ("pq", -1)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError):
            canonical_plane("xx")
        with pytest.raises(ValueError):
            canonical_plane("ab")

    @given(plane_names, angles)
    def test_reversed_pair_negates_the_angle(self, name, theta):
        flipped = name[::-1]
        assert within((generator(flipped, theta) - generator(name, -theta)).max_abs(), 1e-15)

    def test_kinds(self):
        for name, want in EXPECTED_KINDS.items():
            assert plane_kind(name) == want, name


class TestGenerator:
    def test_identity_at_zero(self):
        # An exact zero angle takes the exact (c, s) = (1, 0) into
        # exp_pair, in either order of the plane: the identity stays
        # exact, and so6_step has +0.0 off the diagonal, never -0.0.
        ident = TensorMatrix.identity(4)
        for name in PLANES:
            assert generator(name, 0) == ident
            for step in (name, name[::-1]):
                g = generator(step, Fraction(0))
                assert g == ident and g.is_exact()
                r = so6_step(step, 0)
                assert (r == np.eye(6)).all() and not np.signbit(r).any()

    @given(plane_names, angles, angles)
    def test_one_parameter_group_law(self, name, t1, t2):
        lhs = generator(name, t1) @ generator(name, t2)
        rhs = generator(name, t1 + t2)
        assert within((lhs - rhs).max_abs(), 1e-12)

    @given(plane_names, angles)
    def test_inverse_law(self, name, theta):
        prod = generator(name, theta) @ generator(name, -theta)
        assert within((prod - TensorMatrix.identity(4)).max_abs(), 1e-12)

    def test_dilation_generator_is_diagonal(self):
        g = generator("pq", 0.6)
        want = ONE * math.cosh(0.3) - L * math.sinh(0.3)
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert g.rows[i][j].approx_eq(want, 1e-15)
                else:
                    assert not g.rows[i][j].nonzero


def coefficient_reprs(mat):
    return [[repr(e.coeffs) for e in r] for r in mat.rows]


# Angles for the shared (c, s) checks: a grid, tiny and signed-zero
# angles, and the largest boost angle a step accepts, either sign.
SWEEP = (
    [k / 8 for k in range(-40, 41)]
    + [0.77, -0.77, 0.0, -0.0, 1e-300, -5e-324, 1e-8, _BOOST_LIMIT, -_BOOST_LIMIT]
)


class TestSharedHalfAngle:
    def test_libm_cos_and_cosh_are_even_sin_and_sinh_odd(self):
        # _conjugate builds generator(plane, -theta) as c I - s G from the
        # (c, s) of +theta; that is bit for bit only while these hold.
        rng = random.Random(2013)
        xs = [rng.uniform(-30, 30) for _ in range(20000)]
        xs += [rng.uniform(-710, 710) for _ in range(5000)] + SWEEP
        for x in xs:
            assert math.cos(-x).hex() == math.cos(x).hex()
            assert math.sin(-x).hex() == (-math.sin(x)).hex()
            if abs(x) < 710:
                assert math.cosh(-x).hex() == math.cosh(x).hex()
                assert math.sinh(-x).hex() == (-math.sinh(x)).hex()

    def test_inverse_from_one_pair_is_the_generator_at_minus_theta(self):
        # exp_pair against the dense identity.scale(c) + gp.scale(s) at
        # +theta and at -theta, each from its own (c, s).
        ident = TensorMatrix.identity(4)
        for name in PLANES + ("yx", "qp"):
            for theta in SWEEP:
                gp, c, s = _half_angle(name, theta)
                m, m_inv = exp_pair(gp, c, s)
                assert coefficient_reprs(m) == coefficient_reprs(
                    ident.scale(c) + gp.scale(s)
                )
                gp, c, s = _half_angle(name, -theta)
                want = coefficient_reprs(ident.scale(c) + gp.scale(s))
                assert coefficient_reprs(m_inv) == want, (name, theta)
                assert coefficient_reprs(generator(name, -theta)) == want

    def test_conjugation_matches_the_two_generators(self):
        p = build_P(Vector6(0.3, -1.1, 0.7, 0.2, 1.9, -0.4))
        for name in PLANES:
            for theta in (0.37, -1.3, 2.9):
                want = (generator(name, theta) @ p) @ generator(name, -theta)
                got = _conjugate([(name, theta)], p)
                assert coefficient_reprs(got) == coefficient_reprs(want)


class TestExactZeroAngle:
    # An int angle is halved exactly, so an int 0 keeps the element exact.
    PLANE_NAMES = PLANES + tuple(name[::-1] for name in PLANES)

    def test_every_plane_at_int_zero_is_the_exact_identity(self):
        ident = TensorMatrix.identity(4)
        for name in self.PLANE_NAMES:
            m = generator(name, 0)
            assert m.is_exact(), name
            assert m == ident, name

    def test_a_fraction_vector_stays_exact_under_an_int_zero_angle(self):
        v = Vector6(x=Fraction(1, 3), t=Fraction(-2, 7), p=2, q=Fraction(5, 3))
        for name in self.PLANE_NAMES:
            out = act_on_vector([(name, 0)], v)
            assert out == v, name
            assert all(type(c) is Fraction for c in out.as_tuple()), name

    def test_an_int_angle_gives_the_bits_of_its_float_twin(self):
        v = Vector6(0.3, -1.1, 0.7, 0.2, 1.9, -0.4)
        for name in self.PLANE_NAMES:
            for k in (1, -2, 3, 7):
                assert coefficient_reprs(generator(name, k)) == coefficient_reprs(
                    generator(name, float(k))
                ), (name, k)
                assert repr(act_on_vector([(name, k)], v)) == repr(
                    act_on_vector([(name, float(k))], v)
                ), (name, k)


class TestCoordinateAction:
    def test_boost_moves_time_toward_z(self):
        img = act_on_vector([("tz", 0.8)], Vector6(t=1))
        assert abs(img.t - math.cosh(0.8)) < 1e-12
        assert abs(img.z - math.sinh(0.8)) < 1e-12

    def test_rotation_in_the_xy_plane(self):
        img = act_on_vector([("xy", 0.5)], Vector6(x=1))
        assert abs(img.x - math.cos(0.5)) < 1e-12
        assert abs(img.y + math.sin(0.5)) < 1e-12

    def test_dilation_scales_p_plus_q(self):
        v = Vector6(p=0.3, q=0.7)
        img = act_on_vector([("pq", 0.5)], v)
        assert abs((img.p + img.q) - math.exp(0.5)) < 1e-12
        assert abs((img.p - img.q) - math.exp(-0.5) * (v.p - v.q)) < 1e-12

    @given(plane_names, angles)
    def test_step_matches_definition(self, name, theta):
        dev = np.max(np.abs(so6_step(name, theta) - so6_matrix([(name, theta)])))
        assert dev < 1e-12

    @given(words)
    def test_words_compose(self, word):
        lhs = compose_so6(word)
        rhs = np.eye(6)
        for plane, theta in word:
            rhs = so6_step(plane, theta) @ rhs
        assert np.max(np.abs(lhs - rhs)) == 0

    def test_every_six_by_six_route_takes_an_iterator_word(self):
        word = [("xy", 0.3), ("tz", -0.2), ("pq", 0.5)]
        assert np.array_equal(compose_so6(iter(word)), compose_so6(word))
        assert np.array_equal(so6_matrix(iter(word)), so6_matrix(word))

    @given(step_words, float_vectors)
    def test_metric_form_is_invariant(self, word, v):
        img = act_on_vector(word, v)
        assert abs(metric_form(img) - metric_form(v)) < 1e-9

    @given(words)
    def test_six_by_six_preserves_the_metric(self, word):
        r = compose_so6(word)
        g = metric6()
        assert np.max(np.abs(r.T @ g @ r - g)) < 1e-11
        assert abs(np.linalg.det(r) - 1) < 1e-11

    def test_stacked_invariance_devs_equal_the_word_loop(self):
        # The stacked (n, 6, 6) route of invariance[metric]/[det] against
        # a 2-D loop of so6_step products per word, bit for bit, empty
        # words included.
        rng = random.Random(5)
        g = metric6()
        for span in (0.6, 3.0):
            words = [
                [(rng.choice(PLANES), rng.uniform(-span, span))
                 for _ in range(rng.randint(0, 6))]
                for _ in range(300)
            ]
            assert [] in words
            want = []
            for word in words:
                r = np.eye(6)
                for plane, theta in word:
                    r = so6_step(plane, theta) @ r
                want.append((float(np.max(np.abs(r.T @ g @ r - g))),
                             float(np.linalg.det(r))))
            got = _invariance_devs(words)
            assert [tuple(map(float.hex, d)) for d in got] == [
                tuple(map(float.hex, d)) for d in want
            ]

    def test_empty_word_is_the_identity(self):
        v = Vector6(x=0.3, t=-0.2, q=1.1)
        assert act_on_vector([], v) == v


class TestTwoByTwoAction:
    @given(step_words | exact_words, float_vectors | exact_vectors)
    def test_agrees_with_the_four_by_four_action(self, word, v):
        # X is the top-right block of P, and each 2x2 product adds the
        # terms of that block of the 4x4 product in the same order: the
        # same bits on float input, the same Fractions on exact input.
        # (build_X(v) equals that block, but its float zeros may be -0.0.)
        p = build_P(v)
        x_img = act_on_X(word, p.blocks()[1])
        _, tr, _, _ = act_on_P(word, p).blocks()
        assert tr == x_img
        assert [float(c).hex() for c in tr.flat()] == [float(c).hex() for c in x_img.flat()]
        if v.is_exact() and all(is_exact(theta) for _, theta in word):
            assert x_img.is_exact()

    @given(step_words, float_vectors)
    def test_preserves_hermiticity(self, word, v):
        x_img = act_on_X(word, build_X(v))
        assert x_img.is_c_hermitian(1e-12 * max(1, x_img.max_abs()))

    @given(step_words, float_vectors)
    def test_preserves_the_quadratic_form(self, word, v):
        x_img = act_on_X(word, build_X(v))
        assert abs(quadratic_form(x_img) - metric_form(v)) < 1e-9

    def test_an_exact_matrix_is_held_to_exact_hermiticity(self):
        # Exact values are held to 0, as quadratic_form holds them, not
        # to the float tolerance.
        x = build_X(Vector6(x=1, y=2, t=3))
        assert act_on_X([], x) == x
        rows = [list(r) for r in x.rows]
        rows[0][1] = rows[0][1] + ONE * Fraction(1, 10**12)
        with pytest.raises(ValueError, match="lost Hermiticity"):
            act_on_X([], TensorMatrix(rows))

    @pytest.mark.parametrize("word", [[], [("xy", 0.3)]])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coefficient_is_named(self, word, bad):
        with pytest.raises(ValueError, match="coefficient (nan|-?inf) is not finite"):
            act_on_X(word, build_X(Vector6(x=bad, y=1.0)))


def _x_route(step, theta):
    return act_on_X([(step, theta)], build_X(Vector6(x=1.0, y=0.5)))


def _coords_route(step, theta):
    return act_on_coords([[(step, theta)]], [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])


ROUTES = {
    "generator": generator,
    "act_on_P": lambda s, t: act_on_P([(s, t)], build_P(Vector6(x=1.0, p=1.0))),
    "act_on_vector": lambda s, t: act_on_vector([(s, t)], Vector6(x=1.0, p=1.0)),
    "act_on_X": _x_route,
    "act_on_coords": _coords_route,
    "step_vector": lambda s, t: step_vector(s, t, Vector6(x=1.0, p=1.0)),
    "so6_step": so6_step,
    "compose_so6": lambda s, t: compose_so6([("xy", 0.3), (s, t)]),
    "exp_real_generator": exp_real_generator,
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("step", ["xy", "tz", "ax", "bt"])
@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_every_route_names_a_non_finite_angle(route, step, theta):
    # act_on_X, so6_step, compose_so6 and exp_real_generator take planes
    # only, but the angle is refused before the name.
    with pytest.raises(ValueError, match="^angle %s is not finite$" % theta):
        ROUTES[route](step, theta)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("step", ["xy", "ax"])
@pytest.mark.parametrize("theta", [True, False])
def test_every_route_refuses_a_bool_angle(route, step, theta):
    # A bool is an int to arithmetic, yet is_exact(True) is False: it is
    # in neither regime, so the step table refuses it as an angle.
    with pytest.raises(TypeError) as err:
        ROUTES[route](step, theta)
    assert str(err.value) == "angle %s of %r is a bool, not a number" % (theta, step)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("step", ["xy", "ax"])
@pytest.mark.parametrize("theta", ["0.3", None, 0.3j, Decimal("0.3"), np.float32(0.3)])
def test_every_route_refuses_an_angle_that_is_not_a_number(route, step, theta):
    # Only int, Fraction and float (subclasses included) are angles: a
    # string or None would fail deep in the arithmetic, and a float32
    # would carry single precision into the coordinates.
    with pytest.raises(TypeError) as err:
        ROUTES[route](step, theta)
    assert str(err.value) == "angle %r of %r is of type %s, not a number" % (
        theta, step, type(theta).__name__
    )


@pytest.mark.parametrize("step", ["xy", "tz", "ax", "bt"])
def test_a_float_subclass_angle_steps_as_its_float(step):
    # np.float64 subclasses float, so it stays an angle, with its bits.
    v = Vector6(x=0.1, y=-0.2, t=0.3, p=1.0, q=0.5)
    for theta in (0.3, -1.7):
        want = step_vector(step, theta, v).as_tuple()
        got = step_vector(step, np.float64(theta), v).as_tuple()
        assert [float(c).hex() for c in got] == [c.hex() for c in want]
        if step in PLANES:
            assert so6_step(step, np.float64(theta)).tobytes() == so6_step(step, theta).tobytes()


@pytest.mark.parametrize("route", [
    act_on_vector,
    lambda w, v: act_on_P(w, build_P(v)),
    lambda w, v: act_on_X(w, build_X(v)),
], ids=["act_on_vector", "act_on_P", "act_on_X"])
def test_every_scalar_route_resolves_its_word_before_the_first_product(route):
    # Step 1 on this exact vector would raise "int too large to convert to
    # float"; the step table refuses step 2 before any product is formed.
    v = Vector6(x=10**400, p=1)
    with pytest.raises(OverflowError) as err:
        route([("xy", 0.5), ("tx", 800.0)], v)
    assert str(err.value) == (
        "boost angle 800.0 of 'tx' is beyond %r, the largest whose cosh is finite"
        % (_BOOST_LIMIT,)
    )


def test_act_on_coords_refuses_rows_that_are_not_six_long():
    # Two 3-rows used to merge silently into one 6-row.
    with pytest.raises(ValueError, match=r"^coordinates of shape \(2, 3\): each row needs 6$"):
        act_on_coords([[("xy", 0.3)]], [[1.0, 0, 0], [0, 0, 1.0]])
    for bad in ([1.0] * 5, [[1.0] * 7], [[1.0] * 12], np.ones((2, 6, 2))):
        with pytest.raises(ValueError, match="each row needs 6"):
            act_on_coords([[("xy", 0.3)]], bad)
    # A single six-vector is one row.
    v = Vector6(x=1.0, y=0.5, p=1.0)
    got = act_on_coords([[("xy", 0.3)]], list(v.as_tuple()))
    assert got.shape == (1, 6)
    assert got[0].tolist() == list(reference_route([("xy", 0.3)], v).as_tuple())


def _times(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(6)) for j in range(6)) for i in range(6)
    )


ZERO6 = ((0,) * 6,) * 6


class TestAdjoint:
    # Exact angles of both signs, one beyond 1, so each power of theta shows.
    THETAS = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))

    def test_entries_are_the_ints_minus_one_zero_one(self):
        for name in PLANES + TRANSLATION_NAMES:
            adj = _adjoint(name)
            assert len(adj) == 6 and all(len(row) == 6 for row in adj)
            assert {type(a) for row in adj for a in row} == {int}
            assert {a for row in adj for a in row} <= {-1, 0, 1}

    @pytest.mark.parametrize("name", TRANSLATION_NAMES)
    def test_nilpotent_conjugation_is_the_quadratic_in_the_adjoint(self, name):
        # The cross-check of verify's image table: conjugation on every
        # basis vector equals v + theta A v + theta^2 A^2 v / 2 with ==.
        adj = _adjoint(name)
        sq = _times(adj, adj)
        assert sq != ZERO6 and _times(sq, adj) == ZERO6
        for theta in self.THETAS:
            for n, m in enumerate(COORDS):
                got = act_on_vector([(name, theta)], Vector6.basis(m)).as_tuple()
                want = tuple(
                    int(i == n) + theta * adj[i][n] + theta * theta * sq[i][n] / 2
                    for i in range(6)
                )
                assert got == want
                assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("name", PLANES)
    def test_a_plane_adjoint_is_the_slot_table(self, name):
        # The derivative at 0 of so6_step's cells (c, s mb, c, -s ma).
        (_, ab, _, ba), (mb, ma) = _so6_slots(name)
        want = [0] * 36
        want[ab], want[ba] = mb, -ma
        assert [a for row in _adjoint(name) for a in row] == want
        assert [a for row in _adjoint(name[::-1]) for a in row] == [-a for a in want]

    def test_a_half_integer_entry_is_refused(self, monkeypatch):
        monkeypatch.setattr(group, "extract_coords", lambda p: Vector6(x=Fraction(1)))
        with pytest.raises(AssertionError, match="adjoint of 'ax' is not an integer"):
            _adjoint.__wrapped__("ax")


BOOSTS = [name for name in PLANES if plane_kind(name) == "boost"]


@pytest.mark.parametrize("step", BOOSTS)
def test_every_element_route_accepts_a_boost_at_the_limit(step):
    for route in ("generator", "so6_step", "compose_so6", "exp_real_generator"):
        for theta in (_BOOST_LIMIT, -_BOOST_LIMIT):
            m = ROUTES[route](step, theta)
            coeffs = m.flat() if isinstance(m, TensorMatrix) else m.ravel().tolist()
            assert all(map(math.isfinite, coeffs)), (route, theta)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("step", BOOSTS)
@pytest.mark.parametrize("theta", [math.nextafter(_BOOST_LIMIT, math.inf), 1420.6, -1500.0])
def test_every_route_refuses_a_boost_beyond_the_limit(route, step, theta):
    # The limit is where so6_step's full-angle cosh overflows; the step
    # table refuses past it before any route computes.
    with pytest.raises(OverflowError) as err:
        ROUTES[route](step, theta)
    assert str(err.value) == (
        "boost angle %s of %r is beyond %r, the largest whose cosh is finite"
        % (theta, step, _BOOST_LIMIT)
    )


def tiled_so6_stack(steps):
    """The 6x6 step stack as np.tile of I with the four cells of each plane
    assigned by (row, column) fancy indexing: the reference for _so6_stack."""
    rows, cols, values = [], [], []
    for n, step in enumerate(steps):
        if step is None:
            continue
        name, kind, theta = _resolve(*step)
        c, s = _sincosh(theta, kind == "boost")
        a, b = COORDS.index(name[0]), COORDS.index(name[1])
        rows += (n, n, n, n)
        cols += (7 * a, 6 * a + b, 7 * b, 6 * b + a)
        values += (c, s * METRIC[name[1]], c, -s * METRIC[name[0]])
    r = np.tile(np.eye(6), (len(steps), 1, 1))
    r.reshape(-1, 36)[rows, cols] = values
    return r


def test_so6_stack_keeps_the_bits_of_the_tiled_construction():
    # All 30 names (the 15 planes in both orders), signed zeros included.
    steps = [None]
    for name in PLANES:
        extra = (_BOOST_LIMIT, -_BOOST_LIMIT) if name in BOOSTS else ()
        for step in (name, name[::-1]):
            for theta in (0, 0.37, -0.37, 2.5, -2.5, 0.0, -0.0) + extra:
                steps += [(step, theta), None]
    got = _so6_stack(steps)
    assert got.shape == (len(steps), 6, 6) and got.dtype == np.float64
    assert got.tobytes() == tiled_so6_stack(steps).tobytes()
    for step in steps:
        assert _so6_stack([step]).tobytes() == tiled_so6_stack([step]).tobytes()
    assert _so6_stack([]).shape == (0, 6, 6)


@pytest.mark.parametrize("step", TRANSLATION_NAMES)
def test_so6_step_names_a_nilpotent_step(step):
    with pytest.raises(ValueError, match="nilpotent step '%s'" % step):
        so6_step(step, 0.5)


class TestSpanValidation:
    def test_off_span_input_is_rejected(self):
        bad = build_P(Vector6(x=1)) + TensorMatrix.identity(4)
        with pytest.raises(ValueError):
            act_on_P([], bad)

    def test_projection_kills_p_and_q(self):
        from splitconf.clifford import gamma

        assert pi_project(gamma("p")).is_zero()
        assert pi_project(gamma("q")).is_zero()
        assert pi_project(gamma("x")) == gamma("x")


class TestStructuralSuites:
    def test_properties_report_is_all_green(self):
        rep = verify_properties()
        counts = rep.counts()
        assert len(rep.checks) == 216
        assert counts["pass"] == 216

    def test_group_report_has_no_failures(self):
        rep = verify_group({"samples": 60, "seed": 7, "tolerance": 1e-12})
        assert rep.counts()["fail"] == 0


class TestAppendixTable:
    def test_exactly_one_documented_discrepancy(self):
        rep = appendix_check()
        assert len(rep.checks) == 15
        counts = rep.counts()
        assert counts["fail"] == 0
        assert counts["discrepancy-documented"] == 1
        flagged = [c for c in rep.checks if c.status != "pass"]
        assert flagged[0].check_id == "appendix[ty]"
        # the transcription disagrees only in the lower off-diagonal cells,
        # and the documented text holds byte for byte
        assert flagged[0].actual == "differs at cells [(2, 3), (3, 2)]"
        assert flagged[0].context == (
            "recomputed matrix is ground truth; at angle 0.3: "
            "(2,3) reference=-0.150563 Ll recomputed=0.150563 Ll; "
            "(3,2) reference=0.150563 Ll recomputed=-0.150563 Ll"
        )

    def test_a_planted_sign_is_reported_at_its_own_cell(self, monkeypatch):
        # One wrong sign in cell (2, 3) of tx: the report names that cell,
        # not its transpose, with the first angle's reference and recomputed
        # entries, and no other plane moves.
        planted = tuple(
            (i, j, c, -s if (i, j) == (2, 3) else s, unit)
            for i, j, c, s, unit in checks.REFERENCE_GENERATOR_TABLE["tx"]
        )
        monkeypatch.setitem(checks.REFERENCE_GENERATOR_TABLE, "tx", planted)
        rep = appendix_check()
        flagged = {c.check_id: c for c in rep.checks if c.status != "pass"}
        assert sorted(flagged) == ["appendix[tx]", "appendix[ty]"]
        check = flagged["appendix[tx]"]
        assert check.status == "discrepancy-documented"
        assert check.actual == "differs at cells [(2, 3)]"
        ref, rec = build_reference("tx", 0.3), generator("tx", 0.3)
        assert check.context == (
            "recomputed matrix is ground truth; at angle 0.3: "
            "(2,3) reference=%s recomputed=%s" % (ref.rows[2][3], rec.rows[2][3])
        )
        assert str(ref.rows[2][3]) == "0.150563 L"
        assert str(rec.rows[2][3]) == "-0.150563 L"

    def test_reference_matches_recomputation_for_tz(self):
        assert within((build_reference("tz", 0.9) - generator("tz", 0.9)).max_abs(), 1e-15)

    def test_reference_differs_from_recomputation_for_ty(self):
        ref = build_reference("ty", 0.9)
        rec = generator("ty", 0.9)
        assert not within((ref - rec).max_abs(), 1e-9)
        # upper block agrees; the sign flip sits in the lower block
        assert ref.rows[0][1].approx_eq(rec.rows[0][1], 1e-15)
        assert ref.rows[2][3].approx_eq(-rec.rows[2][3], 1e-15)


def _nan_cell(m, i=1, j=2, k=3):
    """The TensorMatrix m with coefficient k of cell (i, j) set to nan."""
    rows = [list(r) for r in m.rows]
    coeffs = list(rows[i][j].coeffs)
    coeffs[k] = math.nan
    rows[i][j] = TensorScalar(coeffs)
    return TensorMatrix(rows)


def _plant_so6_matrices(monkeypatch):
    # Matrix 4 is the second composition pair's so6(w2).
    real = group._so6_matrices

    def planted(words):
        out = real(words).copy()
        out[4, 2, 3] = math.nan
        return out
    monkeypatch.setattr(group, "_so6_matrices", planted)


def _plant_compose_so6(monkeypatch):
    # Word 3 of the invariance words.
    real = group._compose_so6

    def planted(words):
        out = real(words).copy()
        out[3, 1, 2] = math.nan
        return out
    monkeypatch.setattr(group, "_compose_so6", planted)


def _plant_generator(step):
    def plant(monkeypatch):
        real = group.generator
        monkeypatch.setattr(group, "generator", lambda name, theta: (
            _nan_cell(real(name, theta)) if (name, theta) == step else real(name, theta)
        ))
    return plant


def _plant_reference(monkeypatch):
    # Coefficient 3 of cell (1, 2) of xy, a plane that matches its table.
    real = checks.build_reference
    monkeypatch.setattr(checks, "build_reference", lambda name, phi: (
        _nan_cell(real(name, phi)) if name == "xy" else real(name, phi)
    ))


# Per check id: the plant, then the check's status and actual with it.
_NAN_SITES = {
    "composition": (_plant_so6_matrices, "fail", "nan"),
    "invariance[metric]": (_plant_compose_so6, "fail", "nan"),
    "invariance[det]": (_plant_compose_so6, "fail", "nan"),
    "inverse[yz]": (_plant_generator(("yz", 0.77)), "fail", "nan"),
    "pq-commutes[zx]": (_plant_generator(("zx", 0.9)), "fail", "nan"),
    "appendix[xy]": (_plant_reference, "discrepancy-documented", "differs at cells [(1, 2)]"),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("check_id", _NAN_SITES)
def test_a_nan_in_a_later_sample_fails_its_check(monkeypatch, check_id):
    # A check's deviation is the maximum over all its samples, and a nan
    # in any of them (not only the first) reaches the report.
    plant, status, actual = _NAN_SITES[check_id]
    plant(monkeypatch)
    suite = appendix_check if check_id.startswith("appendix") else verify_group
    check = {c.check_id: c for c in suite({"samples": 20}).checks}[check_id]
    assert (check.status, check.actual) == (status, actual)
