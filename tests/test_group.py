import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf.algebra import L, ONE
from splitconf.clifford import Vector6, build_P, build_X, metric_form
from splitconf.group import (
    PLANES,
    TRANSLATION_NAMES,
    _conjugate,
    _half_angle,
    _invariance_devs,
    act_on_P,
    act_on_X,
    act_on_vector,
    appendix_check,
    build_reference,
    canonical_plane,
    compose_so6,
    generator,
    metric6,
    pi_project,
    plane_kind,
    so6_matrix,
    so6_step,
    verify_group,
    verify_properties,
)
from splitconf.matrices import TensorMatrix, exp_pair, quadratic_form

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
        assert canonical_plane(("p", "q")) == ("pq", 1)
        assert canonical_plane(("q", "p")) == ("pq", -1)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError):
            canonical_plane("xx")
        with pytest.raises(ValueError):
            canonical_plane("ab")

    @given(plane_names, angles)
    def test_reversed_pair_negates_the_angle(self, name, theta):
        flipped = name[::-1]
        assert generator(flipped, theta).approx_eq(
            generator(name, -theta), 1e-15
        )

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
        assert lhs.approx_eq(rhs, 1e-12)

    @given(plane_names, angles)
    def test_inverse_law(self, name, theta):
        prod = generator(name, theta) @ generator(name, -theta)
        assert prod.approx_eq(TensorMatrix.identity(4), 1e-12)

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
# angles, and boost half angles up to cosh's overflow edge near 710.
SWEEP = (
    [k / 8 for k in range(-40, 41)]
    + [0.77, -0.77, 0.0, -0.0, 1e-300, -5e-324, 1e-8, 1400.0, -1419.0]
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
        # one compose_so6 per word, bit for bit, empty words included.
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
                r = compose_so6(word)
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
    @given(words, float_vectors)
    def test_agrees_with_the_four_by_four_action(self, word, v):
        p_img = act_on_P(word, build_P(v))
        x_img = act_on_X(word, build_X(v))
        _, tr, _, _ = p_img.blocks()
        assert (tr - x_img).max_abs() <= 1e-14

    @given(words, float_vectors)
    def test_preserves_hermiticity(self, word, v):
        x_img = act_on_X(word, build_X(v))
        assert x_img.is_c_hermitian(1e-12 * max(1, x_img.max_abs()))

    @given(words, float_vectors)
    def test_preserves_the_quadratic_form(self, word, v):
        x_img = act_on_X(word, build_X(v))
        assert abs(quadratic_form(x_img) - metric_form(v)) < 1e-9


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
        # the transcription disagrees only in the lower off-diagonal cells
        assert "(2,3)" in flagged[0].actual or "(2, 3)" in flagged[0].actual

    def test_reference_matches_recomputation_for_tz(self):
        assert build_reference("tz", 0.9).approx_eq(generator("tz", 0.9), 1e-15)

    def test_reference_differs_from_recomputation_for_ty(self):
        ref = build_reference("ty", 0.9)
        rec = generator("ty", 0.9)
        assert not ref.approx_eq(rec, 1e-9)
        # upper block agrees; the sign flip sits in the lower block
        assert ref.rows[0][1].approx_eq(rec.rows[0][1], 1e-15)
        assert ref.rows[2][3].approx_eq(-rec.rows[2][3], 1e-15)
