import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from splitconf import algebra, checks, clifford, conformal, group, matrices
from splitconf.algebra import is_exact
from splitconf.checks import CLASSIFY_BASIS, classify_generators, verify_conformal
from splitconf.clifford import Vector6, gamma
from splitconf.conformal import (
    AT_INFINITY,
    MinkowskiPoint,
    NullVector,
    apply_conformal_translation,
    conformal_translation_generator,
    embed_point,
    minkowski_inner,
    minkowski_norm2,
    mobius_oracle,
    q_from_p,
    q_or_infinity,
    step_vector,
    translation_generator,
)
from splitconf.group import (
    TRANSLATION_NAMES,
    _half_angle,
    _nilpotent_generator,
    act_on_coords,
)
from splitconf.matrices import TensorMatrix, exp_nilpotent, exp_pair

coords = st.floats(-2, 2, allow_nan=False, allow_infinity=False)

points = st.builds(MinkowskiPoint, coords, coords, coords, coords)

exact_coords = st.fractions(min_value=-3, max_value=3, max_denominator=6)

exact_points = st.builds(MinkowskiPoint, exact_coords, exact_coords,
                         exact_coords, exact_coords)


class TestEmbedding:
    def test_origin_lands_on_the_section(self):
        v = embed_point(MinkowskiPoint(0, 0, 0, 0))
        assert v.v.p == Fraction(1, 2)
        assert v.v.q == Fraction(1, 2)

    def test_spacelike_example(self):
        pt = q_from_p(embed_point(MinkowskiPoint(0, 0.6, 0, 0.8)))
        assert pt.approx_eq(MinkowskiPoint(0, 0.6, 0, 0.8), 1e-15)

    @given(exact_points)
    def test_roundtrip_is_exact_on_rationals(self, pt):
        assert q_from_p(embed_point(pt)) == pt

    @given(points)
    def test_roundtrip_within_float_error(self, pt):
        back = q_from_p(embed_point(pt))
        assert back.approx_eq(pt, 1e-12 * max(1, *map(abs, pt.as_tuple())) ** 2)

    @given(exact_points)
    def test_embedding_is_null_with_unit_weight(self, pt):
        v = embed_point(pt).v
        assert minkowski_norm2(Vector6(x=v.x, y=v.y, z=v.z, t=v.t)) \
            + v.q ** 2 - v.p ** 2 == 0
        assert v.p + v.q == 1

    @given(exact_points, st.sampled_from([2, -3, Fraction(1, 2)]))
    def test_projection_ignores_overall_scale(self, pt, lam):
        v = embed_point(pt).v
        assert q_from_p(NullVector(v.scale(lam))) == pt


class TestNullVectorValidation:
    def test_rejects_a_non_null_vector(self):
        with pytest.raises(ValueError):
            NullVector(Vector6(p=1))

    def test_rejects_null_vectors_of_zero_weight(self):
        # lightlike, but p + q = 0 carries no finite point
        with pytest.raises(ValueError):
            NullVector(Vector6(t=1, x=1, p=0.5, q=-0.5))

    def test_accepts_exact_null_data(self):
        NullVector(Vector6(x=1, p=1))

    def test_near_null_float_data_within_tolerance(self):
        v = embed_point(MinkowskiPoint(0.1, 0.2, 0.3, 0.4)).v
        NullVector(Vector6(*(float(c) for c in v.as_tuple())))

    def test_rejects_a_nan_coordinate(self):
        with pytest.raises(ValueError, match="metric square nan is not finite"):
            NullVector(Vector6(x=math.nan, p=1.0))

    def test_rejects_infinite_coordinates_by_their_form(self):
        # inf - inf makes the form nan; the reason is the form, not p + q.
        inf = math.inf
        with pytest.raises(ValueError, match="metric square nan is not finite"):
            NullVector(Vector6(x=inf, y=inf, t=inf, p=1.0, q=1.0))

    def test_rejects_squares_that_overflow(self):
        # Squares above ~1.3e154 overflow to inf; the form inf - inf is
        # nan, refused by name instead of an OverflowError.
        with pytest.raises(ValueError, match="metric square nan is not finite"):
            NullVector(Vector6(x=1e200, p=1e200, q=1.0))


class TestInputTypes:
    # Each entry point names the value class it takes, as build_P does,
    # instead of failing on a missing attribute from inside.
    @pytest.mark.parametrize("bad", [(1, 0, 0, 0, 1, 0), [1, 0, 0, 0], None])
    @pytest.mark.parametrize("call, kind", [
        (q_or_infinity, "Vector6"),
        (embed_point, "MinkowskiPoint"),
        (q_from_p, "Vector6"),
        (lambda v: apply_conformal_translation("x", 0.3, v), "Vector6"),
        (lambda v: mobius_oracle(v, MinkowskiPoint(x=0.1)), "MinkowskiPoint"),
    ])
    def test_a_bare_sequence_or_none_is_a_type_error(self, call, kind, bad):
        with pytest.raises(TypeError) as err:
            call(bad)
        assert str(err.value) == "expected a %s, got %s" % (kind, type(bad).__name__)

    def test_value_classes_of_arrays_fail_the_number_check(self):
        # Only the private array helpers (_point, _mobius, _null_rows)
        # take value classes of arrays; _expect names the first field.
        rows = np.array([[0.1, 0.2, 0.0, 0.0], [0.3, 0.0, 0.1, -0.2]])
        pt = MinkowskiPoint(*rows.T)
        v = Vector6(*np.ones((6, 2)))
        for cls, value, field in ((MinkowskiPoint, pt, "t"), (Vector6, v, "x")):
            with pytest.raises(TypeError) as err:
                cls._expect(value)
            assert str(err.value) == (
                "field %s of %s is of type ndarray, not a number" % (field, cls.__name__)
            )
        got = conformal._mobius(pt, MinkowskiPoint(x=0.1))[1]
        assert got.shape == (2,)

    @pytest.mark.parametrize("bad", [
        np.ones(2), True, "0.3", None, 0.3j, Decimal("0.3"), np.float32(0.3),
    ], ids=lambda bad: type(bad).__name__)
    @pytest.mark.parametrize("call, kind", [
        (clifford.build_P, "Vector6"),
        (lambda v: step_vector("xy", 0.3, v), "Vector6"),
        (q_or_infinity, "Vector6"),
        (q_from_p, "Vector6"),
        (NullVector, "Vector6"),
        (lambda v: apply_conformal_translation("x", 0.3, v), "Vector6"),
        (embed_point, "MinkowskiPoint"),
        (lambda v: mobius_oracle(v, MinkowskiPoint(x=0.1)), "MinkowskiPoint"),
        (lambda v: mobius_oracle(MinkowskiPoint(x=0.1), v), "MinkowskiPoint"),
    ], ids=["build_P", "step_vector", "q_or_infinity", "q_from_p", "NullVector",
            "apply_conformal_translation", "embed_point", "mobius_oracle-v",
            "mobius_oracle-alpha"])
    def test_a_field_that_is_not_a_number_is_named(self, call, kind, bad):
        # The angle rule (algebra.is_number): int but not bool, Fraction,
        # float; np.float64 passes, np.float32 and arrays do not.
        cls = Vector6 if kind == "Vector6" else MinkowskiPoint
        with pytest.raises(TypeError) as err:
            call(cls(x=1, y=bad))
        assert str(err.value) == "field y of %s is of type %s, not a number" % (
            kind, type(bad).__name__
        )

    def test_a_float64_field_passes_the_number_check(self):
        v = Vector6(x=np.float64(0.5), p=1.0)
        assert q_or_infinity(v) == q_or_infinity(Vector6(x=0.5, p=1.0))


class TestConformalApi:
    def test_the_point_at_infinity_prints_its_name(self):
        assert repr(AT_INFINITY) == "at-infinity"

    def test_a_raw_vector_is_validated_as_a_null_vector(self):
        img = apply_conformal_translation("x", 0.5, Vector6(x=1, p=1))
        assert isinstance(img, NullVector)
        assert img == apply_conformal_translation("x", 0.5, NullVector(Vector6(x=1, p=1)))
        with pytest.raises(ValueError, match="^metric square -1 != 0$"):
            apply_conformal_translation("x", 0.5, Vector6(p=1))


class TestChartTest:
    # One p + q test serves NullVector, conformal translations and
    # q_or_infinity; a non-finite coordinate has no chart.
    def test_a_nan_weight_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            q_or_infinity(Vector6(p=math.nan, q=1.0))

    def test_a_nan_coordinate_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            q_or_infinity(Vector6(x=math.nan, p=1.0))

    def test_a_nan_coordinate_with_exact_weights_is_refused(self):
        # The regime is the vector's, not that of p + q alone.
        with pytest.raises(ValueError, match="not finite"):
            q_or_infinity(Vector6(x=math.nan, p=1, q=-1))

    def test_finite_and_exact_vectors_keep_their_answers(self):
        assert q_or_infinity(Vector6(x=1.0, p=0.5, q=0.5)) == MinkowskiPoint(x=1.0)
        assert q_or_infinity(Vector6(x=1, p=1, q=-1)) is AT_INFINITY
        assert q_or_infinity(Vector6(x=1.0, p=1e-20, q=0.0)) is AT_INFINITY

    @staticmethod
    def null_at(share):
        """A float null vector of scale 1e3 whose p + q is share of that scale."""
        p, q = 1e3, share * 1e3 - 1e3
        return Vector6(x=math.sqrt((p - q) * (p + q)), p=p, q=q)

    def test_the_chart_edge_is_chart_tol_of_the_scale(self):
        # CHART_TOL is 1e-12 of the scale: 1e-9 of it is a finite point,
        # 1e-13 of it is at infinity, on the scalar and the array tests.
        finite, far = self.null_at(1e-9), self.null_at(1e-13)
        assert NullVector(finite).v == finite
        assert q_or_infinity(finite) == MinkowskiPoint(x=finite.x / (finite.p + finite.q))
        with pytest.raises(ValueError, match="p \\+ q = 0"):
            NullVector(far)
        assert q_or_infinity(far) is AT_INFINITY
        rows = np.array([finite.as_tuple()])
        assert checks._null_rows(rows).tolist() == rows.tolist()
        with pytest.raises(ValueError, match="p \\+ q = 0"):
            checks._null_rows(np.array([finite.as_tuple(), far.as_tuple()]))


class TestTranslations:
    @given(points, st.floats(-1.5, 1.5, allow_nan=False))
    def test_spatial_translation_shifts_one_coordinate(self, pt, theta):
        for m in ("x", "y", "z", "t"):
            img = q_or_infinity(step_vector("a" + m, theta, embed_point(pt).v))
            want = pt.shifted(m, theta)
            assert img is not AT_INFINITY
            assert img.approx_eq(want, 1e-12 * max(1, *map(abs, want.as_tuple())))

    def test_exact_translation_of_the_origin(self):
        v = step_vector("ax", 2, embed_point(MinkowskiPoint(0, 0, 0, 0)).v)
        assert q_from_p(v) == MinkowskiPoint(0, 2, 0, 0)

    def test_a_null_vector_steps_through_its_v_only(self):
        null = embed_point(MinkowskiPoint(t=1))
        with pytest.raises(TypeError, match="^expected a Vector6, got NullVector$"):
            step_vector("bx", 1, null)
        assert q_from_p(step_vector("ax", 2, null.v)) == MinkowskiPoint(1, 2, 0, 0)

    @given(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False))
    def test_translations_add(self, t1, t2):
        start = embed_point(MinkowskiPoint(0.3, -0.1, 0.2, 0.5)).v
        two_steps = step_vector("ax", t2, step_vector("ax", t1, start))
        one_step = step_vector("ax", t1 + t2, start)
        NullVector(two_steps)
        a = q_or_infinity(two_steps)
        b = q_or_infinity(one_step)
        assert a.approx_eq(b, 1e-11)

    def test_generator_nilpotency(self):
        for m in ("x", "y", "z", "t"):
            a = translation_generator(m)
            b = conformal_translation_generator(m)
            assert (a @ a).is_zero()
            assert (b @ b).is_zero()
            assert a.max_abs() > 0 and b.max_abs() > 0

    def test_rejects_the_extra_directions(self):
        with pytest.raises(ValueError):
            translation_generator("p")
        with pytest.raises(ValueError):
            conformal_translation_generator("q")


def coefficient_reprs(mat):
    return [[repr(e.coeffs) for e in r] for r in mat.rows]


class TestNilpotentPair:
    HALVES = (
        Fraction(1, 3), Fraction(-7, 4), 2, -1, 0,
        0.3, -0.3, 0.0, -0.0, 1e-300, -5e-324, 1e8,
    )

    @staticmethod
    def assert_dense_pair(gen, h):
        ident = TensorMatrix.identity(4)
        u, u_inv = exp_pair(gen, 1, h)
        want = coefficient_reprs(ident + gen.scale(h))
        want_inv = coefficient_reprs(ident + gen.scale(-h))
        assert coefficient_reprs(u) == want, h
        assert coefficient_reprs(u_inv) == want_inv, h
        assert coefficient_reprs(exp_nilpotent(gen, h)) == want
        assert coefficient_reprs(exp_nilpotent(gen, -h)) == want_inv

    def test_pair_is_the_dense_exponential_at_plus_and_minus_h(self):
        for name in TRANSLATION_NAMES:
            gen = _nilpotent_generator(name[0], name[1])
            for h in self.HALVES:
                self.assert_dense_pair(gen, h)

    def test_half_angle_gives_each_half_in_its_regime(self):
        # group._half_angle resolves a nilpotent name to (G, 1, theta/2);
        # at theta = 2 h it gives back each of HALVES, as a Fraction for
        # an exact theta (doubling and halving a float are exact).
        for name in TRANSLATION_NAMES:
            for half in self.HALVES:
                theta = 2 * half
                gen, c, h = _half_angle(name, theta)
                assert gen is _nilpotent_generator(name[0], name[1]) and c == 1
                assert h == half and math.copysign(1, h) == math.copysign(1, half)
                assert type(h) is (float if type(theta) is float else Fraction)
                self.assert_dense_pair(gen, h)

    def test_step_path_rejects_a_generator_that_is_not_nilpotent(self, monkeypatch):
        # Twice, so the cached failed proof still refuses; the batch
        # path refuses too and leaves the step to the scalar error.
        not_nilpotent = gamma("p") @ gamma("x")
        monkeypatch.setattr(group, "_nilpotent_generator", lambda kind, m: not_nilpotent)
        v = Vector6(x=1.0, p=1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="square to zero"):
                step_vector("ax", 0.5, v)
            with pytest.raises(ValueError, match="square to zero"):
                act_on_coords([[("bx", 0.5)]] * 2, [v.as_tuple()] * 2)


class TestStepRegime:
    @pytest.mark.parametrize("name", ["xy", "pq", "ax", "bz"])
    def test_float_steps_give_float_zeros(self, name):
        # An untouched coordinate of a float step is +0.0, not
        # Fraction(0, 1) (an exact zero from an empty sum) or -0.0.
        v = step_vector(name, 0.3, Vector6(x=1.0))
        zeros = [c for c in v.as_tuple() if c == 0]
        assert zeros
        for c in v.as_tuple():
            assert type(c) is float
        for c in zeros:
            assert math.copysign(1.0, c) == 1.0

    def test_exact_steps_stay_exact(self):
        v = step_vector("bx", Fraction(1, 3), Vector6(x=1, p=Fraction(1, 2)))
        assert all(type(c) is Fraction for c in v.as_tuple())

    def test_an_exact_step_scans_no_matrix(self, monkeypatch):
        # build_P knows P's regime from the point, exp_pair M's from
        # (c, s) and the generator (scanned once, cached), and the
        # products keep it, so the read-out scans none of 128
        # coefficients: the calls are the four nonzero coordinates,
        # then s and c.
        seen = []

        def counted(x):
            seen.append(x)
            return is_exact(x)

        for mod in (algebra, matrices, clifford, group, conformal):
            if getattr(mod, "is_exact", None) is is_exact:
                monkeypatch.setattr(mod, "is_exact", counted)
        v = Vector6(x=Fraction(1, 3), t=Fraction(2, 7), p=Fraction(5, 11), q=Fraction(-3, 13))
        step_vector("bt", Fraction(1, 5), v)
        del seen[:]
        out = step_vector("bt", Fraction(1, 5), v)
        assert all(type(c) is Fraction for c in out.as_tuple())
        assert len(seen) == 6


class TestOverflow:
    @pytest.mark.parametrize(
        "name, theta, bad",
        [("px", 710.0, "inf"), ("bx", 1e308, "inf"), ("ax", 1e308, "-inf")],
    )
    def test_an_overflowing_step_names_the_overflow(self, name, theta, bad):
        # Before, the nan left by inf - inf failed the realness test and
        # the message blamed the inner product.
        msg = (
            "matrix coefficient %s is not finite: the step overflowed or its "
            "input was not finite" % bad
        )
        with pytest.raises(ValueError) as err:
            step_vector(name, theta, Vector6(x=1.0, p=1.0))
        assert str(err.value) == msg


class TestDilation:
    def test_halving_example(self):
        v = embed_point(MinkowskiPoint(0, 1, 0, 0)).v
        img = q_or_infinity(step_vector("pq", math.log(2), v))
        assert img.approx_eq(MinkowskiPoint(0, 0.5, 0, 0), 1e-15)

    @given(points, st.floats(-1, 1, allow_nan=False))
    def test_scaling_law(self, pt, theta):
        img = q_or_infinity(step_vector("pq", theta, embed_point(pt).v))
        want = pt.scaled(math.exp(-theta))
        assert img.approx_eq(want, 1e-12 * max(1, *map(abs, want.as_tuple())))


class TestConformalTranslations:
    def test_known_point_reaches_infinity(self):
        v = embed_point(MinkowskiPoint(0, 1, 0, 0)).v
        img = step_vector("bx", -1, v)
        assert img.p + img.q == 0
        assert q_or_infinity(img) is AT_INFINITY

    @given(points, st.floats(-0.4, 0.4, allow_nan=False))
    def test_matches_the_inversion_formula(self, pt, theta):
        alpha = MinkowskiPoint(0, theta, 0, 0)
        denom = 1 + 2 * minkowski_inner(pt, alpha) \
            + minkowski_norm2(alpha) * minkowski_norm2(pt)
        assume(abs(denom) > 0.2)
        img = q_or_infinity(step_vector("bx", theta, embed_point(pt).v))
        want = mobius_oracle(pt, alpha)
        assert img is not AT_INFINITY and want is not AT_INFINITY
        assert img.approx_eq(want, 1e-9)


class TestMobiusOracle:
    def test_zero_offset_is_the_identity(self):
        pt = MinkowskiPoint(0.3, -0.2, 0.9, 0.1)
        assert mobius_oracle(pt, MinkowskiPoint(0, 0, 0, 0)) == pt

    def test_lightlike_offset_simplifies_the_denominator(self):
        pt = MinkowskiPoint(0, 1, 0, 0)
        alpha = MinkowskiPoint(Fraction(1, 2), Fraction(1, 2), 0, 0)
        assert minkowski_norm2(alpha) == 0
        got = mobius_oracle(pt, alpha)
        denom = 1 + 2 * minkowski_inner(pt, alpha)
        want = MinkowskiPoint(
            *((pt.component(m) + alpha.component(m) * minkowski_norm2(pt))
              / denom for m in ("t", "x", "y", "z"))
        )
        assert got == want

    def test_unit_x_point_contracts(self):
        got = mobius_oracle(MinkowskiPoint(0, 1, 0, 0),
                            MinkowskiPoint(0, 0.25, 0, 0))
        assert got.approx_eq(MinkowskiPoint(0, 0.8, 0, 0), 1e-15)

    def test_pole_maps_to_infinity(self):
        got = mobius_oracle(MinkowskiPoint(0, 1, 0, 0),
                            MinkowskiPoint(0, -1, 0, 0))
        assert got is AT_INFINITY


class TestClassification:
    def test_every_generator_lands_in_its_bucket(self):
        rep = classify_generators()
        counts = rep.counts()
        assert counts["fail"] == 0
        assert len(rep.checks) == 16

    def test_basis_size(self):
        assert len(CLASSIFY_BASIS) == 15


class TestConformalSuite:
    def test_only_the_known_discrepancies_are_flagged(self):
        rep = verify_conformal({"samples": 80, "seed": 11, "tolerance": 1e-12})
        counts = rep.counts()
        assert counts["fail"] == 0
        assert counts["discrepancy-documented"] == 3
        flagged = sorted(c.check_id for c in rep.checks if c.status != "pass")
        assert flagged == [
            "image-table[ax,q]",
            "image-table[bx,p]",
            "image-table[bx,x]",
        ]


def _nan_field(pt, field, row):
    """The point pt of arrays with row `row` of its field `field` set to nan."""
    values = dict(zip(MinkowskiPoint.__slots__, pt.as_tuple()))
    values[field] = np.array(values[field], dtype=float)
    values[field][row] = math.nan
    return MinkowskiPoint(**values)


def _plant_point_law(law, field, row):
    # The law's want for one later sample of a check on arrays; the
    # classification's scalar points stay as they are.
    def plant(monkeypatch):
        real = getattr(MinkowskiPoint, law)

        def planted(pt, *args):
            out = real(pt, *args)
            return _nan_field(out, field, row) if isinstance(out.t, np.ndarray) else out
        monkeypatch.setattr(MinkowskiPoint, law, planted)
    return plant


def _plant_so6_step(monkeypatch):
    # The y row of the yz Lorentz matrix, the second plane of lorentz-on-q.
    real = group.so6_step

    def planted(name, theta):
        out = real(name, theta).copy()
        if (name, theta) == ("yz", 0.7):
            out[clifford.COORDS.index("y"), clifford.COORDS.index("z")] = math.nan
        return out
    monkeypatch.setattr(group, "so6_step", planted)


def _plant_mobius(monkeypatch):
    # The oracle's x numerator of sample 1 of every chunk.
    real = conformal._mobius

    def planted(v, alpha):
        num, denom = real(v, alpha)
        if isinstance(num.x, np.ndarray) and len(num.x) > 1:
            num = _nan_field(num, "x", 1)
        return num, denom
    monkeypatch.setattr(conformal, "_mobius", planted)


def _plant_image_rows(monkeypatch):
    # The y coordinate of image 1 of every second step.
    real = checks._image_rows

    def planted(names, thetas, coords):
        out = real(names, thetas, coords).copy()
        out[1, clifford.COORDS.index("y")] = math.nan
        return out
    monkeypatch.setattr(checks, "_image_rows", planted)


_NAN_SITES = {
    "translation-law[y]": _plant_point_law("shifted", "y", 3),
    "additivity[x]": _plant_image_rows,
    "dilation-law": _plant_point_law("scaled", "z", 2),
    "lorentz-on-q": _plant_so6_step,
    "conformal-vs-mobius": _plant_mobius,
    "null-preserved": _plant_image_rows,
    "ratio-identity": _plant_image_rows,
}


@pytest.mark.parametrize("check_id", _NAN_SITES)
def test_a_nan_in_a_later_sample_fails_its_check(monkeypatch, check_id):
    # A check's deviation is the maximum over all its samples, and a nan
    # in any of them (not only the first, nor only the first coordinate)
    # reaches the report.
    _NAN_SITES[check_id](monkeypatch)
    rep = verify_conformal({"samples": 8})
    check = {c.check_id: c for c in rep.checks}[check_id]
    assert (check.status, check.actual) == ("fail", "nan")
