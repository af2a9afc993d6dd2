import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf.algebra import BASIS, TensorScalar
from splitconf.clifford import COORDS, METRIC, gamma
from splitconf import realrep
from splitconf.group import _BOOST_LIMIT, PLANES, generator
from splitconf.realrep import (
    COMPLEX_IMAGE,
    GAMMA_REAL_DATA,
    REFERENCE_REAL_GENERATORS,
    SPLIT_IMAGE,
    exp_real,
    exp_real_generator,
    real_gamma,
    real_generator_matrix,
    realify_matrix,
    realify_scalar,
    restrict_so31_second,
    surviving_planes,
    verify_realrep,
)

units = st.sampled_from(BASIS)

small_ints = st.integers(-4, 4)

scalars = st.builds(
    lambda cs: TensorScalar(tuple(cs)),
    st.lists(small_ints, min_size=8, max_size=8),
)


def unit_scalar(name):
    return TensorScalar.unit(name)


class TestFactorImages:
    def test_complex_unit_squares(self):
        y = COMPLEX_IMAGE["l"]
        assert np.array_equal(y @ y, -COMPLEX_IMAGE["1"])

    def test_split_unit_squares(self):
        i2 = SPLIT_IMAGE["1"]
        assert np.array_equal(SPLIT_IMAGE["K"] @ SPLIT_IMAGE["K"], -i2)
        assert np.array_equal(SPLIT_IMAGE["L"] @ SPLIT_IMAGE["L"], i2)
        assert np.array_equal(SPLIT_IMAGE["KL"] @ SPLIT_IMAGE["KL"], i2)

    def test_split_product_relation(self):
        assert np.array_equal(
            SPLIT_IMAGE["K"] @ SPLIT_IMAGE["L"], SPLIT_IMAGE["KL"]
        )


class TestRealifyScalar:
    @given(units, units)
    def test_homomorphism_on_basis_pairs(self, u, v):
        lhs = realify_scalar(unit_scalar(u) * unit_scalar(v))
        rhs = realify_scalar(unit_scalar(u)) @ realify_scalar(unit_scalar(v))
        assert np.array_equal(lhs, rhs)

    @given(scalars, scalars)
    def test_homomorphism_on_integer_scalars(self, a, b):
        lhs = realify_scalar(a * b)
        rhs = realify_scalar(a) @ realify_scalar(b)
        assert np.array_equal(lhs, rhs)

    @given(scalars, scalars)
    def test_additivity(self, a, b):
        lhs = realify_scalar(a + b)
        rhs = realify_scalar(a) + realify_scalar(b)
        assert np.array_equal(lhs, rhs)

    def test_integer_input_gives_integer_dtype(self):
        assert realify_scalar(unit_scalar("Kl")).dtype == np.int64

    def test_float_input_gives_float_dtype(self):
        got = realify_scalar(TensorScalar((0.5,) + (0,) * 7))
        assert got.dtype == np.float64

    def test_fraction_input_keeps_exact_entries(self):
        from fractions import Fraction

        got = realify_scalar(TensorScalar((Fraction(1, 3),) + (0,) * 7))
        assert got.dtype == object
        assert got[0, 0] == Fraction(1, 3)

    def test_identity_maps_to_identity(self):
        assert np.array_equal(realify_scalar(unit_scalar("1")), np.eye(4))


class TestGammaImages:
    def test_matches_entrywise_realification(self):
        for m in COORDS:
            assert np.array_equal(realify_matrix(gamma(m)), real_gamma(m))

    def test_entries_are_signs(self):
        for m in COORDS:
            assert set(np.unique(real_gamma(m))) <= {-1, 0, 1}

    def test_anticommutators_recover_the_metric(self):
        i16 = np.eye(16, dtype=np.int64)
        for i, m in enumerate(COORDS):
            for n in COORDS[i:]:
                gm, gn = real_gamma(m), real_gamma(n)
                anti = gm @ gn + gn @ gm
                want = 2 * METRIC[m] * i16 if m == n else 0 * i16
                assert np.array_equal(anti, want), (m, n)

    def test_kron_data_covers_all_coordinates(self):
        assert set(GAMMA_REAL_DATA) == set(COORDS)


class TestGeneratorImages:
    def test_products_match_realified_products(self):
        for name in PLANES:
            want = realify_matrix(gamma(name[0]) @ gamma(name[1]))
            assert np.array_equal(real_generator_matrix(name), want)

    def test_reference_table_matches_recomputation(self):
        for name, (sign, factors) in REFERENCE_REAL_GENERATORS.items():
            from splitconf.realrep import _kron_all

            assert np.array_equal(
                sign * _kron_all(factors), real_generator_matrix(name)
            ), name

    @given(st.sampled_from(PLANES),
           st.floats(-1.2, 1.2, allow_nan=False))
    def test_exponential_matches_the_abstract_one(self, name, theta):
        got = exp_real_generator(name, theta)
        want = realify_matrix(generator(name, theta))
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("name, theta", [("tx", 1500.0), ("tx", -1500.0), ("tz", 1420.6)])
    def test_an_overflowing_angle_raises_without_a_warning(self, name, theta):
        # The step table refuses a boost beyond the angle whose cosh
        # so6_step takes overflows, as every other route does.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                exp_real_generator(name, theta)
            assert np.isfinite(exp_real_generator(name, _BOOST_LIMIT)).all()

    @pytest.mark.parametrize("step", ["ax", "bt"])
    def test_a_nilpotent_step_is_named(self, step):
        with pytest.raises(ValueError, match="^exp_real_generator takes a plane, not "
                           "the nilpotent step '%s'$" % step):
            exp_real_generator(step, 0.5)

    def test_exp_rejects_a_non_involutory_generator(self):
        with pytest.raises(AssertionError):
            exp_real(np.zeros((16, 16), dtype=np.int64), 0.3)


class TestRestriction:
    def test_survivors(self):
        assert surviving_planes() == (
            "xy", "yz", "zx", "tx", "ty", "tz", "pq",
        )

    def test_report_documents_the_criterion_text(self):
        rep = restrict_so31_second()
        counts = rep.counts()
        assert counts["fail"] == 0
        assert counts["discrepancy-documented"] == 1
        flagged = [c for c in rep.checks if c.status != "pass"]
        assert flagged[0].check_id == "restriction[criterion-text]"


class TestRealrepSuite:
    def test_full_report(self):
        rep = verify_realrep({"seed": 5, "tolerance": 1e-12})
        counts = rep.counts()
        assert counts["fail"] == 0
        assert counts["discrepancy-documented"] == 1
        assert len(rep.checks) == 138

    @pytest.mark.parametrize("factor", [2, Fraction(1, 3)])
    def test_a_corrupted_unit_block_is_a_mismatch(self, monkeypatch, factor):
        # The unit 1 block scaled by 2 keeps every scaled entry an
        # integer; scaled by 1/3 it does not.  The realification reads
        # the blocks through the cached _unit_pairs, rebuilt uncached here.
        blocks = list(realrep._unit_blocks())
        blocks[0] = blocks[0] * factor
        monkeypatch.setattr(realrep, "_unit_blocks", lambda: blocks)
        monkeypatch.setattr(realrep, "_unit_pairs", realrep._unit_pairs.__wrapped__)
        rep = verify_realrep({"seed": 5, "tolerance": 1e-12})
        got = {c.check_id: c for c in rep.checks}["homomorphism[exact-matrix]"]
        assert (got.status, got.actual) == ("fail", "mismatch")


def test_a_nan_in_a_later_word_fails_homomorphism_word(monkeypatch):
    # Call 4 of exp_real_generator is a step of word 1 or later, since
    # each of the five words has at most three steps.
    real, calls = realrep.exp_real_generator, itertools.count()

    def planted(plane, theta):
        out = real(plane, theta).copy()
        if next(calls) == 4:
            out[3, 5] = float("nan")
        return out
    monkeypatch.setattr(realrep, "exp_real_generator", planted)
    rep = verify_realrep({"seed": 5, "tolerance": 1e-12})
    check = {c.check_id: c for c in rep.checks}["homomorphism[word]"]
    assert (check.status, check.actual) == ("fail", "nan")
