"""The numpy batch path against the scalar route it replaces.

The batch path (batch's kernel, driven by group.act_on_vectors and
conformal.step_vectors) runs the
scalar route's float operations in its order, so every result must be
the scalar result in coordinate repr, types and signed zeros included,
and every failure the scalar route's exception.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf import batch, group
from splitconf.algebra import ZERO, TensorScalar
from splitconf.batch import (
    _plans,
    _product,
    block_rows,
    build_P_batch,
    extract_coords_batch,
)
from splitconf.clifford import COORDS, Vector6, build_P, extract_coords
from splitconf.conformal import (
    MinkowskiPoint,
    embed_point,
    step_vector,
    step_vectors,
)
from splitconf.group import (
    PLANES,
    TRANSLATION_NAMES,
    act_on_coords,
    act_on_vector,
    act_on_vectors,
    check_angle,
    so6_matrix,
)
from splitconf.matrices import TensorMatrix

PLANE_NAMES = PLANES + tuple(p[::-1] for p in PLANES)
STEP_NAMES = PLANE_NAMES + TRANSLATION_NAMES

angles = st.floats(-12, 12, allow_nan=False, allow_infinity=False)

float_coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)

# Mostly floats, with exact zeros and exact values mixed in (those
# vectors stay on the scalar route).
coords = st.one_of(
    float_coords,
    float_coords,
    float_coords,
    st.just(0),
    st.just(0.0),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
)

vectors = st.one_of(
    st.builds(Vector6, coords, coords, coords, coords, coords, coords),
    st.builds(
        lambda pt: embed_point(pt).v,
        st.builds(MinkowskiPoint, float_coords, float_coords, float_coords,
                  float_coords),
    ),
    st.builds(Vector6.basis, st.sampled_from(COORDS)),
    st.builds(lambda m: Vector6(**{m: Fraction(1)}), st.sampled_from(COORDS)),
)

# Coordinates and angles whose products overflow, or that are not finite.
hostile_coords = st.one_of(
    float_coords,
    st.sampled_from([1e300, -1e300, 1.7e308, math.inf, -math.inf, math.nan]),
)
hostile_vectors = st.builds(
    Vector6, *([hostile_coords] * 6)
)
hostile_angles = st.one_of(angles, st.sampled_from([1500.0, -1500.0, 700.0]))
nonfinite_angles = st.one_of(
    hostile_angles, st.sampled_from([math.nan, math.inf, -math.inf])
)


def checked_act(word, v):
    """act_on_vector after the angle check act_on_vectors makes first."""
    for _, theta in word:
        check_angle(theta)
    return act_on_vector(word, v)


def outcome(fn):
    """('ok', coordinate reprs) or ('error', type, message) of fn()."""
    try:
        return ("ok", [repr(v) for v in fn()])
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc), str(exc))


class TestStepEquivalence:
    @given(st.lists(st.tuples(st.sampled_from(STEP_NAMES), angles, vectors),
                    max_size=12))
    def test_batch_equals_the_scalar_step(self, steps):
        names, thetas, vecs = (list(x) for x in zip(*steps)) if steps else ([], [], [])
        assert outcome(lambda: step_vectors(names, thetas, vecs)) == outcome(
            lambda: [step_vector(*s) for s in steps]
        )

    @given(st.lists(st.tuples(st.sampled_from(STEP_NAMES), nonfinite_angles,
                              hostile_vectors), min_size=2, max_size=8))
    def test_hostile_input_gives_the_scalar_outcome(self, steps):
        names, thetas, vecs = (list(x) for x in zip(*steps))
        assert outcome(lambda: step_vectors(names, thetas, vecs)) == outcome(
            lambda: [step_vector(*s) for s in steps]
        )

    def test_float_zeros_are_positive_python_floats(self):
        got = step_vectors(["xy", "ax", "bz"], [0.3, 0.3, -0.3], [Vector6(x=1.0)] * 3)
        for v in got:
            for c in v.as_tuple():
                assert type(c) is float
                assert c != 0 or math.copysign(1.0, c) == 1.0

    def test_samples_outside_the_span_take_the_scalar_error(self):
        # A coordinate of 1e308 overflows inside the product: the batch
        # refuses the column and the scalar route names the failure.
        vecs = [Vector6(x=0.5, p=1.0), Vector6(x=1.7e308, t=1.7e308, p=1.0)]
        with pytest.raises(ValueError) as batched:
            step_vectors(["tx", "tx"], [3.0, 3.0], vecs)
        with pytest.raises(ValueError) as scalar:
            step_vector("tx", 3.0, vecs[1])
        assert str(batched.value) == str(scalar.value)

    def test_an_overflowing_angle_takes_the_scalar_error(self):
        vecs = [Vector6(x=0.5, t=0.25), Vector6(x=1.0, t=0.5)]
        with pytest.raises(OverflowError, match="math range error"):
            step_vectors(["tx", "tx"], [0.5, 1500.0], vecs)

    def test_chunks_join_in_order(self, monkeypatch):
        monkeypatch.setattr(batch, "BATCH_SIZE", 7)
        rng = random.Random(3)
        steps = [
            (rng.choice(STEP_NAMES), rng.uniform(-4, 4),
             Vector6(*(rng.uniform(-1, 1) for _ in range(6))))
            for _ in range(30)
        ]
        got = step_vectors(*zip(*steps))
        assert [repr(v) for v in got] == [repr(step_vector(*s)) for s in steps]


class TestWordEquivalence:
    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES), angles), max_size=4),
           st.lists(vectors, max_size=8))
    def test_batch_equals_the_scalar_word(self, word, vecs):
        # Long boost words at large angles leave the span on the scalar
        # route too; the batch must then raise the same error.
        assert outcome(lambda: act_on_vectors([word] * len(vecs), vecs)) == outcome(
            lambda: [act_on_vector(word, v) for v in vecs]
        )

    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES), hostile_angles),
                    min_size=1, max_size=3),
           st.lists(hostile_vectors, min_size=2, max_size=6))
    def test_hostile_input_gives_the_scalar_outcome(self, word, vecs):
        assert outcome(lambda: act_on_vectors([word] * len(vecs), vecs)) == outcome(
            lambda: [act_on_vector(word, v) for v in vecs]
        )

    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES),
                              st.one_of(angles, st.integers(-3, 3))),
                    max_size=4))
    def test_so6_matrix_equals_the_exact_basis_route(self, word):
        # so6_matrix acts on float basis vectors in one batch; the exact
        # basis vectors through the scalar route give the same floats.
        def exact_route():
            imgs = [act_on_vector(word, Vector6.basis(m)) for m in COORDS]
            return np.array([[float(c) for c in v.as_tuple()] for v in imgs]).T

        def reprs(fn):
            return lambda: [repr(fn().tolist())]

        assert outcome(reprs(lambda: so6_matrix(word))) == outcome(reprs(exact_route))


# Up to two steps, so that a length group often holds several columns.
step_words = st.lists(st.tuples(st.sampled_from(STEP_NAMES), angles), max_size=2)


class TestWordPerColumn:
    # One word per vector: the kernel stacks step k of every word of a
    # length group into one batch, so a column paired with another
    # column's step shows here.
    @given(st.lists(st.tuples(step_words, vectors), max_size=16))
    def test_batch_equals_the_scalar_words(self, pairs):
        words = [w for w, _ in pairs]
        vecs = [v for _, v in pairs]
        assert outcome(lambda: act_on_vectors(words, vecs)) == outcome(
            lambda: [act_on_vector(w, v) for w, v in pairs]
        )

    @given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(STEP_NAMES),
                                                 nonfinite_angles), max_size=3),
                              hostile_vectors), min_size=2, max_size=8))
    def test_hostile_input_gives_the_scalar_outcome(self, pairs):
        # A non-finite angle raises at its own vector's place, after any
        # error an earlier vector raises.
        words = [w for w, _ in pairs]
        vecs = [v for _, v in pairs]
        assert outcome(lambda: act_on_vectors(words, vecs)) == outcome(
            lambda: [checked_act(w, v) for w, v in pairs]
        )

    def test_mixed_lengths_cross_chunks_in_order(self, monkeypatch):
        # Lengths 0 to 6 in one call, every step name (planes in both
        # orders, ax..at and bx..bt), float, exact
        # and mixed vectors, and coordinates that overflow or are not
        # finite (each such vector alone in its call, since the scalar
        # route raises at the first one), seven vectors per batch.
        monkeypatch.setattr(batch, "BATCH_SIZE", 7)
        rng = random.Random(11)

        def draw_vector(kind):
            if kind == "float":
                return Vector6(*(rng.uniform(-1, 1) for _ in range(6)))
            if kind == "exact":
                return Vector6(*(Fraction(rng.randint(-4, 4), 3) for _ in range(6)))
            if kind == "mixed":
                return Vector6(rng.uniform(-1, 1), 0, Fraction(1, 2), 0.25, 0, 1)
            return Vector6(rng.choice([1e300, -1.7e308, math.inf, math.nan]),
                           0.5, 0.0, 1.0, 0.0, 1.0)

        def draw_word():
            return [(rng.choice(STEP_NAMES), rng.uniform(-3, 3))
                    for _ in range(rng.randint(0, 6))]

        for kinds in (["float"] * 40, ["float", "exact", "mixed"] * 14):
            pairs = [(draw_word(), draw_vector(k)) for k in kinds]
            assert len({len(w) for w, _ in pairs}) == 7
            words, vecs = zip(*pairs)
            assert outcome(lambda: act_on_vectors(words, vecs)) == outcome(
                lambda: [act_on_vector(w, v) for w, v in pairs]
            )
        for _ in range(20):
            pairs = [(draw_word(), draw_vector("float")) for _ in range(9)]
            pairs.insert(rng.randint(0, 9), (draw_word(), draw_vector("hostile")))
            words, vecs = zip(*pairs)
            assert outcome(lambda: act_on_vectors(words, vecs)) == outcome(
                lambda: [act_on_vector(w, v) for w, v in pairs]
            )

    @given(st.lists(st.tuples(step_words, st.lists(float_coords, min_size=6,
                                                   max_size=6)), max_size=16))
    def test_rows_equal_the_scalar_words(self, pairs):
        # act_on_coords, under act_on_vectors: float rows in, float rows out.
        def scalar():
            return [[float(c) for c in act_on_vector(w, Vector6(*r)).as_tuple()]
                    for w, r in pairs]

        def batched():
            got = act_on_coords([w for w, _ in pairs], [r for _, r in pairs])
            assert got.shape == (len(pairs), 6)
            return got.tolist()

        assert outcome(batched) == outcome(scalar)

    def test_a_word_count_that_differs_is_refused(self):
        with pytest.raises(ValueError, match="2 words for 1 vectors"):
            act_on_vectors([[], []], [Vector6(x=1.0)])

    def test_a_non_finite_angle_raises_after_an_earlier_error(self):
        vecs = [Vector6(x=1.7e308, t=1.7e308, p=1.0), Vector6(x=1.0, p=1.0)]
        words = [[("tx", 3.0)], [("xy", math.nan)]]
        with pytest.raises(ValueError) as scalar:
            act_on_vector(words[0], vecs[0])
        with pytest.raises(ValueError) as batched:
            act_on_vectors(words, vecs)
        assert str(batched.value) == str(scalar.value)

    def test_a_shared_word_is_planned_once(self, monkeypatch):
        calls = []
        batch_step = group._batch_step

        def counted(step, theta):
            calls.append(step)
            return batch_step(step, theta)

        monkeypatch.setattr(group, "_batch_step", counted)
        word = [("xy", 0.3), ("bt", -0.2), ("pz", 0.7)]
        so6_matrix(word)
        assert len(calls) == 3
        del calls[:]
        vecs = [Vector6(x=1.0, y=float(k)) for k in range(5)]
        assert outcome(lambda: act_on_vectors([word] * 5, vecs)) == outcome(
            lambda: [act_on_vector(word, v) for v in vecs]
        )
        assert len(calls) == 3


class TestKernel:
    def test_conjugate_takes_and_gives_arrays(self):
        # Two columns of one word length under different words; the
        # second overflows and is refused, the first is the scalar step.
        words = [[("xy", 0.3)], [("tx", 3.0)]]
        vecs = [Vector6(x=0.5, p=1.0), Vector6(x=1.7e308, t=1.7e308, p=1.0)]
        plans = [[group._batch_step(*step) for step in w] for w in words]
        coords, ok = batch.conjugate(
            np.array([v.as_tuple() for v in vecs]), [zip(*(p[0] for p in plans))]
        )
        assert coords.shape == (2, 6)
        assert ok.tolist() == [True, False]
        assert repr(Vector6(*coords[0].tolist())) == repr(
            act_on_vector(words[0], vecs[0])
        )


def random_blocks(rng, diagonal):
    """A 4x4 matrix with random coefficients of mixed magnitude on its
    diagonal (or off-diagonal) 2x2 blocks, and its batch column."""
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if (i // 2 == j // 2) == diagonal:
                rows[i][j] = TensorScalar(
                    [rng.uniform(-1, 1) * 10 ** rng.uniform(-8, 8) for _ in range(8)]
                )
    mat = TensorMatrix(rows)
    flat = [c for r in mat.rows for e in r for c in e.coeffs]
    return mat, np.array([[flat[f]] for f in block_rows(diagonal)])


def off_diagonal_reprs(mat):
    flat = [c for r in mat.rows for e in r for c in e.coeffs]
    assert not any(flat[f] for f in block_rows(True))
    return [repr(flat[f]) for f in block_rows(False)]


class TestDenseSweep:
    # On dense random matrices every term is nonzero and the terms of a
    # sum span 16 decades, so summing in any other order changes bits
    # (unlike in-span matrices, whose sums have few nonzero terms).
    def test_products_keep_the_scalar_order(self):
        left, right, _ = _plans()
        rng = random.Random(20)
        for _ in range(100):
            m, m_col = random_blocks(rng, True)
            p, p_col = random_blocks(rng, False)
            mp = _product(left, m_col, p_col)
            assert [repr(x) for x in mp[:, 0].tolist()] == off_diagonal_reprs(m @ p)
            pm = _product(right, p_col, m_col)
            assert [repr(x) for x in pm[:, 0].tolist()] == off_diagonal_reprs(p @ m)

    def test_extraction_keeps_the_gather_order(self):
        # A tolerance this loose accepts any matrix on both routes, so
        # the coordinates are the raw gather sums.
        rng = random.Random(21)
        for _ in range(100):
            p, p_col = random_blocks(rng, False)
            coords, ok = extract_coords_batch(p_col, tol=1e6)
            assert ok.tolist() == [True]
            assert repr(Vector6(*coords[:, 0].tolist())) == repr(
                extract_coords(p, tol=1e6)
            )

    def test_packing_matches_build_P(self):
        rng = random.Random(22)
        for _ in range(20):
            v = Vector6(*(rng.uniform(-2, 2) for _ in range(6)))
            p = build_P_batch(np.array([v.as_tuple()]).T)
            flat = [c for r in build_P(v).rows for e in r for c in e.coeffs]
            assert p[:, 0].tolist() == [float(flat[f]) for f in block_rows(False)]


class TestNonFiniteAngles:
    @pytest.mark.parametrize("name", ["ax", "bt", "xy", "tz"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_every_entry_names_the_angle(self, name, theta):
        msg = "angle %s is not finite" % theta
        v = Vector6(x=1.0, p=1.0)
        with pytest.raises(ValueError, match=msg):
            step_vector(name, theta, v)
        with pytest.raises(ValueError, match=msg):
            step_vectors([name, name], [0.5, theta], [v, v])
        with pytest.raises(ValueError, match=msg):
            act_on_vectors([[(name, theta)]] * 2, [v, v])
