"""The numpy batch path against the TensorMatrix route.

The batch path (batch's kernel, driven by group.act_on_coords) runs the
TensorMatrix route's float operations in its order, so every image row
must be that route's result (strategies.reference_route) in repr,
signed zeros included, and every failure its exception.  The reference
is not act_on_vector, whose float steps run on the same plans.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitconf import batch, group, plans
from splitconf.algebra import ZERO, TensorScalar
from splitconf.batch import _product, build_P_batch, extract_coords_batch
from splitconf.checks import verify_conformal
from splitconf.clifford import COORDS, Vector6, _block_rows, build_P, extract_coords
from splitconf.conformal import (
    MinkowskiPoint,
    embed_point,
    step_vector,
)
from splitconf.group import (
    PLANES,
    TRANSLATION_NAMES,
    act_on_coords,
    so6_matrix,
)
from splitconf.matrices import TensorMatrix, exp_pair
from strategies import reference_route

PLANE_NAMES = PLANES + tuple(p[::-1] for p in PLANES)
STEP_NAMES = PLANE_NAMES + TRANSLATION_NAMES

angles = st.floats(-12, 12, allow_nan=False, allow_infinity=False)

float_coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)

# Mostly floats, with exact zeros and exact values mixed in; rows()
# reads them as the floats act_on_coords takes.
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


def rows(vecs):
    """The float rows act_on_coords takes for a list of Vector6."""
    return [[float(c) for c in v.as_tuple()] for v in vecs]


def batched(words, vecs):
    """act_on_coords of one word per vector, as lists of floats."""
    return act_on_coords(words, rows(vecs)).tolist()


def scalar(words, vecs):
    """reference_route of each word on its vector's float row, as lists of floats.

    An all-zero row builds an exact P and gives exact zeros, as 0.0 here.
    """
    return [
        [float(c) for c in reference_route(w, Vector6(*r)).as_tuple()]
        for w, r in zip(words, rows(vecs))
    ]


def scalar_steps(steps):
    """reference_route of each (name, theta, vector)'s one-step word on the
    vector's float row."""
    return scalar([[(name, theta)] for name, theta, _ in steps], [v for _, _, v in steps])


def outcome(fn):
    """('ok', row reprs) or ('error', type, message) of fn()."""
    try:
        return ("ok", [repr(r) for r in fn()])
    except (ValueError, OverflowError) as exc:
        return ("error", type(exc), str(exc))


class TestStepEquivalence:
    @given(st.lists(st.tuples(st.sampled_from(STEP_NAMES), angles, vectors),
                    max_size=12))
    def test_batch_equals_the_scalar_step(self, steps):
        words = [[(name, theta)] for name, theta, _ in steps]
        vecs = [v for _, _, v in steps]
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar_steps(steps)
        )

    @given(st.lists(st.tuples(st.sampled_from(STEP_NAMES), nonfinite_angles,
                              hostile_vectors), min_size=2, max_size=8))
    def test_hostile_input_gives_the_scalar_outcome(self, steps):
        words = [[(name, theta)] for name, theta, _ in steps]
        vecs = [v for _, _, v in steps]
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar_steps(steps)
        )

    def test_float_zeros_are_positive_python_floats(self):
        words = [[("xy", 0.3)], [("ax", 0.3)], [("bz", -0.3)]]
        for row in batched(words, [Vector6(x=1.0)] * 3):
            for c in row:
                assert type(c) is float
                assert c != 0 or math.copysign(1.0, c) == 1.0

    def test_samples_outside_the_span_take_the_scalar_error(self):
        # A coordinate of 1e308 overflows inside the product: the batch
        # refuses the row and the scalar route names the failure.
        vecs = [Vector6(x=0.5, p=1.0), Vector6(x=1.7e308, t=1.7e308, p=1.0)]
        with pytest.raises(ValueError) as rows_raised:
            batched([[("tx", 3.0)]] * 2, vecs)
        with pytest.raises(ValueError) as scalar_raised:
            reference_route([("tx", 3.0)], vecs[1])
        assert str(rows_raised.value) == str(scalar_raised.value)

    def test_an_overflowing_angle_takes_the_scalar_error(self):
        vecs = [Vector6(x=0.5, t=0.25), Vector6(x=1.0, t=0.5)]
        with pytest.raises(OverflowError, match="^boost angle 1500.0 of 'tx' is beyond "):
            batched([[("tx", 0.5)], [("tx", 1500.0)]], vecs)

    def test_chunks_join_in_order(self, monkeypatch):
        monkeypatch.setattr(batch, "BATCH_SIZE", 7)
        rng = random.Random(3)
        steps = [
            (rng.choice(STEP_NAMES), rng.uniform(-4, 4),
             Vector6(*(rng.uniform(-1, 1) for _ in range(6))))
            for _ in range(30)
        ]
        words = [[(name, theta)] for name, theta, _ in steps]
        got = batched(words, [v for _, _, v in steps])
        assert [repr(r) for r in got] == [repr(r) for r in scalar_steps(steps)]


class TestWordEquivalence:
    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES), angles), max_size=4),
           st.lists(vectors, max_size=8))
    def test_batch_equals_the_scalar_word(self, word, vecs):
        # Long boost words at large angles leave the span on the scalar
        # route too; the batch must then raise the same error.
        words = [word] * len(vecs)
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar(words, vecs)
        )

    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES), hostile_angles),
                    min_size=1, max_size=3),
           st.lists(hostile_vectors, min_size=2, max_size=6))
    def test_hostile_input_gives_the_scalar_outcome(self, word, vecs):
        words = [word] * len(vecs)
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar(words, vecs)
        )

    @given(st.lists(st.tuples(st.sampled_from(PLANE_NAMES),
                              st.one_of(angles, st.integers(-3, 3))),
                    max_size=4))
    def test_so6_matrix_equals_the_exact_basis_route(self, word):
        # so6_matrix acts on float basis vectors in one batch; the exact
        # basis vectors through the scalar route give the same floats.
        def exact_route():
            imgs = [reference_route(word, Vector6.basis(m)) for m in COORDS]
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
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar(words, vecs)
        )

    @given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(STEP_NAMES),
                                                 nonfinite_angles), max_size=3),
                              hostile_vectors), min_size=2, max_size=8))
    def test_hostile_input_gives_the_scalar_outcome(self, pairs):
        # A non-finite angle raises at its own vector's place, after any
        # error an earlier vector raises.
        words = [w for w, _ in pairs]
        vecs = [v for _, v in pairs]
        assert outcome(lambda: batched(words, vecs)) == outcome(
            lambda: scalar(words, vecs)
        )

    def test_an_iterator_word_gives_its_list_words_image(self):
        # An iterator word is read into a list once, before routing.
        row = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        got = act_on_coords([iter([("xy", 0.3)])], [row])
        assert got.tolist() == act_on_coords([[("xy", 0.3)]], [row]).tolist()
        assert got[0, 0] == pytest.approx(math.cos(0.3))

    def test_rows_that_share_an_iterator_word_share_its_steps(self):
        rows = [[1.0, 0, 0, 0, 1.0, 0]] * 2
        w = iter([("xy", 0.3)])
        got = act_on_coords([w, w], rows)
        want = act_on_coords([[("xy", 0.3)]] * 2, rows)
        assert got.tolist() == want.tolist()
        assert got[1, 0] == pytest.approx(math.cos(0.3))

    def test_a_word_that_list_refuses_raises_at_its_row(self):
        # 5 is not iterable: its row still raises through act_on_vector,
        # after the bad angle of the row before it.
        rows = [[1.0, 0, 0, 0, 1.0, 0]] * 3
        words = [[("xy", 0.3)], [("xy", math.nan)], 5]
        with pytest.raises(ValueError, match="^angle nan is not finite$"):
            act_on_coords(words, rows)
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            act_on_coords(words[::2], rows[:2])

    def test_mixed_lengths_cross_chunks_in_order(self, monkeypatch):
        # Lengths 0 to 6 in one call, every step name (planes in both
        # orders, ax..at and bx..bt), rows read from float, exact and
        # mixed vectors, and coordinates that overflow or are not finite
        # (each such row alone in its call, since the scalar route
        # raises at the first one), seven rows per batch.
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
            # Eight more float rows at random places, sharing four word
            # objects, one of them empty.
            shared = [draw_word() for _ in range(3)] + [[]]
            for i in range(8):
                pairs.insert(rng.randint(0, len(pairs)),
                             (shared[i % 4], draw_vector("float")))
            assert len({len(w) for w, _ in pairs}) == 7
            assert sum(w is shared[3] for w, _ in pairs) == 2
            words, vecs = zip(*pairs)
            assert outcome(lambda: batched(words, vecs)) == outcome(
                lambda: scalar(words, vecs)
            )
        for _ in range(20):
            pairs = [(draw_word(), draw_vector("float")) for _ in range(9)]
            pairs.insert(rng.randint(0, 9), (draw_word(), draw_vector("hostile")))
            words, vecs = zip(*pairs)
            assert outcome(lambda: batched(words, vecs)) == outcome(
                lambda: scalar(words, vecs)
            )

    @given(st.lists(st.tuples(step_words, st.lists(float_coords, min_size=6,
                                                   max_size=6)), max_size=16))
    def test_rows_equal_the_scalar_words(self, pairs):
        # Float rows in, float rows out, an (n, 6) array.
        def scalar_rows():
            return [[float(c) for c in reference_route(w, Vector6(*r)).as_tuple()]
                    for w, r in pairs]

        def batched_rows():
            got = act_on_coords([w for w, _ in pairs], [r for _, r in pairs])
            assert got.shape == (len(pairs), 6)
            return got.tolist()

        assert outcome(batched_rows) == outcome(scalar_rows)

    def test_a_word_count_that_differs_is_refused(self):
        with pytest.raises(ValueError, match="2 words for 1 vectors"):
            batched([[], []], [Vector6(x=1.0)])

    def test_a_non_finite_angle_raises_after_an_earlier_error(self):
        vecs = [Vector6(x=1.7e308, t=1.7e308, p=1.0), Vector6(x=1.0, p=1.0)]
        words = [[("tx", 3.0)], [("xy", math.nan)]]
        with pytest.raises(ValueError) as scalar_raised:
            reference_route(words[0], vecs[0])
        with pytest.raises(ValueError) as rows_raised:
            batched(words, vecs)
        assert str(rows_raised.value) == str(scalar_raised.value)

    def test_a_shared_word_is_planned_once(self, monkeypatch):
        calls = []
        half_angle = group._half_angle

        def counted(step, theta):
            calls.append(step)
            return half_angle(step, theta)

        monkeypatch.setattr(group, "_half_angle", counted)
        word = [("xy", 0.3), ("bt", -0.2), ("pz", 0.7)]
        so6_matrix(word)
        assert len(calls) == 3
        del calls[:]
        vecs = [Vector6(x=1.0, y=float(k)) for k in range(5)]
        got = outcome(lambda: batched([word] * 5, vecs))
        assert len(calls) == 3
        assert got == outcome(lambda: scalar([word] * 5, vecs))


def counted_plan_builds(monkeypatch):
    """The generators whose plans plans.compact_plan builds from now on,
    starting from an empty plan cache."""
    built = []
    build = plans._build

    def counted(gen):
        built.append(gen)
        return build(gen)

    monkeypatch.setattr(plans, "_plans", {})
    monkeypatch.setattr(plans, "_build", counted)
    return built


class TestPlanCache:
    def test_a_verify_pass_builds_a_plan_per_generator_at_most(self, monkeypatch):
        built = counted_plan_builds(monkeypatch)
        verify_conformal()
        assert 0 < len(built) <= len(PLANES) + len(TRANSLATION_NAMES)
        assert len({id(gen) for gen in built}) == len(built)

    def test_one_step_words_share_one_plan(self, monkeypatch):
        built = counted_plan_builds(monkeypatch)
        rng = random.Random(5)
        words = [[("bx", rng.uniform(-0.5, 0.5))] for _ in range(1000)]
        rows = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(1000)]
        act_on_coords(words, rows)
        assert len(built) <= 1

    def test_both_kernels_share_one_plan_per_generator(self, monkeypatch):
        # The scalar kernel builds the 23 plans and the batch reuses them.
        built = counted_plan_builds(monkeypatch)
        words = [[(name, 0.3)] for name in STEP_NAMES]
        v = Vector6(x=0.5, p=1.0)
        for word in words:
            group.act_on_vector(word, v)
        act_on_coords(words, [v.as_tuple()] * len(words))
        assert len(built) == len(PLANES) + len(TRANSLATION_NAMES)

    @pytest.mark.parametrize("name", STEP_NAMES)
    def test_rounds_per_output(self, name, monkeypatch):
        # One step of the batch runs M @ P and (M P) @ M^-1 on the step's
        # own plan: two rounds per output for a plane, three for a
        # nilpotent step, over the live coefficients followed by their
        # negations and P's 64 rows.
        calls = []
        product = batch._product

        def counted(rounds, m, b):
            calls.append((rounds, m.shape[0]))
            return product(rounds, m, b)

        monkeypatch.setattr(batch, "_product", counted)
        coords, ok = batch.conjugate(
            np.array([[0.5, 0.0, 0.0, 0.0, 1.0, 0.0]]), [[group._half_angle(name, 0.3)]]
        )
        assert ok.tolist() == [True]
        rounds = 3 if name in TRANSLATION_NAMES else 2
        _, left, right = plans.compact_plan(group._half_angle(name, 0.3)[0])
        assert [r for r, _ in calls] == [left, right]
        for plan, live in calls:
            assert live == 4 * rounds and len(plan) == rounds
            for coefs, rows in plan:
                assert max(coefs) < 2 * live and max(rows) < 64


class TestKernel:
    def test_conjugate_takes_and_gives_arrays(self):
        # Two columns of one step under different generators; the
        # second overflows and is refused, the first is the scalar step.
        # Each column takes its word's _half_angle (G, c, s) list.
        words = [[("xy", 0.3)], [("tx", 3.0)]]
        vecs = [Vector6(x=0.5, p=1.0), Vector6(x=1.7e308, t=1.7e308, p=1.0)]
        coords, ok = batch.conjugate(
            np.array([v.as_tuple() for v in vecs]),
            [[group._half_angle(*step) for step in w] for w in words],
        )
        assert coords.shape == (2, 6)
        assert ok.tolist() == [True, False]
        assert repr(Vector6(*coords[0].tolist())) == repr(
            reference_route(words[0], vecs[0])
        )

    def test_a_chunk_of_every_word_length_is_one_call(self, monkeypatch):
        # Words of lengths 0 to 6 share their chunk: one conjugate call
        # for 128 rows, each row its own word's steps.
        calls = []
        conjugate = batch.conjugate

        def counted(coords, words):
            calls.append(len(words))
            return conjugate(coords, words)

        monkeypatch.setattr(batch, "conjugate", counted)
        rng = random.Random(12)
        words = [[(rng.choice(STEP_NAMES), rng.uniform(-3, 3))
                  for _ in range(n % 7)] for n in range(128)]
        vecs = [Vector6(*(rng.uniform(-1, 1) for _ in range(6))) for _ in words]
        got = batched(words, vecs)
        assert calls == [128]
        assert [repr(r) for r in got] == [repr(r) for r in scalar(words, vecs)]


def random_blocks(rng):
    """A 4x4 matrix with random coefficients of mixed magnitude on its
    off-diagonal 2x2 blocks, and its batch column."""
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i // 2 != j // 2:
                rows[i][j] = TensorScalar(
                    [rng.uniform(-1, 1) * 10 ** rng.uniform(-8, 8) for _ in range(8)]
                )
    mat = TensorMatrix(rows)
    flat = [c for r in mat.rows for e in r for c in e.coeffs]
    return mat, np.array([[flat[f]] for f in _block_rows(False)])


def off_diagonal_reprs(mat):
    flat = [c for r in mat.rows for e in r for c in e.coeffs]
    assert not any(flat[f] for f in _block_rows(True))
    return [repr(flat[f]) for f in _block_rows(False)]


class TestDenseSweep:
    # On dense random matrices every term is nonzero and the terms of a
    # sum span 16 decades, so summing in any other order changes bits
    # (unlike in-span matrices, whose sums have few nonzero terms).
    def test_products_keep_the_scalar_order(self):
        # Every step name's compact plans against exp_pair and @, with c
        # and s spread over 16 decades too.
        rng = random.Random(20)
        for name in STEP_NAMES * 5:
            gen = group._half_angle(name, 0.5)[0]
            pairs, left, right = plans.compact_plan(gen)
            unit, g = np.array(pairs).T[:, :, None]
            c, s = (rng.uniform(-1, 1) * 10 ** rng.uniform(-8, 8) for _ in range(2))
            m, m_inv = exp_pair(gen, c, s)
            p, p_col = random_blocks(rng)
            mp = _product(left, unit * c + g * s, p_col)
            assert [repr(x) for x in mp[:, 0].tolist()] == off_diagonal_reprs(m @ p)
            mpm = _product(right, unit * c + g * -s, mp)
            assert [repr(x) for x in mpm[:, 0].tolist()] == off_diagonal_reprs(
                (m @ p) @ m_inv
            )

    def test_extraction_keeps_the_gather_order(self):
        # A tolerance this loose accepts any matrix on both routes, so
        # the coordinates are the raw gather sums.
        rng = random.Random(21)
        for _ in range(100):
            p, p_col = random_blocks(rng)
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
            assert p[:, 0].tolist() == [float(flat[f]) for f in _block_rows(False)]


class TestNonFiniteAngles:
    @pytest.mark.parametrize("name", ["ax", "bt", "xy", "tz"])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_every_entry_names_the_angle(self, name, theta):
        msg = "angle %s is not finite" % theta
        v = Vector6(x=1.0, p=1.0)
        with pytest.raises(ValueError, match=msg):
            step_vector(name, theta, v)
        with pytest.raises(ValueError, match=msg):
            batched([[(name, 0.5)], [(name, theta)]], [v, v])
        with pytest.raises(ValueError, match=msg):
            batched([[(name, theta)]] * 2, [v, v])
