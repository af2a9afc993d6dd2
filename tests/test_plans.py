"""The step plans, the scalar kernel that act_on_vector runs on them, and
the reader of the kernel's outputs.

A float word on a vector of floats runs on plans.compact_plan's plans
(plans.run); every result must be the TensorMatrix route's
(strategies.reference_route) in float.hex and type, and every other
outcome that route's exception with its message.  The reader of run's
64 outputs (clifford._read_rows) is held to the definition of the
coordinates: the metric-signed inner products with the gammas and the
residual P - build_P(coords).
"""

import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitconf
from splitconf import group, plans
from splitconf.algebra import SPAN_TOL, ZERO, TensorScalar, within
from splitconf.clifford import (
    COORDS, METRIC, Vector6, _block_rows, _read_rows, _rows, build_P, extract_coords, gamma,
    inner_product,
)
from splitconf.conformal import step_vector
from splitconf.group import PLANES, TRANSLATION_NAMES, act_on_vector
from splitconf.matrices import TensorMatrix, exp_pair, trace_product
from splitconf.plans import compact_plan
from strategies import reference_route

NAMES = PLANES + TRANSLATION_NAMES
REVERSED = tuple(p[::-1] for p in PLANES)


def bits(v):
    """(type, float.hex or repr) of each coordinate of a Vector6."""
    return [(type(c).__name__, c.hex() if isinstance(c, float) else repr(c))
            for c in v.as_tuple()]


def outcome(fn, *args):
    """('ok', bits) or ('error', type, message) of fn(*args)."""
    try:
        return ("ok", bits(fn(*args)))
    except Exception as exc:  # any exception must be the reference's
        return ("error", type(exc), str(exc))


float_coords = st.floats(-1, 1)
float_vectors = st.builds(Vector6, *[st.one_of(float_coords, float_coords, st.just(0))] * 6)
float_words = st.lists(st.tuples(st.sampled_from(NAMES), st.floats(-4, 4)), max_size=5)


class TestKernelEqualsTheTensorMatrixRoute:
    @given(float_words, float_vectors)
    def test_float_words_give_the_same_bits_and_types(self, word, v):
        assert outcome(act_on_vector, word, v) == outcome(reference_route, word, v)

    def test_every_name_either_way_round(self):
        rng = random.Random(4)
        for name in NAMES + REVERSED:
            for _ in range(20):
                word = [(name, rng.uniform(-4, 4))]
                v = Vector6(*(rng.uniform(-1, 1) for _ in range(6)))
                assert outcome(act_on_vector, word, v) == outcome(reference_route, word, v)

    def test_float_steps_do_not_take_the_tensor_matrix_route(self, monkeypatch):
        # The kernel really runs: with _conjugate gone, float steps still
        # give the reference bits, and an exact step reaches _conjugate.
        word = [("xy", 0.3), ("bt", -0.7), ("pq", 1.1), ("ax", 0.2)]
        v = Vector6(0.1, -0.2, 0.0, 0.3, 1.0, 0.5)
        want = outcome(reference_route, word, v)

        def gone(word, p):
            raise AssertionError("_conjugate called")

        monkeypatch.setattr(group, "_conjugate", gone)
        assert outcome(act_on_vector, word, v) == want
        with pytest.raises(AssertionError, match="_conjugate called"):
            act_on_vector([("ax", Fraction(1, 2))], v)

    def test_float_steps_build_no_tensor_matrix(self, monkeypatch):
        # plans.run hands its flat coefficients straight to the reader.
        v = Vector6(0.1, -0.2, 0.0, 0.3, 1.0, 0.5)
        words = [[(name, 0.3)] for name in NAMES + REVERSED]
        for word in words:  # builds each generator and its plan
            act_on_vector(word, v)
        built, init = [], TensorMatrix.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TensorMatrix, "__init__", counted)
        for word in words:
            act_on_vector(word, v)
        assert len(words) == 38 and built == []

    @pytest.mark.parametrize("word", [[], [("xy", 0.3)], (("ax", 0.5), ("tz", -0.2))],
                             ids=["empty", "one", "tuple"])
    @pytest.mark.parametrize("v", [Vector6(), Vector6(*[0.0] * 6), Vector6(*[-0.0] * 6),
                                   Vector6(x=1.0), Vector6(x=5e-324)],
                             ids=["int-zeros", "float-zeros", "negative-zeros", "x", "tiny"])
    def test_empty_words_and_zero_vectors(self, word, v):
        # build_P makes an exact P of an all-zero vector, and the
        # TensorMatrix route keeps it exact under a float word.
        got = outcome(act_on_vector, word, v)
        assert got == outcome(reference_route, word, v)
        if not any(v.as_tuple()):
            assert {t for t, _ in got[1]} == {"Fraction"}


class TestRoutingOfHostileInput:
    HOSTILE_COORDS = (
        0, 1, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, True, False, None, "1.0",
        1j, Decimal("0.5"), np.float64(0.5), np.float32(0.5), Fraction(1, 3),
        Fraction(10**400, 3), 2**1100,
    )
    HOSTILE_ANGLES = (
        0, 1, Fraction(1, 2), np.float64(0.5), np.float32(0.5), True, None, "0.5", 1j,
        Decimal("0.5"), math.nan, math.inf, -0.0, 800.0, 1e300,
    )
    coords = st.one_of(float_coords, st.sampled_from(HOSTILE_COORDS))
    angles = st.one_of(st.floats(-4, 4), st.sampled_from(HOSTILE_ANGLES))
    steps = st.tuples(st.sampled_from(NAMES + REVERSED + ("aw", "xx")), angles)

    @given(st.lists(steps, max_size=4), st.builds(Vector6, *[coords] * 6),
           st.sampled_from([list, tuple, iter]))
    def test_act_on_vector_gives_the_reference_outcome(self, word, v, form):
        assert outcome(act_on_vector, form(word), v) == outcome(reference_route, form(word), v)

    @given(steps, st.builds(Vector6, *[coords] * 6))
    def test_step_vector_gives_the_reference_outcome(self, step, v):
        assert outcome(step_vector, *step, v) == outcome(reference_route, [step], v)

    @pytest.mark.parametrize("v", [
        Vector6(np.float64(0.5), 0.25), Vector6(x=np.float32(0.5)), Vector6(x=True),
        Vector6(x=Decimal("0.5")), Vector6(x=1j), Vector6(x="1"), Vector6(x=None),
        Vector6(x=math.nan, p=1.0), Vector6(x=math.inf), Vector6(x=Fraction(10**400, 3)),
        Vector6(x=2**1100, p=1.0), Vector6(1, Fraction(1, 2), 0.25, 0, -0.5, 1.0),
        Vector6(x=1e308, t=1e308, p=1.0), [0.5] * 6,
    ], ids=repr)
    @pytest.mark.parametrize("word", [[("xy", 0.3), ("ax", 0.5)], [("bt", -0.2)]],
                             ids=["xy-ax", "bt"])
    def test_each_hostile_vector(self, word, v):
        assert outcome(act_on_vector, word, v) == outcome(reference_route, word, v)

    def test_malformed_words(self):
        v = Vector6(x=0.5, p=1.0)
        for word in (5, [5], [("xy",)], [("xy", 0.3, 1)], ["xy"], [(["xy"], 0.3)],
                     [("xy", 0.3), ("aw", 0.1)], [("tx", 800.0)], {"xy": 0.3}):
            assert outcome(act_on_vector, word, v) == outcome(reference_route, word, v)


def conjugation_outcome(word, v):
    """The outcome of extract_coords on _conjugate's result: the TensorMatrix route."""
    return outcome(lambda: extract_coords(group._conjugate(word, build_P(v))))


class TestTheReadersRefusalIsTheSteps:
    # act_on_vector raises _read_rows' refusal of finite plan outputs as
    # it is, without running _conjugate: finite outputs are _conjugate's
    # bits, so the refusal must be extract_coords' refusal of its result.
    @given(st.integers(0, 2 ** 32))
    def test_a_refusal_is_extract_coords_refusal_of_the_conjugation(self, seed):
        # Words to angle 40 on coordinates 40 decades apart: about a third
        # of the plans' outputs are finite and refused (a sum that is not
        # real, or a residual outside the span).
        rng = random.Random(seed)
        for _ in range(10):
            word = [(rng.choice(NAMES + REVERSED), rng.uniform(-40, 40))
                    for _ in range(rng.randint(1, 3))]
            v = Vector6(*(rng.choice((-1, 1)) * 10 ** rng.uniform(-20, 20) for _ in COORDS))
            assert outcome(act_on_vector, word, v) == conjugation_outcome(word, v)

    @pytest.mark.parametrize("word, v, message", [
        ([("bt", 23.0)], Vector6(-1e7, 1e12, 1e-3, 1e10, 1e-3, -1e3),
         "inner product is not real: 0.00878906 + 0.000976562 L"),
        ([("ty", 27.0)], Vector6(100.0, 1e-10, -0.01, 1e-8, -1e-9, 1e-7),
         "matrix lies outside the span of the gammas (residual 0.001953125)"),
    ], ids=["not-real", "outside-the-span"])
    def test_a_refused_step_runs_no_conjugation(self, monkeypatch, word, v, message):
        want = conjugation_outcome(word, v)
        assert want == ("error", ValueError, message)

        def gone(word, p):
            raise AssertionError("_conjugate called")

        monkeypatch.setattr(group, "_conjugate", gone)
        assert outcome(act_on_vector, word, v) == want

    def test_outputs_that_are_not_finite_take_the_conjugation(self):
        # At angle 0.0, s = 0.0: the plans add 0.0 * inf = nan where the
        # products skip the zero coefficient, so the reader names nan where
        # the TensorMatrix route names inf.
        word, v = [("xy", 0.0)], Vector6(q=math.inf)
        rows = plans.run(group._plan(word), v.as_tuple())
        assert "coefficient nan" in outcome(_read_rows, rows)[2]
        assert outcome(act_on_vector, word, v) == conjugation_outcome(word, v) == (
            "error", ValueError, "matrix coefficient inf is not finite: the step"
            " overflowed or its input was not finite")


def random_blocks(rng):
    """A 4x4 matrix with random coefficients of mixed magnitude on its
    off-diagonal 2x2 blocks, and those coefficients in _block_rows(False) order."""
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i // 2 != j // 2:
                rows[i][j] = TensorScalar(
                    [rng.uniform(-1, 1) * 10 ** rng.uniform(-8, 8) for _ in range(8)]
                )
    mat = TensorMatrix(rows)
    return mat, [mat.flat()[f] for f in _block_rows(False)]


class TestPlans:
    def test_kernel_steps_keep_the_scalar_order_on_dense_matrices(self):
        # Every term nonzero and the terms of a sum 16 decades apart, so
        # summing in any other order, or a wrong sign, changes bits.
        rng = random.Random(20)
        for name in (NAMES + REVERSED) * 3:
            gen = group._half_angle(name, 0.5)[0]
            c, s = (rng.uniform(-1, 1) * 10 ** rng.uniform(-8, 8) for _ in range(2))
            m, m_inv = exp_pair(gen, c, s)
            p, p_values = random_blocks(rng)
            want = ((m @ p) @ m_inv).flat()
            got = plans._step(compact_plan(gen), c, s, p_values)
            assert [repr(x) for x in got] == [repr(want[f]) for f in _block_rows(False)]

    @pytest.mark.parametrize("name", NAMES + REVERSED)
    def test_rounds_per_output(self, name):
        # c on each diagonal unit and the generator's own terms: two live
        # terms per output for a plane, three for a nilpotent step.
        pairs, left, right = compact_plan(group._half_angle(name, 0.5)[0])
        rounds = 3 if name in TRANSLATION_NAMES else 2
        assert len(pairs) == 4 * rounds
        assert len(left) == len(right) == rounds
        assert {len(col) for side in (left, right) for r in side for col in r} == {64}

    def test_the_23_plans_are_small(self, monkeypatch):
        gens = [group._half_angle(name, 0.5)[0] for name in NAMES]
        monkeypatch.setattr(plans, "_plans", {})
        plans._contributions.cache_clear()
        tracemalloc.start()
        try:
            for gen in gens:
                compact_plan(gen)
            gc.collect()  # empties the tuple free lists, which the build refills
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size <= 250 * 1024

    def test_steps_build_each_plan_once_without_numpy(self):
        script = (
            "import sys\n"
            "from splitconf import group, plans\n"
            "from splitconf.clifford import Vector6\n"
            "for _ in range(2):\n"
            "    for name in group.PLANES + group.TRANSLATION_NAMES:\n"
            "        group.act_on_vector([(name, 0.3)], Vector6(x=0.5, p=1.0))\n"
            "print(len(plans._plans), 'numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(splitconf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "23 False\n"


def rows_matrix(rows):
    """The float P whose off-diagonal coefficients are rows, in
    _block_rows(False) order, and whose diagonal blocks are 0."""
    flat = [0] * 128
    for f, c in zip(_block_rows(False), rows):
        flat[f] = c
    cells = [TensorScalar(flat[i:i + 8]) for i in range(0, 128, 8)]
    return TensorMatrix([cells[i:i + 4] for i in (0, 4, 8, 12)])


def overflowed(values):
    """The message that names the first of values that is not finite, or None."""
    bad = [c for c in values if not math.isfinite(c)]
    if bad:
        return "the trace sums overflowed (%s): the matrix is too large to read" % bad[0]
    return None


def by_definition(p, tol=SPAN_TOL):
    """A float P read by definition, as outcome() gives it: coordinate m
    is the metric-signed inner_product(gamma(m), P), a zero as 0.0, and
    P - build_P(coords) must be within tol at P's scale.  A coefficient
    that is not finite is named first, and a refusal on sums that are
    not finite (a trace or a coordinate) names the first of them."""
    bad = [c for c in p.flat() if not math.isfinite(c)]
    if bad:
        return ("error", ValueError, "matrix coefficient %s is not finite: the step"
                " overflowed or its input was not finite" % bad[0])
    coords = []
    for m in COORDS:
        try:
            value = inner_product(gamma(m), p, tol)
        except ValueError as exc:
            sym = trace_product(gamma(m), p) + trace_product(p, gamma(m))
            return ("error", ValueError, overflowed(sym.coeffs) or str(exc))
        coords.append((value if METRIC[m] > 0 else -value) or 0.0)
    v = Vector6(*coords)
    residual = (p - build_P(v)).max_abs()
    if not within(residual, tol, p.max_abs()):
        return ("error", ValueError, overflowed(coords) or
                "matrix lies outside the span of the gammas (residual %s)" % (residual,))
    return ("ok", bits(v))


def read_three_ways(rows):
    """The outcomes of _read_rows(rows), of extract_coords of their matrix,
    and of act_on_vector when plans.run gives rows and _conjugate that matrix."""
    p = rows_matrix(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plans, "run", lambda steps, coords: list(rows))
        patch.setattr(group, "_conjugate", lambda word, q: p)
        routed = outcome(act_on_vector, [("xy", 0.5)], Vector6(x=1.0))
    return outcome(_read_rows, rows), outcome(extract_coords, p), routed


def kernel_rows(rng):
    """plans.run's outputs on a random word of up to two steps and a
    vector whose coordinates lie between 0.5 and 2 in size."""
    word = [(rng.choice(NAMES), rng.uniform(-1, 1)) for _ in range(rng.randint(0, 2))]
    v = [rng.choice((-1, 1)) * rng.uniform(0.5, 2) for _ in range(6)]
    return plans.run(group._plan(word), v)


SLOT_ROWS = sorted(r for r, _ in _rows()[1])
FREE_ROWS = sorted(set(range(64)) - set(SLOT_ROWS))


class TestReaderMatchesTheDefinition:
    @given(float_words, float_vectors)
    def test_kernel_outputs(self, word, v):
        rows = plans.run(group._plan(word), v.as_tuple())
        if any(rows):  # an all-zero P is exact, and act_on_vector reruns it
            want = by_definition(rows_matrix(rows))
            assert read_three_ways(rows) == (want,) * 3

    @pytest.mark.parametrize("where", ["slot", "free"])
    def test_a_planted_deviation_straddles_the_tolerance(self, where):
        # 1e-10 to 1e-8 of the scale: below SPAN_TOL, between the residual's
        # bound and the larger bound of a trace, and above both.
        rng = random.Random(29)
        seen = set()
        for _ in range(120):
            rows = kernel_rows(rng)
            r = rng.choice(SLOT_ROWS if where == "slot" else FREE_ROWS)
            scale = max(1, max(map(abs, rows)))
            rows[r] += rng.choice((-1, 1)) * scale * 10 ** rng.uniform(-10, -8)
            want = by_definition(rows_matrix(rows))
            assert read_three_ways(rows) == (want,) * 3
            seen.add(want[0] if want[0] == "ok" else want[2].split(":")[0].split(" (")[0])
        assert seen == {"ok", "inner product is not real",
                        "matrix lies outside the span of the gammas"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["slot", "free"])
    def test_an_entry_that_is_not_finite(self, value, where):
        rows = kernel_rows(random.Random(3))
        rows[(SLOT_ROWS if where == "slot" else FREE_ROWS)[5]] = value
        want = by_definition(rows_matrix(rows))
        assert "is not finite" in want[2]
        assert read_three_ways(rows) == (want,) * 3

    @pytest.mark.parametrize("v, word", [
        (Vector6(x=5e307, t=2.5e307), []),  # an inf coordinate
        (Vector6(x=5e307, t=2.5e307), [("xy", 0.25)]),
        (Vector6(x=1e308, t=5e307), []),  # inf - inf in a K component
        (Vector6(x=1.5e308, y=-1.5e308, p=1e308), [("tz", 0.5)]),
    ], ids=repr)
    def test_finite_entries_whose_sums_overflow(self, v, word):
        rows = plans.run(group._plan(word), v.as_tuple())
        want = by_definition(rows_matrix(rows))
        assert want[2].startswith("the trace sums overflowed")
        assert read_three_ways(rows) == (want,) * 3

    def test_opposite_overflows_in_one_coordinate_are_refused(self):
        # The two traces of x overflow to inf and -inf, so x reads as nan
        # while every other check passes: only the residual sees it.
        rows = [0.0] * 64
        for (r, k), c in zip(_rows()[1][:4], (1.7e308, 1.7e308, -1.7e308, -1.7e308)):
            rows[r] = c
        want = by_definition(rows_matrix(rows))
        assert want == ("error", ValueError, overflowed([math.nan]))
        assert read_three_ways(rows) == (want,) * 3
