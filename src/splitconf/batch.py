"""The order-preserving numpy kernel behind the batched conjugation steps.

Every group element c I + s G is block diagonal and every P block
off-diagonal, so one product plan per side lists, for each output
coefficient, its terms in the order ``TensorMatrix.__matmul__`` adds
them through ``algebra.mul_terms``: ascending k, then the index of the
left factor (which fixes the right one, each row of ``_MUL`` being a
permutation).  A plan runs in rounds, round r adding term r of every
output over (64, n) arrays, so each sum rounds as the scalar sum does.
A zero term the scalar route skips adds a zero to a sum that is never
-0.0, which changes no bit of a finite result.  Every column carries
its own step, so a batch can step many words of one length at once.
``clifford`` packs and reads the batches; ``group.act_on_vectors``
(and ``conformal.step_vectors`` through it) drives the kernel.  Plans
are built on the first batch, not at import.
"""

import math

import numpy as np

from .algebra import _MUL
from .clifford import Vector6, block_rows, build_P_batch, extract_coords_batch

__all__ = [
    "BATCH_SIZE",
    "check_angle",
    "batchable",
    "step_column",
    "elements",
    "run_batches",
]

# Vectors per numpy batch: bounds the memory a batched loop holds.  At
# 128 a batch costs about as much per vector as at 256 and holds half
# the arrays.
BATCH_SIZE = 128

_plan_cache = []
_columns = {}


def check_angle(theta):
    """Reject a float angle that is not finite, naming it."""
    if isinstance(theta, float) and not math.isfinite(theta):
        raise ValueError("angle %s is not finite" % (theta,))


def batchable(v):
    """True when v goes on the batch path: some nonzero coordinates, all floats.

    build_P writes only nonzero coordinates, so every coefficient such a
    P touches is a float and the scalar route ends in the float regime
    too (an all-zero P stays exact).
    """
    nonzero = [c for c in v.as_tuple() if c]
    return bool(nonzero) and all(type(c) is float for c in nonzero)


def _product_plan(left_diagonal):
    """Round arrays (left row, right row, sign) of one block product.

    Block diagonal times block off-diagonal (left_diagonal), or the
    reverse, each factor held as the rows of its blocks.  Output row r
    is coefficient block_rows(False)[r]; its terms are listed in the
    order TensorMatrix.__matmul__ adds them, and every output has the
    same number of terms, one per round.
    """
    diag, off = block_rows(True), block_rows(False)
    lpos = {f: r for r, f in enumerate(diag if left_diagonal else off)}
    rpos = {f: r for r, f in enumerate(off if left_diagonal else diag)}
    # by_product[a][t]: the (b, sign) with BASIS[a] * BASIS[b] = sign BASIS[t]
    by_product = [{t: (b, sign) for b, (t, sign) in enumerate(row)} for row in _MUL]
    plan = {}
    for f in range(128):
        i, j, t = f // 32, f // 8 % 4, f % 8
        plan[f] = [
            (lpos[32 * i + 8 * k + a], rpos[32 * k + 8 * j + b], sign)
            for k in range(4)
            for a, (b, sign) in enumerate(row[t] for row in by_product)
            if 32 * i + 8 * k + a in lpos and 32 * k + 8 * j + b in rpos
        ]
    if any(plan[f] for f in diag) or len({len(plan[f]) for f in off}) != 1:
        raise AssertionError("block product is not block off-diagonal and uniform")
    terms = np.array([plan[f] for f in off]).transpose(2, 1, 0)
    return terms[0], terms[1], terms[2][:, :, None].astype(float)


def _plans():
    """(left plan, right plan, unit column of I), built on the first batch."""
    if not _plan_cache:
        # 0, 40, 80, 120: the unit coefficient of diagonal entry (i, i).
        unit = [[float(f in (0, 40, 80, 120))] for f in block_rows(True)]
        _plan_cache.extend(
            (_product_plan(True), _product_plan(False), np.array(unit))
        )
    return _plan_cache


def _product(plan, a, b):
    """a @ b over the columns of two batches (a single column broadcasts)."""
    ia, ib, sign = plan
    acc = np.zeros((ia.shape[1], max(a.shape[1], b.shape[1])))
    for r in range(len(ia)):
        acc += sign[r] * a[ia[r]] * b[ib[r]]
    return acc


def step_column(gen):
    """The diagonal-block coefficients of gen as a (64, 1) float column.

    Cached per generator object, which the cache holds so its id stays
    its own; raises AssertionError when gen has a coefficient off the
    diagonal blocks.
    """
    got = _columns.get(id(gen))
    if got is None:
        flat = [c for row in gen.rows for e in row for c in e.coeffs]
        diag = block_rows(True)
        if any(flat[f] for f in set(range(128)).difference(diag)):
            raise AssertionError("generator is not block diagonal")
        got = _columns[id(gen)] = (gen, np.array([[float(flat[f])] for f in diag]))
    return got[1]


def elements(steps):
    """The batches (c I + s G, c I - s G), one column per (column of G, c, s).

    Each coefficient is c on the diagonal unit plus G's coefficient
    times +-s, the values matrices.exp_pair forms.
    """
    columns, c, s = zip(*steps)
    columns, c, s = np.hstack(columns), np.array(c), np.array(s)
    unit = _plans()[2]
    return unit * c + columns * s, unit * c + columns * -s


def run_batches(vectors, groups, steps_of, scalar, tol=1e-9):
    """[scalar(i) for each vector], with the vectors indexed in groups in numpy.

    When the groups hold more than one index in all, each group is cut
    into chunks of BATCH_SIZE, conjugated by steps_of(chunk), a list of
    (M, M^-1) batches, and read back by clifford.extract_coords_batch.
    Every other vector, and every column that extraction refuses, is
    scalar(i), which raises with its own message.
    """
    done = {}
    if sum(map(len, groups)) > 1:
        # Overflow and nan are expected here: such columns are refused
        # and recomputed on the scalar route, which reports them.
        with np.errstate(over="ignore", invalid="ignore"):
            done = _conjugated(vectors, groups, steps_of, tol)
    return [done[i] if i in done else scalar(i) for i in range(len(vectors))]


def _conjugated(vectors, groups, steps_of, tol):
    """{index: Vector6} of the batched columns that extraction accepts."""
    left, right, _ = _plans()
    done = {}
    for take in groups:
        for start in range(0, len(take), BATCH_SIZE):
            chunk = take[start:start + BATCH_SIZE]
            p = build_P_batch(np.array([vectors[i].as_tuple() for i in chunk]).T)
            for m, m_inv in steps_of(chunk):
                p = _product(right, _product(left, m, p), m_inv)
            coords, ok = extract_coords_batch(p, tol)
            for i, row, good in zip(chunk, coords.T.tolist(), ok.tolist()):
                if good:
                    done[i] = Vector6(*row)
    return done
