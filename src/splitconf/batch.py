"""The order-preserving numpy kernel behind the batched conjugation steps.

Every group element M = c I + s G is block diagonal and every P block
off-diagonal.  M's only coefficients that can be nonzero are c on the
unit of each diagonal entry and G's own terms (8 of 64 for a plane, 12
for a nilpotent step).  One term table, built once from ``_MUL``,
lists the 16 terms of each off-diagonal output of each side of M P
M^-1 in the order ``TensorMatrix.__matmul__`` adds them through
``algebra.mul_terms``: ascending k, then the index of the left factor
(which fixes the right one, each row of ``_MUL`` being a permutation).
Each generator's compact plan (``step_plan``, built on first use and
cached per generator) keeps the terms whose M coefficient can be
nonzero.  Every output keeps the same number of terms, 2 for a plane
and 3 for a nilpotent step, and a plan runs in rounds, round r adding
term r of every output over (64, n) arrays, so each sum rounds as the
scalar sum does.  A term the plan drops, or a zero term the scalar route
skips, adds a zero to a sum that is never -0.0, which changes no bit of
a finite result.  Every column carries its own word; step k runs on the
columns whose word is longer than k, those that share a generator on
its plan together.

``build_P_batch`` and ``extract_coords_batch`` are the float forms of
``clifford.build_P`` and ``extract_coords`` over (64, n) arrays, row r
holding coefficient ``block_rows(False)[r]`` of the off-diagonal 2x2
blocks, where every gamma has its entries.  They read the same slot
and gather tables, and the gather sums run in rounds too.

:func:`conjugate` is the whole kernel as one call, arrays in and arrays
out.  Which vectors go on it, in what chunks, and what a refused
column falls back to is decided by ``group.act_on_coords``, which
imports this module on first use; plans and tables are built on the
first batch, not at import.
"""

import functools

import numpy as np

from .algebra import _MUL, SPAN_TOL, within
from .clifford import COORDS, METRIC, _gather, _slots

__all__ = [
    "BATCH_SIZE",
    "block_rows",
    "build_P_batch",
    "extract_coords_batch",
    "step_plan",
    "conjugate",
]

# Vectors per numpy batch: bounds the memory a batched loop holds.  At
# 128 a batch costs about as much per vector as at 256 and holds half
# the arrays.
BATCH_SIZE = 128

_step_plans = {}


@functools.cache
def block_rows(diagonal):
    """Flat indices 32*row + 8*col + basis of the diagonal (or off-diagonal) 2x2 blocks."""
    return tuple(
        32 * i + 8 * j + t
        for i in range(4)
        for j in range(4)
        if (i // 2 == j // 2) == diagonal
        for t in range(8)
    )


@functools.cache
def _batch_tables():
    """The slot and gather tables as index arrays over the off-diagonal rows.

    Built on first use from _slots and _gather, asserting that every
    entry they name lies in the off-diagonal blocks and that all gather
    sums have one length.  Returns ((rows, coordinate, sign) of the 24
    slots, and (index, sign) arrays of shape (terms, 96) and (terms, 96, 1),
    one row per round over both trace sides' 6 x 8 components, side 0 first).
    """
    pos = {f: r for r, f in enumerate(block_rows(False))}

    def row(f):
        if f not in pos:
            raise AssertionError("gamma is not block off-diagonal")
        return pos[f]

    rows, coord, sign = zip(
        *((row(f), c, s) for c, m in enumerate(COORDS) for f, s in _slots(m))
    )
    pack = (np.array(rows), np.array(coord), np.array(sign, float)[:, None])
    sums = [_gather(m)[t][side] for side in (0, 1) for m in COORDS for t in range(8)]
    if len({len(terms) for terms in sums}) != 1:
        raise AssertionError("gather sums differ in length")
    idx = np.array([[row(f) for f, _ in terms] for terms in sums]).T
    sgn = np.array([[s for _, s in terms] for terms in sums], float).T
    metric = np.array([[METRIC[m]] for m in COORDS], float)
    return pack, (idx, sgn[:, :, None]), metric


def build_P_batch(coords):
    """build_P over the columns of a (6, n) float array, as a (64, n) batch.

    Each slot holds c or -c as in build_P; every other coefficient is 0.
    """
    (rows, coord, sign), _, _ = _batch_tables()
    p = np.zeros((64, coords.shape[1]))
    p[rows] = sign * coords[coord]
    return p


def extract_coords_batch(p, tol=SPAN_TOL):
    """extract_coords over the columns of a (64, n) float batch.

    Returns (coords, ok): a (6, n) float array, a zero as 0.0, and a
    bool array, False for a column that is not finite or that
    extract_coords would refuse (the same realness and residual tests
    at the same tolerances); the coordinates of such a column mean nothing.
    """
    _, (idx, sgn), metric = _batch_tables()
    n = p.shape[1]
    acc = np.zeros((idx.shape[1], n))
    for r in range(len(idx)):
        acc += sgn[r] * p[idx[r]]
    sym = (acc[:48] + acc[48:]).reshape(6, 8, n)
    real = within(sym[:, 1:], tol, np.abs(sym).max(axis=1)[:, None]).all(axis=(0, 1))
    coords = metric * sym[:, 0] / 8 + 0.0
    residual = np.abs(p - build_P_batch(coords)).max(axis=0)
    ok = real & within(residual, tol, np.abs(p).max(axis=0)) & np.isfinite(p).all(axis=0)
    return coords, ok & np.isfinite(coords).all(axis=0)


@functools.cache
def _term_table():
    """Per side of M P M^-1, (M coefficient, row, sign) arrays of shape
    (64, 16): the terms of each off-diagonal output in mul_terms' order,
    ascending k, then the left basis index.  The M coefficient is a flat
    index of M (in M @ P) or of M^-1 (in (M P) @ M^-1), row the other
    factor's row.
    """
    rows = {f: r for r, f in enumerate(block_rows(False))}
    inverse = [{t: (b, sign) for b, (t, sign) in enumerate(row)} for row in _MUL]
    left, right = [], []
    for f in block_rows(False):
        i, j, t = f // 32, f // 8 % 4, f % 8
        for k in range(4):
            for a in range(8):
                b, sign = inverse[a][t]
                if k // 2 == i // 2:  # M[i][k] P[k][j]
                    left += (32 * i + 8 * k + a, rows[32 * k + 8 * j + b], sign)
                if k // 2 == j // 2:  # (M P)[i][k] M^-1[k][j]
                    right += (32 * k + 8 * j + b, rows[32 * i + 8 * k + a], sign)
    return tuple(np.array(side).reshape(64, 16, 3).transpose(2, 0, 1) for side in (left, right))


def _compact_plan(gen):
    """(unit, g, left, right): the plans of M P M^-1 for M = c I + s G, G = gen.

    unit and g are (live, 1) columns over the coefficients of M that can
    be nonzero: 1 on a diagonal unit (c), and gen's coefficient (+-s).
    left and right are the (left row, right row, sign) round arrays of
    M @ P and (M P) @ M^-1, the _term_table terms whose M coefficient is
    live, term r of each output in round r.  Raises AssertionError when
    gen is not block diagonal or its outputs keep unequal term counts.
    """
    flat = gen.flat()
    if any(flat[f] for f in block_rows(False)):
        raise AssertionError("generator is not block diagonal")
    # 0, 40, 80, 120: the unit coefficient of diagonal entry (i, i).
    live = [f for f in block_rows(True) if f % 40 == 0 or flat[f]]
    unit = np.array([[float(f % 40 == 0)] for f in live])
    g = np.array([[float(flat[f])] for f in live])
    at = np.full(128, -1)
    at[live] = range(len(live))
    plans = []
    for m, row, sign in _term_table():
        keep = at[m] >= 0
        if len(set(keep.sum(axis=1).tolist())) != 1:
            raise AssertionError("outputs keep different numbers of terms")
        m, row, sign = (x[keep].reshape(64, -1).T for x in (at[m], row, sign))
        plans.append((m, row, sign[:, :, None].astype(float)))
    left, (rm, rrow, rsign) = plans
    return unit, g, left, (rrow, rm, rsign)


def _product(plan, a, b):
    """a @ b over the columns of two batches of one width."""
    ia, ib, sign = plan
    acc = np.zeros((ia.shape[1], a.shape[1]))
    for r in range(len(ia)):
        acc += sign[r] * a[ia[r]] * b[ib[r]]
    return acc


def step_plan(gen):
    """The _compact_plan of gen, cached per generator object (held, so its id stays)."""
    got = _step_plans.get(id(gen))
    if got is None:
        got = _step_plans[id(gen)] = (gen, _compact_plan(gen))
    return got[1]


def conjugate(coords, words):
    """Conjugate each vector of a batch through its own word, step by step.

    coords holds one row of six float coordinates per vector, n rows,
    and words one list of group._half_angle's (G, c, s) per vector: a
    step conjugates by M = c I + s G and M^-1 = c I - s G, as
    matrices.exp_pair forms them.  Step k runs on the columns whose word
    is longer than k, those that share G on its step_plan together; a
    column whose word has ended sits the later steps out.  Returns
    (coords, ok) of extract_coords_batch, coords as n rows again; a row
    whose ok is False means nothing.
    """
    # Overflow and nan are expected here: extraction refuses such columns.
    with np.errstate(over="ignore", invalid="ignore"):
        p = build_P_batch(np.array(coords, dtype=float).T)
        for k in range(max(map(len, words), default=0)):
            groups = {}
            for j, word in enumerate(words):
                if len(word) > k:
                    groups.setdefault(id(word[k][0]), []).append(j)
            for cols in groups.values():
                gen, c, s = zip(*(words[j][k] for j in cols))
                unit, g, left, right = step_plan(gen[0])
                c, s = np.array(c), np.array(s)
                mp = _product(left, unit * c + g * s, p[:, cols])
                p[:, cols] = _product(right, mp, unit * c + g * -s)
        coords, ok = extract_coords_batch(p)
    return coords.T, ok
