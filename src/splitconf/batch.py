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

``build_P_batch`` and ``extract_coords_batch`` are the float forms of
``clifford.build_P`` and ``extract_coords`` over (64, n) arrays, row r
holding coefficient ``block_rows(False)[r]`` of the off-diagonal 2x2
blocks, where every gamma has its entries.  They read the same slot
and gather tables, and the gather sums run in rounds too.

:func:`conjugate` is the whole kernel as one call, arrays in and arrays
out.  Which vectors go on it, in what chunks, and what a refused
column falls back to is decided by ``group.act_on_vectors``, which
imports this module on first use; plans and tables are built on the
first batch, not at import.
"""

import functools

import numpy as np

from .algebra import _MUL
from .clifford import COORDS, METRIC, _gather, _slots

__all__ = [
    "BATCH_SIZE",
    "block_rows",
    "build_P_batch",
    "extract_coords_batch",
    "step_column",
    "conjugate",
]

# Vectors per numpy batch: bounds the memory a batched loop holds.  At
# 128 a batch costs about as much per vector as at 256 and holds half
# the arrays.
BATCH_SIZE = 128

_columns = {}


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
    slots, and per trace side (index, sign) arrays of shape (terms, 48)
    and (terms, 48, 1), one row per round over the 6 x 8 components).
    """
    pos = {f: r for r, f in enumerate(block_rows(False))}

    def row(f):
        if f not in pos:
            raise AssertionError("gamma is not block off-diagonal")
        return pos[f]

    rows, coord, sign = zip(
        *(
            (row(32 * i + 8 * j + k), c, s)
            for c, m in enumerate(COORDS)
            for i, j, k, s in _slots(m)
        )
    )
    pack = (np.array(rows), np.array(coord), np.array(sign, float)[:, None])
    sides = []
    for side in (0, 1):
        sums = [_gather(m)[t][side] for m in COORDS for t in range(8)]
        if len({len(terms) for terms in sums}) != 1:
            raise AssertionError("gather sums differ in length")
        idx = np.array([[row(f) for f, _ in terms] for terms in sums]).T
        sgn = np.array([[s for _, s in terms] for terms in sums], float).T
        sides.append((idx, sgn[:, :, None]))
    metric = np.array([[METRIC[m]] for m in COORDS], float)
    return pack, sides, metric


def build_P_batch(coords):
    """build_P over the columns of a (6, n) float array, as a (64, n) batch.

    Each slot holds c or -c as in build_P; every other coefficient is 0.
    """
    (rows, coord, sign), _, _ = _batch_tables()
    p = np.zeros((64, coords.shape[1]))
    p[rows] = sign * coords[coord]
    return p


def extract_coords_batch(p, tol=1e-9):
    """extract_coords over the columns of a (64, n) float batch.

    Returns (coords, ok): a (6, n) float array, a zero as 0.0, and a
    bool array, False for a column that is not finite or that
    extract_coords would refuse (the same realness and residual tests
    at the same tolerances); the coordinates of such a column mean nothing.
    """
    _, sides, metric = _batch_tables()
    n = p.shape[1]
    traces = []
    for idx, sgn in sides:
        acc = np.zeros((idx.shape[1], n))
        for r in range(len(idx)):
            acc += sgn[r] * p[idx[r]]
        traces.append(acc)
    sym = (traces[0] + traces[1]).reshape(6, 8, n)
    mag = np.abs(sym)
    use_tol = tol * np.maximum(1.0, mag.max(axis=1))
    real = (mag[:, 1:] <= use_tol[:, None]).all(axis=(0, 1))
    coords = metric * sym[:, 0] / 8 + 0.0
    residual = np.abs(p - build_P_batch(coords)).max(axis=0)
    limit = tol * np.maximum(1.0, np.abs(p).max(axis=0))
    ok = real & (residual <= limit) & np.isfinite(p).all(axis=0)
    return coords, ok & np.isfinite(coords).all(axis=0)


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


@functools.cache
def _plans():
    """(left plan, right plan, unit column of I), built on the first batch."""
    # 0, 40, 80, 120: the unit coefficient of diagonal entry (i, i).
    unit = [[float(f in (0, 40, 80, 120))] for f in block_rows(True)]
    return _product_plan(True), _product_plan(False), np.array(unit)


def _product(plan, a, b):
    """a @ b over the columns of two batches of one width."""
    ia, ib, sign = plan
    acc = np.zeros((ia.shape[1], a.shape[1]))
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


def conjugate(coords, steps):
    """Conjugate each vector of a batch through its own word, step by step.

    coords holds one row of six float coordinates per vector, n rows.
    steps holds one (columns, c, s) per step of the words, each three
    sequences of n entries: vector j is conjugated by M = c[j] I +
    s[j] G and M^-1 = c[j] I - s[j] G, where G is the generator whose
    step_column is columns[j]; each coefficient is c on the diagonal
    unit plus G's coefficient times +-s, the values matrices.exp_pair
    forms.  Returns (coords, ok) of extract_coords_batch, with coords
    as n rows again; a row whose ok is False means nothing.
    """
    left, right, unit = _plans()
    # Overflow and nan are expected here: extraction refuses such columns.
    with np.errstate(over="ignore", invalid="ignore"):
        p = build_P_batch(np.array(coords, dtype=float).T)
        for columns, c, s in steps:
            g, c, s = np.hstack(columns), np.array(c), np.array(s)
            m, m_inv = unit * c + g * s, unit * c + g * -s
            p = _product(right, _product(left, m, p), m_inv)
        coords, ok = extract_coords_batch(p)
    return coords.T, ok
