"""The order-preserving numpy kernel behind the batched conjugation steps.

Each generator's compact plan comes from ``plans.compact_plan``, the
one plan source and cache, which the scalar kernel ``plans.run`` reads too;
the kernel runs its byte rounds as they are.  A plan runs in rounds,
round r adding term r of every off-diagonal output over (64, n) arrays,
so each sum rounds as the scalar sum does.  Every column carries its
own word; step k runs on the columns whose word is longer than k, those
that share a generator on its plan together.

``build_P_batch`` and ``extract_coords_batch`` are the float forms of
``clifford.build_P`` and ``extract_coords`` over (64, n) arrays, row r
holding coefficient ``_block_rows(False)[r]`` of the off-diagonal 2x2
blocks, where every gamma has its entries.  They index the scalar
reader's one table (``clifford._rows``) as ``_spread_rows`` and
``_symmetric_traces`` do, into the coordinates or rows followed by
their negations, and the gather sums run in rounds too.

:func:`conjugate` is the whole kernel as one call, arrays in and arrays
out.  Which vectors go on it, in what chunks, and what a refused
column falls back to is decided by ``group.act_on_coords``, which
imports this module on first use; plans and tables are built on the
first batch, not at import.
"""

import functools

import numpy as np

from .algebra import SPAN_TOL, within
from .clifford import COORDS, METRIC, _rows
from .plans import compact_plan

__all__ = [
    "BATCH_SIZE",
    "build_P_batch",
    "extract_coords_batch",
    "conjugate",
]

# Vectors per numpy batch: bounds the memory a batched loop holds.  At
# 128 a batch costs about as much per vector as at 256 and holds half
# the arrays.
BATCH_SIZE = 128

@functools.cache
def _batch_tables():
    """The reader's table (clifford._rows) as index arrays over the off-diagonal rows.

    Returns the (rows, coordinate) arrays of the 24 slots, a coordinate
    index reading [coords; -coords], and the (terms, 96) index array of
    the gather sums, one row per round over both trace sides' 6 x 8
    components, side 0 first, an index reading [p; -p].
    """
    terms, slots, _ = _rows()
    # terms runs over coordinate, component, side and term; a round over
    # side, coordinate and component.
    terms = np.array(list(terms)).reshape(6, 8, 2, 4).transpose(3, 2, 0, 1).reshape(4, 96)
    metric = np.array([[METRIC[m]] for m in COORDS], float)
    return tuple(np.array(slots).T), terms, metric


def build_P_batch(coords):
    """build_P over the columns of a (6, n) float array, as a (64, n) batch.

    Each slot holds c or -c as in build_P; every other coefficient is 0.
    """
    (rows, k), _, _ = _batch_tables()
    p = np.zeros((64, coords.shape[1]))
    p[rows] = np.concatenate((coords, -coords))[k]
    return p


def extract_coords_batch(p, tol=SPAN_TOL):
    """extract_coords over the columns of a (64, n) float batch.

    Returns (coords, ok): a (6, n) float array, a zero as 0.0, and a
    bool array, False for a column that is not finite or that
    extract_coords would refuse (the same realness and residual tests
    at the same tolerances); the coordinates of such a column mean nothing.
    """
    _, terms, metric = _batch_tables()
    n, signed = p.shape[1], np.concatenate((p, -p))
    acc = np.zeros((terms.shape[1], n))
    for idx in terms:
        acc += signed[idx]
    sym = (acc[:48] + acc[48:]).reshape(6, 8, n)
    real = within(sym[:, 1:], tol, np.abs(sym).max(axis=1)[:, None]).all(axis=(0, 1))
    coords = metric * sym[:, 0] / 8 + 0.0
    residual = np.abs(p - build_P_batch(coords)).max(axis=0)
    ok = real & within(residual, tol, np.abs(p).max(axis=0)) & np.isfinite(p).all(axis=0)
    return coords, ok & np.isfinite(coords).all(axis=0)


def _product(rounds, m, b):
    """The 64 outputs of M @ b (or b @ M) over the columns of b: term r of
    each, a[coefficient] * b[row] with a = m followed by -m, added in
    round r, as plans._rounds adds them."""
    a, acc = np.concatenate((m, -m)), np.zeros((64, b.shape[1]))
    for coefs, rows in rounds:
        acc += a[np.frombuffer(coefs, np.uint8)] * b[np.frombuffer(rows, np.uint8)]
    return acc


def conjugate(coords, words):
    """Conjugate each vector of a batch through its own word, step by step.

    coords holds one row of six float coordinates per vector, n rows,
    and words one list of group._half_angle's (G, c, s) per vector: a
    step conjugates by M = c I + s G and M^-1 = c I - s G, as
    matrices.exp_pair forms them.  Step k runs on the columns whose word
    is longer than k, those that share G on its compact_plan together; a
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
                pairs, left, right = compact_plan(gen[0])
                unit, g = np.array(pairs).T[:, :, None]
                c, s = np.array(c), np.array(s)
                mp = _product(left, unit * c + g * s, p[:, cols])
                p[:, cols] = _product(right, unit * c + g * -s, mp)
        coords, ok = extract_coords_batch(p)
    return coords.T, ok
