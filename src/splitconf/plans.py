"""The compact plans of the conjugation steps, and the scalar kernel that runs them.

Every group element M = c I + s G is block diagonal and every P block
off-diagonal, so M P M^-1 touches only the 64 off-diagonal coefficients
of P (``_block_rows(False)``, the order of a plan's outputs) and M's
coefficients in its diagonal blocks.  Of those only c on the unit of
each diagonal entry and G's own terms can be nonzero: 8 for a plane, 12
for a nilpotent step, the generator's live coefficients.

``TensorMatrix.__matmul__`` adds the terms of each output coefficient
through ``algebra.mul_terms`` in ascending k, then ascending index of
the left factor (which fixes the right one, each row of ``_MUL`` being a
permutation).  ``_contributions`` lists, once, for every coefficient of
M (of M^-1 on the right side) the terms it adds to the outputs of M @ P
(of (M P) @ M^-1): output, place in that order, row of the other factor
and whether it is subtracted.  ``compact_plan(G)`` gathers the terms of
G's live coefficients and sorts each output's terms into that order.  Every
output keeps the same number of terms, 2 for a plane and 3 for a
nilpotent step, so a plan runs in rounds, round r adding term r of
every output: each sum rounds as the scalar sum does.  A term whose
coefficient is zero, which the scalar route skips, adds a zero to a sum
that is never -0.0, which changes no bit of a finite result.

A subtracted term's coefficient index is moved up by the number of live
coefficients, onto the negated coefficient, so a kernel adds products
and nothing else.  ``compact_plan`` caches its plan per generator, and
both kernels run it as it is: ``run`` on Python lists, whose 64 outputs
``clifford._read_rows`` reads through the one reader table
(``clifford._rows``), and ``batch`` on numpy arrays, whose extraction
reads the same table.  This module imports no numpy.
"""

import functools
from itertools import repeat

from .algebra import _MUL
from .clifford import _block_rows, _row, _spread_rows

__all__ = ["compact_plan", "run"]


@functools.cache
def _contributions():
    """Per side of M P M^-1, {flat index of a diagonal-block coefficient of M
    (M @ P) or of M^-1 ((M P) @ M^-1): its terms, as the four bytes
    (outputs, places, rows, negatives)}.

    output is the row (clifford._row) of an off-diagonal coefficient of the
    product; place orders the terms of one output as mul_terms adds them,
    ascending k, then the left basis index; row is the other factor's (P's,
    or M P's) row; negative is 1 for a term mul_terms subtracts.  Bytes
    keep the 2,048 terms small.
    """
    inverse = [{t: (b, sign) for b, (t, sign) in enumerate(row)} for row in _MUL]
    left, right = {}, {}
    outputs = [(i, j, t) for i in range(4) for j in range(4) if i // 2 != j // 2
               for t in range(8)]
    for i, j, t in outputs:
        o, place = _row(i, j, t), 0
        for k in range(4):
            for a in range(8):
                b, sign = inverse[a][t]
                if k // 2 == i // 2:  # M[i][k] P[k][j]
                    term = (o, place, _row(k, j, b), sign < 0)
                    left.setdefault(32 * i + 8 * k + a, []).append(term)
                if k // 2 == j // 2:  # (M P)[i][k] M^-1[k][j]
                    term = (o, place, _row(i, k, a), sign < 0)
                    right.setdefault(32 * k + 8 * j + b, []).append(term)
                place += 1
    return tuple(
        {f: tuple(map(bytes, zip(*terms))) for f, terms in side.items()}
        for side in (left, right)
    )


_plans = {}


def compact_plan(gen):
    """(pairs, left, right): the plans of M P M^-1 for M = c I + s G, G = gen,
    cached per generator object (held, so its id stays).

    pairs holds one (unit, g) float pair per live coefficient, in flat
    order: 1.0 on a diagonal unit (c) and 0.0 elsewhere, and gen's
    coefficient (+-s), so the coefficient of M is unit * c + g * s and
    that of M^-1 unit * c + g * -s.  left and right hold the rounds of
    M @ P and (M P) @ M^-1, round r as two 64-byte strings over the
    outputs, for term r: its coefficient of M (of M^-1), an index into
    pairs, moved up by len(pairs) for a subtracted term, and the row of
    the other factor (P, or M P).  A kernel adds coefficient[i] * row[j]
    over the coefficients followed by their negations.
    Raises AssertionError when gen is not block diagonal or its outputs
    keep unequal term counts.
    """
    got = _plans.get(id(gen))
    if got is None:
        got = _plans[id(gen)] = (gen, _build(gen))
    return got[1]


def _build(gen):
    """compact_plan(gen), not cached."""
    flat = gen.flat()
    if any(flat[f] for f in _block_rows(False)):
        raise AssertionError("generator is not block diagonal")
    # 0, 40, 80, 120: the unit coefficient of diagonal entry (i, i).
    live = [f for f in _block_rows(True) if f % 40 == 0 or flat[f]]
    pairs = tuple((float(f % 40 == 0), float(flat[f])) for f in live)
    sides = []
    for table in _contributions():
        # (output, place, row, negative, live index), sorted into mul_terms' order.
        terms = sorted(
            term for n, f in enumerate(live) for term in zip(*table[f], repeat(n))
        )
        outputs, _, rows, negative, coefs = zip(*terms)
        count = len(terms) // 64
        if list(outputs) != sorted(list(range(64)) * count):
            raise AssertionError("outputs keep different numbers of terms")
        coefs = bytes(n + len(pairs) * neg for n, neg in zip(coefs, negative))
        rows = bytes(rows)
        sides.append(tuple((coefs[r::count], rows[r::count]) for r in range(count)))
    return pairs, sides[0], sides[1]


def _rounds(rounds, m, b):
    """The 64 outputs sum of a[i] * b[j], a = m followed by -m, term r of
    each added in round r to a 0.0 accumulator, as TensorMatrix.__matmul__
    adds them."""
    a, acc = m + [-x for x in m], [0.0] * 64
    for ia, ib in rounds:
        acc = [x + a[i] * b[j] for x, i, j in zip(acc, ia, ib)]
    return acc


def _step(plan, c, s, p):
    """The off-diagonal coefficients of M P M^-1 from those of P, p, both
    in _block_rows(False) order, on plan = compact_plan(G): M = c I + s G
    and M^-1 = c I - s G, coefficient by coefficient as exp_pair forms
    them."""
    pairs, left, right = plan
    m = [u * c + g * s for u, g in pairs]
    m_inv = [u * c + g * -s for u, g in pairs]
    return _rounds(right, m_inv, _rounds(left, m, p))


def run(steps, coords):
    """The 64 off-diagonal coefficients of M P M^-1, in _block_rows(False)
    order, for P = sum(coords[m] gamma(m)), M each (G, c, s) of steps in
    turn: bit for bit those of the TensorMatrix conjugation."""
    p = _spread_rows(coords)
    for gen, c, s in steps:
        p = _step(compact_plan(gen), c, s, p)
    return p
