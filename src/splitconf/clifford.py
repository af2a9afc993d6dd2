"""The six-dimensional Clifford construction over the tensor algebra.

Six coordinates (x, y, z, t, p, q) with diagonal metric +1 on
{x, y, z, q} and -1 on {t, p}.  Each coordinate gets a 2x2 generator
matrix (a generalized Pauli matrix) and a 4x4 block off-diagonal
gamma matrix; the gammas anticommute to twice the metric.  A Vector6
embeds as either the 2x2 combination X or the 4x4 combination P, and
coordinates can be recovered from P through the trace inner product.

Both directions read one reader table (``_rows``), built once from the
gammas on the 64 coefficients of P's off-diagonal 2x2 blocks, where
every gamma has its entries (``_block_rows(False)``, the order of the
step plans' outputs): the 24 slots of the nonzero gamma coefficients,
which place each coordinate in P, and, in the order ``trace_product``
adds them, the signed rows whose sums are the components of
trace(gamma P) + trace(P gamma), which keeps float results bit for bit
those of the generic ``inner_product``.  ``_spread_rows`` writes P's
rows from it, and the float reader ``_read_rows`` reads coordinates off
the 64 outputs of ``plans.run``, or off a float P, whose diagonal
blocks enter only its residual; an exact P is read from the same rows
over the integers.  ``batch`` builds its arrays from it too.
"""

import functools
import math
import operator
from fractions import Fraction

from .algebra import (
    _MUL, _max_or_nan, ELL, K, KL, L, ONE, SPAN_TOL, TensorScalar, ZERO, exact_div,
    is_exact, within,
)
from .matrices import TensorMatrix, _refuse_overflow, trace_product
from .report import Report, Value

__all__ = [
    "COORDS",
    "METRIC",
    "Vector6",
    "sigma",
    "gamma",
    "build_X",
    "build_P",
    "inner_product",
    "extract_coords",
    "metric_form",
    "verify_clifford",
]

COORDS = ("x", "y", "z", "t", "p", "q")

METRIC = {"x": 1, "y": 1, "z": 1, "t": -1, "p": -1, "q": 1}

_SIGMA = {
    "z": ((ONE, ZERO), (ZERO, -ONE)),
    "x": ((ZERO, ONE), (ONE, ZERO)),
    "y": ((ZERO, -ELL), (ELL, ZERO)),
    "t": ((L, ZERO), (ZERO, L)),
    "q": ((K, ZERO), (ZERO, K)),
    "p": ((KL, ZERO), (ZERO, KL)),
}

@functools.cache
def sigma(m):
    """The 2x2 generator matrix for coordinate m."""
    if m not in METRIC:
        raise ValueError("unknown coordinate %r, not one of %s" % (m, COORDS))
    return TensorMatrix(_SIGMA[m])


@functools.cache
def gamma(m):
    """The 4x4 generator [[0, sigma(m)], [tilde(sigma(m)), 0]]."""
    s = sigma(m)
    z2 = TensorMatrix.zeros(2)
    return TensorMatrix.from_blocks(z2, s, s.trace_reversed(), z2)


class Vector6(Value):
    """Coordinates of a Clifford vector, in the fixed (x,y,z,t,p,q) order."""

    __slots__ = COORDS

    def __init__(self, x=0, y=0, z=0, t=0, p=0, q=0):
        put = object.__setattr__
        put(self, "x", x), put(self, "y", y), put(self, "z", z)
        put(self, "t", t), put(self, "p", p), put(self, "q", q)

    def as_tuple(self):
        return (self.x, self.y, self.z, self.t, self.p, self.q)

    def component(self, m):
        return getattr(self, m)

    @classmethod
    def basis(cls, m):
        if m not in METRIC:
            raise ValueError("unknown coordinate %r, not one of %s" % (m, COORDS))
        return cls(**{m: 1})

    def scale(self, lam):
        return Vector6(*(lam * c for c in self.as_tuple()))

    def max_abs(self):
        return _max_or_nan(map(abs, self.as_tuple()))

    def is_exact(self):
        return all(is_exact(c) for c in self.as_tuple())


def metric_form(v):
    """The metric square x^2+y^2+z^2-t^2-p^2+q^2 of a Vector6, added left to right.

    Squares by multiplication, so a float form too large to represent
    is inf (or nan from inf - inf) instead of an OverflowError.  A plain
    chain, not sum(), which compensates float rounding from Python 3.12:
    numbers and numpy array columns give the same bits.
    """
    return v.x * v.x + v.y * v.y + v.z * v.z - v.t * v.t - v.p * v.p + v.q * v.q


def build_X(v):
    """The 2x2 combination of generator matrices with coefficients v."""
    acc = TensorMatrix.zeros(2)
    for m in COORDS:
        c = v.component(m)
        if c:
            acc = acc + sigma(m).scale(c)
    return acc


def _spread_rows(coords):
    """The off-diagonal rows (see _rows) of sum(c_m gamma(m)): +-c_m on the
    slots of a nonzero c_m, and 0 everywhere else."""
    signed = [c or 0 for c in coords]
    signed += [-c for c in signed]
    rows = [0] * 64
    for r, k in _rows()[1]:
        rows[r] = signed[k]
    return rows


def build_P(v):
    """The 4x4 combination [[0, X], [tilde(X), 0]], i.e. sum of v_m gamma(m).

    Written straight from the slot table (see _spread_rows); an entry no
    nonzero coordinate touches is ZERO, and P is exact when every
    nonzero coordinate is.  A NullVector is refused with TypeError: pass
    its .v.
    """
    coords = Vector6._expect(v).as_tuple()
    flat = [0] * 128
    for f, c in zip(_block_rows(False), _spread_rows(coords)):
        flat[f] = c
    cells = [flat[f:f + 8] for f in range(0, 128, 8)]
    entries = [TensorScalar(c) if any(c) else ZERO for c in cells]
    return TensorMatrix(
        (entries[i:i + 4] for i in (0, 4, 8, 12)),
        all(is_exact(c) for c in coords if c),
    )


@functools.cache
def _block_rows(diagonal):
    """Flat indices 32*row + 8*col + basis of the diagonal (or off-diagonal) 2x2 blocks."""
    return tuple(
        32 * i + 8 * j + t
        for i in range(4)
        for j in range(4)
        if (i // 2 == j // 2) == diagonal
        for t in range(8)
    )


@functools.cache
def _rows():
    """(terms, slots, gather): the reader table over the 64 off-diagonal
    rows of P, row 16 i + 8 (j % 2) + t holding coefficient t of P[i][j]
    (flat index _block_rows(False)[r]), where every gamma has its entries.

    Every nonzero gamma entry is a single unit +-1 and each row of _MUL
    is a permutation, so trace(gamma(m) P) and trace(P gamma(m)) add,
    into each component, one term +-c per nonzero entry of gamma(m), c a
    coefficient of P.  terms (bytes) lists those rows per
    coordinate, component and trace side, trace(gamma P) first, in the
    order trace_product visits them; a subtracted row r reads r + 64,
    the row of its negation.  slots holds (row, k) per nonzero gamma
    coefficient in flat() order, k the coordinate index, + 6 for a -1.
    gather is itemgetter(*terms).
    """
    terms, slots = [], []
    for k, m in enumerate(COORDS):
        g = gamma(m).rows
        units = [(i, j, a, x) for i in range(4) for j in range(4)
                 for a, x in enumerate(g[i][j].coeffs) if x]
        slots += [(16 * i + 8 * (j % 2) + a, k + 6 * (x < 0)) for i, j, a, x in units]
        # Both traces pair gamma[i][j] with P[j][i]: trace(gamma P) visits
        # gamma by rows, on the left, and trace(P gamma) by columns, on the right.
        sides = [[[] for _ in range(8)] for _ in range(2)]
        for side, visit in enumerate((units, sorted(units, key=lambda u: (u[1], u[0])))):
            for i, j, a, x in visit:
                for b in range(8):
                    t, sign = _MUL[b][a] if side else _MUL[a][b]
                    sides[side][t].append(16 * j + 8 * (i % 2) + b + 64 * (sign * x < 0))
        terms += [r for t in range(8) for side in sides for r in side[t]]
    return bytes(terms), tuple(slots), operator.itemgetter(*terms)


def inner_product(a, b, tol=SPAN_TOL):
    """(1/8) trace(ab + ba), reduced to its real scalar part.

    Raises ValueError when the symmetrized trace is not a real scalar
    (exactly for exact inputs, else within tol relative to its scale),
    which signals inputs outside the span of the gammas.  Exact inputs
    give a Fraction; a float zero is 0.0, never -0.0 or an exact zero.
    """
    sym = trace_product(a, b) + trace_product(b, a)
    exact = a.is_exact() and b.is_exact()
    if not sym.is_real_scalar(0 if exact else tol, sym.max_abs()):
        raise ValueError("inner product is not real: %s" % (sym,))
    s = sym.scalar_part()
    return exact_div(s, 8) if exact else s / 8 or 0.0


def _refuse_sum_overflow(sums):
    """Raise ValueError naming the overflow when a float gather sum (or a
    coordinate read from one) is not finite, though every coefficient is."""
    bad = [c for c in sums if isinstance(c, float) and not math.isfinite(c)]
    if bad:
        raise ValueError(
            "the trace sums overflowed (%s): the matrix is too large to read" % bad[0]
        )


def extract_coords(p, tol=SPAN_TOL):
    """Recover the Vector6 with build_P(result) == p.

    Component m is the metric-signed inner_product(gamma(m), p), read
    through the reader table (see _rows), in the regime of p
    (TensorMatrix.is_exact, cached).  A float p goes through _read_rows,
    the reader of plans.run's outputs, and gives floats, a zero as 0.0,
    from the same sums in the same order as inner_product, so the same
    bits.  An exact p is read over the integers c * d, d the lcm of the
    denominators of its coefficients c, with tol held to 0: the sums are
    d times the symmetric traces, the coordinates Fraction(sum, 8 d), and
    the residual compares 8 c d, on the off-diagonal rows and the
    diagonal blocks' largest value, with the _spread_rows of the signed
    sums, 0 on the diagonal; its errors divide back by d (or 8 d).  A
    symmetric trace that is not a real scalar within tol (relative to
    its scale), or a residual p - build_P(result) above tol (relative to
    the matrix scale), raises ValueError because p lies outside the span
    of the gammas.  A float
    coefficient that is not finite, wherever it sits, or finite ones
    whose trace sums overflow (tested once a check has failed), raise a
    ValueError that names the overflow.  P is never built back.
    """
    flat, exact = p.flat(), p.is_exact()
    if exact:
        d = math.lcm(*(c.denominator for c in flat if c))
        flat = [c.numerator * (d // c.denominator) if c else 0 for c in flat]
    else:
        _refuse_overflow(flat)
    rows = [flat[f] or 0 for f in _block_rows(False)]
    diagonal = max(abs(flat[f]) for f in _block_rows(True))
    if not exact:
        return _read_rows(rows, tol, diagonal)
    sums = []
    for m, sym in zip(COORDS, _symmetric_traces(rows)):
        if any(sym[1:]):
            raise ValueError("inner product is not real: %s"
                             % (TensorScalar([Fraction(c, d) for c in sym]),))
        sums.append(sym[0] if METRIC[m] > 0 else -sym[0])
    got = [8 * diagonal, *(8 * c for c in rows)]
    residual = max(map(abs, map(operator.sub, got, [0, *_spread_rows(sums)])))
    if residual:
        raise ValueError("matrix lies outside the span of the gammas (residual %s)"
                         % (Fraction(residual, 8 * d),))
    return Vector6(*(Fraction(s, 8 * d) for s in sums))


def _symmetric_traces(rows):
    """Per coordinate m, the eight components of trace(gamma(m) P) +
    trace(P gamma(m)) from the off-diagonal rows of P: each trace summed
    apart in trace_product's order, then the two added.

    trace_product skips zero terms; adding them changes no value on
    floats and int zeros (only the sign or type of an all-zero sum, which
    nothing reads), so other exact rows must carry their zeros as int 0.
    """
    it = iter(_rows()[2](rows + [-c for c in rows]))
    sym = [(a + b + c + d) + (e + f + g + h) for a, b, c, d, e, f, g, h in zip(*[it] * 8)]
    return [sym[i:i + 8] for i in range(0, 48, 8)]


def _read_rows(rows, tol=SPAN_TOL, diagonal=0):
    """extract_coords of a float P from its 64 off-diagonal coefficients
    rows, in _block_rows(False) order: the outputs of plans.run.

    diagonal is the largest absolute coefficient of P's diagonal blocks,
    0 for plans.run's outputs; it enters only the residual and its scale.
    A nan coordinate (from sums that overflow both ways) makes the
    residual nan, so it is refused.
    """
    _refuse_overflow(rows)
    sums = []
    for m, sym in zip(COORDS, _symmetric_traces(rows)):
        scale = max(map(abs, sym))
        if not all(within(c, tol, scale) for c in sym[1:]):
            _refuse_sum_overflow(sym)
            raise ValueError("inner product is not real: %s" % (TensorScalar(sym),))
        sums.append(sym[0] if METRIC[m] > 0 else -sym[0])
    coords = [s / 8 or 0.0 for s in sums]
    got = [diagonal, *rows]
    residual = _max_or_nan(map(abs, map(operator.sub, got, [0, *_spread_rows(coords)])))
    if not within(residual, tol, max(map(abs, got))):
        _refuse_sum_overflow(coords)
        raise ValueError(
            "matrix lies outside the span of the gammas (residual %s)" % (residual,))
    return Vector6(*coords)


def verify_clifford(config=None):
    """Check the anticommutators of all 21 unordered gamma pairs exactly."""
    report, _ = Report.for_suite("clifford", config)
    for i, m in enumerate(COORDS):
        for n in COORDS[i:]:
            g = METRIC[m] if m == n else 0
            expected = TensorMatrix.identity(4).scale(2 * g)
            actual = gamma(m) @ gamma(n) + gamma(n) @ gamma(m)
            report.add(
                "anticommutator[%s,%s]" % (m, n),
                actual == expected,
                "2*(%+d)*I" % g,
                "match" if actual == expected else "entry mismatch",
            )
    return report
