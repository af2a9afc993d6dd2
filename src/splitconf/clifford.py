"""The six-dimensional Clifford construction over the tensor algebra.

Six coordinates (x, y, z, t, p, q) with diagonal metric +1 on
{x, y, z, q} and -1 on {t, p}.  Each coordinate gets a 2x2 generator
matrix (a generalized Pauli matrix) and a 4x4 block off-diagonal
gamma matrix; the gammas anticommute to twice the metric.  A Vector6
embeds as either the 2x2 combination X or the 4x4 combination P, and
coordinates can be recovered from P through the trace inner product.

Both directions read fixed tables built once from the gammas.  Where
a coordinate sits in P is decided once, by the slot table (``_slots``:
the 24 nonzero gamma coefficients, as flat indices of
``TensorMatrix.flat``).  ``_spread`` writes the flat coefficients of
sum(c_m gamma(m)) from it for ``build_P`` and both residual tests, and
the batched forms of ``batch`` read its indices.  Coordinates are
read off P through a gather table (``_gather``): each gamma has four
nonzero entries, each a single +-1 unit, so every component of the
symmetric trace trace(gamma P) + trace(P gamma) is a short signed sum
of coefficients of P.  The table lists those coefficients in the order
``trace_product`` adds them, which keeps float results bit for bit
those of the generic ``inner_product``.  One loop over that table,
``_read``, reads both regimes from flat coefficients: an exact P goes
through it as integers, its coefficients scaled to one common
denominator and its checks held to 0.  ``plans.run`` feeds it too.
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


@functools.cache
def _slots(m):
    """The (flat index, sign) of each nonzero coefficient of gamma(m), in flat() order.

    Every coefficient of a gamma is 0 or +-1, and no two gammas share a
    nonzero slot, so the slots of the six coordinates together place
    each coefficient of P exactly once.
    """
    return tuple((f, c) for f, c in enumerate(gamma(m).flat()) if c)


def _spread(coords):
    """The 128 flat coefficients of sum(c_m gamma(m)): +-c_m on the slots of
    a nonzero c_m, and 0 everywhere else."""
    flat = [0] * 128
    for m, c in zip(COORDS, coords):
        if c:
            for f, sign in _slots(m):
                flat[f] = c if sign > 0 else -c
    return flat


def build_P(v):
    """The 4x4 combination [[0, X], [tilde(X), 0]], i.e. sum of v_m gamma(m).

    Written straight from the slot table (see _spread); an entry no
    nonzero coordinate touches is ZERO, and P is exact when every
    nonzero coordinate is.  A NullVector is refused with TypeError: pass
    its .v.
    """
    coords = Vector6._expect(v).as_tuple()
    flat = _spread(coords)
    cells = [flat[f:f + 8] for f in range(0, 128, 8)]
    entries = [TensorScalar(c) if any(c) else ZERO for c in cells]
    return TensorMatrix(
        (entries[i:i + 4] for i in (0, 4, 8, 12)),
        all(is_exact(c) for c in coords if c),
    )


@functools.cache
def _gather(m):
    """Per component t, the terms of trace(gamma(m) P) and trace(P gamma(m)).

    Eight pairs (left, right), one per BASIS index t.  Each term is
    (flat index 32*row + 8*col + basis of a coefficient c of P, sign),
    and the component is the signed sum of those c.  Every gamma
    coefficient is 0 or +-1, so the product trace_product forms for a
    term is +-c exactly.  The terms are listed in the order
    trace_product visits them, and the two traces are summed apart and
    then added, as inner_product does, so float sums round the same way.
    """
    g = gamma(m).rows
    left = [[] for _ in range(8)]
    right = [[] for _ in range(8)]
    for i in range(4):
        for k in range(4):
            # trace(gamma P): gamma[i][k] times P[k][i]
            for a, x in enumerate(g[i][k].coeffs):
                if x:
                    for b in range(8):
                        t, sgn = _MUL[a][b]
                        left[t].append((32 * k + 8 * i + b, sgn * x))
    for i in range(4):
        for k in range(4):
            # trace(P gamma): P[i][k] times gamma[k][i]
            for a in range(8):
                for b, y in enumerate(g[k][i].coeffs):
                    if y:
                        t, sgn = _MUL[a][b]
                        right[t].append((32 * i + 8 * k + a, sgn * y))
    return tuple(zip(map(tuple, left), map(tuple, right)))


def _eighth(value, exact):
    """value / 8 in the numeric regime of the matrices it was read from.

    Exact gives a Fraction.  Float gives a float, and a zero is 0.0
    (never -0.0 or an exact zero left over from an empty sum).
    """
    return exact_div(value, 8) if exact else value / 8 or 0.0


def inner_product(a, b, tol=SPAN_TOL):
    """(1/8) trace(ab + ba), reduced to its real scalar part.

    Raises ValueError when the symmetrized trace is not a real scalar
    (exactly for exact inputs, else within tol relative to its scale),
    which signals inputs outside the span of the gammas.
    """
    sym = trace_product(a, b) + trace_product(b, a)
    exact = a.is_exact() and b.is_exact()
    if not sym.is_real_scalar(0 if exact else tol, sym.max_abs()):
        raise ValueError("inner product is not real: %s" % (sym,))
    return _eighth(sym.scalar_part(), exact)


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
    through the gather table (see _gather).  Coordinates follow the
    regime of p (TensorMatrix.is_exact, cached), and one loop reads both.
    A float p is read as it stands and gives floats, a zero as 0.0, from
    the same sums in the same order as inner_product, so the same bits.
    An exact p is read over the integers c * d, d the lcm of the
    denominators of its coefficients c, with tol held to 0: the sums are
    d times the symmetric traces, the coordinates Fraction(sum, 8 d), and
    the residual compares 8 c d with the _spread of the signed sums.  Its
    errors divide back by d (or 8 d), so they read as the inner products
    and the matrix difference would.  A symmetric trace that is not a real scalar within tol (relative to
    its scale), or a residual p - build_P(result) above tol (relative
    to the matrix scale), raises ValueError because p lies outside the
    span of the gammas.  A float matrix with a coefficient that is not
    finite raises a ValueError naming that overflow, wherever the
    coefficient sits, and so does a finite one whose gather sums
    overflow (tested only once a check has failed).  The residual is
    the largest gap between the flat coefficients of p and _spread of
    the coordinates, so P is never built back.
    """
    return _read(p.flat(), p.is_exact(), tol)


def _read(flat, exact, tol=SPAN_TOL):
    """extract_coords of the 4x4 matrix of flat coefficients flat, exact or not."""
    if exact:
        d = math.lcm(*(c.denominator for c in flat if c))
        flat = [c.numerator * (d // c.denominator) if c else 0 for c in flat]
        tol = 0
    else:
        _refuse_overflow(flat)
    sums = []
    for m in COORDS:
        sym = []
        for left, right in _gather(m):
            a = 0
            for idx, sign in left:
                c = flat[idx]
                if c:
                    a = a + c if sign > 0 else a - c
            b = 0
            for idx, sign in right:
                c = flat[idx]
                if c:
                    b = b + c if sign > 0 else b - c
            sym.append(a + b)
        scale = max(map(abs, sym))
        if not all(within(c, tol, scale) for c in sym[1:]):
            _refuse_sum_overflow(sym)
            if exact:
                sym = [Fraction(c, d) for c in sym]
            raise ValueError("inner product is not real: %s" % (TensorScalar(sym),))
        s = sym[0]
        sums.append(s if METRIC[m] > 0 else -s)
    if exact:
        coords = [Fraction(s, 8 * d) for s in sums]
        got, want = [8 * c for c in flat], _spread(sums)
    else:
        coords = [_eighth(s, False) for s in sums]
        got, want = flat, _spread(coords)
    residual = max(map(abs, map(operator.sub, got, want)))
    if not within(residual, tol, max(map(abs, got))):
        _refuse_sum_overflow(coords)
        raise ValueError(
            "matrix lies outside the span of the gammas (residual %s)"
            % (Fraction(residual, 8 * d) if exact else residual,)
        )
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
