"""The six-dimensional Clifford construction over the tensor algebra.

Six coordinates (x, y, z, t, p, q) with diagonal metric +1 on
{x, y, z, q} and -1 on {t, p}.  Each coordinate gets a 2x2 generator
matrix (a generalized Pauli matrix) and a 4x4 block off-diagonal
gamma matrix; the gammas anticommute to twice the metric.  A Vector6
embeds as either the 2x2 combination X or the 4x4 combination P, and
coordinates can be recovered from P through the trace inner product.

Both directions read fixed tables built once from the gammas.  P is
written from the 24 nonzero gamma slots (``_slots``).  Coordinates are
read off P through a gather table (``_gather``): each gamma has four
nonzero entries, each a single +-1 unit, so every component of the
symmetric trace trace(gamma P) + trace(P gamma) is a short signed sum
of coefficients of P.  The table lists those coefficients in the order
``trace_product`` adds them, which keeps float results bit for bit
those of the generic ``inner_product``.  Both tables also drive the
batched float forms of ``batch``.
"""

import functools
import math
from dataclasses import dataclass

from .algebra import _MUL, ELL, K, KL, L, ONE, TensorScalar, ZERO, exact_div, is_exact
from .matrices import TensorMatrix, trace_product
from .report import Report

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
        raise KeyError("unknown coordinate %r" % (m,))
    return TensorMatrix(_SIGMA[m])


@functools.cache
def gamma(m):
    """The 4x4 generator [[0, sigma(m)], [tilde(sigma(m)), 0]]."""
    s = sigma(m)
    z2 = TensorMatrix.zeros(2)
    return TensorMatrix.from_blocks(z2, s, s.trace_reversed(), z2)


@dataclass(frozen=True, slots=True)
class Vector6:
    """Coordinates of a Clifford vector, in the fixed (x,y,z,t,p,q) order."""

    x: float = 0
    y: float = 0
    z: float = 0
    t: float = 0
    p: float = 0
    q: float = 0

    def as_tuple(self):
        return (self.x, self.y, self.z, self.t, self.p, self.q)

    def component(self, m):
        return getattr(self, m)

    @classmethod
    def from_mapping(cls, d):
        return cls(**{m: d.get(m, 0) for m in COORDS})

    @classmethod
    def basis(cls, m):
        if m not in METRIC:
            raise KeyError("unknown coordinate %r" % (m,))
        return cls(**{m: 1})

    def scale(self, lam):
        return Vector6(*(lam * c for c in self.as_tuple()))

    def approx_eq(self, other, tol):
        a, b = self.as_tuple(), other.as_tuple()
        return all(abs(a[i] - b[i]) <= tol for i in range(6))

    def max_abs(self):
        return max(abs(c) for c in self.as_tuple())

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
    """The (row, col, basis index, sign) of each nonzero coefficient of gamma(m).

    Every coefficient of a gamma is 0 or +-1, and no two gammas share a
    nonzero (row, col, basis index) slot, so the slots of the six
    coordinates together place each coefficient of P exactly once.
    """
    return tuple(
        (i, j, k, c)
        for i, row in enumerate(gamma(m).rows)
        for j, e in enumerate(row)
        for k, c in enumerate(e.coeffs)
        if c
    )


def _cells(coords):
    """The coefficients of sum(c_m gamma(m)) as a 4x4 grid of 8-lists.

    A slot of coordinate m holds +c_m or -c_m, the value the dense sum
    of scaled gammas gives there; an entry no nonzero coordinate
    touches is None.
    """
    cells = [[None] * 4 for _ in range(4)]
    for m, c in zip(COORDS, coords):
        if c:
            for i, j, k, sign in _slots(m):
                cell = cells[i][j]
                if cell is None:
                    cell = cells[i][j] = [0] * 8
                cell[k] = c if sign > 0 else -c
    return cells


def build_P(v):
    """The 4x4 combination [[0, X], [tilde(X), 0]], i.e. sum of v_m gamma(m).

    Written straight from the slot table of each gamma (see _slots and
    _cells); every coefficient outside the slots is 0.
    """
    return TensorMatrix(
        tuple(
            tuple(ZERO if e is None else TensorScalar(e) for e in r)
            for r in _cells(v.as_tuple())
        )
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


def inner_product(a, b, tol=1e-9):
    """(1/8) trace(ab + ba), reduced to its real scalar part.

    Raises ValueError when the symmetrized trace is not a real scalar
    within tol, which signals inputs outside the span of the gammas.
    """
    sym = trace_product(a, b) + trace_product(b, a)
    exact = a.is_exact() and b.is_exact()
    use_tol = 0 if exact else tol * max(1, sym.max_abs())
    if not sym.is_real_scalar(use_tol):
        raise ValueError("inner product is not real: %s" % (sym,))
    return _eighth(sym.scalar_part(), exact)


def _residual(p, coords):
    """(p - build_P(Vector6(*coords))).max_abs(), without building either matrix."""
    residual = 0
    for row, cells in zip(p.rows, _cells(coords)):
        for a, b in zip(row, cells):
            if b is None:
                if not a.nonzero:
                    continue
                diff = a.coeffs
            elif a.nonzero:
                diff = [x - y for x, y in zip(a.coeffs, b)]
            else:
                diff = [-y for y in b]
            d = max(map(abs, diff))
            if d > residual:
                residual = d
    return residual


def _refuse_overflow(flat, exact):
    """Raise ValueError naming the overflow when a float coefficient is not finite.

    Called only on extract_coords' error paths, so a step that succeeds
    pays no scan.
    """
    if not exact:
        bad = [c for c in flat if isinstance(c, float) and not math.isfinite(c)]
        if bad:
            raise ValueError(
                "matrix coefficient %s is not finite: the step overflowed"
                " or its input was not finite" % bad[0]
            )


def extract_coords(p, tol=1e-9):
    """Recover the Vector6 with build_P(result) == p.

    Component m is the metric-signed inner_product(gamma(m), p), read
    through the gather table (see _gather): the same sums in the same
    order, so the same bits.  Coordinates follow the regime of p
    (TensorMatrix.is_exact, cached): Fractions for an exact p, floats
    otherwise, a zero as 0.0.  The two checks are unchanged: a symmetric
    trace that is not a real scalar within tol (relative to its scale),
    or a residual p - build_P(result) above tol (relative to the matrix
    scale), raises ValueError because p lies outside the span of the
    gammas; exact matrices are held to zero.  When either check fails on
    a float matrix with a coefficient that is not finite, the ValueError
    names that overflow instead.  The residual is read from
    the slot table instead of building P back and subtracting, and the
    matrix scale from the flat coefficient list already read.
    """
    exact = p.is_exact()
    flat = [c for row in p.rows for e in row for c in e.coeffs]
    coords = []
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
        use_tol = 0 if exact else tol * max(1, max(map(abs, sym)))
        if not all(abs(c) <= use_tol for c in sym[1:]):
            _refuse_overflow(flat, exact)
            raise ValueError("inner product is not real: %s" % (TensorScalar(sym),))
        s = sym[0]
        coords.append(_eighth(s if METRIC[m] > 0 else -s, exact))
    residual = _residual(p, coords)
    limit = 0 if exact else tol * max(1, max(map(abs, flat)))
    if residual > limit:
        _refuse_overflow(flat, exact)
        raise ValueError(
            "matrix lies outside the span of the gammas (residual %s)" % (residual,)
        )
    return Vector6(*coords)


def verify_clifford(config=None):
    """Check the anticommutators of all 21 unordered gamma pairs exactly."""
    report = Report("clifford", dict(config or {}))
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
