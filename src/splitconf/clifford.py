"""The six-dimensional Clifford construction over the tensor algebra.

Six coordinates (x, y, z, t, p, q) with diagonal metric +1 on
{x, y, z, q} and -1 on {t, p}.  Each coordinate gets a 2x2 generator
matrix (a generalized Pauli matrix) and a 4x4 block off-diagonal
gamma matrix; the gammas anticommute to twice the metric.  A Vector6
embeds as either the 2x2 combination X or the 4x4 combination P, and
coordinates can be recovered from P through the trace inner product.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ELL, K, KL, L, ONE, TensorScalar, ZERO, is_exact
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

_sigma_cache = {}
_gamma_cache = {}
_slot_cache = {}


def sigma(m):
    """The 2x2 generator matrix for coordinate m."""
    mat = _sigma_cache.get(m)
    if mat is None:
        if m not in METRIC:
            raise KeyError("unknown coordinate %r" % (m,))
        mat = TensorMatrix(_SIGMA[m])
        _sigma_cache[m] = mat
    return mat


def gamma(m):
    """The 4x4 generator [[0, sigma(m)], [tilde(sigma(m)), 0]]."""
    mat = _gamma_cache.get(m)
    if mat is None:
        s = sigma(m)
        z2 = TensorMatrix.zeros(2)
        mat = TensorMatrix.from_blocks(z2, s, s.trace_reversed(), z2)
        _gamma_cache[m] = mat
    return mat


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
    """The metric square x^2+y^2+z^2+q^2-t^2-p^2 of a Vector6."""
    return sum(METRIC[m] * v.component(m) ** 2 for m in COORDS)


def build_X(v):
    """The 2x2 combination of generator matrices with coefficients v."""
    acc = TensorMatrix.zeros(2)
    for m in COORDS:
        c = v.component(m)
        if c:
            acc = acc + sigma(m).scale(c)
    return acc


def _slots(m):
    """The (row, col, basis index, sign) of each nonzero coefficient of gamma(m).

    Every coefficient of a gamma is 0 or +-1, and no two gammas share a
    nonzero (row, col, basis index) slot, so the slots of the six
    coordinates together place each coefficient of P exactly once.
    """
    slots = _slot_cache.get(m)
    if slots is None:
        slots = tuple(
            (i, j, k, c)
            for i, row in enumerate(gamma(m).rows)
            for j, e in enumerate(row)
            for k, c in enumerate(e.coeffs)
            if c
        )
        _slot_cache[m] = slots
    return slots


def build_P(v):
    """The 4x4 combination [[0, X], [tilde(X), 0]], i.e. sum of v_m gamma(m).

    Written straight from the slot table of each gamma (see _slots):
    the coefficient in a slot of coordinate m is +v_m or -v_m, the
    value the dense sum of scaled gammas gives there, and every other
    coefficient is 0.
    """
    cells = [[None] * 4 for _ in range(4)]
    for m, c in zip(COORDS, v.as_tuple()):
        if c:
            for i, j, k, sign in _slots(m):
                cell = cells[i][j]
                if cell is None:
                    cell = cells[i][j] = [0] * 8
                cell[k] = c if sign > 0 else -c
    return TensorMatrix(
        tuple(tuple(ZERO if e is None else TensorScalar(e) for e in r) for r in cells)
    )


def _eighth(value):
    if is_exact(value):
        return Fraction(value, 8) if isinstance(value, int) else value * Fraction(1, 8)
    return value / 8


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
    return _eighth(sym.scalar_part())


def extract_coords(p, tol=1e-9):
    """Recover the Vector6 with build_P(result) == p.

    Components come from the metric-weighted inner products with the
    six gammas; the reconstruction residual is then checked, and a
    residual above tol (relative to the matrix scale) raises
    ValueError because p lies outside the span of the gammas.  Exact
    matrices are held to a zero residual; whether p is exact is read
    from its cached regime flag (TensorMatrix.is_exact), which the six
    inner products and the residual check share.
    """
    comps = {}
    for m in COORDS:
        val = inner_product(gamma(m), p, tol=tol)
        g = METRIC[m]
        comps[m] = val if g == 1 else -val
    v = Vector6.from_mapping(comps)
    residual = (p - build_P(v)).max_abs()
    limit = 0 if p.is_exact() else tol * max(1, p.max_abs())
    if residual > limit:
        raise ValueError(
            "matrix lies outside the span of the gammas (residual %s)" % (residual,)
        )
    return v


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
