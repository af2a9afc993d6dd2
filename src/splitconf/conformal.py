"""Null vectors, four-point coordinates, and the conformal actions.

A six-vector with zero metric square and p + q != 0 projects to a
four-coordinate point Q = (t, x, y, z)/(p + q).  Nilpotent generators
built from the p and q gamma products act on such vectors as
translations (ax..at) and conformal translations (bx..bt) of Q; the pq
plane acts as a dilation; the six Lorentz planes act on Q exactly as
they act on (t, x, y, z).  A Mobius-style closed form gives an
independent oracle for the conformal translations.

Every step here is a step of ``group``, which resolves all 23 names in
one place: ``step_vector`` is ``group.act_on_vector`` with a one-step
word.  The conformal suite, the classifier of the fifteen-generator
basis and the printed coefficient tables live in ``checks``.
"""

import math

from .algebra import CHART_TOL, SPAN_TOL, exact_div, is_exact, within
from .clifford import Vector6, metric_form
# TRANSLATABLE is read here as conformal.TRANSLATABLE too (perfbench warms
# the translation generators by it).
from .group import TRANSLATABLE, _nilpotent_generator, act_on_vector
from .report import Value

__all__ = [
    "MinkowskiPoint",
    "PointAtInfinity",
    "AT_INFINITY",
    "NullVector",
    "POINT_COORDS",
    "minkowski_norm2",
    "minkowski_inner",
    "q_from_p",
    "embed_point",
    "translation_generator",
    "conformal_translation_generator",
    "apply_conformal_translation",
    "step_vector",
    "q_or_infinity",
    "mobius_oracle",
]

# Order of the four point coordinates in tuples and CLI output.
POINT_COORDS = ("t", "x", "y", "z")


class MinkowskiPoint(Value):
    __slots__ = POINT_COORDS

    def __init__(self, t=0, x=0, y=0, z=0):
        put = object.__setattr__
        put(self, "t", t), put(self, "x", x), put(self, "y", y), put(self, "z", z)

    def as_tuple(self):
        return (self.t, self.x, self.y, self.z)

    def component(self, m):
        return getattr(self, m)

    def approx_eq(self, other, tol):
        return all(within(a - b, tol) for a, b in zip(self.as_tuple(), other.as_tuple()))

    def shifted(self, m, amount):
        parts = {k: getattr(self, k) for k in POINT_COORDS}
        parts[m] = parts[m] + amount
        return MinkowskiPoint(**parts)

    def scaled(self, factor):
        return MinkowskiPoint(*(factor * c for c in self.as_tuple()))


class PointAtInfinity:
    """Tagged result of a conformal action that leaves the p+q != 0 chart."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "at-infinity"


AT_INFINITY = PointAtInfinity()


def _pq_negligible(v):
    """True when p + q of v is zero: exactly for an exact v (Vector6.is_exact),
    else within CHART_TOL relative to the largest |coordinate|.

    A float coordinate that is not finite raises ValueError, since no
    chart test holds for it.
    """
    coords = v.as_tuple()
    if any(isinstance(c, float) and not math.isfinite(c) for c in coords):
        raise ValueError("coordinates %s are not finite" % (coords,))
    return within(v.p + v.q, 0 if v.is_exact() else CHART_TOL, v.max_abs())


class NullVector(Value):
    """A six-vector with zero metric square and p + q != 0.

    The form is held to SPAN_TOL relative to the squared coordinate
    scale; exact coordinates are checked exactly.  A float form that is not
    finite (from a nan or infinite coordinate, or squares that
    overflow) is rejected by name.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        form = metric_form(Vector6._expect(v))
        if v.is_exact():
            if form != 0:
                raise ValueError("metric square %s != 0" % (form,))
        else:
            if not math.isfinite(form):
                raise ValueError("metric square %r is not finite" % (form,))
            m = float(v.max_abs())
            if not within(form, SPAN_TOL, m * m):
                raise ValueError("metric square %r beyond tolerance" % (form,))
        if _pq_negligible(v):
            raise ValueError("p + q = 0: no finite point coordinates")
        object.__setattr__(self, "v", v)


def minkowski_norm2(pt):
    """x^2 + y^2 + z^2 - t^2."""
    return pt.x * pt.x + pt.y * pt.y + pt.z * pt.z - pt.t * pt.t


def minkowski_inner(a, b):
    return a.x * b.x + a.y * b.y + a.z * b.z - a.t * b.t


def q_from_p(n):
    """The point (t, x, y, z)/(p + q) of a null vector.

    Accepts a NullVector or a raw Vector6 (validated on the way in).
    Scaling the vector by any nonzero factor leaves the result fixed.
    """
    if not isinstance(n, NullVector):
        n = NullVector(n)
    return _point(n.v)


def _point(v):
    """(t, x, y, z)/(p + q) of a six-vector whose coordinates are numbers or arrays."""
    s = v.p + v.q
    return MinkowskiPoint(*(exact_div(v.component(m), s) for m in POINT_COORDS))


def embed_point(pt):
    """The canonical null vector over a point, on the section p + q = 1.

    p = (1 + |Q|^2)/2 and q = (1 - |Q|^2)/2, with |Q|^2 the Minkowski
    square of the point; exact inputs embed exactly.  A float square
    that is not finite raises OverflowError: the section would have
    infinite p and q.
    """
    n2 = minkowski_norm2(MinkowskiPoint._expect(pt))
    if not (is_exact(n2) or math.isfinite(n2)):
        raise OverflowError(
            "the Minkowski square of the point is not finite (%r)" % (n2,)
        )
    return NullVector(
        Vector6(
            x=pt.x,
            y=pt.y,
            z=pt.z,
            t=pt.t,
            p=exact_div(1 + n2, 2),
            q=exact_div(1 - n2, 2),
        )
    )


def translation_generator(m):
    """Gamma_p Gamma_m - Gamma_q Gamma_m; squares to zero exactly."""
    return _nilpotent_generator("a", m)


def conformal_translation_generator(m):
    """Gamma_p Gamma_m + Gamma_q Gamma_m; squares to zero exactly."""
    return _nilpotent_generator("b", m)


def apply_conformal_translation(m, theta, n):
    """Conformally translate along m; may land at infinity.

    The step "b" + m (see step_vector).  When the image has p + q = 0
    the finite chart is left and AT_INFINITY is returned instead of a
    NullVector.
    """
    if not isinstance(n, NullVector):
        n = NullVector(n)
    return _chart(step_vector("b" + m, theta, n.v))


def _chart(v):
    """A conformal image as apply_conformal_translation reads it:
    AT_INFINITY when p + q vanishes, else a NullVector.  p + q is tested
    again only for an image NullVector refuses."""
    try:
        return NullVector(v)
    except ValueError:
        if _pq_negligible(v):
            return AT_INFINITY
        raise


def step_vector(name, theta, v):
    """One named step on a raw six-vector: a plane, or ax..at / bx..bt.

    Always returns a six-vector; interpreting it as a point is the
    caller's concern (see q_or_infinity).  A float angle that is not
    finite raises ValueError naming it.
    """
    return act_on_vector([(name, theta)], v)


def q_or_infinity(v):
    """Point coordinates of a six-vector, or AT_INFINITY when p + q vanishes.

    A float coordinate that is not finite raises ValueError.
    """
    if _pq_negligible(Vector6._expect(v)):
        return AT_INFINITY
    return _point(v)


def mobius_oracle(v, alpha):
    """Closed-form conformal translation of the point v along alpha.

    (v + alpha |v|^2) / (1 + 2 <v, alpha> + |alpha|^2 |v|^2), with the
    (+,+,+,-) inner product on (x, y, z, t).  A vanishing denominator
    (exactly 0, or a float within CHART_TOL of 0) is the defined
    degeneracy and returns AT_INFINITY.
    """
    num, denom = _mobius(MinkowskiPoint._expect(v), MinkowskiPoint._expect(alpha))
    if within(denom, 0 if is_exact(denom) else CHART_TOL):
        return AT_INFINITY
    return MinkowskiPoint(*(exact_div(c, denom) for c in num.as_tuple()))


def _mobius(v, alpha):
    """(numerator point, denominator) of mobius_oracle, on numbers or arrays."""
    n2v = minkowski_norm2(v)
    denom = 1 + 2 * minkowski_inner(v, alpha) + minkowski_norm2(alpha) * n2v
    num = (vc + ac * n2v for vc, ac in zip(v.as_tuple(), alpha.as_tuple()))
    return MinkowskiPoint(*num), denom
