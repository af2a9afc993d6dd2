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
word, and ``step_vectors`` is ``group.act_on_vectors`` with one such
word per vector.

The printed coefficient tables bundled here (PRINTED_IMAGE_TABLE) are
diffed against exact rational recomputation; mismatches are documented
with the recomputed polynomial, never adopted.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import exact_div, is_exact
from .clifford import COORDS, Vector6, metric_form
from .group import (
    TRANSLATABLE,
    TRANSLATION_NAMES,
    _nilpotent_generator,
    act_on_coords,
    act_on_vector,
    act_on_vectors,
    check_angle,
    so6_step,
)
from .report import Report

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
    "step_vectors",
    "q_or_infinity",
    "mobius_oracle",
    "CLASSIFY_BASIS",
    "classify_generators",
    "PRINTED_IMAGE_TABLE",
    "verify_conformal",
]

# Order of the four point coordinates in tuples and CLI output.
POINT_COORDS = ("t", "x", "y", "z")


@dataclass(frozen=True)
class MinkowskiPoint:
    t: object = 0
    x: object = 0
    y: object = 0
    z: object = 0

    def as_tuple(self):
        return (self.t, self.x, self.y, self.z)

    def component(self, m):
        return getattr(self, m)

    def max_abs(self):
        return max(abs(c) for c in self.as_tuple())

    def approx_eq(self, other, tol):
        return all(
            abs(a - b) <= tol
            for a, b in zip(self.as_tuple(), other.as_tuple())
        )

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

    def __eq__(self, other):
        return isinstance(other, PointAtInfinity)

    def __hash__(self):
        return hash(PointAtInfinity)


AT_INFINITY = PointAtInfinity()


def _pq_negligible(v, tol=1e-12):
    """True when p + q of v is zero: exactly for exact coordinates, else
    within tol relative to max(1, max |coordinate|).

    A float coordinate that is not finite raises ValueError, since no
    chart test holds for it.
    """
    s = v.p + v.q
    if is_exact(s):
        return s == 0
    coords = v.as_tuple()
    if any(isinstance(c, float) and not math.isfinite(c) for c in coords):
        raise ValueError("coordinates %s are not finite" % (coords,))
    return abs(s) <= tol * max(1.0, float(v.max_abs()))


@dataclass(frozen=True)
class NullVector:
    """A six-vector with zero metric square and p + q != 0.

    form tolerance is 1e-9 relative to the squared coordinate scale;
    exact coordinates are checked exactly.  A float form that is not
    finite (from a nan or infinite coordinate, or squares that
    overflow) is rejected by name.
    """

    v: Vector6

    def __post_init__(self):
        v = self.v
        form = metric_form(v)
        if v.is_exact():
            if form != 0:
                raise ValueError("metric square %s != 0" % (form,))
        else:
            if not math.isfinite(form):
                raise ValueError("metric square %r is not finite" % (form,))
            m = float(v.max_abs())
            if abs(form) > 1e-9 * max(1.0, m * m):
                raise ValueError("metric square %r beyond tolerance" % (form,))
        if _pq_negligible(v):
            raise ValueError("p + q = 0: no finite point coordinates")

    def as_point(self):
        return q_from_p(self)


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
    n2 = minkowski_norm2(pt)
    if not (is_exact(n2) or math.isfinite(n2)):
        raise OverflowError(
            "the Minkowski square of the point is not finite (%r)" % (n2,)
        )
    half = Fraction(1, 2) if is_exact(n2) else 0.5
    return NullVector(
        Vector6(
            x=pt.x,
            y=pt.y,
            z=pt.z,
            t=pt.t,
            p=(1 + n2) * half,
            q=(1 - n2) * half,
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
    finite raises ValueError before any work.
    """
    check_angle(theta)
    return act_on_vector([(name, theta)], v)


def step_vectors(names, thetas, vectors):
    """[step_vector(n, t, v) for n, t, v in zip(...)], batched where it can be.

    group.act_on_vectors with one one-step word per vector: its results
    and its errors are step_vector's, in index order.
    """
    return act_on_vectors([[step] for step in zip(names, thetas)], vectors)


def q_or_infinity(v, tol=1e-12):
    """Point coordinates of a six-vector, or AT_INFINITY when p + q vanishes.

    A float coordinate that is not finite raises ValueError.
    """
    if _pq_negligible(v, tol):
        return AT_INFINITY
    return _point(v)


def _direction(m, theta):
    return MinkowskiPoint(**{m: theta})


def mobius_oracle(v, alpha, tol=1e-12):
    """Closed-form conformal translation of the point v along alpha.

    (v + alpha |v|^2) / (1 + 2 <v, alpha> + |alpha|^2 |v|^2), with the
    (+,+,+,-) inner product on (x, y, z, t).  A vanishing denominator
    is the defined degeneracy and returns AT_INFINITY.
    """
    num, denom = _mobius(v, alpha)
    if is_exact(denom):
        if denom == 0:
            return AT_INFINITY
    elif abs(denom) <= tol:
        return AT_INFINITY
    return MinkowskiPoint(*(exact_div(c, denom) for c in num.as_tuple()))


def _mobius(v, alpha):
    """(numerator point, denominator) of mobius_oracle, on numbers or arrays."""
    n2v = minkowski_norm2(v)
    denom = 1 + 2 * minkowski_inner(v, alpha) + minkowski_norm2(alpha) * n2v
    num = (vc + ac * n2v for vc, ac in zip(v.as_tuple(), alpha.as_tuple()))
    return MinkowskiPoint(*num), denom


# The fifteen-generator basis of the action on points.
CLASSIFY_BASIS = (
    "xy",
    "yz",
    "zx",
    "tx",
    "ty",
    "tz",
    "pq",
    "ax",
    "ay",
    "az",
    "at",
    "bx",
    "by",
    "bz",
    "bt",
)

_EXPECTED_CATEGORY = {
    "xy": "rotation",
    "yz": "rotation",
    "zx": "rotation",
    "tx": "boost",
    "ty": "boost",
    "tz": "boost",
    "pq": "dilation",
}
for _m in TRANSLATABLE:
    _EXPECTED_CATEGORY["a" + _m] = "translation[%s]" % _m
    _EXPECTED_CATEGORY["b" + _m] = "conformal-translation[%s]" % _m

_CLASSIFY_POINTS = (
    MinkowskiPoint(0.2, 0.5, -0.3, 0.4),
    MinkowskiPoint(-0.4, 0.1, 0.6, -0.2),
    MinkowskiPoint(0.3, -0.7, 0.2, 0.1),
)


def _observed_category(name, theta, img6s, tol=1e-9):
    """Label a generator by what it does to sample points.

    img6s are the images of _CLASSIFY_POINTS under the step (name, theta).
    """
    import numpy as np
    images = [
        (pt, img6, q_or_infinity(img6)) for pt, img6 in zip(_CLASSIFY_POINTS, img6s)
    ]
    if any(q is AT_INFINITY for _, _, q in images):
        return "unclassified"

    labels = []
    for m in TRANSLATABLE:
        if all(
            q.approx_eq(pt.shifted(m, theta), tol) for pt, _, q in images
        ):
            labels.append("translation[%s]" % m)
        if all(
            q.approx_eq(mobius_oracle(pt, _direction(m, theta)), tol)
            for pt, _, q in images
        ):
            labels.append("conformal-translation[%s]" % m)
    if all(
        q.approx_eq(pt.scaled(math.exp(-theta)), tol) for pt, _, q in images
    ):
        labels.append("dilation")

    if name not in TRANSLATION_NAMES:
        r6 = so6_step(name, theta)
        idx4 = [COORDS.index(m) for m in POINT_COORDS]
        lam = r6[np.ix_(idx4, idx4)]
        fixed_pq = all(
            abs((img6.p + img6.q) - 1.0) <= 1e-12 * max(1.0, float(img6.max_abs()))
            for _, img6, _ in images
        )
        linear = all(
            q.approx_eq(
                MinkowskiPoint(*(lam @ np.array(pt.as_tuple(), dtype=float))),
                tol,
            )
            for pt, _, q in images
        )
        if fixed_pq and linear:
            if np.max(np.abs(lam.T @ lam - np.eye(4))) <= tol:
                labels.append("rotation")
            else:
                labels.append("boost")

    if len(labels) == 1:
        return labels[0]
    if not labels:
        return "unclassified"
    return "ambiguous(%s)" % ",".join(sorted(labels))


def classify_generators(config=None):
    """Partition the fifteen-generator basis by observed action on points."""
    report = Report("classify", dict(config or {}))
    theta, n = 0.3, len(_CLASSIFY_POINTS)
    starts = [embed_point(pt).v for pt in _CLASSIFY_POINTS] * len(CLASSIFY_BASIS)
    names = [name for name in CLASSIFY_BASIS for _ in range(n)]
    imgs = step_vectors(names, [theta] * len(names), starts)
    tally = {}
    for k, name in enumerate(CLASSIFY_BASIS):
        expected = _EXPECTED_CATEGORY[name]
        actual = _observed_category(name, theta, imgs[k * n:(k + 1) * n])
        report.add("classify[%s]" % name, actual == expected, expected, actual)
        family = actual.split("[")[0]
        tally[family] = tally.get(family, 0) + 1
    counts = tuple(
        tally.get(k, 0)
        for k in (
            "rotation",
            "boost",
            "dilation",
            "translation",
            "conformal-translation",
        )
    )
    report.add(
        "classify[counts]",
        counts == (3, 3, 1, 4, 4),
        "(3, 3, 1, 4, 4)",
        str(counts),
        "rotations/boosts/dilations/translations/conformal translations",
    )
    return report


# Printed coefficient tables for the images of the x, p, q basis
# matrices under the x-direction nilpotent conjugations.  Keys are
# (generator, conjugated basis letter); values map a coordinate to the
# (constant, theta, theta^2) coefficients of its printed polynomial.
# Unlisted coordinates are zero.  Diffed against exact recomputation
# by verify_conformal; mismatches are documented, not adopted.
PRINTED_IMAGE_TABLE = {
    ("ax", "x"): {"x": (1, 0, 0), "p": (0, 1, 0), "q": (0, -1, 0)},
    ("ax", "p"): {
        "x": (0, 1, 0),
        "p": (1, 0, Fraction(1, 2)),
        "q": (0, 0, Fraction(-1, 2)),
    },
    ("ax", "q"): {
        "x": (0, 1, 0),
        "p": (0, 0, Fraction(1, 2)),
        "q": (1, 0, 0),
    },
    ("bx", "x"): {
        "x": (1, 0, 0),
        "p": (0, Fraction(1, 2), 0),
        "q": (0, Fraction(1, 2), 0),
    },
    ("bx", "q"): {
        "x": (0, -1, 0),
        "p": (0, 0, Fraction(-1, 2)),
        "q": (1, 0, Fraction(-1, 2)),
    },
    ("bx", "p"): {
        "x": (0, 1, 0),
        "p": (1, Fraction(1, 2), 0),
        "q": (0, 0, Fraction(1, 2)),
    },
}

_TABLE_THETAS = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))


def _fit_quadratic(thetas, values):
    """Exact (c0, c1, c2) through three rational points."""
    t1, t2, t3 = (Fraction(t) for t in thetas)
    v1, v2, v3 = (Fraction(v) for v in values)
    d21 = (v2 - v1) / (t2 - t1)
    d32 = (v3 - v2) / (t3 - t2)
    c2 = (d32 - d21) / (t3 - t1)
    c1 = d21 - c2 * (t1 + t2)
    c0 = v1 - c1 * t1 - c2 * t1 * t1
    return (c0, c1, c2)


def _poly_str(coeffs):
    c0, c1, c2 = coeffs
    return "%s %+s*th %+s*th^2" % (c0, c1, c2)


def _image_table_checks(report):
    for (gen_name, basis_m), printed in sorted(PRINTED_IMAGE_TABLE.items()):
        observed = {m: [] for m in COORDS}
        for theta in _TABLE_THETAS:
            coords = act_on_vector([(gen_name, theta)], Vector6.basis(basis_m))
            for m in COORDS:
                observed[m].append(Fraction(coords.component(m)))
        mismatches = []
        for m in COORDS:
            recomputed = _fit_quadratic(_TABLE_THETAS, observed[m])
            stated = tuple(Fraction(c) for c in printed.get(m, (0, 0, 0)))
            if recomputed != stated:
                mismatches.append(
                    "%s: printed %s, recomputed %s"
                    % (m, _poly_str(stated), _poly_str(recomputed))
                )
        report.add_comparison(
            "image-table[%s,%s]" % (gen_name, basis_m),
            not mismatches,
            "printed coefficient table",
            "match" if not mismatches else "; ".join(mismatches),
            "" if not mismatches else "exact recomputation is ground truth",
        )


def _dev(a, b):
    """The largest coordinate gap between two points of numbers or arrays, or 0.0."""
    import numpy as np
    pairs = zip(a.as_tuple(), b.as_tuple())
    return float(max(np.max(np.abs(x - y), initial=0.0) for x, y in pairs))


def _null_rows(coords, chart=False):
    """NullVector's float tests (with chart, _chart's) on all rows of an (n, 6) array.

    Returns the rows in the finite chart and their mask; with chart, a
    finite row with p + q negligible is at infinity and left out.  The
    first failing row goes through NullVector (or _chart) to raise."""
    import numpy as np
    v = Vector6(*coords.T)
    form, m = metric_form(v), np.abs(coords).max(axis=1)
    null = np.isfinite(form) & (np.abs(form) <= 1e-9 * np.maximum(1.0, m * m))
    negligible = np.abs(v.p + v.q) <= 1e-12 * np.maximum(1.0, m)
    at_infinity = np.isfinite(coords).all(axis=1) & negligible
    bad = ~(null | at_infinity) if chart else ~null | at_infinity
    if bad.any():
        (_chart if chart else NullVector)(Vector6(*coords[bad.argmax()].tolist()))
        raise AssertionError("a row the array tests refuse passed the scalar ones")
    return coords[~at_infinity], ~at_infinity


def _embed_rows(pts):
    """embed_point of every (t, x, y, z) row of an (n, 4) float array, as (n, 6) rows."""
    import numpy as np
    pt = MinkowskiPoint(*pts.T)
    n2 = minkowski_norm2(pt)
    coords = np.column_stack((pt.x, pt.y, pt.z, pt.t, (1 + n2) * 0.5, (1 - n2) * 0.5))
    return _null_rows(coords)[0]


def _image_rows(names, thetas, coords):
    """The image of each row of coords under its step, after NullVector's tests."""
    return _null_rows(act_on_coords([[step] for step in zip(names, thetas)], coords))[0]


def _draws(rng, n, *spans):
    """n > 0 seeded rows: a point (t, x, y, z) drawn from rng.uniform(-0.9, 0.9),
    then rng.uniform(-s, s) per span, read from rng one row at a time."""
    import numpy as np
    return np.array([[rng.uniform(-s, s) for s in (0.9,) * 4 + spans] for _ in range(n)])


def verify_conformal(config=None):
    """Oracle comparisons and structural checks of the conformal actions."""
    import numpy as np
    from .batch import BATCH_SIZE
    config = dict(config or {})
    tol = config.get("tolerance", 1e-12)
    seed = config.get("seed", 42)
    samples = config.get("samples", 1000)
    rng = random.Random(seed)
    report = Report("conformal", config)

    for m in TRANSLATABLE:
        for kind, builder in (
            ("a", translation_generator),
            ("b", conformal_translation_generator),
        ):
            gen = builder(m)
            ok = gen.squares_to_zero() and not gen.is_zero()
            report.add(
                "nilpotent[%s%s]" % (kind, m),
                ok,
                "nonzero with exact zero square",
                "ok" if ok else "square %r" % (gen @ gen,),
            )

    for m in TRANSLATABLE:
        draws = _draws(rng, 25, 0.8)
        starts = _embed_rows(draws[:, :4])
        outs = _image_rows(["a" + m] * 25, draws[:, 4].tolist(), starts)
        want = MinkowskiPoint(*draws[:, :4].T).shifted(m, draws[:, 4])
        report.bound(
            "translation-law[%s]" % m,
            _dev(_point(Vector6(*outs.T)), want),
            tol,
            "point coordinate shifts by theta, 25 seeded samples",
        )

    draws = _draws(rng, 25, 0.7, 0.7)
    starts = _embed_rows(draws[:, :4])
    firsts = _image_rows(["ax"] * 25, draws[:, 4].tolist(), starts)
    two_steps = _image_rows(["ax"] * 25, draws[:, 5].tolist(), firsts)
    one_steps = _image_rows(["ax"] * 25, (draws[:, 4] + draws[:, 5]).tolist(), starts)
    report.bound(
        "additivity[x]",
        _dev(_point(Vector6(*two_steps.T)), _point(Vector6(*one_steps.T))),
        tol,
        "translate(th1) then translate(th2) vs translate(th1+th2)",
    )

    unit_x = MinkowskiPoint(x=1)
    half_x = q_from_p(step_vector("pq", math.log(2), embed_point(unit_x).v))
    draws = _draws(rng, 20, 0.8)
    thetas = draws[:, 4].tolist()
    outs = _image_rows(["pq"] * 20, thetas, _embed_rows(draws[:, :4]))
    factor = np.array([math.exp(-theta) for theta in thetas])
    want = MinkowskiPoint(*draws[:, :4].T).scaled(factor)
    report.bound(
        "dilation-law",
        max(_dev(half_x, MinkowskiPoint(x=0.5)), _dev(_point(Vector6(*outs.T)), want)),
        tol,
        "point scales by exp(-theta); includes the x=1, theta=ln 2 case",
    )

    lorentz_dev = 0.0
    idx4 = [COORDS.index(m) for m in POINT_COORDS]
    lorentz = ("xy", "yz", "zx", "tx", "ty", "tz")
    lams = {plane: so6_step(plane, 0.7)[np.ix_(idx4, idx4)] for plane in lorentz}
    planes = [plane for plane in lorentz for _ in range(2)]
    draws = list(zip(planes, (MinkowskiPoint(*pt) for pt in _draws(rng, 12).tolist())))
    starts = [embed_point(pt) for _, pt in draws]
    imgs = step_vectors(
        [plane for plane, _ in draws], [0.7] * len(draws), [n.v for n in starts]
    )
    for (plane, pt), n, img6 in zip(draws, starts, imgs):
        out = q_or_infinity(img6)
        want = lams[plane] @ np.array(pt.as_tuple(), dtype=float)
        lorentz_dev = max(
            lorentz_dev,
            abs((img6.p + img6.q) - (n.v.p + n.v.q)),
            float(max(abs(a - b) for a, b in zip(out.as_tuple(), want))),
        )
    report.bound(
        "lorentz-on-q",
        lorentz_dev,
        tol,
        "rotations and boosts fix p+q and act linearly on the point",
    )

    mob_dev = null_dev = 0.0
    per_m = max(1, samples // len(TRANSLATABLE))
    for m in TRANSLATABLE:
        done = 0
        while done < per_m:
            # Draw no more candidates than could still be needed: a
            # skipped one is refilled on the next pass, so the seeded
            # stream is read exactly as one sample at a time reads it.
            need, draws = min(per_m - done, BATCH_SIZE), np.empty((0, 5))
            while len(draws) < need:
                more = _draws(rng, need - len(draws), 0.6)
                pt, alpha = MinkowskiPoint(*more[:, :4].T), _direction(m, more[:, 4])
                denom = _mobius(pt, alpha)[1]
                draws = np.concatenate((draws, more[np.abs(denom) >= 0.2]))
            words = [[("b" + m, theta)] for theta in draws[:, 4].tolist()]
            imgs = act_on_coords(words, _embed_rows(draws[:, :4]))
            imgs, inside = _null_rows(imgs, chart=True)
            draws = draws[inside]
            pt, alpha = MinkowskiPoint(*draws[:, :4].T), _direction(m, draws[:, 4])
            num, denom = _mobius(pt, alpha)
            want = MinkowskiPoint(*(exact_div(c, denom) for c in num.as_tuple()))
            mob_dev = max(mob_dev, _dev(_point(Vector6(*imgs.T)), want))
            scale = np.abs(imgs).max(axis=1)
            rel = np.abs(metric_form(Vector6(*imgs.T))) / np.maximum(1.0, scale * scale)
            null_dev = max(null_dev, float(np.max(rel, initial=0.0)))
            done += len(imgs)
    report.bound(
        "conformal-vs-mobius",
        mob_dev,
        1e-9,
        "conjugation route vs closed-form oracle, %d samples per direction"
        % per_m,
    )
    report.bound(
        "null-preserved",
        null_dev,
        1e-9,
        "relative metric square of every conformal image",
    )

    draws = [
        (_draws(rng, 1)[0], rng.choice(TRANSLATABLE), rng.uniform(-0.8, 0.8))
        for _ in range(50)
    ]
    pts = np.array([pt for pt, _, _ in draws])
    starts = _embed_rows(pts)
    moves = _image_rows(
        ["a" + m for _, m, _ in draws], [theta for _, _, theta in draws], starts
    )
    start_v, moved_v = Vector6(*starts.T), Vector6(*moves.T)
    ratio_dev = 0.0
    for v, pt in ((start_v, MinkowskiPoint(*pts.T)), (moved_v, _point(moved_v))):
        gaps = np.abs((v.p - v.q) / (v.p + v.q) - minkowski_norm2(pt))
        ratio_dev = max(ratio_dev, float(np.max(gaps, initial=0.0)))
    rt_dev = _dev(_point(start_v), MinkowskiPoint(*pts.T))
    report.bound(
        "embed-roundtrip", rt_dev, tol, "q_from_p after embed_point returns the point"
    )
    report.bound(
        "ratio-identity",
        ratio_dev,
        tol,
        "(p-q)/(p+q) equals the Minkowski square of the point",
    )

    base = Vector6(x=Fraction(3, 5), z=Fraction(4, 5), p=1, q=0)
    a = q_from_p(NullVector(base)).as_tuple()
    scale_dev = max([0.0] + [
        abs(u - w)
        for lam in (2, Fraction(-1, 2), 3)
        for u, w in zip(a, q_from_p(NullVector(base.scale(lam))).as_tuple())
    ])
    report.add(
        "scale-invariance",
        scale_dev == 0,
        "0",
        repr(scale_dev),
        "q_from_p is unchanged by rescaling the null vector",
    )

    _image_table_checks(report)

    report.extend(classify_generators(config))
    return report
