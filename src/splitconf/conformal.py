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
word, and the sampled checks step their rows through
``group.act_on_coords``, one one-step word per row.

The printed coefficient tables bundled here (PRINTED_IMAGE_TABLE) are
diffed against the exact polynomials read off the integer adjoint of
each generator; mismatches are documented with the recomputed
polynomial, never adopted.
"""

import math
import random
from fractions import Fraction

from .algebra import CHART_TOL, SPAN_TOL, exact_div, is_exact, within
from .clifford import COORDS, Vector6, metric_form
from .group import (
    LORENTZ_PLANES,
    TRANSLATABLE,
    TRANSLATION_NAMES,
    _adjoint,
    _nilpotent_generator,
    act_on_coords,
    act_on_vector,
    so6_step,
)
from .report import Report, Value

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
    "CLASSIFY_BASIS",
    "classify_generators",
    "PRINTED_IMAGE_TABLE",
    "verify_conformal",
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


def _direction(m, theta):
    return MinkowskiPoint(**{m: theta})


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


# The fifteen-generator basis of the action on points.
CLASSIFY_BASIS = LORENTZ_PLANES + ("pq",) + TRANSLATION_NAMES

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


def _observed_category(name, theta, img6s, laws):
    """Label a generator by what it does to sample points.

    img6s are the images of _CLASSIFY_POINTS under the step (name, theta);
    a (label, images) law holds when it matches every image to SPAN_TOL.
    """
    import numpy as np
    images = [
        (pt, img6, q_or_infinity(img6)) for pt, img6 in zip(_CLASSIFY_POINTS, img6s)
    ]
    if any(q is AT_INFINITY for _, _, q in images):
        return "unclassified"

    labels = [
        label for label, law in laws.items()
        if all(q.approx_eq(w, SPAN_TOL) for (_, _, q), w in zip(images, law))
    ]

    if name not in TRANSLATION_NAMES:
        r6 = so6_step(name, theta)
        idx4 = [COORDS.index(m) for m in POINT_COORDS]
        lam = r6[np.ix_(idx4, idx4)]
        fixed_pq = all(
            within(img6.p + img6.q - 1.0, CHART_TOL, img6.max_abs())
            for _, img6, _ in images
        )
        linear = all(
            q.approx_eq(
                MinkowskiPoint(*(lam @ np.array(pt.as_tuple(), dtype=float))),
                SPAN_TOL,
            )
            for pt, _, q in images
        )
        if fixed_pq and linear:
            if within(lam.T @ lam - np.eye(4), SPAN_TOL).all():
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
    report, _ = Report.for_suite("classify", config)
    theta, n = 0.3, len(_CLASSIFY_POINTS)
    starts = [embed_point(pt).v.as_tuple() for pt in _CLASSIFY_POINTS]
    words = [[(name, theta)] for name in CLASSIFY_BASIS for _ in range(n)]
    rows = act_on_coords(words, starts * len(CLASSIFY_BASIS)).tolist()
    imgs = [Vector6(*row) for row in rows]
    laws = {"dilation": [pt.scaled(math.exp(-theta)) for pt in _CLASSIFY_POINTS]}
    for m in TRANSLATABLE:
        laws["translation[%s]" % m] = [pt.shifted(m, theta) for pt in _CLASSIFY_POINTS]
        laws["conformal-translation[%s]" % m] = [
            mobius_oracle(pt, _direction(m, theta)) for pt in _CLASSIFY_POINTS
        ]
    tally = {}
    for k, name in enumerate(CLASSIFY_BASIS):
        expected = _EXPECTED_CATEGORY[name]
        actual = _observed_category(name, theta, imgs[k * n:(k + 1) * n], laws)
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

def _poly_str(coeffs):
    c0, c1, c2 = coeffs
    return "%s %+s*th %+s*th^2" % (c0, c1, c2)


def _image_table_checks(report):
    """Each printed polynomial against (I + theta A + theta^2 A^2 / 2) e_m, A the
    _adjoint: (I + tG) P (I - tG) = P + t[G, P] - t^2 G P G when G @ G = 0."""
    for (gen_name, basis_m), printed in sorted(PRINTED_IMAGE_TABLE.items()):
        adj, n = _adjoint(gen_name), COORDS.index(basis_m)
        mismatches = []
        for i, m in enumerate(COORDS):
            sq = sum(adj[i][k] * adj[k][n] for k in range(6))
            recomputed = (Fraction(int(i == n)), Fraction(adj[i][n]), Fraction(sq, 2))
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


def _null_rows(coords):
    """coords, an (n, 6) array, once all its rows pass NullVector's float tests.

    The first failing row goes through NullVector to raise.  A row
    whose form is not finite fails the null test, so the chart test
    needs no finiteness scan of its own."""
    import numpy as np
    v = Vector6(*coords.T)
    form, m = metric_form(v), np.abs(coords).max(axis=1)
    null = np.isfinite(form) & within(form, SPAN_TOL, m * m)
    bad = ~null | within(v.p + v.q, CHART_TOL, m)
    if bad.any():
        NullVector(Vector6(*coords[bad.argmax()].tolist()))
        raise AssertionError("a row the array tests refuse passed the scalar ones")
    return coords


def _embed_rows(pts):
    """embed_point of every (t, x, y, z) row of an (n, 4) float array, as (n, 6) rows."""
    import numpy as np
    pt = MinkowskiPoint(*pts.T)
    n2 = minkowski_norm2(pt)
    coords = np.column_stack((pt.x, pt.y, pt.z, pt.t, (1 + n2) * 0.5, (1 - n2) * 0.5))
    return _null_rows(coords)


def _image_rows(names, thetas, coords):
    """The image of each row of coords under its step, after NullVector's tests."""
    return _null_rows(act_on_coords([[step] for step in zip(names, thetas)], coords))


def _draws(rng, n, *spans):
    """n > 0 seeded rows: a point (t, x, y, z) drawn from rng.uniform(-0.9, 0.9),
    then rng.uniform(-s, s) per span, read from rng in row order.  uniform(a, b)
    is a + (b - a) * random(), so one list of random() gives the same bits."""
    import numpy as np
    s = np.array((0.9,) * 4 + spans)
    r = np.array([rng.random() for _ in range(n * len(s))]).reshape(n, len(s))
    return -s + (s - -s) * r


def verify_conformal(config=None):
    """Oracle comparisons and structural checks of the conformal actions."""
    import numpy as np
    from .batch import BATCH_SIZE
    report, (tol, seed, samples) = Report.for_suite("conformal", config)
    rng = random.Random(seed)

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

    # translation-law[*], additivity[x], dilation-law and lorentz-on-q draw
    # their inputs in that order, and every first step runs in one
    # act_on_coords call; only additivity's second step needs another.
    shifts = [_draws(rng, 25, 0.8) for _ in TRANSLATABLE]
    adds, dils, pts = _draws(rng, 25, 0.7, 0.7), _draws(rng, 20, 0.8), _draws(rng, 12)
    planes = [plane for plane in LORENTZ_PLANES for _ in range(2)]
    steps = [("a" + m, d[:, 4]) for m, d in zip(TRANSLATABLE, shifts)]
    steps += [("ax", adds[:, 4]), ("ax", adds[:, 4] + adds[:, 5]), ("pq", dils[:, 4])]
    words = [[(name, theta)] for name, thetas in steps for theta in thetas.tolist()]
    words += [[(plane, 0.7)] for plane in planes]
    points = [d[:, :4] for d in shifts] + [adds[:, :4]] * 2 + [dils[:, :4], pts]
    starts = _embed_rows(np.concatenate(points))
    imgs = np.split(act_on_coords(words, starts), np.cumsum([len(t) for _, t in steps]))

    for m, draws, outs in zip(TRANSLATABLE, shifts, imgs):
        want = MinkowskiPoint(*draws[:, :4].T).shifted(m, draws[:, 4])
        report.bound(
            "translation-law[%s]" % m,
            _dev(_point(Vector6(*_null_rows(outs).T)), want),
            tol,
            "point coordinate shifts by theta, 25 seeded samples",
        )

    firsts, one_steps, outs = map(_null_rows, imgs[len(shifts):-1])
    two_steps = _image_rows(["ax"] * 25, adds[:, 5].tolist(), firsts)
    report.bound(
        "additivity[x]",
        _dev(_point(Vector6(*two_steps.T)), _point(Vector6(*one_steps.T))),
        tol,
        "translate(th1) then translate(th2) vs translate(th1+th2)",
    )

    half_x = q_from_p(step_vector("pq", math.log(2), embed_point(MinkowskiPoint(x=1)).v))
    factor = np.array([math.exp(-theta) for theta in dils[:, 4].tolist()])
    want = MinkowskiPoint(*dils[:, :4].T).scaled(factor)
    report.bound(
        "dilation-law",
        max(_dev(half_x, MinkowskiPoint(x=0.5)), _dev(_point(Vector6(*outs.T)), want)),
        tol,
        "point scales by exp(-theta); includes the x=1, theta=ln 2 case",
    )

    lorentz_dev = 0.0
    idx4 = [COORDS.index(m) for m in POINT_COORDS]
    lams = {plane: so6_step(plane, 0.7)[np.ix_(idx4, idx4)] for plane in LORENTZ_PLANES}
    lorentz = zip(planes, pts, starts[-len(pts):].tolist(), imgs[-1].tolist())
    for plane, pt, start, img in lorentz:
        img6 = Vector6(*img)
        out = q_or_infinity(img6)
        want = lams[plane] @ pt
        lorentz_dev = max(
            lorentz_dev,
            abs((img6.p + img6.q) - (start[4] + start[5])),
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
        # Chunks of BATCH_SIZE keep memory flat at large --samples.  A draw
        # whose Mobius denominator is below 0.2 is refilled, one candidate
        # per missing sample, as the scalar loop reads the seed.  p + q of
        # an image is its denominator, so _image_rows refuses one at infinity.
        for done in range(0, per_m, BATCH_SIZE):
            need, draws = min(per_m - done, BATCH_SIZE), np.empty((0, 5))
            while len(draws) < need:
                more = _draws(rng, need - len(draws), 0.6)
                pt, alpha = MinkowskiPoint(*more[:, :4].T), _direction(m, more[:, 4])
                denom = _mobius(pt, alpha)[1]
                draws = np.concatenate((draws, more[np.abs(denom) >= 0.2]))
            thetas = draws[:, 4].tolist()
            imgs = _image_rows(["b" + m] * need, thetas, _embed_rows(draws[:, :4]))
            pt, alpha = MinkowskiPoint(*draws[:, :4].T), _direction(m, draws[:, 4])
            num, denom = _mobius(pt, alpha)
            want = MinkowskiPoint(*(exact_div(c, denom) for c in num.as_tuple()))
            mob_dev = max(mob_dev, _dev(_point(Vector6(*imgs.T)), want))
            scale = np.abs(imgs).max(axis=1)
            rel = np.abs(metric_form(Vector6(*imgs.T))) / np.maximum(1.0, scale * scale)
            null_dev = max(null_dev, float(np.max(rel, initial=0.0)))
    report.bound(
        "conformal-vs-mobius",
        mob_dev,
        SPAN_TOL,
        "conjugation route vs closed-form oracle, %d samples per direction"
        % per_m,
    )
    report.bound(
        "null-preserved",
        null_dev,
        SPAN_TOL,
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
