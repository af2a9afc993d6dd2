"""The verification suites, and the reference tables only they read.

``splitconf verify`` runs six suites: ``verify_clifford``,
``verify_properties``, ``verify_group``, ``verify_conformal`` (which
ends with ``classify_generators``) and ``appendix_check`` here, and
``realrep.verify_realrep``.  Each returns a ``report.Report`` of checks
with stable ids.  The bundled reference tables (the fifteen matrices in
closed form, ``REFERENCE_GENERATOR_TABLE``, and the printed image
polynomials, ``PRINTED_IMAGE_TABLE``) are diffed against recomputation;
the recomputed values are the ground truth, and a mismatch is
documented in the report, never adopted.

Nothing a step needs lives here, and nothing on the step path imports
this module: ``cli`` loads it when a ``verify`` run calls its first
suite, and the package root serves the suite names on first read
(PEP 562), so ``import splitconf``, ``transform`` and ``show`` compile
none of it.  Because it may load after a caller has patched a library
function (perfbench's tracer wraps ``group.generator``,
``conformal.step_vector`` and others; tests plant faults in
``group._compose_so6``), every library function is called through its
module attribute, never through a name a ``from`` import bound.
Classes, constants and the algebra's tolerance helpers are imported by
name.
"""

import math
import random
from fractions import Fraction

from . import clifford, conformal, group, matrices
from .algebra import CHART_TOL, ONE, SPAN_TOL, UNIT, ZERO, exact_div, within
from .clifford import COORDS, METRIC, Vector6
from .conformal import AT_INFINITY, POINT_COORDS, MinkowskiPoint, NullVector
from .group import LORENTZ_PLANES, PLANES, TRANSLATABLE, TRANSLATION_NAMES
from .matrices import TensorMatrix
from .report import Report

__all__ = [
    "verify_clifford",
    "verify_properties",
    "verify_group",
    "REFERENCE_GENERATOR_TABLE",
    "build_reference",
    "appendix_check",
    "CLASSIFY_BASIS",
    "classify_generators",
    "PRINTED_IMAGE_TABLE",
    "verify_conformal",
]


def verify_clifford(config=None):
    """Check the anticommutators of all 21 unordered gamma pairs exactly."""
    report, _ = Report.for_suite("clifford", config)
    for i, m in enumerate(COORDS):
        for n in COORDS[i:]:
            g = METRIC[m] if m == n else 0
            expected = TensorMatrix.identity(4).scale(2 * g)
            actual = clifford.gamma(m) @ clifford.gamma(n) + clifford.gamma(n) @ clifford.gamma(m)
            report.add(
                "anticommutator[%s,%s]" % (m, n),
                actual == expected,
                "2*(%+d)*I" % g,
                "match" if actual == expected else "entry mismatch",
            )
    return report


def verify_properties(config=None):
    """Exact checks of the five structural identities of the gamma products."""
    report, _ = Report.for_suite("properties", config)
    ident = TensorMatrix.identity(4)
    for a in COORDS:
        ok = clifford.gamma(a) @ clifford.gamma(a) == ident.scale(METRIC[a])
        report.match("prop1[%s]" % a, ok, "(%+d)*I" % METRIC[a])
        for b in COORDS:
            if b == a:
                continue
            ab = clifford.gamma(a) @ clifford.gamma(b)
            for c in COORDS:
                if c != a and c != b:
                    ok = ab @ clifford.gamma(c) == clifford.gamma(c) @ ab
                    report.match("prop2[%s,%s,%s]" % (a, b, c), ok, "commute")
            report.match(
                "prop3[%s,%s]" % (a, b),
                ab @ clifford.gamma(b) == clifford.gamma(a).scale(METRIC[b]),
                "(%+d)*gamma(%s)" % (METRIC[b], a),
            )
            report.match(
                "prop4[%s,%s]" % (a, b),
                ab @ clifford.gamma(a) == clifford.gamma(b).scale(-METRIC[a]),
                "(%+d)*gamma(%s)" % (-METRIC[a], b),
            )
            sign5 = -METRIC[a] * METRIC[b]
            ok = ab @ ab == ident.scale(sign5)
            report.match("prop5[%s,%s]" % (a, b), ok, "(%+d)*I" % sign5)
    return report


def _random_word(rng, max_len, angle_span):
    length = rng.randint(0, max_len)
    return [
        (rng.choice(PLANES), rng.uniform(-angle_span, angle_span))
        for _ in range(length)
    ]


def _invariance_devs(words):
    """(max |R^T G R - G|, det R) for R = compose_so6(word), one row of an
    (n, 2) array per word, all formed at once by _compose_so6."""
    import numpy as np
    g6 = group.metric6()
    r = group._compose_so6(words)
    gram = np.abs(r.transpose(0, 2, 1) @ g6 @ r - g6).max(axis=(1, 2))
    return np.column_stack((gram, np.linalg.det(r)))


def verify_group(config=None):
    """Structural and seeded statistical checks of the group actions."""
    import numpy as np
    from .batch import BATCH_SIZE
    report, (tol, seed, samples) = Report.for_suite("group", config)
    rng = random.Random(seed)
    ident4 = TensorMatrix.identity(4)

    for name in PLANES:
        a, b = name[0], name[1]
        expected_kind = "boost" if -METRIC[a] * METRIC[b] > 0 else "rotation"
        actual_kind = group.plane_kind(name)
        report.add(
            "kind[%s]" % name,
            actual_kind == expected_kind,
            expected_kind,
            actual_kind,
            "sign of the exact gamma-product square",
        )

    for name in PLANES:
        prod = group.generator(name, 0.77) @ group.generator(name, -0.77)
        dev = (prod - ident4).max_abs()
        report.bound(
            "inverse[%s]" % name,
            dev,
            tol,
            "generator(theta) @ generator(-theta) vs identity",
        )

    defined = group._so6_matrices([[(name, 0.37)] for name in PLANES])
    for name, r in zip(PLANES, defined):
        dev = float(np.max(np.abs(group.so6_step(name, 0.37) - r)))
        report.bound(
            "step-vs-definition[%s]" % name,
            dev,
            tol,
            "closed-form 6x6 step vs action on basis vectors",
        )

    pairs = [(_random_word(rng, 3, 1.0), _random_word(rng, 3, 1.0)) for _ in range(12)]
    so6 = group._so6_matrices([w for w1, w2 in pairs for w in (w1 + w2, w2, w1)])
    gaps = [lhs - r2 @ r1 for lhs, r2, r1 in zip(so6[0::3], so6[1::3], so6[2::3])]
    report.bound(
        "composition",
        float(np.max(np.abs(gaps))),
        tol,
        "so6(w1 then w2) vs so6(w2) @ so6(w1), 12 seeded word pairs",
    )

    # Both sampled checks draw each chunk's inputs inside the chunk loop, in
    # the seed's order, so memory stays flat as samples grow.
    n_heavy = max(1, samples // 20)
    gaps = []
    for start in range(0, n_heavy, BATCH_SIZE):
        heavy = [
            ([rng.uniform(-1.0, 1.0) for _ in COORDS], _random_word(rng, 5, 0.6))
            for _ in range(min(BATCH_SIZE, n_heavy - start))
        ]
        vs = np.array([v for v, _ in heavy])
        imgs = group.act_on_coords([w for _, w in heavy], vs)
        gaps.append(clifford.metric_form(Vector6(*imgs.T)) - clifford.metric_form(Vector6(*vs.T)))
    report.bound(
        "invariance[qform]",
        float(np.max(np.abs(np.concatenate(gaps)))),
        SPAN_TOL,
        "metric square preserved along %d seeded conjugation words" % n_heavy,
    )

    # One (gram, det) row per word; initial=0.0 is the bound of no words.
    devs = np.empty((samples, 2))
    for start in range(0, samples, BATCH_SIZE):
        n = min(BATCH_SIZE, samples - start)
        devs[start:start + n] = _invariance_devs([_random_word(rng, 5, 0.6) for _ in range(n)])
    gram, det = devs.T
    report.bound(
        "invariance[metric]",
        float(np.max(gram, initial=0.0)),
        tol,
        "R^T G R vs G over %d seeded words" % samples,
    )
    report.bound(
        "invariance[det]",
        float(np.max(np.abs(det - 1.0), initial=0.0)),
        tol,
        "det R vs 1 over %d seeded words" % samples,
    )

    for m in ("p", "q"):
        proj = group.pi_project(clifford.gamma(m))
        report.add(
            "pi[gamma_%s]" % m,
            proj.is_zero(),
            "0",
            "0" if proj.is_zero() else "nonzero",
            "projection drops the %s component" % m,
        )

    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    idx4 = [COORDS.index(m) for m in ("x", "y", "z", "t")]
    for name in LORENTZ_PLANES:
        r6 = group.so6_step(name, 0.83)
        r4 = r6[np.ix_(idx4, idx4)]
        dev = float(np.max(np.abs(r4.T @ eta @ r4 - eta)))
        report.bound(
            "lorentz[%s]" % name,
            dev,
            tol,
            "restricted 4x4 block preserves the (+,+,+,-) form",
        )

    m_pq = group.generator("pq", 0.6)
    for name in LORENTZ_PLANES:
        m_ab = group.generator(name, 0.9)
        dev = ((m_pq @ m_ab) - (m_ab @ m_pq)).max_abs()
        report.bound(
            "pq-commutes[%s]" % name,
            dev,
            tol,
            "dilation generator commutes with the Lorentz planes",
        )

    return report


# Reference transcription of the fifteen matrices in closed form.
# Each cell is (i, j, c, s, unit): the entry c*c(phi/2) + s*s(phi/2)*unit
# with (c, s) = (cos, sin) for rotation planes and (cosh, sinh) for
# boost planes.  Unlisted cells are zero.  Kept as data, not code, so a
# transcription can be diffed against recomputation.
REFERENCE_GENERATOR_TABLE = {
    "xy": (
        (0, 0, 1, 1, "l"),
        (1, 1, 1, -1, "l"),
        (2, 2, 1, 1, "l"),
        (3, 3, 1, -1, "l"),
    ),
    "yz": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, 1, "l"),
        (1, 0, 0, 1, "l"),
        (2, 3, 0, 1, "l"),
        (3, 2, 0, 1, "l"),
    ),
    "zx": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, 1, "1"),
        (1, 0, 0, -1, "1"),
        (2, 3, 0, 1, "1"),
        (3, 2, 0, -1, "1"),
    ),
    "qx": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, 1, "K"),
        (1, 0, 0, 1, "K"),
        (2, 3, 0, -1, "K"),
        (3, 2, 0, -1, "K"),
    ),
    "qy": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, -1, "Kl"),
        (1, 0, 0, 1, "Kl"),
        (2, 3, 0, 1, "Kl"),
        (3, 2, 0, -1, "Kl"),
    ),
    "qz": (
        (0, 0, 1, 1, "K"),
        (1, 1, 1, -1, "K"),
        (2, 2, 1, -1, "K"),
        (3, 3, 1, 1, "K"),
    ),
    "tp": (
        (0, 0, 1, 1, "K"),
        (1, 1, 1, 1, "K"),
        (2, 2, 1, 1, "K"),
        (3, 3, 1, 1, "K"),
    ),
    "tx": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, 1, "L"),
        (1, 0, 0, 1, "L"),
        (2, 3, 0, -1, "L"),
        (3, 2, 0, -1, "L"),
    ),
    "ty": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, -1, "Ll"),
        (1, 0, 0, 1, "Ll"),
        (2, 3, 0, -1, "Ll"),
        (3, 2, 0, 1, "Ll"),
    ),
    "tz": (
        (0, 0, 1, 1, "L"),
        (1, 1, 1, -1, "L"),
        (2, 2, 1, -1, "L"),
        (3, 3, 1, 1, "L"),
    ),
    "tq": (
        (0, 0, 1, 1, "KL"),
        (1, 1, 1, 1, "KL"),
        (2, 2, 1, 1, "KL"),
        (3, 3, 1, 1, "KL"),
    ),
    "px": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, 1, "KL"),
        (1, 0, 0, 1, "KL"),
        (2, 3, 0, -1, "KL"),
        (3, 2, 0, -1, "KL"),
    ),
    "py": (
        (0, 0, 1, 0, "1"),
        (1, 1, 1, 0, "1"),
        (2, 2, 1, 0, "1"),
        (3, 3, 1, 0, "1"),
        (0, 1, 0, -1, "KLl"),
        (1, 0, 0, 1, "KLl"),
        (2, 3, 0, 1, "KLl"),
        (3, 2, 0, -1, "KLl"),
    ),
    "pz": (
        (0, 0, 1, 1, "KL"),
        (1, 1, 1, -1, "KL"),
        (2, 2, 1, -1, "KL"),
        (3, 3, 1, 1, "KL"),
    ),
    "pq": (
        (0, 0, 1, -1, "L"),
        (1, 1, 1, -1, "L"),
        (2, 2, 1, -1, "L"),
        (3, 3, 1, -1, "L"),
    ),
}


def build_reference(name, phi):
    """Evaluate the reference transcription of one matrix at angle phi."""
    c_val, s_val = matrices._sincosh(phi / 2, group.plane_kind(name) == "boost")
    rows = [[ZERO] * 4 for _ in range(4)]
    for i, j, c, s, unit in REFERENCE_GENERATOR_TABLE[name]:
        cell = ONE * (c * c_val)
        if s:
            cell = cell + UNIT[unit] * (s * s_val)
        rows[i][j] = cell
    return TensorMatrix(rows)


# The angles at which appendix_check compares the table with recomputation.
_APPENDIX_ANGLES = (0.3, 1.0, -0.7)


def appendix_check(config=None):
    """Diff the bundled reference table against recomputation.

    One entry per plane.  Transcription mismatches are documented
    (with the differing cells), never reported as failures; the
    recomputed matrix is the ground truth.
    """
    report, (tol, _, _) = Report.for_suite("appendix", config)
    for name in PLANES:
        bad_cells = {}
        for phi in _APPENDIX_ANGLES:
            recomputed = group.generator(name, phi)
            reference = build_reference(name, phi)
            diff = [abs(a - b) for a, b in zip(recomputed.flat(), reference.flat())]
            for cell in range(16):
                if not all(d <= tol for d in diff[8 * cell:8 * cell + 8]):
                    i, j = divmod(cell, 4)
                    bad_cells.setdefault((i, j), (
                        reference.rows[i][j],
                        recomputed.rows[i][j],
                    ))
        if not bad_cells:
            report.add_comparison(
                "appendix[%s]" % name,
                True,
                "reference transcription",
                "match at angles %s" % (_APPENDIX_ANGLES,),
            )
        else:
            details = "; ".join(
                "(%d,%d) reference=%s recomputed=%s"
                % (i, j, ref, rec)
                for (i, j), (ref, rec) in sorted(bad_cells.items())
            )
            report.add_comparison(
                "appendix[%s]" % name,
                False,
                "reference transcription",
                "differs at cells %s" % sorted(bad_cells),
                "recomputed matrix is ground truth; at angle %s: %s"
                % (_APPENDIX_ANGLES[0], details),
            )
    return report


def _direction(m, theta):
    return MinkowskiPoint(**{m: theta})


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
        (pt, img6, conformal.q_or_infinity(img6)) for pt, img6 in zip(_CLASSIFY_POINTS, img6s)
    ]
    if any(q is AT_INFINITY for _, _, q in images):
        return "unclassified"

    labels = [
        label for label, law in laws.items()
        if all(q.approx_eq(w, SPAN_TOL) for (_, _, q), w in zip(images, law))
    ]

    if name not in TRANSLATION_NAMES:
        r6 = group.so6_step(name, theta)
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
    starts = [conformal.embed_point(pt).v.as_tuple() for pt in _CLASSIFY_POINTS]
    words = [[(name, theta)] for name in CLASSIFY_BASIS for _ in range(n)]
    rows = group.act_on_coords(words, starts * len(CLASSIFY_BASIS)).tolist()
    imgs = [Vector6(*row) for row in rows]
    laws = {"dilation": [pt.scaled(math.exp(-theta)) for pt in _CLASSIFY_POINTS]}
    for m in TRANSLATABLE:
        laws["translation[%s]" % m] = [pt.shifted(m, theta) for pt in _CLASSIFY_POINTS]
        laws["conformal-translation[%s]" % m] = [
            conformal.mobius_oracle(pt, _direction(m, theta)) for pt in _CLASSIFY_POINTS
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
        adj, n = group._adjoint(gen_name), COORDS.index(basis_m)
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
    """The largest coordinate gap between two points of numbers or equal-length arrays."""
    import numpy as np
    return float(np.max(np.abs(np.subtract(a.as_tuple(), b.as_tuple()))))


def _null_rows(coords):
    """coords, an (n, 6) array, once all its rows pass NullVector's float tests.

    The first failing row goes through NullVector to raise.  A row
    whose form is not finite fails the null test, so the chart test
    needs no finiteness scan of its own."""
    import numpy as np
    v = Vector6(*coords.T)
    form, m = clifford.metric_form(v), np.abs(coords).max(axis=1)
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
    n2 = conformal.minkowski_norm2(pt)
    coords = np.column_stack((pt.x, pt.y, pt.z, pt.t, (1 + n2) * 0.5, (1 - n2) * 0.5))
    return _null_rows(coords)


def _image_rows(names, thetas, coords):
    """The image of each row of coords under its step, after NullVector's tests."""
    return _null_rows(group.act_on_coords([[step] for step in zip(names, thetas)], coords))


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
            ("a", conformal.translation_generator),
            ("b", conformal.conformal_translation_generator),
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
    imgs = np.split(group.act_on_coords(words, starts), np.cumsum([len(t) for _, t in steps]))

    for m, draws, outs in zip(TRANSLATABLE, shifts, imgs):
        want = MinkowskiPoint(*draws[:, :4].T).shifted(m, draws[:, 4])
        report.bound(
            "translation-law[%s]" % m,
            _dev(conformal._point(Vector6(*_null_rows(outs).T)), want),
            tol,
            "point coordinate shifts by theta, 25 seeded samples",
        )

    firsts, one_steps, outs = map(_null_rows, imgs[len(shifts):-1])
    two_steps = _image_rows(["ax"] * 25, adds[:, 5].tolist(), firsts)
    report.bound(
        "additivity[x]",
        _dev(conformal._point(Vector6(*two_steps.T)), conformal._point(Vector6(*one_steps.T))),
        tol,
        "translate(th1) then translate(th2) vs translate(th1+th2)",
    )

    unit_x = conformal.embed_point(MinkowskiPoint(x=1)).v
    half_x = conformal.q_from_p(conformal.step_vector("pq", math.log(2), unit_x))
    factor = np.array([math.exp(-theta) for theta in dils[:, 4].tolist()])
    want = MinkowskiPoint(*dils[:, :4].T).scaled(factor)
    devs = (_dev(half_x, MinkowskiPoint(x=0.5)), _dev(conformal._point(Vector6(*outs.T)), want))
    report.bound(
        "dilation-law",
        float(np.max(devs)),
        tol,
        "point scales by exp(-theta); includes the x=1, theta=ln 2 case",
    )

    idx4 = [COORDS.index(m) for m in POINT_COORDS]
    lams = {plane: group.so6_step(plane, 0.7)[np.ix_(idx4, idx4)] for plane in LORENTZ_PLANES}
    wants = [lams[plane] @ pt for plane, pt in zip(planes, pts)]
    begins, ends = starts[-len(pts):], _null_rows(imgs[-1])
    gaps = np.column_stack((
        (ends[:, 4] + ends[:, 5]) - (begins[:, 4] + begins[:, 5]),
        np.column_stack(conformal._point(Vector6(*ends.T)).as_tuple()) - wants,
    ))
    report.bound(
        "lorentz-on-q",
        float(np.max(np.abs(gaps))),
        tol,
        "rotations and boosts fix p+q and act linearly on the point",
    )

    mob_devs, null_devs = [], []
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
                denom = conformal._mobius(pt, alpha)[1]
                draws = np.concatenate((draws, more[np.abs(denom) >= 0.2]))
            thetas = draws[:, 4].tolist()
            imgs = _image_rows(["b" + m] * need, thetas, _embed_rows(draws[:, :4]))
            pt, alpha = MinkowskiPoint(*draws[:, :4].T), _direction(m, draws[:, 4])
            num, denom = conformal._mobius(pt, alpha)
            want = MinkowskiPoint(*(exact_div(c, denom) for c in num.as_tuple()))
            mob_devs.append(_dev(conformal._point(Vector6(*imgs.T)), want))
            scale = np.abs(imgs).max(axis=1)
            rel = np.abs(clifford.metric_form(Vector6(*imgs.T))) / np.maximum(1.0, scale * scale)
            null_devs.append(np.max(rel))
    report.bound(
        "conformal-vs-mobius",
        float(np.max(mob_devs)),
        SPAN_TOL,
        "conjugation route vs closed-form oracle, %d samples per direction"
        % per_m,
    )
    report.bound(
        "null-preserved",
        float(np.max(null_devs)),
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
    gaps = [
        (v.p - v.q) / (v.p + v.q) - conformal.minkowski_norm2(pt)
        for v, pt in ((start_v, MinkowskiPoint(*pts.T)), (moved_v, conformal._point(moved_v)))
    ]
    rt_dev = _dev(conformal._point(start_v), MinkowskiPoint(*pts.T))
    report.bound(
        "embed-roundtrip", rt_dev, tol, "q_from_p after embed_point returns the point"
    )
    report.bound(
        "ratio-identity",
        float(np.max(np.abs(gaps))),
        tol,
        "(p-q)/(p+q) equals the Minkowski square of the point",
    )

    base = Vector6(x=Fraction(3, 5), z=Fraction(4, 5), p=1, q=0)
    a = conformal.q_from_p(NullVector(base)).as_tuple()
    scale_dev = max([0.0] + [
        abs(u - w)
        for lam in (2, Fraction(-1, 2), 3)
        for u, w in zip(a, conformal.q_from_p(NullVector(base.scale(lam))).as_tuple())
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

