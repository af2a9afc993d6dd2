"""The 23 named steps of the group and their actions.

Every step is a 4x4 element c I + s G, and ``_half_angle`` is the one
place that maps a step name to (G, c, s).  A plane (a coordinate pair)
has its gamma product as G, with cos/sin of the half angle when G
squares to -I (a rotation) and cosh/sinh when it squares to +I (a
boost).  ax..at and bx..bt have the nilpotent Gamma_p Gamma_m -+
Gamma_q Gamma_m as G, with c = 1 and s = theta/2 (see ``conformal``).
An element acts on P by conjugation, a plane step also on X by a
two-sided 2x2 product, and a word induces a metric-preserving real 6x6
coordinate map.

The module also carries a bundled reference transcription of all
fifteen matrices in closed form.  ``appendix_check`` diffs that table
against recomputation and documents any transcription discrepancy
instead of failing, so the recomputed matrices stay the ground truth.

``act_on_coords`` conjugates the rows of an (n, 6) float array through
``batch.conjugate``, the order-preserving numpy kernel, bit for bit as
``act_on_vector`` does one at a time.  It owns the routing: which rows
go on the kernel, grouped by word length and cut into chunks of
``batch.BATCH_SIZE``, and the scalar route for the rest;
``act_on_vectors`` runs on it.  Each row may carry its own word, so
the sampled words of ``verify_group``, ``verify_conformal`` and
``so6_matrix`` run as a few batches.  The 6x6 invariance checks
compose their words as stacked (n, 6, 6) products, bit for bit as
``compose_so6``.  numpy and ``batch`` are imported by the functions
that use them, so the scalar step route loads neither.
"""

import functools
import math
import random

from .algebra import ONE, UNIT, exact_div
from .clifford import (
    COORDS,
    METRIC,
    Vector6,
    build_P,
    extract_coords,
    gamma,
    metric_form,
)
from .matrices import TensorMatrix, _sincosh, exp_pair
from .report import Report

__all__ = [
    "PLANES",
    "TRANSLATABLE",
    "TRANSLATION_NAMES",
    "canonical_plane",
    "plane_kind",
    "generator",
    "act_on_P",
    "act_on_X",
    "act_on_vector",
    "act_on_coords",
    "act_on_vectors",
    "check_angle",
    "so6_matrix",
    "so6_step",
    "metric6",
    "project_vector",
    "pi_project",
    "verify_properties",
    "verify_group",
    "REFERENCE_GENERATOR_TABLE",
    "build_reference",
    "appendix_check",
]

# Canonical plane names, in the order of the bundled reference table.
PLANES = (
    "xy",
    "yz",
    "zx",
    "qx",
    "qy",
    "qz",
    "tp",
    "tx",
    "ty",
    "tz",
    "tq",
    "px",
    "py",
    "pz",
    "pq",
)

# Point coordinates a nilpotent step moves along.
TRANSLATABLE = ("x", "y", "z", "t")

# The nilpotent step names, accepted wherever a plane is: ax..at
# translate the point, bx..bt translate it conformally.
TRANSLATION_NAMES = tuple(k + m for k in "ab" for m in TRANSLATABLE)

_CANONICAL = {}
for _name in PLANES:
    _CANONICAL[_name] = (_name, 1)
    _CANONICAL[_name[::-1]] = (_name, -1)


def canonical_plane(plane):
    """Resolve a plane given as 'ab' or ('a','b') to (canonical name, orientation).

    Orientation is +1 when the given order matches the canonical name
    and -1 when reversed; reversing the pair negates the angle.
    """
    if not isinstance(plane, str):
        a, b = plane
        plane = "%s%s" % (a, b)
    got = _CANONICAL.get(plane)
    if got is None:
        raise ValueError("unknown plane %r" % (plane,))
    return got


@functools.cache
def _plane_data(name):
    """(gamma product, kind, upper 2x2 block, lower 2x2 block) for a canonical name."""
    gp = gamma(name[0]) @ gamma(name[1])
    sq = gp @ gp
    ident = TensorMatrix.identity(4)
    if sq == ident:
        kind = "boost"
    elif sq == -ident:
        kind = "rotation"
    else:
        raise AssertionError("gamma product square is not +I or -I")
    tl, tr, bl, br = gp.blocks()
    if not (tr.is_zero() and bl.is_zero()):
        raise AssertionError("gamma product is not block diagonal")
    return gp, kind, tl, br


def plane_kind(plane):
    """'rotation' or 'boost', by the exact square of the gamma product."""
    name, _ = canonical_plane(plane)
    return _plane_data(name)[1]


@functools.cache
def _nilpotent_generator(kind, m):
    """Gamma_p Gamma_m - Gamma_q Gamma_m (kind "a") or + (kind "b"); cached."""
    if m not in TRANSLATABLE:
        raise ValueError("no translation along %r" % (m,))
    pm = gamma("p") @ gamma(m)
    qm = gamma("q") @ gamma(m)
    return pm - qm if kind == "a" else pm + qm


def _half_angle(step, theta):
    """(G, c, s) with c I + s G the group element of one named step.

    A plane (either order) gives its gamma product with cos/sin or
    cosh/sinh of theta/2.  A name in TRANSLATION_NAMES gives its
    nilpotent generator with (1, theta/2), theta/2 exact for an exact
    theta; G @ G == 0 is proved once per generator (cached on the
    matrix), and a generator that fails it raises ValueError.
    """
    if step in TRANSLATION_NAMES:
        gen = _nilpotent_generator(step[0], step[1])
        if not gen.squares_to_zero():
            raise ValueError("generator must square to zero exactly")
        return gen, 1, exact_div(theta, 2)
    name, orient = canonical_plane(step)
    gp, kind, _, _ = _plane_data(name)
    c, s = _sincosh(exact_div(orient * theta, 2), kind == "boost")
    return gp, c, s


def check_angle(theta):
    """Reject a float angle that is not finite, naming it."""
    if isinstance(theta, float) and not math.isfinite(theta):
        raise ValueError("angle %s is not finite" % (theta,))


def generator(step, theta):
    """The 4x4 group element c I + s G of a named step at angle theta.

    See _half_angle: cos/sin for rotation planes, cosh/sinh for boost
    planes, I + (theta/2) G for ax..at and bx..bt.  theta = 0 gives the
    identity; a = b is rejected.
    """
    return exp_pair(*_half_angle(step, theta))[0]


def _step_factors(plane, theta):
    """The (left, right) 2x2 factors of one conjugation step on X."""
    _, c, s = _half_angle(plane, theta)
    _, _, tl, br = _plane_data(canonical_plane(plane)[0])
    return exp_pair(tl, c, s)[0], exp_pair(br, c, s)[1]


def _conjugate(word, p):
    """M p M^-1 for each step, M = generator(step, theta).

    M and M^-1 = generator(step, -theta) = c I - s G come from one
    exp_pair call on the same (c, s): libm's cos and cosh are even and
    sin and sinh odd, and s = theta/2 is odd, so this is bit for bit
    the matrix generator(step, -theta) builds.
    """
    for step, theta in word:
        m, m_inv = exp_pair(*_half_angle(step, theta))
        p = (m @ p) @ m_inv
    return p


def act_on_P(word, p):
    """Conjugate p by each (step, angle) entry in sequence.

    The result must stay inside the span of the gammas; a residual
    beyond extract_coords' tolerance raises ValueError.
    """
    p = _conjugate(word, p)
    extract_coords(p)
    return p


def act_on_X(word, x):
    """The equivalent 2x2 action: one two-sided product per plane step.

    Hermiticity with respect to the complex unit is checked on the
    result; losing it beyond 1e-9 (relative to the matrix scale) raises
    ValueError.
    """
    for plane, theta in word:
        left, right = _step_factors(plane, theta)
        x = (left @ x) @ right
    if not x.is_c_hermitian(1e-9 * max(1, x.max_abs())):
        raise ValueError("2x2 action lost Hermiticity beyond tolerance")
    return x


def act_on_vector(word, v):
    """Coordinates of the conjugated embedding of v.

    The single extraction doubles as the span check of act_on_P: a
    result outside the span of the gammas raises ValueError.
    """
    return extract_coords(_conjugate(word, build_P(v)))


def _batch_step(step, theta):
    """(batch.step_column, c, s) of one step, from _half_angle."""
    from .batch import step_column
    gen, c, s = _half_angle(step, theta)
    return step_column(gen), c, s


def _plan(word):
    """The _batch_step of every step of word, or None when it cannot batch.

    A word batches when its angles are finite floats and its steps
    neither overflow nor name an unknown step.
    """
    if not all(type(theta) is float and math.isfinite(theta) for _, theta in word):
        return None
    try:
        return [_batch_step(*step) for step in word]
    except (OverflowError, ValueError):
        return None


def _batchable(v):
    """True when v can go on the batch path: some nonzero coordinates, all floats.

    build_P writes only nonzero coordinates, so every coefficient such a
    P touches is a float and the scalar route ends in the float regime
    too (an all-zero P stays exact).
    """
    nonzero = [c for c in v.as_tuple() if c]
    return bool(nonzero) and all(type(c) is float for c in nonzero)


def _checked_act(word, v):
    """act_on_vector after naming a float angle that is not finite."""
    for _, theta in word:
        check_angle(theta)
    return act_on_vector(word, v)


def act_on_coords(words, coords):
    """act_on_vector(words[i], Vector6(*coords[i])) for each of n float rows, as (n, 6).

    A row whose word batches (see _plan) runs on batch.conjugate,
    grouped by word length and cut into chunks of batch.BATCH_SIZE, step
    k of every word in a chunk as one (M, M^-1) pair; each word object
    is planned once.  Every other row, and any the kernel refuses, goes
    through act_on_vector in index order, which raises with its own
    message, a non-finite float angle raising ValueError naming it.
    """
    import numpy as np
    from . import batch
    words, coords = list(words), np.array(coords, dtype=float).reshape(-1, 6)
    if len(words) != len(coords):
        raise ValueError("%d words for %d vectors" % (len(words), len(coords)))
    plans, groups = {}, {}
    for i, w in enumerate(words):
        if id(w) not in plans:
            plans[id(w)] = _plan(w)
        if plans[id(w)] is not None:
            groups.setdefault(len(w), []).append(i)
    out, done = np.empty_like(coords), np.zeros(len(words), dtype=bool)
    for length, take in groups.items():
        for start in range(0, len(take), batch.BATCH_SIZE):
            chunk = take[start:start + batch.BATCH_SIZE]
            steps = [
                zip(*(plans[id(words[i])][k] for i in chunk)) for k in range(length)
            ]
            out[chunk], done[chunk] = batch.conjugate(coords[chunk], steps)
    for i in np.flatnonzero(~done).tolist():
        out[i] = _checked_act(words[i], Vector6(*coords[i].tolist())).as_tuple()
    return out


def act_on_vectors(words, vectors):
    """act_on_vector(words[i], vectors[i]) for every i, batched where it can be.

    Float vectors (see _batchable) go through act_on_coords, the rest
    through act_on_vector; when act_on_coords raises, all of them do,
    in index order, so the first error is the scalar loop's.
    """
    words, vectors = list(words), list(vectors)
    if len(words) != len(vectors):
        raise ValueError("%d words for %d vectors" % (len(words), len(vectors)))
    take = [i for i, v in enumerate(vectors) if _batchable(v)]
    try:
        rows = act_on_coords(
            [words[i] for i in take], [vectors[i].as_tuple() for i in take]
        ).tolist()
    except (ArithmeticError, ValueError):
        take = rows = ()
    done = {i: Vector6(*row) for i, row in zip(take, rows)}
    return [
        done[i] if i in done else _checked_act(w, v)
        for i, (w, v) in enumerate(zip(words, vectors))
    ]


def _so6_matrices(words):
    """so6_matrix of each word, as an (n, 6, 6) array.

    All the words act on the six float basis rows in one act_on_coords
    call: a unit coefficient multiplies and adds exactly, so they give
    the float values the exact basis vectors give.
    """
    import numpy as np
    words = [list(w) for w in words]  # each planned once for its six vectors
    basis = np.tile(np.eye(6), (len(words), 1))
    imgs = act_on_coords([w for w in words for _ in COORDS], basis)
    return imgs.reshape(-1, 6, 6).transpose(0, 2, 1)


def so6_matrix(word):
    """The real 6x6 matrix R with act_on_vector(word, v) = R v."""
    return _so6_matrices([word])[0]


def _so6_stack(steps):
    """so6_step of each (plane, theta) in steps as an (n, 6, 6) array; None gives I."""
    import numpy as np
    rows, cols, values = [], [], []
    for n, step in enumerate(steps):
        if step is None:
            continue
        name, orient = canonical_plane(step[0])
        c, s = _sincosh(orient * step[1], _plane_data(name)[1] == "boost")
        a, b = COORDS.index(name[0]), COORDS.index(name[1])
        rows += (n, n, n, n)
        cols += (7 * a, 6 * a + b, 7 * b, 6 * b + a)
        values += (c, s * METRIC[name[1]], c, -s * METRIC[name[0]])
    r = np.tile(np.eye(6), (len(steps), 1, 1))
    r.reshape(-1, 36)[rows, cols] = values
    return r


def so6_step(plane, theta):
    """Closed-form 6x6 matrix of a single plane transformation.

    Equals so6_matrix([(plane, theta)]); kept separate so long words
    can be composed without rebuilding the conjugation each time.
    """
    return _so6_stack([(plane, theta)])[0]


def metric6():
    """diag of the metric in coordinate order."""
    import numpy as np
    return np.diag([float(METRIC[m]) for m in COORDS])


def project_vector(v):
    """Zero the p and q coordinates."""
    return Vector6(x=v.x, y=v.y, z=v.z, t=v.t)


def pi_project(p):
    """Drop the p and q components of a matrix in the span of the gammas."""
    return build_P(project_vector(extract_coords(p)))


def verify_properties(config=None):
    """Exact checks of the five structural identities of the gamma products."""
    report = Report("properties", dict(config or {}))
    ident = TensorMatrix.identity(4)
    prods = {}
    for a in COORDS:
        for b in COORDS:
            if a != b:
                prods[(a, b)] = gamma(a) @ gamma(b)

    for a in COORDS:
        sq = gamma(a) @ gamma(a)
        expected = ident.scale(METRIC[a])
        report.add(
            "prop1[%s]" % a,
            sq == expected,
            "(%+d)*I" % METRIC[a],
            "match" if sq == expected else "mismatch",
        )

    for a in COORDS:
        for b in COORDS:
            if b == a:
                continue
            ab = prods[(a, b)]
            for c in COORDS:
                if c == a or c == b:
                    continue
                lhs = ab @ gamma(c)
                rhs = gamma(c) @ ab
                report.add(
                    "prop2[%s,%s,%s]" % (a, b, c),
                    lhs == rhs,
                    "commute",
                    "match" if lhs == rhs else "mismatch",
                )

    for a in COORDS:
        for b in COORDS:
            if b == a:
                continue
            ab = prods[(a, b)]
            lhs3 = ab @ gamma(b)
            rhs3 = gamma(a).scale(METRIC[b])
            report.add(
                "prop3[%s,%s]" % (a, b),
                lhs3 == rhs3,
                "(%+d)*gamma(%s)" % (METRIC[b], a),
                "match" if lhs3 == rhs3 else "mismatch",
            )
            lhs4 = ab @ gamma(a)
            rhs4 = gamma(b).scale(-METRIC[a])
            report.add(
                "prop4[%s,%s]" % (a, b),
                lhs4 == rhs4,
                "(%+d)*gamma(%s)" % (-METRIC[a], b),
                "match" if lhs4 == rhs4 else "mismatch",
            )
            lhs5 = ab @ ab
            sign5 = -METRIC[a] * METRIC[b]
            rhs5 = ident.scale(sign5)
            report.add(
                "prop5[%s,%s]" % (a, b),
                lhs5 == rhs5,
                "(%+d)*I" % sign5,
                "match" if lhs5 == rhs5 else "mismatch",
            )
    return report


def _random_word(rng, max_len, angle_span):
    length = rng.randint(0, max_len)
    return [
        (rng.choice(PLANES), rng.uniform(-angle_span, angle_span))
        for _ in range(length)
    ]


def _random_vector(rng, span=1.0):
    return Vector6(*(rng.uniform(-span, span) for _ in range(6)))


def compose_so6(word):
    """Product of single-step 6x6 matrices, later steps applied on the left."""
    import numpy as np
    r = np.eye(6)
    for plane, theta in word:
        r = so6_step(plane, theta) @ r
    return r


def _invariance_devs(words):
    """(max |R^T G R - G|, det R) for R = compose_so6(word), one pair per word.

    R is formed for all the words at once as an (n, 6, 6) stack, step k
    of every word in one _so6_stack, with the same so6_step factors in
    the same order.  A shorter word starts with identity steps: I @ I
    is I exactly, so every product is one compose_so6 forms, and the
    stacked matmul and det give the 2-D results bit for bit.
    """
    import numpy as np
    g6 = metric6()
    depth = max(map(len, words), default=0)
    padded = [[None] * (depth - len(w)) + list(w) for w in words]
    r = _so6_stack([None] * len(words))
    for k in range(depth):
        r = _so6_stack([w[k] for w in padded]) @ r
    gram = np.abs(r.transpose(0, 2, 1) @ g6 @ r - g6).max(axis=(1, 2))
    return list(zip(gram.tolist(), np.linalg.det(r).tolist()))


def verify_group(config=None):
    """Structural and seeded statistical checks of the group actions."""
    import numpy as np
    from .batch import BATCH_SIZE
    config = dict(config or {})
    tol = config.get("tolerance", 1e-12)
    seed = config.get("seed", 42)
    samples = config.get("samples", 1000)
    rng = random.Random(seed)
    report = Report("group", config)
    ident4 = TensorMatrix.identity(4)

    for name in PLANES:
        a, b = name[0], name[1]
        expected_kind = "boost" if -METRIC[a] * METRIC[b] > 0 else "rotation"
        actual_kind = plane_kind(name)
        report.add(
            "kind[%s]" % name,
            actual_kind == expected_kind,
            expected_kind,
            actual_kind,
            "sign of the exact gamma-product square",
        )

    for name in PLANES:
        prod = generator(name, 0.77) @ generator(name, -0.77)
        dev = (prod - ident4).max_abs()
        report.bound(
            "inverse[%s]" % name,
            dev,
            tol,
            "generator(theta) @ generator(-theta) vs identity",
        )

    defined = _so6_matrices([[(name, 0.37)] for name in PLANES])
    for name, r in zip(PLANES, defined):
        dev = float(np.max(np.abs(so6_step(name, 0.37) - r)))
        report.bound(
            "step-vs-definition[%s]" % name,
            dev,
            tol,
            "closed-form 6x6 step vs action on basis vectors",
        )

    pairs = [(_random_word(rng, 3, 1.0), _random_word(rng, 3, 1.0)) for _ in range(12)]
    so6 = _so6_matrices([w for w1, w2 in pairs for w in (w1 + w2, w2, w1)])
    comp_dev = 0.0
    for lhs, r2, r1 in zip(so6[0::3], so6[1::3], so6[2::3]):
        comp_dev = max(comp_dev, float(np.max(np.abs(lhs - r2 @ r1))))
    report.bound(
        "composition",
        comp_dev,
        tol,
        "so6(w1 then w2) vs so6(w2) @ so6(w1), 12 seeded word pairs",
    )

    n_heavy = max(1, samples // 20)
    heavy = [(_random_vector(rng), _random_word(rng, 5, 0.6)) for _ in range(n_heavy)]
    vs = [v for v, _ in heavy]
    imgs = act_on_vectors([w for _, w in heavy], vs)
    qform_dev = 0.0
    for v, img in zip(vs, imgs):
        qform_dev = max(qform_dev, abs(metric_form(img) - metric_form(v)))
    report.bound(
        "invariance[qform]",
        qform_dev,
        1e-9,
        "metric square preserved along %d seeded conjugation words" % n_heavy,
    )

    metric_dev = 0.0
    det_dev = 0.0
    words = [_random_word(rng, 5, 0.6) for _ in range(samples)]
    for start in range(0, samples, BATCH_SIZE):
        for dev, det in _invariance_devs(words[start:start + BATCH_SIZE]):
            metric_dev = max(metric_dev, dev)
            det_dev = max(det_dev, abs(det - 1.0))
    report.bound(
        "invariance[metric]",
        metric_dev,
        tol,
        "R^T G R vs G over %d seeded words" % samples,
    )
    report.bound(
        "invariance[det]", det_dev, tol, "det R vs 1 over %d seeded words" % samples
    )

    for m in ("p", "q"):
        proj = pi_project(gamma(m))
        report.add(
            "pi[gamma_%s]" % m,
            proj.is_zero(),
            "0",
            "0" if proj.is_zero() else "nonzero",
            "projection drops the %s component" % m,
        )

    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    lorentz_planes = ("xy", "yz", "zx", "tx", "ty", "tz")
    idx4 = [COORDS.index(m) for m in ("x", "y", "z", "t")]
    for name in lorentz_planes:
        r6 = so6_step(name, 0.83)
        r4 = r6[np.ix_(idx4, idx4)]
        dev = float(np.max(np.abs(r4.T @ eta @ r4 - eta)))
        report.bound(
            "lorentz[%s]" % name,
            dev,
            tol,
            "restricted 4x4 block preserves the (+,+,+,-) form",
        )

    m_pq = generator("pq", 0.6)
    for name in lorentz_planes:
        m_ab = generator(name, 0.9)
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
    c_val, s_val = _sincosh(phi / 2, plane_kind(name) == "boost")
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            rows[i][j] = ONE * 0
    for i, j, c, s, unit in REFERENCE_GENERATOR_TABLE[name]:
        cell = ONE * (c * c_val)
        if s:
            cell = cell + UNIT[unit] * (s * s_val)
        rows[i][j] = cell
    return TensorMatrix(rows)


def appendix_check(config=None, angles=(0.3, 1.0, -0.7)):
    """Diff the bundled reference table against recomputation.

    One entry per plane.  Transcription mismatches are documented
    (with the differing cells), never reported as failures; the
    recomputed matrix is the ground truth.
    """
    config = dict(config or {})
    tol = config.get("tolerance", 1e-12)
    report = Report("appendix", config)
    for name in PLANES:
        bad_cells = {}
        for phi in angles:
            recomputed = generator(name, phi)
            reference = build_reference(name, phi)
            for i in range(4):
                for j in range(4):
                    d = recomputed.rows[i][j] - reference.rows[i][j]
                    if d.max_abs() > tol:
                        bad_cells.setdefault((i, j), (
                            reference.rows[i][j],
                            recomputed.rows[i][j],
                        ))
        if not bad_cells:
            report.add_comparison(
                "appendix[%s]" % name,
                True,
                "reference transcription",
                "match at angles %s" % (angles,),
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
                % (angles[0], details),
            )
    return report
