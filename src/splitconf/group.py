"""The 23 named steps of the group and their actions.

``_resolve`` is the step table: it maps a step name and angle to
(canonical name, kind, signed angle), and it is the one place that
refuses an angle that is not a number or not finite, a boost angle
whose full-angle cosh overflows, or an unknown name.  Every route reads it
(``realrep.exp_real_generator`` and the command line too) and keeps its
own trigonometry: ``_half_angle`` turns a step into the 4x4 element
c I + s G, and ``_so6_stack`` into its closed-form 6x6 map (cos/cosh of
the full angle; planes only).  A plane has its gamma product as G, with cos/sin
of the half angle when G squares to -I (a rotation) and cosh/sinh when
it squares to +I (a boost).  ax..at and bx..bt have the nilpotent
Gamma_p Gamma_m -+ Gamma_q Gamma_m as G, with c = 1 and s = theta/2
(see ``conformal``).  An element acts on P by conjugation, and on X by
a two-sided 2x2 product of diagonal blocks of c I + s G and its inverse.
Both walks (``_conjugate``, under ``act_on_P`` and ``act_on_vector``, and
``act_on_X``) resolve a whole word before the first product, so every
scalar route names a bad step the same way.  ``act_on_vector`` runs a
float word on a float vector through ``plans.run`` instead (bit for bit
``_conjugate``'s products) and reads the flat result with
``clifford._read``; what the plans cannot run, or a result the reader
refuses, takes ``_conjugate``, which raises with its own message.
Exact words, ``act_on_P`` and ``act_on_X`` stay on the ``TensorMatrix``
route, the reference for both plan kernels.

The module also carries a bundled reference transcription of all
fifteen matrices in closed form.  ``appendix_check`` diffs that table
against recomputation and documents any transcription discrepancy
instead of failing, so the recomputed matrices stay the ground truth.

``act_on_coords`` is the one batched entry point: it conjugates the
rows of an (n, 6) float array through ``batch.conjugate``, the
order-preserving numpy kernel, bit for bit as ``act_on_vector`` does
one at a time.  It owns the routing: which rows go on the kernel, cut
into chunks of ``batch.BATCH_SIZE`` whatever their word lengths, and
``act_on_vector`` for the rest.  Each row may carry its own word,
so the sampled words of ``verify_group``, ``verify_conformal`` and
``so6_matrix`` run as a few batches.  ``compose_so6`` is the one-word
case of ``_compose_so6``, the stacked (n, 6, 6) product the 6x6
invariance checks form.  numpy, ``batch`` and ``plans`` are imported by
the functions that use them, so the scalar step route loads no numpy.
"""

import functools
import math
import random
import sys
from contextlib import suppress

from .algebra import ONE, SPAN_TOL, UNIT, ZERO, exact_div, is_number
from .clifford import (
    COORDS,
    METRIC,
    Vector6,
    _read,
    build_P,
    extract_coords,
    gamma,
    metric_form,
)
from .matrices import TensorMatrix, _refuse_overflow, _sincosh, exp_pair
from .report import Report

__all__ = [
    "PLANES",
    "LORENTZ_PLANES",
    "TRANSLATABLE",
    "TRANSLATION_NAMES",
    "canonical_plane",
    "plane_kind",
    "generator",
    "act_on_P",
    "act_on_X",
    "act_on_vector",
    "act_on_coords",
    "so6_matrix",
    "so6_step",
    "compose_so6",
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

# The planes of the point coordinates: rotations and boosts of (t, x, y, z).
LORENTZ_PLANES = ("xy", "yz", "zx", "tx", "ty", "tz")

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
    """Resolve a plane name 'ab' to (canonical name, orientation).

    Orientation is +1 when the given order matches the canonical name
    and -1 when reversed; reversing the pair negates the angle.
    """
    got = _CANONICAL.get(plane)
    if got is None:
        raise ValueError("unknown plane %r" % (plane,))
    return got


@functools.cache
def _plane_data(name):
    """(gamma product, kind) for a canonical name."""
    gp = gamma(name[0]) @ gamma(name[1])
    sq = gp @ gp
    ident = TensorMatrix.identity(4)
    if sq == ident:
        return gp, "boost"
    if sq == -ident:
        return gp, "rotation"
    raise AssertionError("gamma product square is not +I or -I")


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


# The largest boost angle: so6_step's cosh of the full angle is finite up to it.
_BOOST_LIMIT = math.acosh(sys.float_info.max)


@functools.cache
def _step_entry(step):
    """(canonical name, kind, orientation) of a step name, stored on first
    use; an unknown name raises ValueError and is not stored."""
    if step in TRANSLATION_NAMES:
        return step, "nilpotent", 1
    if step not in _CANONICAL:
        raise ValueError("unknown step name %r" % (step,))
    name, orient = _CANONICAL[step]
    kind = _plane_data(name)[1]
    return name, kind, orient


def _resolve(step, theta):
    """(canonical name, kind, signed angle) of one named step: the step table.

    kind is "rotation" or "boost" for a plane (either order; reversing
    it negates the angle), else "nilpotent".  An angle that is not a
    number (algebra.is_number) raises TypeError, and a float that is not
    finite ValueError, before an unknown name does; a boost angle beyond
    _BOOST_LIMIT raises OverflowError.
    """
    if isinstance(theta, float):
        if not math.isfinite(theta):
            raise ValueError("angle %s is not finite" % (theta,))
    elif not is_number(theta):
        what = "a bool" if type(theta) is bool else "of type %s" % type(theta).__name__
        raise TypeError("angle %r of %r is %s, not a number" % (theta, step, what))
    name, kind, orient = _step_entry(step)
    if kind == "boost" and abs(theta) > _BOOST_LIMIT:
        raise OverflowError(
            "boost angle %s of %r is beyond %r, the largest whose cosh is finite"
            % (theta, step, _BOOST_LIMIT)
        )
    return name, kind, theta if orient > 0 else -theta


def _half_angle(step, theta):
    """(G, c, s) with c I + s G the group element of one named step.

    A plane gives its gamma product with cos/sin or cosh/sinh of half
    the signed angle.  A nilpotent name gives its generator with
    (1, theta/2), theta/2 exact for an exact theta; G @ G == 0 is
    proved once per generator (cached on the matrix), and a generator
    that fails it raises ValueError.
    """
    name, kind, theta = _resolve(step, theta)
    if kind == "nilpotent":
        gen = _nilpotent_generator(name[0], name[1])
        if not gen.squares_to_zero():
            raise ValueError("generator must square to zero exactly")
        return gen, 1, exact_div(theta, 2)
    c, s = _sincosh(exact_div(theta, 2), kind == "boost")
    return _plane_data(name)[0], c, s


@functools.cache
def _adjoint(step):
    """The so(4,2) adjoint A of a step's generator G, a 6x6 tuple of ints: A[i][n]
    is coordinate i of (G gamma_n - gamma_n G) / 2, the derivative at 0 of the
    step's 6x6 map.  An entry that is not an integer raises AssertionError."""
    name, _, orient = _step_entry(step)
    gen = _half_angle(name, 0)[0]
    cols = [extract_coords(gen @ gamma(m) - gamma(m) @ gen).as_tuple() for m in COORDS]
    if any(c % 2 for col in cols for c in col):
        raise AssertionError("adjoint of %r is not an integer table" % (step,))
    return tuple(tuple(orient * int(col[i] / 2) for col in cols) for i in range(6))


def generator(step, theta):
    """The 4x4 group element c I + s G of a named step at angle theta.

    See _half_angle: cos/sin for rotation planes, cosh/sinh for boost
    planes, I + (theta/2) G for ax..at and bx..bt.  theta = 0 gives the
    identity; a = b is rejected.
    """
    return exp_pair(*_half_angle(step, theta))[0]


def _conjugate(word, p):
    """M p M^-1 for each (step, angle) entry in sequence, M = generator(step, theta),
    after resolving every step, so a step's own error comes first.

    M and M^-1 = generator(step, -theta) = c I - s G come from one
    exp_pair call on the same (c, s): libm's cos and cosh are even and
    sin and sinh odd, and s = theta/2 is odd, so this is bit for bit
    the matrix generator(step, -theta) builds.  A float p whose products
    overflow raises ValueError (see _refuse_overflow).
    """
    pairs = [exp_pair(*_half_angle(step, theta)) for step, theta in word]
    q = p
    try:
        for m, m_inv in pairs:
            q = (m @ q) @ m_inv
    except OverflowError:
        if not p.is_exact():
            _refuse_overflow(p.flat())
        raise
    return q


def act_on_P(word, p):
    """_conjugate(word, p), whose residual beyond extract_coords' tolerance
    raises ValueError."""
    q = _conjugate(word, p)
    extract_coords(q)
    return q


def act_on_X(word, x):
    """The equivalent 2x2 action: one two-sided product per step, any of the 23.

    Every step is resolved before the first product, as in _conjugate; X
    is multiplied on the left by the top-left block of c I + s G and on
    the right by the bottom-right block of c I - s G.  Hermiticity with
    respect to the complex unit is checked on the result, exactly for an
    exact result, else to SPAN_TOL relative to the matrix scale; losing
    it raises ValueError.  A float result with a coefficient that is not
    finite raises a ValueError naming it.
    """
    for m, m_inv in [exp_pair(*_half_angle(step, theta)) for step, theta in word]:
        x = (m.blocks()[0] @ x) @ m_inv.blocks()[3]
    exact = x.is_exact()
    if not exact:
        _refuse_overflow(x.flat())
    if not x.is_c_hermitian(0 if exact else SPAN_TOL, x.max_abs()):
        raise ValueError("2x2 action lost Hermiticity beyond tolerance")
    return x


def act_on_vector(word, v):
    """Coordinates of the conjugated embedding of v: extract_coords of
    _conjugate(word, build_P(v)), whose extraction doubles as the span
    check of act_on_P (a result outside the span raises ValueError).

    A float word (see _plan) on a Vector6 of floats and int zeros runs on
    plans.run instead, with the same bits, read by extract_coords' _read;
    an all-zero result (exact zeros on _conjugate's route), any other
    input and any result _read refuses take _conjugate, which raises
    with its own message.
    """
    floats = isinstance(v, Vector6) and all(
        type(c) is float or type(c) is int and not c for c in v.as_tuple())
    steps = _plan(word) if floats else None
    if steps is not None:
        from .plans import run
        flat = run(steps, v.as_tuple())
        if any(flat):
            try:
                return _read(flat, False)
            except ValueError:
                pass
    return extract_coords(_conjugate(word, build_P(v)))


def _plan(word):
    """The _half_angle (G, c, s) of every step of word, or None when it
    cannot run on the plans: a word that is not a list or tuple, an angle
    that is not a float, or a step _half_angle refuses or cannot read (an
    angle that is not finite or overflows, an unknown name, an entry that
    is not a (name, angle) pair)."""
    if not isinstance(word, (list, tuple)):
        return None
    try:
        if all(type(theta) is float for _, theta in word):
            return [_half_angle(*step) for step in word]
    except (OverflowError, TypeError, ValueError):
        pass
    return None


def act_on_coords(words, coords):
    """act_on_vector(words[i], Vector6(*coords[i])) for each of n float rows, as (n, 6).

    The rows whose words batch (see _plan) run on batch.conjugate in
    chunks of batch.BATCH_SIZE, whatever their word lengths, each row
    with its word's _plan.  Each word object is planned once, after
    list(word) for one that is neither a list nor a tuple (if list takes
    it), so rows that share an iterator share its steps.  Every other
    row, and any the kernel refuses, goes through act_on_vector in index
    order, which raises with its own message.
    """
    import numpy as np
    from . import batch
    words, coords = list(words), np.array(coords, dtype=float)
    if coords.size and coords.shape[-1:] != (6,):
        raise ValueError("coordinates of shape %s: each row needs 6" % (coords.shape,))
    coords = coords.reshape(-1, 6)
    if len(words) != len(coords):
        raise ValueError("%d words for %d vectors" % (len(words), len(coords)))
    read, plans = {}, []
    for i, w in enumerate(words):
        if id(w) not in read:
            word = w
            if not isinstance(w, (list, tuple)):
                with suppress(TypeError):
                    word = list(w)
            read[id(w)] = word, _plan(word)
        words[i], plan = read[id(w)]
        plans.append(plan)
    take = [i for i, plan in enumerate(plans) if plan is not None]
    out, done = np.empty_like(coords), np.zeros(len(words), dtype=bool)
    for start in range(0, len(take), batch.BATCH_SIZE):
        chunk = take[start:start + batch.BATCH_SIZE]
        out[chunk], done[chunk] = batch.conjugate(coords[chunk], [plans[i] for i in chunk])
    for i in np.flatnonzero(~done).tolist():
        out[i] = act_on_vector(words[i], Vector6(*coords[i].tolist())).as_tuple()
    return out


def _so6_matrices(words):
    """so6_matrix of each word, as an (n, 6, 6) array.

    All the words act on the six float basis rows in one act_on_coords
    call: a unit coefficient multiplies and adds exactly, so they give
    the float values the exact basis vectors give.
    """
    import numpy as np
    basis = np.tile(np.eye(6), (len(words), 1))
    imgs = act_on_coords([w for w in words for _ in COORDS], basis)
    return imgs.reshape(-1, 6, 6).transpose(0, 2, 1)


def so6_matrix(word):
    """The real 6x6 matrix R with act_on_vector(word, v) = R v."""
    return _so6_matrices([word])[0]


@functools.cache
def _so6_slots(name):
    """The flat 6x6 indices of cells (a, a), (a, b), (b, b), (b, a) of a
    canonical plane ab, and its metric signs (METRIC[b], METRIC[a])."""
    a, b = COORDS.index(name[0]), COORDS.index(name[1])
    return (7 * a, 6 * a + b, 7 * b, 6 * b + a), (METRIC[name[1]], METRIC[name[0]])


def _so6_stack(steps):
    """so6_step of each (plane, theta) in steps as an (n, 6, 6) array; None gives I."""
    import numpy as np
    cols, values = [], []
    for n, step in enumerate(steps):
        if step is None:
            continue
        name, kind, theta = _resolve(*step)
        if kind == "nilpotent":
            raise ValueError("so6_step takes a plane, not the nilpotent step %r" % (name,))
        c, s = _sincosh(theta, kind == "boost")
        (aa, ab, bb, ba), (mb, ma) = _so6_slots(name)
        o = 36 * n
        cols += (o + aa, o + ab, o + bb, o + ba)
        values += (c, s * mb, c, -s * ma)
    r = np.zeros((len(steps), 36))
    r[:, ::7] = 1
    r.reshape(-1)[cols] = values
    return r.reshape(-1, 6, 6)


def _compose_so6(words):
    """compose_so6 of each word as an (n, 6, 6) array, step k of every word
    in one _so6_stack.  A shorter word starts with identity steps, and
    I @ I is I exactly, so each product is the one its word alone forms."""
    depth = max(map(len, words), default=0)
    padded = [[None] * (depth - len(w)) + list(w) for w in words]
    r = _so6_stack([None] * len(words))
    for k in range(depth):
        r = _so6_stack([w[k] for w in padded]) @ r
    return r


def so6_step(plane, theta):
    """Closed-form 6x6 matrix of a single plane transformation.

    Equals so6_matrix([(plane, theta)]); kept separate so long words
    can be composed without rebuilding the conjugation each time.  A
    nilpotent step name raises ValueError naming it.
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
    report, _ = Report.for_suite("properties", config)
    ident = TensorMatrix.identity(4)
    for a in COORDS:
        ok = gamma(a) @ gamma(a) == ident.scale(METRIC[a])
        report.match("prop1[%s]" % a, ok, "(%+d)*I" % METRIC[a])
        for b in COORDS:
            if b == a:
                continue
            ab = gamma(a) @ gamma(b)
            for c in COORDS:
                if c != a and c != b:
                    ok = ab @ gamma(c) == gamma(c) @ ab
                    report.match("prop2[%s,%s,%s]" % (a, b, c), ok, "commute")
            report.match(
                "prop3[%s,%s]" % (a, b),
                ab @ gamma(b) == gamma(a).scale(METRIC[b]),
                "(%+d)*gamma(%s)" % (METRIC[b], a),
            )
            report.match(
                "prop4[%s,%s]" % (a, b),
                ab @ gamma(a) == gamma(b).scale(-METRIC[a]),
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


def compose_so6(word):
    """Product of single-step 6x6 matrices, later steps applied on the left."""
    return _compose_so6([list(word)])[0]


def _invariance_devs(words):
    """(max |R^T G R - G|, det R) for R = compose_so6(word), one row of an
    (n, 2) array per word, all formed at once by _compose_so6."""
    import numpy as np
    g6 = metric6()
    r = _compose_so6(words)
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
        imgs = act_on_coords([w for _, w in heavy], vs)
        gaps.append(metric_form(Vector6(*imgs.T)) - metric_form(Vector6(*vs.T)))
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
        proj = pi_project(gamma(m))
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
    for name in LORENTZ_PLANES:
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
            recomputed = generator(name, phi)
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
