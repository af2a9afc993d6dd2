"""End-to-end acceptance run: ten numbered criteria, one line each.

Every test prints a [PASS] or [FAIL] line on the real stdout so the
run reads as a checklist even under pytest capture.
"""

import math
import random
import sys

import numpy as np

from splitconf.algebra import BASIS, H_UNITS, L, ONE, ELL, TensorScalar
from splitconf.clifford import (
    COORDS,
    METRIC,
    Vector6,
    build_P,
    build_X,
    extract_coords,
    gamma,
    metric_form,
    verify_clifford,
)
from splitconf.conformal import (
    AT_INFINITY,
    MinkowskiPoint,
    classify_generators,
    conformal_translation_generator,
    embed_point,
    minkowski_inner,
    minkowski_norm2,
    mobius_oracle,
    q_or_infinity,
    step_vector,
    translation_generator,
)
from splitconf.group import (
    PLANES,
    act_on_P,
    act_on_X,
    appendix_check,
    compose_so6,
    metric6,
    pi_project,
    so6_matrix,
    so6_step,
    verify_properties,
)
from splitconf.matrices import TensorMatrix
from splitconf.realrep import (
    COMPLEX_IMAGE,
    SPLIT_IMAGE,
    real_gamma,
    real_generator_matrix,
    realify_scalar,
    restrict_so31_second,
    verify_realrep,
)

SEED = 42

ETA4 = np.diag([1.0, 1.0, 1.0, -1.0])


def announce(number, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print("[%s] criterion %d: %s" % (tag, number, detail), file=sys.__stdout__)
    assert ok, detail


def random_vector(rng, span=1.0):
    return Vector6(*(rng.uniform(-span, span) for _ in range(6)))


def random_word(rng, max_len=5, span=0.6):
    n = rng.randint(0, max_len)
    return [
        (rng.choice(PLANES), rng.uniform(-span, span)) for _ in range(n)
    ]


def test_criterion_01_clifford_relations():
    ok = True
    ident = TensorMatrix.identity(4)
    i16 = np.eye(16, dtype=np.int64)
    for m in COORDS:
        for n in COORDS:
            want = 2 * METRIC[m] if m == n else 0
            anti = gamma(m) @ gamma(n) + gamma(n) @ gamma(m)
            ok = ok and anti == ident.scale(want)
            gm, gn = real_gamma(m), real_gamma(n)
            ok = ok and np.array_equal(gm @ gn + gn @ gm, want * i16)
    rep = verify_clifford()
    ok = ok and rep.passed and len(rep.checks) == 21
    announce(1, ok, "36 ordered anticommutators exact, abstract and 16x16 real")


def test_criterion_02_structural_properties():
    rep = verify_properties()
    counts = rep.counts()
    ok = counts.get("pass", 0) == 216 and counts.get("fail", 0) == 0
    announce(2, ok, "all index combinations of the five identities hold exactly")


def test_criterion_03_metric_invariance():
    rng = random.Random(SEED)
    g6 = metric6()
    worst_form = 0.0
    worst_metric = 0.0
    worst_det = 0.0
    worst_bridge = 0.0
    for trial in range(1000):
        v = random_vector(rng)
        word = random_word(rng)
        img = extract_coords(act_on_P(word, build_P(v)))
        worst_form = max(
            worst_form, abs(metric_form(img) - metric_form(v))
        )
        r = compose_so6(word)
        if trial < 25:
            # the closed-form steps must agree with the definition
            worst_bridge = max(
                worst_bridge, float(np.max(np.abs(r - so6_matrix(word))))
            )
        worst_metric = max(
            worst_metric, float(np.max(np.abs(r.T @ g6 @ r - g6)))
        )
        worst_det = max(worst_det, abs(np.linalg.det(r) - 1))
    ok = (
        worst_form <= 1e-9
        and worst_metric <= 1e-12
        and worst_det <= 1e-12
        and worst_bridge <= 1e-12
        and np.array_equal(g6, np.diag([1, 1, 1, -1, -1, 1]))
    )
    announce(
        3,
        ok,
        "1000 words: form drift %.2e, R^T G R drift %.2e, det drift %.2e"
        % (worst_form, worst_metric, worst_det),
    )


def test_criterion_04_two_by_two_equivalence():
    rng = random.Random(SEED + 1)
    worst = 0.0
    hermitian = True
    for _ in range(1000):
        v = random_vector(rng)
        word = random_word(rng)
        p_img = act_on_P(word, build_P(v))
        x_img = act_on_X(word, build_X(v))
        _, tr, _, _ = p_img.blocks()
        worst = max(worst, float((tr - x_img).max_abs()))
        hermitian = hermitian and x_img.is_c_hermitian(
            1e-12 * max(1.0, float(x_img.max_abs()))
        )
    ok = worst <= 1e-12 and hermitian
    announce(
        4,
        ok,
        "2x2 and 4x4 actions agree on 1000 samples (max gap %.2e), "
        "hermiticity preserved" % worst,
    )


def test_criterion_05_conformal_suite():
    rng = random.Random(SEED + 2)
    ok = True
    detail = []

    worst_t = 0.0
    for m in ("x", "y", "z", "t"):
        for _ in range(50):
            pt = MinkowskiPoint(*(rng.uniform(-1, 1) for _ in range(4)))
            theta = rng.uniform(-1.5, 1.5)
            img = q_or_infinity(
                step_vector("a" + m, theta, embed_point(pt).v)
            )
            want = pt.shifted(m, theta)
            gap = max(
                abs(img.component(c) - want.component(c))
                for c in ("t", "x", "y", "z")
            )
            worst_t = max(worst_t, gap)
    ok = ok and worst_t <= 1e-12
    detail.append("translations %.1e" % worst_t)

    worst_d = 0.0
    for _ in range(100):
        pt = MinkowskiPoint(*(rng.uniform(-1, 1) for _ in range(4)))
        theta = rng.uniform(-1, 1)
        img = q_or_infinity(step_vector("pq", theta, embed_point(pt).v))
        scale = math.exp(-theta)
        gap = max(
            abs(img.component(c) - scale * pt.component(c))
            for c in ("t", "x", "y", "z")
        )
        worst_d = max(worst_d, gap)
    ok = ok and worst_d <= 1e-12
    detail.append("dilations %.1e" % worst_d)

    worst_c = 0.0
    worst_null = 0.0
    produced = 0
    while produced < 1000:
        pt = MinkowskiPoint(*(rng.uniform(-1, 1) for _ in range(4)))
        m = rng.choice(("x", "y", "z", "t"))
        theta = rng.uniform(-0.5, 0.5)
        alpha = MinkowskiPoint(0, 0, 0, 0).shifted(m, theta)
        denom = (
            1
            + 2 * minkowski_inner(pt, alpha)
            + minkowski_norm2(alpha) * minkowski_norm2(pt)
        )
        if abs(denom) < 0.2:
            continue
        produced += 1
        img_v = step_vector("b" + m, theta, embed_point(pt).v)
        worst_null = max(
            worst_null,
            abs(metric_form(img_v))
            / max(1.0, float(img_v.max_abs()) ** 2),
        )
        img = q_or_infinity(img_v)
        want = mobius_oracle(pt, alpha)
        if img is AT_INFINITY or want is AT_INFINITY:
            ok = ok and img is want
            continue
        gap = max(
            abs(img.component(c) - want.component(c))
            for c in ("t", "x", "y", "z")
        )
        worst_c = max(worst_c, gap)
    ok = ok and worst_c <= 1e-9 and worst_null <= 1e-9
    detail.append("inversion formula %.1e" % worst_c)
    detail.append("null drift %.1e" % worst_null)

    rep = classify_generators()
    counts_line = [
        c for c in rep.checks if c.check_id == "classify[counts]"
    ]
    ok = ok and rep.passed and bool(counts_line)
    ok = ok and counts_line[0].actual == "(3, 3, 1, 4, 4)"
    detail.append("classification 3/3/1/4/4")

    announce(5, ok, "; ".join(detail))


def test_criterion_06_nilpotency():
    ok = True
    for m in ("x", "y", "z", "t"):
        a = translation_generator(m)
        b = conformal_translation_generator(m)
        ok = ok and (a @ a).is_zero() and (b @ b).is_zero()
        ok = ok and a.max_abs() > 0 and b.max_abs() > 0
    announce(6, ok, "both nilpotent generators square to zero in all four directions")


def test_criterion_07_real_homomorphism():
    ok = True
    for u in BASIS:
        for v in BASIS:
            a, b = TensorScalar.unit(u), TensorScalar.unit(v)
            ok = ok and np.array_equal(
                realify_scalar(a * b),
                realify_scalar(a) @ realify_scalar(b),
            )
    # the two factor tables, checked against their defining images
    for u in H_UNITS:
        for v in H_UNITS:
            prod = TensorScalar.unit(u) * TensorScalar.unit(v)
            want = sum(
                int(prod.coeffs[i]) * SPLIT_IMAGE[H_UNITS[i]]
                for i in range(4)
            )
            ok = ok and np.array_equal(SPLIT_IMAGE[u] @ SPLIT_IMAGE[v], want)
    for u in ("1", "l"):
        for v in ("1", "l"):
            got = COMPLEX_IMAGE[u] @ COMPLEX_IMAGE[v]
            if u == v == "l":
                want = -COMPLEX_IMAGE["1"]
            elif "l" in (u, v):
                want = COMPLEX_IMAGE["l"]
            else:
                want = COMPLEX_IMAGE["1"]
            ok = ok and np.array_equal(got, want)
    announce(7, ok, "realification is a ring homomorphism on all 64 basis pairs")


def test_criterion_08_projection_and_restriction():
    ok = pi_project(gamma("p")).is_zero() and pi_project(gamma("q")).is_zero()
    lorentz = ("xy", "yz", "zx", "tx", "ty", "tz")
    worst = 0.0
    for name in lorentz:
        r = so6_step(name, 0.83)[:4, :4]
        worst = max(worst, float(np.max(np.abs(r.T @ ETA4 @ r - ETA4))))
    ok = ok and worst <= 1e-12
    worst_c = 0.0
    m_pq = real_generator_matrix("pq")
    for name in lorentz:
        g = real_generator_matrix(name)
        worst_c = max(
            worst_c, float(np.max(np.abs(m_pq @ g - g @ m_pq)))
        )
    ok = ok and worst_c <= 1e-12
    rep = restrict_so31_second()
    ok = ok and rep.counts().get("fail", 0) == 0
    announce(
        8,
        ok,
        "p,q project to zero; six survivors preserve eta (%.1e); "
        "dilation generator commutes (%.1e)" % (worst, worst_c),
    )


def test_criterion_09_reference_cross_checks():
    angles = (0.3, 1.0, -0.7)
    rep = appendix_check()
    ok = len(rep.checks) == 15
    statuses = {c.status for c in rep.checks}
    ok = ok and statuses <= {"pass", "discrepancy-documented"}
    rep2 = verify_realrep({"seed": SEED})
    gen_checks = [
        c for c in rep2.checks if c.check_id.startswith("generator-table[")
    ]
    ok = ok and len(gen_checks) == 15
    ok = ok and all(
        c.status in ("pass", "discrepancy-documented") for c in gen_checks
    )

    # recomputed matrices still drive metric-true actions
    g6 = metric6()
    worst = 0.0
    for name in PLANES:
        for theta in angles:
            r = so6_step(name, theta)
            worst = max(worst, float(np.max(np.abs(r.T @ g6 @ r - g6))))
            worst = max(worst, abs(np.linalg.det(r) - 1))
            v = Vector6(x=0.3, y=-0.4, z=0.1, t=0.7, p=-0.2, q=0.5)
            p_img = act_on_P([(name, theta)], build_P(v))
            x_img = act_on_X([(name, theta)], build_X(v))
            _, tr, _, _ = p_img.blocks()
            worst = max(worst, float((tr - x_img).max_abs()))
    ok = ok and worst <= 1e-12
    flagged = sorted(
        c.check_id
        for c in list(rep.checks) + gen_checks
        if c.status == "discrepancy-documented"
    )
    announce(
        9,
        ok,
        "30 reference expressions cross-checked at 3 angles, "
        "documented discrepancies: %s" % (flagged or "none"),
    )


def test_criterion_10_zero_divisors():
    plus = ONE + L
    minus = ONE - L
    ok = not (plus * minus).nonzero and plus.nonzero and minus.nonzero
    for name in H_UNITS:
        u = TensorScalar.unit(name)
        ok = ok and not (ELL * u - u * ELL).nonzero
    announce(10, ok, "zero divisors behave and the commuting unit commutes")
