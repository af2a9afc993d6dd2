"""Real 16x16 matrices for the whole structure.

The complex unit and the three split units each map to a real 2x2
matrix; tensor factors become Kronecker factors, so every scalar
becomes a real 4x4 block and every 4x4 matrix a real 16x16 one.  The
six gammas and the fifteen plane products then have closed Kronecker
forms, bundled here as reference data and diffed against recomputation.

Restricting to elements whose split content stays inside span{1, L}
keeps the six Lorentz planes plus the dilation plane, and nothing
else; the bundled criterion text names a different unit image than
the bundled mapping table, so that inconsistency is documented by
``restrict_so31_second`` rather than silently resolved.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np

from .algebra import BASIS, H_UNITS, UNIT, TensorScalar, terms
from .clifford import COORDS, METRIC, gamma
from .group import LORENTZ_PLANES, PLANES, _plane_data, _resolve, generator
from .matrices import TensorMatrix
from .report import Report

__all__ = [
    "I2",
    "SX",
    "SZ",
    "Y2",
    "COMPLEX_IMAGE",
    "SPLIT_IMAGE",
    "realify_scalar",
    "realify_matrix",
    "GAMMA_REAL_DATA",
    "real_gamma",
    "REFERENCE_REAL_GENERATORS",
    "real_generator_matrix",
    "exp_real",
    "exp_real_generator",
    "surviving_planes",
    "restrict_so31_second",
    "verify_realrep",
]

I2 = np.array([[1, 0], [0, 1]], dtype=np.int64)
SX = np.array([[0, 1], [1, 0]], dtype=np.int64)
SZ = np.array([[1, 0], [0, -1]], dtype=np.int64)
# The real image of the complex unit: entries {0, +-1}, squares to -I.
Y2 = np.array([[0, 1], [-1, 0]], dtype=np.int64)

COMPLEX_IMAGE = {"1": I2, "l": Y2}
SPLIT_IMAGE = {"1": I2, "K": -Y2, "KL": SX, "L": SZ}

_FACTORS = {"I": I2, "sx": SX, "sz": SZ, "Y": Y2}


def _kron_all(names):
    """The Kronecker product of four named 2x2 factors, a 16x16 matrix."""
    out = np.einsum("ab,cd,ef,gh->acegbdfh", *(_FACTORS[n] for n in names))
    return out.reshape(16, 16)


@functools.cache
def _unit_blocks():
    """The real 4x4 images of the eight BASIS units, in BASIS order."""
    return [
        np.kron(SPLIT_IMAGE[H_UNITS[i % 4]], COMPLEX_IMAGE["l" if i >= 4 else "1"])
        for i in range(8)
    ]


@functools.cache
def _unit_pairs():
    """((u, v), (a, b)) of 4x4 arrays: at each entry, the two units u < v
    whose images are nonzero there, and those images' entries."""
    blocks = np.array(_unit_blocks())
    if ((blocks != 0).sum(axis=0) != 2).any():
        raise AssertionError("a real entry is not the sum of two unit images")
    units = np.argsort(blocks == 0, axis=0, kind="stable")[:2]
    return units, np.take_along_axis(blocks, units, axis=0)


def _realify(coeffs):
    """The real 4x4 blocks of an (..., 8) coefficient array; + 0 makes -0.0 0.0."""
    (u, v), (a, b) = _unit_pairs()
    return coeffs[..., u] * a + coeffs[..., v] * b + 0


def realify_scalar(s):
    """The real 4x4 matrix of a scalar: split image kron complex image.

    Integer coefficients give an int64 matrix, floats give float64,
    and exact rationals give an object matrix of Fractions; in every
    case the map is an exact ring homomorphism on exact inputs.  Each
    entry adds two coefficients in BASIS order, as the sum of the eight
    unit images does.
    """
    return _realify(np.array(s.coeffs))


def realify_matrix(m):
    """Entrywise realification: each entry becomes a real 4x4 block."""
    n = len(m.rows)
    blocks = _realify(np.array(m.flat()).reshape(n, n, 8))
    return blocks.transpose(0, 2, 1, 3).reshape(4 * n, 4 * n)


# Closed Kronecker forms of the six gammas: sign and the four factors
# (block structure, sigma content, split image, complex image).
GAMMA_REAL_DATA = {
    "x": (1, ("sx", "sx", "I", "I")),
    "y": (-1, ("sx", "Y", "I", "Y")),
    "z": (1, ("sx", "sz", "I", "I")),
    "t": (1, ("Y", "I", "sz", "I")),
    "q": (-1, ("Y", "I", "Y", "I")),
    "p": (1, ("Y", "I", "sx", "I")),
}

@functools.cache
def real_gamma(m):
    """The 16x16 integer matrix of gamma(m), entries in {0, +-1}."""
    sign, names = GAMMA_REAL_DATA[m]
    return sign * _kron_all(names)


# Reference transcription of the fifteen plane products in Kronecker
# form, diffed against recomputation by verify_realrep.
REFERENCE_REAL_GENERATORS = {
    "tx": (1, ("sz", "sx", "sz", "I")),
    "ty": (-1, ("sz", "Y", "sz", "Y")),
    "tz": (1, ("sz", "sz", "sz", "I")),
    "xy": (1, ("I", "sz", "I", "Y")),
    "yz": (1, ("I", "sx", "I", "Y")),
    "zx": (1, ("I", "Y", "I", "I")),
    "qx": (-1, ("sz", "sx", "Y", "I")),
    "qy": (1, ("sz", "Y", "Y", "Y")),
    "qz": (-1, ("sz", "sz", "Y", "I")),
    "px": (1, ("sz", "sx", "sx", "I")),
    "py": (-1, ("sz", "Y", "sx", "Y")),
    "pz": (1, ("sz", "sz", "sx", "I")),
    "tp": (-1, ("I", "I", "Y", "I")),
    "tq": (1, ("I", "I", "sx", "I")),
    "pq": (-1, ("I", "I", "sz", "I")),
}

@functools.cache
def real_generator_matrix(name):
    """real_gamma(a) @ real_gamma(b) for a canonical plane name."""
    return real_gamma(name[0]) @ real_gamma(name[1])


_I16 = np.eye(16, dtype=np.int64)


def exp_real(g, theta):
    """cos/cosh closed form of exp(g theta) for g squaring to -I or +I.

    An entry that overflows raises OverflowError, with no numpy warning.
    """
    sq = g @ g
    with np.errstate(over="ignore", invalid="ignore"):
        if np.array_equal(sq, _I16):
            c, s = np.cosh(theta), np.sinh(theta)
        elif np.array_equal(sq, -_I16):
            c, s = np.cos(theta), np.sin(theta)
        else:
            raise AssertionError("square is not +I or -I")
        out = c * np.eye(16) + s * g.astype(np.float64)
    if not np.isfinite(out).all():
        raise OverflowError("exp(g theta) at theta = %r is not finite" % (theta,))
    return out


def exp_real_generator(plane, theta):
    """The real image of generator(plane, theta), for a plane step only."""
    name, kind, theta = _resolve(plane, theta)
    if kind == "nilpotent":
        raise ValueError(
            "exp_real_generator takes a plane, not the nilpotent step %r" % (name,)
        )
    return exp_real(real_generator_matrix(name), theta / 2)


def _split_content_in_1L(m):
    """True when no entry of m carries a K or KL coefficient."""
    for row in m.rows:
        for e in row:
            c = e.coeffs
            if c[1] != 0 or c[2] != 0 or c[5] != 0 or c[6] != 0:
                return False
    return True


def surviving_planes():
    """Planes whose gamma product lies in the span{1, L} subalgebra."""
    return tuple(
        name
        for name in PLANES
        if _split_content_in_1L(_plane_data(name)[0])
    )


def restrict_so31_second(config=None):
    """Which plane products survive restriction to split content {1, L}.

    The expected outcome: the six Lorentz planes plus pq, whose
    product is the scalar matrix -L I (third Kronecker factor is the
    image of L).  The bundled criterion text pairs L with the sigma_x
    image, which belongs to KL in the bundled mapping; that
    inconsistency is documented as a discrepancy, and the recomputed
    survivor set is the ground truth.
    """
    report, (tol, _, _) = Report.for_suite("restriction", config)

    survivors = surviving_planes()
    expected = LORENTZ_PLANES + ("pq",)
    report.add(
        "restriction[survivors]",
        survivors == expected,
        str(expected),
        str(survivors),
        "planes with no K or KL content in the gamma product",
    )

    extra = tuple(name for name in survivors if name not in LORENTZ_PLANES)
    report.add(
        "restriction[extra]",
        extra == ("pq",),
        "('pq',)",
        str(extra),
        "the one survivor beyond the Lorentz planes is the dilation plane",
    )

    pq_exp = exp_real_generator("pq", 0.37)
    for name in LORENTZ_PLANES:
        other = exp_real_generator(name, 0.59)
        dev = float(np.max(np.abs(pq_exp @ other - other @ pq_exp)))
        report.bound(
            "restriction[commutes,%s]" % name,
            dev,
            tol,
            "exp of the pq product commutes with the Lorentz exp",
        )

    literal = tuple(
        name
        for name in PLANES
        if REFERENCE_REAL_GENERATORS[name][1][2] in ("I", "sx")
    )
    report.add_comparison(
        "restriction[criterion-text]",
        literal == expected,
        "stated unit images select the survivor set",
        "stated criterion pairs L with the sigma_x image, which the "
        "mapping table assigns to KL; taken literally it selects %s"
        % (literal,),
        "recomputed survivors %s are the ground truth" % (survivors,),
    )
    return report


def verify_realrep(config=None):
    """Exhaustive homomorphism, Clifford, and transcription checks."""
    report, (tol, seed, _) = Report.for_suite("realrep", config)
    rng = random.Random(seed)

    images = (("c", ("1", "l"), COMPLEX_IMAGE), ("h", H_UNITS, SPLIT_IMAGE))
    for tag, units, image in images:
        for u in units:
            for v in units:
                prod = TensorScalar.unit(u) * TensorScalar.unit(v)
                want = sum(c * image[BASIS[i]] for i, c in terms(prod.coeffs))
                report.match(
                    "image-mul[%s:%s,%s]" % (tag, u, v),
                    np.array_equal(image[u] @ image[v], want),
                    "image of the product",
                )

    real = {u: realify_scalar(UNIT[u]) for u in BASIS}
    for eu in BASIS:
        for ev in BASIS:
            prod = realify_scalar(UNIT[eu] * UNIT[ev])
            report.match(
                "homomorphism[%s,%s]" % (eu, ev),
                np.array_equal(real[eu] @ real[ev], prod),
                "realify(a)@realify(b) == realify(a*b)",
            )

    entries_ok = all(
        set(real_gamma(m).ravel().tolist()) <= {-1, 0, 1} for m in COORDS
    )
    report.add(
        "gamma-entries",
        entries_ok,
        "entries in {0, +1, -1}",
        "ok" if entries_ok else "out of range",
    )

    for i, m in enumerate(COORDS):
        for n in COORDS[i:]:
            anti = real_gamma(m) @ real_gamma(n) + real_gamma(n) @ real_gamma(m)
            g = METRIC[m] if m == n else 0
            ok = np.array_equal(anti, 2 * g * _I16)
            report.match("anticommutator[%s,%s]" % (m, n), ok, "2*(%+d)*I" % g)

    for m in COORDS:
        report.match(
            "gamma-realify[%s]" % m,
            np.array_equal(realify_matrix(gamma(m)), real_gamma(m)),
            "blockwise realification equals the Kronecker form",
        )

    for name in PLANES:
        sign, factors = REFERENCE_REAL_GENERATORS[name]
        stated = sign * _kron_all(factors)
        recomputed = real_generator_matrix(name)
        same = np.array_equal(recomputed, stated)
        report.add_comparison(
            "generator-table[%s]" % name,
            same,
            "reference Kronecker transcription",
            "match" if same else "recomputed product differs",
            "" if same else "recomputed product is ground truth",
        )

    a = gamma("x").scale(Fraction(1, 2)) + gamma("p") @ gamma("q")
    b = (gamma("t") @ gamma("x")) - TensorMatrix.identity(4).scale(3)
    # Scaled by the common denominator of A, both sides are integer
    # matrices, compared exactly as int64.
    d = math.lcm(*(Fraction(c).denominator for c in a.flat()))
    lhs, rhs = d * realify_matrix(a), d * realify_matrix(a @ b)
    integral = all(x == int(x) for x in [*lhs.flat, *rhs.flat])
    exact_ok = integral and np.array_equal(
        lhs.astype(np.int64) @ realify_matrix(b), rhs.astype(np.int64)
    )
    report.match(
        "homomorphism[exact-matrix]",
        exact_ok,
        "realify(A)@realify(B) == realify(A@B)",
        "exact rational entries",
    )

    word_dev = 0.0
    for _ in range(5):
        word = [
            (rng.choice(PLANES), rng.uniform(-1.0, 1.0))
            for _ in range(rng.randint(1, 3))
        ]
        abstract = TensorMatrix.identity(4)
        real = np.eye(16)
        for plane, theta in word:
            abstract = generator(plane, theta) @ abstract
            real = exp_real_generator(plane, theta) @ real
        word_dev = max(
            word_dev,
            float(np.max(np.abs(realify_matrix(abstract) - real))),
        )
    report.bound(
        "homomorphism[word]",
        word_dev,
        tol,
        "realified generator words match products of real exponentials",
    )

    report.extend(restrict_so31_second(config=config))
    return report
