"""Arithmetic in the split-quaternion tensor algebra.

``TensorScalar`` is the eight-dimensional algebra spanned by
{1, K, KL, L} x {1, l}, the split quaternions tensored with the complex
numbers.  K**2 = -1, L**2 = (KL)**2 = +1, distinct split units
anticommute, and K*L = KL, L*KL = -K, KL*K = L; the complex unit l
squares to -1 and commutes with all of K, KL, L, so the two factors
only interact through their coefficients.  The split quaternions are
the span of the first four BASIS units, the complex numbers the span
of {1, l}.

Coefficients are plain Python numbers.  Use ``int`` or
``fractions.Fraction`` for exact work and ``float`` once transcendental
angles enter; operations never convert on their own, so exact inputs
give exact outputs.  All values are immutable after construction.

Every product in the package goes through one kernel, :func:`mul_terms`,
driven by the structure-constant table ``_MUL``: it adds a * b into an
accumulator from the nonzero (basis index, coefficient) terms of the
two factors (:func:`terms`), visiting the pairs in ascending (index of
a, index of b) order.  Scalar and 4x4 matrix products and
``matrices.trace_product`` all call it, so float sums round the same
way on every route.

The algebra is associative but not commutative, and it has zero
divisors: (1 + L) * (1 - L) == 0.

This module is also the home of the float tolerance policy: every float
check in the package compares through :func:`within` against one of
three named tolerances, and no other module writes a tolerance.
"""

from fractions import Fraction

__all__ = [
    "BASIS",
    "H_UNITS",
    "TensorScalar",
    "ZERO",
    "ONE",
    "K",
    "KL",
    "L",
    "ELL",
    "UNIT",
    "is_exact",
    "is_number",
    "SPAN_TOL",
    "CHART_TOL",
    "CHECK_TOL",
    "within",
    "exact_div",
    "terms",
    "mul_terms",
]

H_UNITS = ("1", "K", "KL", "L")

# Basis of the tensor algebra, real parts first, then the l-parts.
# Index arithmetic: index = h + 4*c with h indexing H_UNITS and c in
# {0: real, 1: l}.
BASIS = ("1", "K", "KL", "L", "l", "Kl", "KLl", "Ll")

# Split-quaternion multiplication: _H_MUL[i][j] == (k, sign) means
# H_UNITS[i] * H_UNITS[j] == sign * H_UNITS[k].
#
#        |  1    K     KL    L
#   -----+------------------------
#    1   |  1    K     KL    L
#    K   |  K   -1    -L     KL
#    KL  |  KL   L     1     K
#    L   |  L   -KL   -K     1
_H_MUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, -1), (2, 1)),
    ((2, 1), (3, 1), (0, 1), (1, 1)),
    ((3, 1), (2, -1), (1, -1), (0, 1)),
)

# Complex factor: 1*1 = 1, 1*l = l*1 = l, l*l = -1.
_C_MUL = (((0, 1), (1, 1)), ((1, 1), (0, -1)))


def _build_mul_table():
    table = []
    for i in range(8):
        hi, ci = i & 3, i >> 2
        row = []
        for j in range(8):
            hj, cj = j & 3, j >> 2
            hk, hs = _H_MUL[hi][hj]
            ck, cs = _C_MUL[ci][cj]
            row.append((hk + 4 * ck, hs * cs))
        table.append(tuple(row))
    return tuple(table)


# Combined table for the eight-dimensional algebra, same encoding as
# _H_MUL but over BASIS.
_MUL = _build_mul_table()


def terms(coeffs):
    """The nonzero (basis index, coefficient) terms of coeffs, in index order."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def mul_terms(acc, a, b):
    """acc += a * b for term lists a and b (see terms), in place.

    The pairs are visited in ascending (a index, b index) order, and
    each product is added to or subtracted from acc[k] as _MUL signs
    it, so float sums round the same way on every caller.  (Each row of
    _MUL is a permutation, so it is the order of the a terms that fixes
    the order of the sum into any one acc[k].)
    """
    for i, x in a:
        row = _MUL[i]
        for j, y in b:
            k, sign = row[j]
            if sign > 0:
                acc[k] = acc[k] + x * y
            else:
                acc[k] = acc[k] - x * y


def is_exact(x):
    """True when x belongs to the exact numeric tower (int / Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_number(x):
    """True for a number of either regime: an int (a bool is in neither), a
    Fraction or a float, subclasses included (np.float64, not np.float32)."""
    return isinstance(x, (int, Fraction, float)) and type(x) is not bool


# The float tolerance policy: one constant per role, compared through
# within.  Exact values are held to 0 instead.  The caller decides the
# regime from the whole matrix or vector (TensorMatrix.is_exact,
# Vector6.is_exact), never from one number, since a float matrix can hold
# a Fraction coefficient, and passes tol = 0 for an exact one.
#
# A float result further than this from the exact set it must lie in
# (the span of the gammas, the null cone, the Hermitian 2x2 matrices) is
# refused.  It is also the fixed bound of the checks whose float error
# grows along a word, and the classifier's match tolerance.
SPAN_TOL = 1e-9
# p + q (or a Mobius denominator) this close to 0 is a point at infinity.
CHART_TOL = 1e-12
# The default --tolerance of the verify suites.
CHECK_TOL = 1e-12


def within(x, tol, scale=0):
    """|x| <= tol * max(1, scale): relative to scale above 1, absolute below
    it (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).

    Works on numbers and elementwise on numpy arrays.  Written without
    max, so arrays need no numpy here.  Where tol * scale is nan (a nan
    scale, or tol = 0 against an infinite one) the floor tol alone
    decides: for a nan scale that is Python's max(1, nan) = 1, where
    numpy's np.maximum(1.0, nan) is nan.  A nan x is never within.
    """
    a = abs(x)
    return (a <= tol) | (a <= tol * scale)


def _max_or_nan(values):
    """max(values), or their first nan: Python's max keeps a nan only in
    first place, since every comparison with a nan is false."""
    values = list(values)
    return next((v for v in values if v != v), max(values))


def exact_div(a, b):
    """a / b in the regime of its operands: Fraction(a, b) for two ints."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def _fmt_coeff(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


class TensorScalar:
    """An element of the eight-dimensional split-quaternion tensor algebra.

    Stored as a tuple of eight coefficients over ``BASIS``.  Supports
    +, -, unary -, * (algebra product, or scaling by a plain number on
    either side -- numbers are central).  The two conjugations:

    * :meth:`bar` negates the complex unit l,
    * :meth:`star` negates K, KL, L.

    They commute with each other; ``bar`` is an automorphism while
    ``star`` reverses products.
    """

    __slots__ = ("coeffs", "nonzero")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 8:
            raise ValueError("expected 8 coefficients, got %d" % len(coeffs))
        self.coeffs = coeffs
        self.nonzero = any(coeffs)

    @classmethod
    def unit(cls, name):
        """The basis element named by one of the BASIS labels."""
        idx = BASIS.index(name)
        c = [0] * 8
        c[idx] = 1
        return cls(c)

    def __add__(self, other):
        if not isinstance(other, TensorScalar):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TensorScalar(tuple(a[i] + b[i] for i in range(8)))

    def __sub__(self, other):
        if not isinstance(other, TensorScalar):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TensorScalar(tuple(a[i] - b[i] for i in range(8)))

    def __neg__(self):
        return TensorScalar(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TensorScalar):
            if not (self.nonzero and other.nonzero):
                return ZERO
            out = [0] * 8
            mul_terms(out, terms(self.coeffs), terms(other.coeffs))
            return TensorScalar(out)
        if isinstance(other, (int, float, Fraction)):
            return TensorScalar(tuple(c * other for c in self.coeffs))
        return NotImplemented

    # Only a plain number reaches __rmul__, and numbers commute with every
    # basis element (int, Fraction and float products bit for bit).
    __rmul__ = __mul__

    def bar(self):
        """Conjugate the complex factor: l -> -l."""
        c = self.coeffs
        return TensorScalar((c[0], c[1], c[2], c[3], -c[4], -c[5], -c[6], -c[7]))

    def star(self):
        """Conjugate the split-quaternion factor: K, KL, L -> negated."""
        c = self.coeffs
        return TensorScalar((c[0], -c[1], -c[2], -c[3], c[4], -c[5], -c[6], -c[7]))

    def scalar_part(self):
        return self.coeffs[0]

    def max_abs(self):
        return _max_or_nan(map(abs, self.coeffs))

    def is_real_scalar(self, tol=0, scale=0):
        """True when every coefficient except the one on 1 is within(c, tol, scale)."""
        return all(within(c, tol, scale) for c in self.coeffs[1:])

    def approx_eq(self, other, tol, scale=0):
        a, b = self.coeffs, other.coeffs
        return all(within(a[i] - b[i], tol, scale) for i in range(8))

    def __eq__(self, other):
        if isinstance(other, TensorScalar):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return self.nonzero

    def __str__(self):
        if not self.nonzero:
            return "0"
        parts = []
        for name, c in zip(BASIS, self.coeffs):
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if name == "1":
                body = _fmt_coeff(mag)
            elif mag == 1:
                body = name
            else:
                body = "%s %s" % (_fmt_coeff(mag), name)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "TensorScalar(%s)" % (self,)


ZERO = TensorScalar((0,) * 8)
ONE = TensorScalar.unit("1")
K = TensorScalar.unit("K")
KL = TensorScalar.unit("KL")
L = TensorScalar.unit("L")
ELL = TensorScalar.unit("l")

# All eight basis elements by label.
UNIT = {name: TensorScalar.unit(name) for name in BASIS}
