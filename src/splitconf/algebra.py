"""Arithmetic in the split-quaternion tensor algebra.

Three scalar layers:

* ``Complex`` -- x + y*l with l**2 = -1.
* ``SplitQuaternion`` -- s + k*K + kl*KL + t*L where K**2 = -1,
  L**2 = (KL)**2 = +1, distinct imaginary units anticommute, and
  K*L = KL, L*KL = -K, KL*K = L.
* ``TensorScalar`` -- the eight-dimensional algebra spanned by
  {1, K, KL, L} x {1, l}.  The complex unit l commutes with all of
  K, KL, L; the two factors only interact through their coefficients.

Coefficients are plain Python numbers.  Use ``int`` or
``fractions.Fraction`` for exact work and ``float`` once transcendental
angles enter; operations never convert on their own, so exact inputs
give exact outputs.  All values are immutable after construction.

Every product in the package goes through one kernel, :func:`mul_terms`,
driven by the structure-constant table ``_MUL``: it adds a * b into an
accumulator from the nonzero (basis index, coefficient) terms of the
two factors (:func:`terms`), visiting the pairs in ascending (index of
a, index of b) order.  Split-quaternion, tensor-scalar and 4x4 matrix
products and ``matrices.trace_product`` all call it, so float sums
round the same way on every route.

The algebra is associative but not commutative, and it has zero
divisors: (1 + L) * (1 - L) == 0.
"""

from fractions import Fraction

__all__ = [
    "BASIS",
    "H_UNITS",
    "Complex",
    "SplitQuaternion",
    "TensorScalar",
    "ZERO",
    "ONE",
    "K",
    "KL",
    "L",
    "ELL",
    "UNIT",
    "is_exact",
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


def exact_div(a, b):
    """a / b in the regime of its operands: Fraction(a, b) for two ints."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def _fmt_coeff(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


class Complex:
    """A complex number x + y*l with plain-number parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    def __add__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Complex(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return Complex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self):
        """Negate the l part."""
        return Complex(self.re, -self.im)

    def to_tensor(self):
        return TensorScalar((self.re, 0, 0, 0, self.im, 0, 0, 0))

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "Complex(%r, %r)" % (self.re, self.im)


class SplitQuaternion:
    """A split quaternion s + k*K + kl*KL + t*L.

    The slot names follow the coefficient roles: ``s`` is the scalar
    part and ``k``, ``kl``, ``l`` multiply K, KL and L.
    """

    __slots__ = ("s", "k", "kl", "l")

    def __init__(self, s=0, k=0, kl=0, l=0):
        self.s = s
        self.k = k
        self.kl = kl
        self.l = l

    def _vec(self):
        return (self.s, self.k, self.kl, self.l)

    def __add__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return SplitQuaternion(
            self.s + other.s, self.k + other.k, self.kl + other.kl, self.l + other.l
        )

    def __sub__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return SplitQuaternion(
            self.s - other.s, self.k - other.k, self.kl - other.kl, self.l - other.l
        )

    def __neg__(self):
        return SplitQuaternion(-self.s, -self.k, -self.kl, -self.l)

    def __mul__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        # The split quaternions are the first four BASIS units, where
        # _MUL restricts to _H_MUL.
        out = [0, 0, 0, 0]
        mul_terms(out, terms(self._vec()), terms(other._vec()))
        return SplitQuaternion(*out)

    def conjugate(self):
        """Negate K, KL and L; this is an anti-automorphism."""
        return SplitQuaternion(self.s, -self.k, -self.kl, -self.l)

    def norm(self):
        """Scalar of self * self.conjugate(); indefinite (s^2 + k^2 - kl^2 - l^2)."""
        return self.s * self.s + self.k * self.k - self.kl * self.kl - self.l * self.l

    def to_tensor(self):
        return TensorScalar((self.s, self.k, self.kl, self.l, 0, 0, 0, 0))

    def __eq__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return self._vec() == other._vec()

    def __hash__(self):
        return hash(self._vec())

    def __repr__(self):
        return "SplitQuaternion(%r, %r, %r, %r)" % self._vec()


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
    def from_real(cls, x):
        return cls((x, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def unit(cls, name):
        """The basis element named by one of the BASIS labels."""
        idx = BASIS.index(name)
        c = [0] * 8
        c[idx] = 1
        return cls(c)

    @classmethod
    def from_parts(cls, c1, cK, cKL, cL):
        """Build from four Complex coefficients over {1, K, KL, L}."""
        return cls((c1.re, cK.re, cKL.re, cL.re, c1.im, cK.im, cKL.im, cL.im))

    def component(self, h_unit):
        """The Complex coefficient sitting on one of the H_UNITS."""
        h = H_UNITS.index(h_unit)
        return Complex(self.coeffs[h], self.coeffs[h + 4])

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

    def __rmul__(self, other):
        # Plain numbers commute with every basis element.
        if isinstance(other, (int, float, Fraction)):
            return TensorScalar(tuple(other * c for c in self.coeffs))
        return NotImplemented

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
        return max(abs(c) for c in self.coeffs)

    def is_zero(self):
        return not self.nonzero

    def is_real_scalar(self, tol=0):
        """True when every coefficient except the one on 1 is within tol of 0."""
        return all(abs(c) <= tol for c in self.coeffs[1:])

    def approx_eq(self, other, tol):
        a, b = self.coeffs, other.coeffs
        return all(abs(a[i] - b[i]) <= tol for i in range(8))

    def to_dict(self):
        """JSON-friendly mapping over the BASIS labels."""
        out = {}
        for name, c in zip(BASIS, self.coeffs):
            if isinstance(c, Fraction):
                out[name] = str(c)
            else:
                out[name] = c
        return out

    @classmethod
    def from_dict(cls, d):
        coeffs = []
        for name in BASIS:
            v = d.get(name, 0)
            if isinstance(v, str):
                v = Fraction(v)
            coeffs.append(v)
        return cls(coeffs)

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
