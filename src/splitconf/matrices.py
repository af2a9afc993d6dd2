"""Square matrices over the split-quaternion tensor algebra.

Entries are :class:`~splitconf.algebra.TensorScalar` values.  The
matrix product and :func:`trace_product` multiply entries through the
one product kernel of the algebra (``algebra.mul_terms``), and entry
(i, j) sums a[i][k] b[k][j] over the nonzero pairs in ascending k, each
in ascending (a index, b index) order.  The product is row-sparse
(Gustavson, ACM TOMS 4, 1978): for each nonzero a[i][k] in ascending k
it adds into every j with b[k][j] nonzero, from per-row lists of the
nonzero entries' terms that each matrix builds once and keeps.
Products, sums and scalings skip zero entries by their ``nonzero``
flag: the product never multiplies them, and sums, differences and
scalings by a number pass them through untouched.  Whether a matrix is
exact (all coefficients ``int``/``Fraction``) is decided once per
matrix, on first use, by :meth:`TensorMatrix.is_exact`, unless it is
already known: a product of two matrices known to be exact is exact,
and so is :func:`exp_pair` of an exact generator at an exact (c, s).

Exponentials close in this algebra for two shapes of generator: one
squaring to +I or -I (cosh/sinh or cos/sin of the angle, from
:func:`_sincosh`) and one squaring to zero (1 and the angle).  Both are
c I + s G for a pair (c, s); :func:`exp_pair` builds c I + s G and its
inverse c I - s G together, straight from the entries of G.
``group._half_angle`` picks (c, s) for every named step after checking
the square exactly.  The nilpotency proof is made once per matrix and
cached (:meth:`TensorMatrix.squares_to_zero`), so a cached generator
exponentiated on every step is squared only once.
"""

import math
import sys

from .algebra import _max_or_nan, ONE, SPAN_TOL, TensorScalar, ZERO, is_exact, mul_terms, terms

__all__ = [
    "TensorMatrix",
    "exp_pair",
    "exp_nilpotent",
    "trace_product",
    "quadratic_form",
]


class TensorMatrix:
    """A square matrix with TensorScalar entries.

    Immutable by convention: methods return new matrices.  ``rows`` is
    a tuple of tuples of TensorScalar.  The numeric regime is stored in
    ``_exact``: given as ``exact`` by a caller that knows it, else
    decided the first time :meth:`is_exact` is asked; never rescanned.
    Whether the square is exactly zero is stored in ``_nilpotent`` the
    same way by :meth:`squares_to_zero`, and ``@`` keeps in ``_terms``,
    per row, the (column, algebra.terms) of each nonzero entry, which
    serves the matrix as a left or a right factor.  Scaling by a
    number, ``+`` and ``-`` pass a zero entry (``nonzero`` false)
    through as it is.
    """

    __slots__ = ("rows", "n", "_exact", "_nilpotent", "_terms")

    def __init__(self, rows, exact=None):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
        self.rows = rows
        self.n = n
        self._exact = exact
        self._nilpotent = self._terms = None

    def flat(self):
        """Every coefficient, row by row, entry by entry, in BASIS order."""
        return [c for r in self.rows for a in r for c in a.coeffs]

    def is_exact(self):
        """True when every coefficient is an int or Fraction; cached."""
        exact = self._exact
        if exact is None:
            exact = self._exact = all(
                is_exact(c) for r in self.rows for a in r for c in a.coeffs
            )
        return exact

    def squares_to_zero(self):
        """True when self @ self is exactly the zero matrix; cached."""
        nilpotent = self._nilpotent
        if nilpotent is None:
            nilpotent = self._nilpotent = (self @ self).is_zero()
        return nilpotent

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
            )
        )

    @classmethod
    def zeros(cls, n):
        return cls(tuple(tuple(ZERO for _ in range(n)) for _ in range(n)))

    @classmethod
    def from_blocks(cls, tl, tr, bl, br):
        """Assemble [[tl, tr], [bl, br]] from four equal-size blocks."""
        n = tl.n
        if not (tr.n == bl.n == br.n == n):
            raise ValueError("blocks must share one size")
        rows = []
        for i in range(n):
            rows.append(tl.rows[i] + tr.rows[i])
        for i in range(n):
            rows.append(bl.rows[i] + br.rows[i])
        return cls(rows)

    def blocks(self):
        """Split an even-size matrix back into (tl, tr, bl, br)."""
        if self.n % 2:
            raise ValueError("matrix size must be even")
        h = self.n // 2
        tl = TensorMatrix(tuple(r[:h] for r in self.rows[:h]))
        tr = TensorMatrix(tuple(r[h:] for r in self.rows[:h]))
        bl = TensorMatrix(tuple(r[:h] for r in self.rows[h:]))
        br = TensorMatrix(tuple(r[h:] for r in self.rows[h:]))
        return tl, tr, bl, br

    def __add__(self, other):
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return TensorMatrix(
            tuple(
                tuple(
                    (a + b if b.nonzero else a) if a.nonzero else b
                    for a, b in zip(ra, rb)
                )
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return TensorMatrix(
            tuple(
                tuple(
                    (a - b if a.nonzero else -b) if b.nonzero else a
                    for a, b in zip(ra, rb)
                )
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self):
        return TensorMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def _nonzero_terms(self):
        """Per row, (column, algebra.terms) of each nonzero entry; cached in _terms."""
        t = self._terms
        if t is None:
            t = self._terms = [
                [(j, terms(e.coeffs)) for j, e in enumerate(r) if e.nonzero]
                for r in self.rows
            ]
        return t

    def __matmul__(self, other):
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        brows = other._nonzero_terms()
        out_rows = []
        for arow in self._nonzero_terms():
            accs = [None] * self.n
            for k, a in arow:
                for j, b in brows[k]:
                    acc = accs[j]
                    if acc is None:
                        acc = accs[j] = [0] * 8
                    mul_terms(acc, a, b)
            out_rows.append([ZERO if acc is None else TensorScalar(acc) for acc in accs])
        # exact times exact is exact; otherwise is_exact decides later
        return TensorMatrix(out_rows, self._exact and other._exact or None)

    def scale(self, s):
        """Multiply every entry by s on the left (TensorScalar or number)."""
        if isinstance(s, TensorScalar):
            return TensorMatrix(
                tuple(tuple(s * a for a in r) for r in self.rows)
            )
        return TensorMatrix(
            tuple(tuple(a * s if a.nonzero else a for a in r) for r in self.rows)
        )

    def bar(self):
        """Entrywise complex conjugation (l -> -l)."""
        return TensorMatrix(tuple(tuple(a.bar() for a in r) for r in self.rows))

    def is_c_hermitian(self, tol=0, scale=0):
        """True when the matrix equals its transpose with bar applied entrywise,
        each coefficient within(difference, tol, scale)."""
        for i in range(self.n):
            for j in range(self.n):
                if not self.rows[i][j].approx_eq(self.rows[j][i].bar(), tol, scale):
                    return False
        return True

    def trace(self):
        t = ZERO
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def trace_reversed(self):
        """Trace reversal: the matrix minus its trace times the identity."""
        t = self.trace()
        return TensorMatrix(
            tuple(
                tuple(
                    self.rows[i][j] - t if i == j else self.rows[i][j]
                    for j in range(self.n)
                )
                for i in range(self.n)
            )
        )

    def is_zero(self):
        return all(not a.nonzero for r in self.rows for a in r)

    def max_abs(self):
        """The largest |coefficient| or a nan one; the int 0 for an all-zero matrix."""
        return _max_or_nan([0] + [a.max_abs() for r in self.rows for a in r])

    def __eq__(self, other):
        if not isinstance(other, TensorMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __str__(self):
        cells = [[str(a) for a in r] for r in self.rows]
        width = max(len(c) for r in cells for c in r)
        lines = []
        for r in cells:
            lines.append("[ " + " | ".join(c.rjust(width) for c in r) + " ]")
        return "\n".join(lines)

    def __repr__(self):
        return "TensorMatrix(%dx%d)" % (self.n, self.n)


def trace_product(a, b):
    """trace(a @ b) without forming the full product.

    The reference for the order clifford's gather table copies: for
    each i, then each k, a[i][k] b[k][i] through the product kernel.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    acc = [0] * 8
    touched = False
    for i, arow in enumerate(a.rows):
        for k, x in enumerate(arow):
            y = b.rows[k][i]
            if x.nonzero and y.nonzero:
                touched = True
                mul_terms(acc, terms(x.coeffs), terms(y.coeffs))
    return TensorScalar(acc) if touched else ZERO


def _sincosh(theta, hyperbolic):
    """(cosh, sinh) of theta when hyperbolic, else (cos, sin).

    An exact zero gives the exact (1, 0).  theta == 0 is tested first,
    so a nonzero angle makes no is_exact call.
    """
    if theta == 0 and is_exact(theta):
        return 1, 0
    if hyperbolic:
        return math.cosh(theta), math.sinh(theta)
    return math.cos(theta), math.sin(theta)


def exp_pair(gen, c, s):
    """(c I + s gen, c I - s gen), straight from the entries of gen.

    These are exp(theta gen) and its inverse exp(-theta gen) for the
    closed forms of the module docstring.  Every coefficient comes from
    the operations TensorMatrix.identity(n).scale(c) + gen.scale(+-s)
    performs, so
    the matrices are those bit for bit, signed zeros included: the
    diagonal adds ONE * c, a zero entry of gen passes through as it is,
    and a sum with a zero term is the other term.  An exact c and s on an
    exact gen give matrices known to be exact.
    """
    diag = ONE * c
    exact = is_exact(s) and is_exact(c) and gen.is_exact() or None

    def combine(t):
        rows = [
            [TensorScalar([x * t for x in g.coeffs]) if g.nonzero else g for g in r]
            for r in gen.rows
        ]
        if diag.nonzero:
            for i, r in enumerate(rows):
                r[i] = diag + r[i] if r[i].nonzero else diag
        return TensorMatrix(rows, exact)

    return combine(s), combine(-s)


def exp_nilpotent(gen, theta):
    """exp(gen * theta) = I + theta gen for gen @ gen == 0.

    Nilpotency is checked exactly, once per gen.
    """
    if not gen.squares_to_zero():
        raise ValueError("generator must square to zero exactly")
    return exp_pair(gen, 1, theta)[0]


def _refuse_overflow(flat):
    """Raise ValueError naming a float coefficient that is not finite, an
    exact one beyond float range, or exact ones whose sum is.

    One sum clears a finite matrix (a nan or an infinity survives a sum,
    unlike a max); only a sum that is not finite or overflows pays the
    scan.  Finite floats that sum past float range pass: reads name that.
    """
    try:
        if math.isfinite(sum(flat)):
            return
    except OverflowError:
        pass
    for i, c in enumerate(flat):
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError("matrix coefficient %s is not finite: the step"
                             " overflowed or its input was not finite" % c)
        if not isinstance(c, float) and abs(c) > sys.float_info.max:
            raise ValueError("matrix coefficient %d is beyond float range" % i)
    if any(c and not isinstance(c, float) for c in flat):
        raise ValueError("matrix coefficients sum beyond float range")


def quadratic_form(x):
    """The scalar s with x @ x.trace_reversed() == s * I, for 2x2 x.

    Raises ValueError when the product is not a real scalar multiple of
    the identity: exactly for an exact x, else to within SPAN_TOL
    relative to the product's scale.  A float x with a coefficient that
    is not finite raises a ValueError naming it (see _refuse_overflow),
    and so does a refused product that overflowed on finite input.
    """
    if x.n != 2:
        raise ValueError("expected a 2x2 matrix")
    exact = x.is_exact()
    if not exact:
        _refuse_overflow(x.flat())
    prod = x @ x.trace_reversed()
    tol, scale = (0, 0) if exact else (SPAN_TOL, prod.max_abs())
    (s, b), (c, d) = prod.rows
    if not s.is_real_scalar(tol, scale):
        _refuse_overflow(prod.flat())
        raise ValueError("product is not a real scalar: %s" % (s,))
    if not all(e.approx_eq(t, tol, scale) for e, t in ((b, ZERO), (c, ZERO), (d, s))):
        _refuse_overflow(prod.flat())
        raise ValueError("product is not a multiple of the identity")
    return s.scalar_part()
