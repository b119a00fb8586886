"""Dense exact matrices over the supported fields, with elimination-based
rank / rref / kernel / solve and characteristic reduction.

Matrices are immutable; entries are stored row-major.  All elimination is
exact (no floating point) and deterministic: pivots are chosen leftmost
column first, first nonzero row within the column.

Over Q there is one elimination, on Python ints (fraction-free, cf.
Bareiss, Math. Comp. 22 (1968)): rows are cleared of denominators once and
an update is p*row_i - f*row_r over the gcd of the result.  Each integer
row is a nonzero multiple of the Fraction loop's row at the same step, so
the zero patterns and the pivots are identical.  Three readers convert
only what they return: the RREF divides each pivot row by its pivot, the
kernel reads Fraction(-a, p) at the free columns of the pivot rows, and
the rank counts the pivots of a forward-only pass without building any
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import BadPrime, ShapeMismatch, VerificationFailed
from .fields import (
    GF,
    QI,
    QQ,
    Field,
    GaussianRational,
    Scalar,
    conjugate,
)

__all__ = ["Mat", "reduce_mod"]


class Mat:
    """An immutable rows x cols matrix with entries in a single field."""

    __slots__ = ("rows", "cols", "field", "_e")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        for x in entries:
            field.check_element(x)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", entries)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    # ---------------------------------------------------------------- build
    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "Mat":
        rows = [[_coerce(field, x) for x in r] for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), n, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero(), field.one()
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def unit(cls, field: Field, rows: int, cols: int, i: int, j: int) -> "Mat":
        """The matrix unit E_ij (0-indexed)."""
        z, o = field.zero(), field.one()
        return cls(
            field, rows, cols,
            [o if (r, c) == (i, j) else z for r in range(rows) for c in range(cols)],
        )

    @classmethod
    def diag(cls, field: Field, values: Sequence) -> "Mat":
        vals = [_coerce(field, v) for v in values]
        n = len(vals)
        z = field.zero()
        return cls(field, n, n, [vals[i] if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def col(cls, field: Field, values: Sequence) -> "Mat":
        vals = [_coerce(field, v) for v in values]
        return cls(field, len(vals), 1, vals)

    # ---------------------------------------------------------------- access
    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def entries(self) -> tuple:
        return self._e

    def tolists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._e)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # ------------------------------------------------------------- algebra
    def _same_shape(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.field != other.field:
            raise ShapeMismatch(f"field mismatch: {self.field.tag} vs {other.field.tag}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._same_shape(other)
        return Mat(self.field, self.rows, self.cols,
                   [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(self.field, self.rows, self.cols,
                   [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self):
        return Mat(self.field, self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "Mat":
        c = _coerce(self.field, c)
        return Mat(self.field, self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self @ other
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.field != other.field:
            raise ShapeMismatch(f"field mismatch: {self.field.tag} vs {other.field.tag}")
        if self.cols != other.rows:
            raise ShapeMismatch(f"inner dimensions differ: {self.shape} @ {other.shape}")
        z = self.field.zero()
        out = []
        ot = other  # row-major access on both
        for i in range(self.rows):
            arow = self.row(i)
            for j in range(other.cols):
                s = z
                for k, a in enumerate(arow):
                    if a:
                        s = s + a * ot._e[k * ot.cols + j]
                out.append(s)
        return Mat(self.field, self.rows, other.cols, out)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [self._e[i * self.cols + j]
                    for j in range(self.cols) for i in range(self.rows)])

    def conj_transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [conjugate(x) for x in self.transpose()._e])

    def trace(self) -> Scalar:
        if not self.is_square():
            raise ShapeMismatch("trace needs a square matrix")
        s = self.field.zero()
        for i in range(self.rows):
            s = s + self[i, i]
        return s

    def trace_pairing(self, other: "Mat") -> Scalar:
        """Tr(self @ other) = sum_ij self[i, j] other[j, i], without forming
        the product; zero entries of self are skipped."""
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.field != other.field:
            raise ShapeMismatch(f"field mismatch: {self.field.tag} vs {other.field.tag}")
        if self.shape != (other.cols, other.rows):
            raise ShapeMismatch(f"trace pairing needs transposed shapes: {self.shape} vs {other.shape}")
        s = self.field.zero()
        oe = other._e
        for idx, a in enumerate(self._e):
            if a:
                i, j = divmod(idx, self.cols)
                s = s + a * oe[j * other.cols + i]
        return s

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; block (i, j) of the result is self[i, j] * other."""
        if self.field != other.field:
            raise ShapeMismatch("field mismatch in Kronecker product")
        R, C = self.rows * other.rows, self.cols * other.cols
        z = self.field.zero()
        out = [z] * (R * C)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self[i, j]
                if not a:
                    continue
                for r in range(other.rows):
                    base = (i * other.rows + r) * C + j * other.cols
                    orow = other.row(r)
                    for c in range(other.cols):
                        if orow[c]:
                            out[base + c] = a * orow[c]
        return Mat(self.field, R, C, out)

    # ------------------------------------------------------------ identity
    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._e == other._e)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self._e))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in self.row(i))
            for i in range(self.rows)
        )
        return f"Mat[{self.field.tag} {self.rows}x{self.cols}: {body}]"

    # ----------------------------------------------------------- elimination
    def rref(self) -> tuple["Mat", tuple]:
        """Reduced row echelon form and the strictly increasing pivot columns."""
        R, pivots = _rref_rows(self.tolists(), self.field)
        return Mat(self.field, self.rows, self.cols,
                   [x for r in R for x in r]), tuple(pivots)

    def rank(self) -> int:
        if self.field == QQ:
            return len(_eliminate_q(self.tolists(), full=False)[1])
        return len(_rref_rows(self.tolists(), self.field)[1])

    def kernel(self) -> list:
        """Basis of the right null space as coordinate tuples, in
        free-variable unit-assignment order (free columns ascending)."""
        return _kernel_rows(self.tolists(), self.cols, self.field)[0]

    def solve(self, b: Sequence) -> Optional[tuple]:
        """Some exact solution x of A x = b, or None if inconsistent."""
        bvals = [_coerce(self.field, x) for x in b]
        if len(bvals) != self.rows:
            raise ShapeMismatch(f"rhs length {len(bvals)} != {self.rows} rows")
        aug = [list(self.row(i)) + [bvals[i]] for i in range(self.rows)]
        R, pivots = _rref_rows(aug, self.field)
        if self.cols in pivots:
            return None
        z = self.field.zero()
        x = [z] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][self.cols]
        if _matvec(self, x) != bvals:
            raise VerificationFailed("solve postcondition failed")
        return tuple(x)

    def det(self) -> Scalar:
        """Determinant by the forward pass of exact elimination on the
        shared pivot rule: the product of the pivots, negated once per row
        swap, or zero when some column has no pivot."""
        if not self.is_square():
            raise ShapeMismatch("det needs a square matrix")
        n = self.rows
        rows = self.tolists()
        one = self.field.one()
        det, pivots = one, 0
        for r, c, swapped in _pivot_steps(rows, n):
            prow = rows[r]
            det = -det * prow[c] if swapped else det * prow[c]
            pinv = one / prow[c]
            for irow in rows[r + 1:]:
                f = irow[c] * pinv
                if f:
                    irow[c:] = [a - f * b if b else a
                                for a, b in zip(irow[c:], prow[c:])]
            pivots += 1
        return det if pivots == n else self.field.zero()

    def is_invertible(self) -> bool:
        return self.is_square() and bool(self.det())


def _coerce(field: Field, x) -> Scalar:
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(x, int):
        return field.from_int(x)
    if field == QQ and isinstance(x, Fraction):
        return x
    if field == QI:
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, Fraction):
            return GaussianRational(x, 0)
    field.check_element(x)
    return x


def _matvec(A: Mat, x: Sequence[Scalar]) -> list:
    z = A.field.zero()
    out = []
    for i in range(A.rows):
        s = z
        row = A.row(i)
        for a, v in zip(row, x):
            if a and v:
                s = s + a * v
        out.append(s)
    return out


def _pivot_steps(rows: list, ncols: int):
    """Yield (r, c, swapped) for each pivot of an elimination over
    ``rows``: c is the leftmost column with a nonzero entry at or below row
    r, and the first such row has just been swapped into row r (swapped
    says whether it came from below).  The caller clears column c from the
    other rows before asking for the next pivot."""
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            return
        for i in range(r, len(rows)):
            if rows[i][c]:
                rows[r], rows[i] = rows[i], rows[r]
                yield r, c, i != r
                r += 1
                break


def _rref_rows(rows: list, field: Field) -> tuple[list, list]:
    """In-place reduced row echelon over a list of row lists.

    Deterministic: leftmost pivot column, first nonzero row at or below the
    working row; pivot scaled to one; eliminates above and below.  Skips
    zero entries, which keeps sparse coordinate matrices fast.  Over Q the
    same elimination runs on integer rows (see the module docstring).
    """
    if not rows:
        return rows, []
    if field == QQ:
        return _rref_rows_q(rows)
    ncols = len(rows[0])
    one = field.one()
    pivots = []
    for r, c, _ in _pivot_steps(rows, ncols):
        prow = rows[r]
        p = prow[c]
        if p != one:
            pinv = one / p
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] = pinv * prow[j]
        support = [j for j in range(c, ncols) if prow[j]]
        for i, irow in enumerate(rows):
            f = irow[c]
            if not f or i == r:
                continue
            for j in support:
                irow[j] = irow[j] - f * prow[j]
        pivots.append(c)
    return rows, pivots


def _eliminate_q(rows: list, full: bool = True) -> tuple[list, list]:
    """The elimination over Q: integer multiples of the rows after the
    Gauss-Jordan loop (after its forward pass only when full is false), and
    the pivot columns.  Row i < len(pivots) holds pivot i."""
    if not rows:
        return [], []
    ints = []
    for row in rows:
        den = lcm(*{x.denominator for x in row})
        ints.append([x.numerator * (den // x.denominator) for x in row]
                    if den != 1 else [x.numerator for x in row])
    pivots = []
    for r, c, _ in _pivot_steps(ints, len(ints[0])):
        prow = ints[r]
        p = prow[c]
        for i in range(0 if full else r + 1, len(ints)):
            irow = ints[i]
            f = irow[c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            pg, fg = p // g, f // g
            new = [pg * a - fg * b for a, b in zip(irow, prow)]
            g = gcd(*new)
            ints[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return ints, pivots


def _rref_rows_q(rows: list) -> tuple[list, list]:
    """_rref_rows over Q: the integer rows, each divided by its pivot."""
    ints, pivots = _eliminate_q(rows)
    zero = Fraction(0)
    for i, row in enumerate(ints):
        p = row[pivots[i]] if i < len(pivots) else 1
        rows[i] = [Fraction(x, p) if x else zero for x in row]
    return rows, pivots


def _kernel_rows(rows: list, ncols: int, field: Field) -> tuple[list, list]:
    """The kernel basis of a row list, free columns ascending, and the
    pivots: free column j gives a 1 at j and, at each pivot, minus the
    RREF's entry in column j.  Over Q that entry is read off the integer
    rows as Fraction(-a, p), p the row's pivot; no other Fraction is made.
    """
    if field == QQ:
        R, pivots = _eliminate_q(rows)

        def neg(row, j, pc):
            return Fraction(-row[j], row[pc])
    else:
        R, pivots = _rref_rows(rows, field)

        def neg(row, j, pc):
            return -row[j]
    z, o = field.zero(), field.one()
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [z] * ncols
        v[j] = o
        for row, pc in zip(R, pivots):
            if row[j]:
                v[pc] = neg(row, j, pc)
        basis.append(tuple(v))
    return basis, pivots


# -------------------------------------------------------------- reduction

def reduce_mod(A: Mat, q: int) -> Mat:
    """Entrywise reduction of a matrix over Q or Q(i) into GF(q).

    q must be a prime or the square of an odd prime.  Rationals reduce by
    a/b -> a * b^-1 mod p; a + b i reduces to a + b * i_q, where i_q is
    GF(q).sqrt_of_minus_one().  Raises BadPrime when GF(q) has no square
    root of -1 (Q(i) into GF(p), p = 3 mod 4; checked first) or when a
    reduced denominator is divisible by p.
    """
    target = GF(q)
    p = target.characteristic
    if A.field == QQ:
        red = [target.from_int(_red_frac(x, p)) for x in A.entries()]
    elif A.field == QI:
        i = target.sqrt_of_minus_one()
        red = [target.from_int(_red_frac(x.re, p))
               + i * target.from_int(_red_frac(x.im, p)) for x in A.entries()]
    else:
        raise ShapeMismatch(f"reduce_mod expects a matrix over Q or Qi, got {A.field.tag}")
    return Mat(target, A.rows, A.cols, red)


def _red_frac(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise BadPrime(f"denominator of {x} is divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p
