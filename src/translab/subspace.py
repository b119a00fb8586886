"""Canonically-based linear subspaces of matrices and their algebra.

A :class:`MatrixSubspace` is stored through a canonical basis: the row-major
vectorizations of the basis matrices form a reduced-row-echelon coordinate
matrix.  Two equal subspaces therefore have identical serializations, and
subspace equality is a plain structural comparison.

The duality used throughout is the trace pairing <A, T> = Tr(A @ T) with
A in Mat(m, n) and T in Mat(n, m); it is bilinear and non-degenerate, and
``preannihilator`` computes the annihilator on the opposite side of it.
The pairing convention is fixed, not configurable.

Worked 2x2 example of the convention: for A = [[a11, a12], [a21, a22]] and
T = [[t11, t12], [t21, t22]], Tr(A @ T) = a11 t11 + a12 t21 + a21 t12 +
a22 t22, so the pairing matrix row built from A is the row-major
vectorization of A transposed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import (NotIdempotent, ShapeMismatch, SingularTransform,
                     VerificationFailed)
from .fields import QQ, Field
from .matrices import (Mat, _coerce, _kernel_rows, _rref_rows,
                       reduce_mod as _reduce_mat)

__all__ = ["MatrixSubspace", "vec", "unvec"]


def _combine_q(coeffs: Sequence, basis: Sequence[Mat], size: int) -> list:
    """The entries of sum(c_i * B_i) over Q, fraction-free: every term's
    integer numerator over one common denominator, one Fraction per entry
    at the end instead of a Fraction product and sum per term."""
    terms = []
    for c, B in zip(coeffs, basis):
        if c:
            c = _coerce(QQ, c)
            nz = [(i, x.numerator, x.denominator)
                  for i, x in enumerate(B.entries()) if x]
            den = lcm(*(d for _, _, d in nz))
            terms.append((c.numerator, c.denominator * den,
                          [(i, a * (den // d)) for i, a, d in nz]))
    common = lcm(*(d for _, d, _ in terms))
    acc = [0] * size
    for num, d, ints in terms:
        f = num * (common // d)
        for i, a in ints:
            acc[i] += f * a
    zero = Fraction(0)
    return [Fraction(a, common) if a else zero for a in acc]


def vec(A: Mat) -> tuple:
    """Row-major vectorization."""
    return A.entries()


def unvec(field: Field, rows: int, cols: int, v: Sequence) -> Mat:
    return Mat(field, rows, cols, tuple(v))


class MatrixSubspace:
    """A subspace of Mat(rows, cols) over one of the exact fields."""

    __slots__ = ("rows", "cols", "field", "basis", "_pivots")

    def __init__(self, field: Field, rows: int, cols: int,
                 basis: Sequence[Mat], pivots: Sequence[int]):
        """Internal constructor; use :meth:`from_generators`."""
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("MatrixSubspace is immutable")

    # ---------------------------------------------------------------- build
    @classmethod
    def from_generators(cls, mats: Sequence[Mat], *, rows: int | None = None,
                        cols: int | None = None, field: Field | None = None,
                        strict: bool = False) -> "MatrixSubspace":
        """Canonical subspace spanned by the given matrices.

        An empty generator list needs the ambient shape and field declared.
        With ``strict=True`` a linearly dependent generator list is rejected
        instead of being re-canonicalized.
        """
        mats = list(mats)
        if not mats:
            if rows is None or cols is None or field is None:
                raise ShapeMismatch(
                    "empty generator list needs rows, cols and field")
            return cls(field, rows, cols, [], [])
        f = mats[0].field
        m, n = mats[0].shape
        if field is not None and field != f:
            raise ShapeMismatch(f"field mismatch: {field.tag} vs {f.tag}")
        if (rows is not None and rows != m) or (cols is not None and cols != n):
            raise ShapeMismatch("declared ambient shape disagrees with generators")
        for A in mats:
            if A.field != f or A.shape != (m, n):
                raise ShapeMismatch("generators must share shape and field")
        R, pivots = _rref_rows([list(vec(A)) for A in mats], f)
        if strict and len(pivots) < len(mats):
            raise ShapeMismatch("dependent generator list rejected (strict)")
        basis = [unvec(f, m, n, R[i]) for i in range(len(pivots))]
        return cls(f, m, n, basis, pivots)

    @classmethod
    def zero_space(cls, field: Field, rows: int, cols: int) -> "MatrixSubspace":
        return cls(field, rows, cols, [], [])

    @classmethod
    def full_space(cls, field: Field, rows: int, cols: int) -> "MatrixSubspace":
        units = [Mat.unit(field, rows, cols, i, j)
                 for i in range(rows) for j in range(cols)]
        return cls(field, rows, cols, units, list(range(rows * cols)))

    # ---------------------------------------------------------------- basic
    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.rows * self.cols

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def coordinate_matrix(self) -> Mat:
        return Mat(self.field, self.dim, self.ambient_dim,
                   [x for B in self.basis for x in vec(B)])

    def element(self, coeffs: Sequence) -> Mat:
        """The combination sum(c_i * basis_i)."""
        if len(coeffs) != self.dim:
            raise ShapeMismatch(f"expected {self.dim} coefficients")
        if self.field == QQ:
            return Mat(QQ, self.rows, self.cols,
                       _combine_q(coeffs, self.basis, self.rows * self.cols))
        acc = [self.field.zero()] * (self.rows * self.cols)
        for c, B in zip(coeffs, self.basis):
            if c:
                c = _coerce(self.field, c)
                for i, x in enumerate(B.entries()):
                    if x:
                        acc[i] = acc[i] + c * x
        return Mat(self.field, self.rows, self.cols, acc)

    def coordinates_of(self, A: Mat) -> Optional[tuple]:
        """Coefficients of A over the canonical basis, or None if outside."""
        if A.field != self.field or A.shape != (self.rows, self.cols):
            raise ShapeMismatch("shape or field mismatch in membership test")
        coeffs, rest = self._reduce(A)
        return None if any(rest) else coeffs

    def _reduce(self, A: Mat) -> tuple:
        """(coefficients, rest): A minus the combination of the canonical
        basis that clears A's pivot coordinates, as that combination's
        coefficients and the remaining entries of vec(A)."""
        v = list(vec(A))
        coeffs = []
        for B, pc in zip(self.basis, self._pivots):
            c = v[pc]
            coeffs.append(c)
            if c:
                bv = vec(B)
                for j, x in enumerate(bv):
                    if x:
                        v[j] = v[j] - c * x
        return tuple(coeffs), v

    def contains(self, A: Mat) -> bool:
        return self.coordinates_of(A) is not None

    def __contains__(self, A: Mat) -> bool:
        return self.contains(A)

    def __eq__(self, other):
        if not isinstance(other, MatrixSubspace):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.basis))

    def __repr__(self):
        return (f"<subspace dim {self.dim} of Mat({self.rows},{self.cols}) "
                f"over {self.field.tag}>")

    def _check_same_ambient(self, other: "MatrixSubspace"):
        if (self.field != other.field or self.rows != other.rows
                or self.cols != other.cols):
            raise ShapeMismatch("subspaces live in different ambients")

    # --------------------------------------------------------------- algebra
    def sum(self, other: "MatrixSubspace") -> "MatrixSubspace":
        """Span of the union."""
        self._check_same_ambient(other)
        return MatrixSubspace.from_generators(
            list(self.basis) + list(other.basis),
            rows=self.rows, cols=self.cols, field=self.field)

    __add__ = sum

    def intersect(self, other: "MatrixSubspace") -> "MatrixSubspace":
        self._check_same_ambient(other)
        if self.is_zero() or other.is_zero():
            return MatrixSubspace.zero_space(self.field, self.rows, self.cols)
        d1, d2 = self.dim, other.dim
        N = self.ambient_dim
        # columns: coefficients (a | b) with a.CL - b.CM = 0
        entries = []
        for pos in range(N):
            row = [vec(B)[pos] for B in self.basis]
            row += [-vec(B)[pos] for B in other.basis]
            entries.extend(row)
        M = Mat(self.field, N, d1 + d2, entries)
        gens = []
        for kv in M.kernel():
            gens.append(self.element(kv[:d1]))
        return MatrixSubspace.from_generators(
            gens, rows=self.rows, cols=self.cols, field=self.field)

    def preannihilator(self) -> "MatrixSubspace":
        """All T in Mat(cols, rows) with Tr(A @ T) = 0 for every A here.

        dim(result) = rows*cols - dim(self).

        One elimination: row i of the pairing matrix is vec(B_i^T), which
        pairs with vec(T) to Tr(B_i @ T); it is read off B_i's entries by
        index.  Take its kernel with the columns reversed; there the vector
        of free column j has a 1 at j, zeros at the other free columns and
        its other nonzeros at pivot columns left of j.  Reversing each
        vector and their order gives leading 1s at ascending free
        positions, zeros at the other leading positions and all other
        nonzeros to the right: a reduced row echelon basis.  The RREF of a
        subspace is unique, so this is the basis from_generators would
        build, with the leading positions as its pivots.
        """
        m, n = self.rows, self.cols
        N = n * m
        f = self.field
        # position N-1-(j*m + i) of the reversed vec(B^T) holds B[i, j]
        order = [i * n + j for j in range(n) for i in range(m)][::-1]
        rows = [[e[t] for t in order] for e in map(Mat.entries, self.basis)]
        kern, piv = _kernel_rows(rows, N, f)
        taken = set(piv)
        return MatrixSubspace(
            f, n, m, [unvec(f, n, m, kv[::-1]) for kv in reversed(kern)],
            [k for k in range(N) if N - 1 - k not in taken])

    def tensor(self, other: "MatrixSubspace") -> "MatrixSubspace":
        """Span of Kronecker products of basis pairs; block convention:
        entry (i, j) of the left factor scales a full copy of the right.

        No elimination: the products A (x) B of the two canonical bases,
        sorted by leading position, are the canonical basis.  The first
        nonzero entry of A (x) B lies in the first nonzero row of A, then
        of B, and there in the first nonzero column of A, then of B: it is
        the product of the two leading 1s, at (pivot of A, pivot of B).
        Every other product A' (x) B' is zero there, since A' is zero at
        A's pivot or B' is zero at B's pivot.  So the products have
        distinct leading 1s and zeros at each other's leading positions,
        which in order of leading position is a reduced row echelon basis
        of their span.
        """
        if self.field != other.field:
            raise ShapeMismatch("field mismatch in tensor")
        m2, n1, n2 = other.rows, self.cols, other.cols
        lead = []
        for A, pa in zip(self.basis, self._pivots):
            i1, j1 = divmod(pa, n1)
            for B, pb in zip(other.basis, other._pivots):
                i2, j2 = divmod(pb, n2)
                lead.append(((i1 * m2 + i2) * n1 * n2 + j1 * n2 + j2, A, B))
        lead.sort(key=lambda t: t[0])
        return MatrixSubspace(
            self.field, self.rows * m2, n1 * n2,
            [A.kron(B) for _, A, B in lead], [pos for pos, _, _ in lead])

    def product_span(self, other: "MatrixSubspace") -> "MatrixSubspace":
        """span{A @ B}; by bilinearity the products of basis elements span."""
        if self.field != other.field:
            raise ShapeMismatch("field mismatch in product span")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"inner dimensions differ: {self.cols} vs {other.rows}")
        gens = [A @ B for A in self.basis for B in other.basis]
        return MatrixSubspace.from_generators(
            gens, rows=self.rows, cols=other.cols, field=self.field)

    def power_span_index(self, max_r: int | None = None) -> Optional[int]:
        """Least r <= max_r with span(self U self^2 U ... U self^r) equal to
        the full matrix algebra, accumulating powers through product_span;
        None when the accumulated span stabilizes early or max_r is hit."""
        if self.rows != self.cols:
            raise ShapeMismatch("power_span_index needs a square ambient")
        if max_r is None:
            max_r = self.ambient_dim
        acc = self
        power = self
        for r in range(1, max_r + 1):
            if r > 1:
                power = power.product_span(self)
                new_acc = acc.sum(power)
                if new_acc.dim == acc.dim:
                    return None  # stabilized below the full algebra
                acc = new_acc
            if acc.is_full():
                return r
        return None

    def equivalence_transform(self, S: Mat, T: Mat) -> "MatrixSubspace":
        """span{S @ A @ T}; S and T must be invertible."""
        if S.field != self.field or T.field != self.field:
            raise ShapeMismatch("field mismatch in equivalence transform")
        if S.cols != self.rows or T.rows != self.cols:
            raise ShapeMismatch("transform shapes incompatible with ambient")
        if not S.is_invertible():
            raise SingularTransform("left factor is singular")
        if not T.is_invertible():
            raise SingularTransform("right factor is singular")
        gens = [S @ B @ T for B in self.basis]
        return MatrixSubspace.from_generators(
            gens, rows=S.rows, cols=T.cols, field=self.field)

    def compress(self, Q: Mat, P: Mat) -> "MatrixSubspace":
        """The compression {Q @ A @ P}, re-expressed on column-space bases of
        Q and P (RREF pivot columns, hence deterministic).  Q and P must be
        idempotent; the result lives in Mat(rank Q, rank P)."""
        if Q.field != self.field or P.field != self.field:
            raise ShapeMismatch("field mismatch in compression")
        if Q.shape != (self.rows, self.rows) or P.shape != (self.cols, self.cols):
            raise ShapeMismatch("compression needs square Q, P matching the ambient")
        if Q @ Q != Q:
            raise NotIdempotent("left compression matrix is not idempotent")
        if P @ P != P:
            raise NotIdempotent("right compression matrix is not idempotent")
        qcols = Q.rref()[1]
        pcols = P.rref()[1]
        rq, rp = len(qcols), len(pcols)
        CQ = Mat(self.field, self.rows, rq,
                 [Q[i, j] for i in range(self.rows) for j in qcols])
        CP = Mat(self.field, self.cols, rp,
                 [P[i, j] for i in range(self.cols) for j in pcols])
        gens = []
        for B in self.basis:
            W = Q @ B @ CP  # columns live in range(Q)
            cols = []
            for j in range(rp):
                x = CQ.solve(W.column(j))
                if x is None:
                    raise VerificationFailed("compressed column left range(Q)")
                cols.append(x)
            gens.append(Mat(self.field, rq, rp,
                            [cols[j][i] for i in range(rq) for j in range(rp)]))
        return MatrixSubspace.from_generators(
            gens, rows=rq, cols=rp, field=self.field)

    def transpose_space(self) -> "MatrixSubspace":
        return MatrixSubspace.from_generators(
            [B.transpose() for B in self.basis],
            rows=self.cols, cols=self.rows, field=self.field)

    def adjoint_space(self) -> "MatrixSubspace":
        return MatrixSubspace.from_generators(
            [B.conj_transpose() for B in self.basis],
            rows=self.cols, cols=self.rows, field=self.field)

    def diagonal_bimodule_closure(self) -> "MatrixSubspace":
        """Smallest pattern space (span of matrix units on an index set)
        containing this one; square ambient only."""
        if self.rows != self.cols:
            raise ShapeMismatch("bimodule closure needs a square ambient")
        support = sorted({
            (i, j)
            for B in self.basis
            for i in range(self.rows)
            for j in range(self.cols)
            if B[i, j]
        })
        gens = [Mat.unit(self.field, self.rows, self.cols, i, j)
                for (i, j) in support]
        return MatrixSubspace.from_generators(
            gens, rows=self.rows, cols=self.cols, field=self.field)

    def pattern(self) -> Optional[frozenset]:
        """The index set when this is a pattern space, else None."""
        support = frozenset(
            (i, j)
            for B in self.basis
            for i in range(self.rows)
            for j in range(self.cols)
            if B[i, j]
        )
        return support if len(support) == self.dim else None

    def diagonal_expectation(self) -> "MatrixSubspace":
        """Span of the diagonal parts of the elements (square ambient)."""
        if self.rows != self.cols:
            raise ShapeMismatch("diagonal expectation needs a square ambient")
        gens = [Mat.diag(self.field, [B[i, i] for i in range(self.rows)])
                for B in self.basis]
        return MatrixSubspace.from_generators(
            gens, rows=self.rows, cols=self.cols, field=self.field)

    # ------------------------------------------------------------- reduction
    def reduce_mod(self, q: int) -> "MatrixSubspace":
        """Entrywise reduction of the canonical basis into GF(q).

        The canonical basis has unit pivots and zeros elsewhere in its pivot
        columns, so its reduction is already in reduced row echelon form
        over GF(q) with the same pivots: it is the canonical basis of the
        reduced space, of the same dimension (raises BadPrime when a
        denominator collides with the characteristic).
        """
        red = [_reduce_mat(B, q) for B in self.basis]
        if not red:
            from .fields import GF

            return MatrixSubspace.zero_space(GF(q), self.rows, self.cols)
        return MatrixSubspace(red[0].field, self.rows, self.cols, red,
                              self._pivots)
