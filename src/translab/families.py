"""Constructors for the concrete matrix-subspace families.

Every constructor is exact and parameterized; dimensions follow closed
forms that the test suite checks against the definitions.  Conventions:

* Diagonals of an r x c ambient are indexed by delta = i - j (0-indexed),
  so delta runs from -(c-1) to r-1; the entries of a diagonal are ordered
  by increasing row and numbered 1, 2, ..., length.
* The diagonal-annihilator construction puts, on each diagonal of length
  p > k, the span of the Vandermonde diagonal vectors (1^t, 2^t, ..., p^t)
  for 0 <= t < p - k, and zero on the 2k shorter diagonals.  Any nonzero
  element is then forced to have at least k+1 nonzero entries on its
  shortest nonzero diagonal, and the triangular submatrix carrying that
  diagonal pushes its rank above k.
* "Shortest diagonal" ties break toward the most negative index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .errors import ParameterOutOfRange, ShapeMismatch, VerificationFailed
from .fields import Field, QQ
from .matrices import Mat
from .polynomials import (
    charpoly,
    factor_over_rationals,
    poly_is_squarefree,
    poly_sub,
    poly_trim,
    quotient_kernel,
)
from .subspace import MatrixSubspace, vec

__all__ = [
    "FamilySpec",
    "parse_family",
    "build_family",
    "vandermonde_diagonal_space",
    "min_rank_diagonal_annihilator",
    "minimal_k_transitive",
    "minimal_k_transitive_obstruction",
    "toeplitz_space",
    "hankel_space",
    "toeplitz_rank_one_generators",
    "trace_zero",
    "trace_zero_rank_one_generators",
    "rank_annihilator_space",
    "rank_annihilator_obstruction",
    "LinearMapTable",
    "dual_transitive_phi",
    "dual_transitive_8dim",
    "dual_transitive_perp_display",
    "dual_transitive_theorem_form",
    "phi_block_space",
    "phi_block_map",
    "phi_eigen_structure",
    "sl_tensor_full",
    "row_augmented_space",
    "pattern_space",
    "random_subspace",
    "counterexample_certificate",
    "CounterexampleCertificate",
]


# ------------------------------------------------------------ diagonal tools

def _diagonal_positions(rows: int, cols: int, delta: int) -> list:
    """Positions (i, j) with i - j = delta, ordered by increasing row."""
    out = []
    for i in range(rows):
        j = i - delta
        if 0 <= j < cols:
            out.append((i, j))
    return out


def vandermonde_diagonal_space(p: int, k: int,
                               field: Field = QQ) -> MatrixSubspace:
    """Span of diag(1^t, 2^t, ..., p^t) for 0 <= t < p - k inside Mat(p, p).

    Dimension p - k; any p - k diagonal restrictions of the basis are
    linearly independent (Vandermonde), so a nonzero element vanishes at
    most at p - k - 1 entries, hence has rank at least k + 1.
    """
    if not (0 <= k <= p) or p < 1:
        raise ParameterOutOfRange(f"need 0 <= k <= p and p >= 1, got {(p, k)}")
    gens = [Mat.diag(field, [field.from_int(s**t) for s in range(1, p + 1)])
            for t in range(p - k)]
    return MatrixSubspace.from_generators(gens, rows=p, cols=p, field=field)


def min_rank_diagonal_annihilator(m: int, n: int, k: int,
                                  field: Field = QQ) -> MatrixSubspace:
    """The diagonal-wise subspace of Mat(n, m) with no nonzero element of
    rank at most k: zero on the 2k diagonals of length <= k, and the
    (p - k)-dimensional Vandermonde space on each diagonal of length p > k.

    Dimension m*n - k*(m + n - k).
    """
    if not (1 <= k < min(m, n)):
        raise ParameterOutOfRange(f"need 1 <= k < min(m, n), got {(m, n, k)}")
    gens = []
    for delta in range(-(m - 1), n):
        pos = _diagonal_positions(n, m, delta)
        p = len(pos)
        if p <= k:
            continue
        for t in range(p - k):
            entries = {pos[s]: field.from_int((s + 1)**t) for s in range(p)}
            gens.append(Mat(field, n, m,
                            [entries.get((i, j), field.zero())
                             for i in range(n) for j in range(m)]))
    return MatrixSubspace.from_generators(gens, rows=n, cols=m, field=field)


def minimal_k_transitive(m: int, n: int, k: int,
                         field: Field = QQ) -> MatrixSubspace:
    """A k-transitive subspace of Mat(m, n) of the minimal dimension
    k*(m + n - k): the trace-pairing annihilator of the diagonal
    annihilator construction."""
    return min_rank_diagonal_annihilator(m, n, k, field).preannihilator()


def minimal_k_transitive_obstruction(m: int, n: int, k: int,
                                     field: Field = QQ) -> Mat:
    """The canonical rank-(k+1) element of the diagonal annihilator living
    on a shortest nonzero diagonal (all-ones diagonal vector); it is the
    exact witness that the minimal construction is not (k+1)-transitive."""
    if not (1 <= k < min(m, n)):
        raise ParameterOutOfRange(f"need 1 <= k < min(m, n), got {(m, n, k)}")
    best = None
    for delta in range(-(m - 1), n):
        pos = _diagonal_positions(n, m, delta)
        if len(pos) > k and (best is None or len(pos) < len(best)):
            best = pos
    entries = {q: field.one() for q in best}
    return Mat(field, n, m, [entries.get((i, j), field.zero())
                             for i in range(n) for j in range(m)])


# ------------------------------------------------------------- structured

def toeplitz_space(n: int, field: Field = QQ) -> MatrixSubspace:
    """All n x n matrices constant along diagonals; dimension 2n - 1."""
    if n < 1:
        raise ParameterOutOfRange("toeplitz_space needs n >= 1")
    gens = []
    for delta in range(-(n - 1), n):
        pos = _diagonal_positions(n, n, delta)
        gens.append(Mat(field, n, n,
                        [field.one() if (i, j) in set(pos) else field.zero()
                         for i in range(n) for j in range(n)]))
    return MatrixSubspace.from_generators(gens, rows=n, cols=n, field=field)


def hankel_space(n: int, field: Field = QQ) -> MatrixSubspace:
    """All n x n matrices constant along anti-diagonals; dimension 2n - 1."""
    if n < 1:
        raise ParameterOutOfRange("hankel_space needs n >= 1")
    gens = []
    for s in range(2 * n - 1):
        gens.append(Mat(field, n, n,
                        [field.one() if i + j == s else field.zero()
                         for i in range(n) for j in range(n)]))
    return MatrixSubspace.from_generators(gens, rows=n, cols=n, field=field)


def toeplitz_rank_one_generators(n: int,
                                 points: Optional[Sequence] = None) -> list:
    """The rank-one matrices [a^(i-j)] at the given nonzero points; any
    2n - 1 distinct nonzero values of a span the whole Toeplitz space."""
    if points is None:
        points = [Fraction(a) for a in range(1, 2 * n)]
    out = []
    for a in points:
        a = Fraction(a)
        if a == 0:
            raise ParameterOutOfRange("points must be nonzero")
        out.append(Mat(QQ, n, n,
                       [a ** (i - j) for i in range(n) for j in range(n)]))
    return out


def trace_zero(n: int, field: Field = QQ) -> MatrixSubspace:
    """Matrices with zero trace; dimension n^2 - 1, pre-annihilator spanned
    by the identity."""
    if n < 2:
        raise ParameterOutOfRange("trace_zero needs n >= 2")
    gens = [Mat.unit(field, n, n, i, j)
            for i in range(n) for j in range(n) if i != j]
    gens += [Mat.unit(field, n, n, i, i) - Mat.unit(field, n, n, n - 1, n - 1)
             for i in range(n - 1)]
    return MatrixSubspace.from_generators(gens, rows=n, cols=n, field=field)


def trace_zero_rank_one_generators(n: int, field: Field = QQ) -> list:
    """Rank-one spanning set of the trace-zero space: the off-diagonal
    units together with (e_1 - e_j)(e_1 + e_j)^T for 2 <= j <= n."""
    gens = [Mat.unit(field, n, n, i, j)
            for i in range(n) for j in range(n) if i != j]
    for j in range(1, n):
        gens.append(Mat.unit(field, n, n, 0, 0) + Mat.unit(field, n, n, 0, j)
                    - Mat.unit(field, n, n, j, 0) - Mat.unit(field, n, n, j, j))
    return gens


def rank_annihilator_space(m: int, n: int, k: int,
                           field: Field = QQ) -> MatrixSubspace:
    """The annihilator of a single rank-(k+1) matrix: a codimension-one
    subspace of Mat(m, n) that is k-transitive but not (k+1)-transitive."""
    if k + 1 > min(m, n) or k < 0:
        raise ParameterOutOfRange(f"need 0 <= k, k+1 <= min(m, n), got {(m, n, k)}")
    R = rank_annihilator_obstruction(m, n, k, field)
    return MatrixSubspace.from_generators(
        [R], rows=n, cols=m, field=field).preannihilator()


def rank_annihilator_obstruction(m: int, n: int, k: int,
                                 field: Field = QQ) -> Mat:
    """The rank-(k+1) matrix sum(E_ii, i <= k+1) in Mat(n, m)."""
    out = Mat.zeros(field, n, m)
    for i in range(k + 1):
        out = out + Mat.unit(field, n, m, i, i)
    return out


# ---------------------------------------------------------- dual transitive

@dataclass(frozen=True)
class LinearMapTable:
    """A linear map on Mat(n, n) stored as its matrix on row-major
    coordinates."""

    size: int
    matrix: Mat

    def apply(self, A: Mat) -> Mat:
        if A.shape != (self.size, self.size):
            raise ShapeMismatch("map table size mismatch")
        v = vec(A)
        out = []
        for i in range(self.size * self.size):
            s = A.field.zero()
            row = self.matrix.row(i)
            for c, x in zip(row, v):
                if c and x:
                    s = s + c * x
            out.append(s)
        return Mat(A.field, self.size, self.size, out)


_DUAL_TRANSITIVE_PATTERNS = {
    # letter -> list of (block row, block col, integer coefficient)
    "a": [(0, 0, 1), (2, 2, 1)],
    "b": [(0, 1, 1), (2, 3, 1)],
    "c": [(1, 0, 1), (3, 2, 1)],
    "d": [(1, 1, 1), (3, 3, 1)],
    "e": [(1, 3, 1), (2, 0, 1)],
    "f": [(1, 2, 1), (2, 1, 1)],
    "g": [(0, 3, 2), (3, 0, 1)],
    "h": [(0, 2, 1), (3, 1, 1)],
}

_DUAL_TRANSITIVE_PERP_PATTERNS = {
    "a": [(0, 0, Fraction(1)), (2, 2, Fraction(-1))],
    "b": [(0, 1, Fraction(1)), (2, 3, Fraction(-1))],
    "c": [(1, 0, Fraction(1)), (3, 2, Fraction(-1))],
    "d": [(1, 1, Fraction(1)), (3, 3, Fraction(-1))],
    "e": [(2, 0, Fraction(1)), (1, 3, Fraction(-1))],
    "f": [(2, 1, Fraction(1)), (1, 2, Fraction(-1))],
    "g": [(3, 0, Fraction(1, 2)), (0, 3, Fraction(-1))],
    "h": [(3, 1, Fraction(1)), (0, 2, Fraction(-1))],
}


def _pattern_matrix(field: Field, n: int, placements) -> Mat:
    entries = {}
    for (i, j, c) in placements:
        entries[(i, j)] = (c if not isinstance(c, int) else field.from_int(c))
        if isinstance(entries[(i, j)], Fraction) and field != QQ:
            raise ShapeMismatch("fractional pattern needs the rational field")
    return Mat(field, n, n, [entries.get((i, j), field.zero())
                             for i in range(n) for j in range(n)])


def dual_transitive_phi() -> LinearMapTable:
    """The bijection of Mat(2, 2) sending [[a, b], [c, d]] to
    [[d, 2c], [b, a]]: four distinct eigenvalues (1, -1, +-sqrt(2)) whose
    eigenvectors all have rank 2."""
    rows = [[0, 0, 0, 1], [0, 0, 2, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    return LinearMapTable(2, Mat.from_rows(QQ, rows))


def dual_transitive_8dim(field: Field = QQ):
    """The 8-dimensional subspace of Mat(4, 4) whose blocks are
    [[A, Phi(B)], [B, A]] with A, B free 2x2 blocks; both the space and its
    pre-annihilator are transitive.

    Returns (space, phi table).
    """
    gens = [_pattern_matrix(field, 4, _DUAL_TRANSITIVE_PATTERNS[letter])
            for letter in "abcdefgh"]
    space = MatrixSubspace.from_generators(gens, rows=4, cols=4, field=field)
    return space, dual_transitive_phi()


def dual_transitive_perp_display(field: Field = QQ) -> MatrixSubspace:
    """The displayed parameterization of the pre-annihilator of the
    8-dimensional dually transitive space (for cross-checking)."""
    gens = [_pattern_matrix(field, 4, _DUAL_TRANSITIVE_PERP_PATTERNS[letter])
            for letter in "abcdefgh"]
    return MatrixSubspace.from_generators(gens, rows=4, cols=4, field=field)


def dual_transitive_theorem_form(field: Field = QQ) -> MatrixSubspace:
    """The same construction in the block order [[A, B], [Phi(B), Phi(A)]]
    (the general theorem's layout, with the same Phi)."""
    return _phi_blocks(2, field, dual_transitive_phi().apply)


def _phi_blocks(n: int, field: Field, phi) -> MatrixSubspace:
    """The span of the blocks [[A, B], [phi(B), phi(A)]] over n x n
    blocks A and B."""
    gens = []
    Z = Mat.zeros(field, n, n)
    for i in range(n):
        for j in range(n):
            U = Mat.unit(field, n, n, i, j)
            PU = phi(U)
            gens.append(_blocks_2x2(U, Z, Z, PU))
            gens.append(_blocks_2x2(Z, U, PU, Z))
    return MatrixSubspace.from_generators(gens, rows=2 * n, cols=2 * n,
                                          field=field)


def _blocks_2x2(A: Mat, B: Mat, C: Mat, D: Mat) -> Mat:
    """Assemble [[A, B], [C, D]] from equal-size square blocks."""
    nb = A.rows
    f = A.field
    N = 2 * nb
    out = []
    for i in range(N):
        for j in range(N):
            blk = (A, B, C, D)[(i // nb) * 2 + (j // nb)]
            out.append(blk[i % nb, j % nb])
    return Mat(f, N, N, out)


# ------------------------------------------------------------- phi blocks
#
# The block construction needs a linear map phi on Mat(n, n) with
#   ker(phi) = N and ran(phi) = V, where
#   * N has dimension (n-k)^2 and no nonzero element of rank <= k,
#   * V is a k(2n-k)-dimensional subspace of N,
#   * the trace annihilators of N and of V are also free of nonzero
#     rank <= k elements (these govern the pre-annihilator side: it is
#     parameterized by [[phi*(X), -Y], [phi*(Y), -X]], whose kernel and
#     range are exactly those annihilators).
# The diagonal annihilator is unusable as N here: its trace annihilator
# always contains the corner matrix units, which are rank one.  A generic
# N works, and the dimension count for the dual side to be generically
# possible is exactly the parameter bound 2 (n-k)^2 >= n^2.  The
# constructor draws deterministic pseudo-random candidates and keeps the
# first one passing the rank filters below; the finite-field certification
# of the result lives in the deciders and the test suite.

def _check_phi_block_params(n: int, k: int):
    # exact form of the parameter bound: 2 (n - k)^2 >= n^2, which also
    # guarantees dim(quotient) = k (2n - k) <= (n - k)^2 = dim N
    if k < 1 or k >= n or 2 * (n - k) ** 2 < n * n:
        raise ParameterOutOfRange(
            f"phi block construction needs 1 <= k and 2 (n-k)^2 >= n^2, "
            f"got {(n, k)}")


def random_subspace(rng, field, d, m, n, bound) -> MatrixSubspace:
    """A d-dimensional subspace of Mat(m, n) spanned by matrices with
    entries drawn by rng.randint(-bound, bound), redrawn until the
    generators are independent."""
    while True:
        gens = [Mat(field, m, n,
                    [field.from_int(rng.randint(-bound, bound))
                     for _ in range(m * n)])
                for _ in range(d)]
        L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=field)
        if L.dim == d:
            return L


def _random_subspace_of(rng, N: MatrixSubspace, d: int) -> MatrixSubspace:
    while True:
        gens = []
        for _ in range(d):
            coeffs = [N.field.from_int(rng.randint(-3, 3))
                      for _ in range(N.dim)]
            gens.append(N.element(coeffs))
        V = MatrixSubspace.from_generators(gens, rows=N.rows, cols=N.cols,
                                           field=N.field)
        if V.dim == d:
            return V


def _min_sample_rank(rng, L: MatrixSubspace, samples: int) -> int:
    best = None
    for B in L.basis:
        r = B.rank()
        best = r if best is None else min(best, r)
    for _ in range(samples):
        coeffs = [L.field.from_int(rng.randint(-2, 2)) for _ in range(L.dim)]
        if not any(coeffs):
            continue
        r = L.element(coeffs).rank()
        best = r if best is None else min(best, r)
    return best


def _phi_block_components(n: int, k: int, field: Field):
    _check_phi_block_params(n, k)
    dim_n = (n - k) ** 2
    r = n * n - dim_n
    for attempt in range(64):
        rng = random.Random(f"phi-block-{n}-{k}-{attempt}")
        N = random_subspace(rng, field, dim_n, n, n, 3)
        V = _random_subspace_of(rng, N, r)
        space = _phi_blocks(n, field, partial(_phi_apply, N, V))
        perp = space.preannihilator()
        checks = rng
        if (_min_sample_rank(checks, N, 24) > k
                and _min_sample_rank(checks, N.preannihilator(), 24) > k
                and _min_sample_rank(checks, V, 24) > k
                and _min_sample_rank(checks, V.preannihilator(), 24) > k
                and _min_sample_rank(checks, perp, 24) > k):
            return N, V, space
    raise ParameterOutOfRange(
        f"no candidate for the block construction at {(n, k)} passed the "
        "rank filters")


def _phi_apply(N: MatrixSubspace, V: MatrixSubspace, A: Mat) -> Mat:
    """phi(A): quotient coordinates of A relative to N (read off the
    non-pivot coordinate positions of N's canonical basis) pushed onto the
    canonical basis of V."""
    pivset = set(N._pivots)
    rest = N._reduce(A)[1]
    return V.element([x for pos, x in enumerate(rest) if pos not in pivset])


_PHI_BLOCK_CACHE: dict = {}


def phi_block_map(n: int, k: int, field: Field = QQ) -> LinearMapTable:
    """The map behind the block construction, as a coordinate table.

    Its kernel is a maximal low-rank-free space N and its range a full
    quotient-size subspace of N; see phi_block_space.
    """
    N, V, _space = _phi_block_cached(n, k, field)
    cols = [vec(_phi_apply(N, V, Mat.unit(field, n, n, *divmod(pos, n))))
            for pos in range(n * n)]
    entries = [cols[j][i] for i in range(n * n) for j in range(n * n)]
    return LinearMapTable(n, Mat(field, n * n, n * n, entries))


def _phi_block_cached(n: int, k: int, field: Field):
    key = (n, k, field.tag)
    if key not in _PHI_BLOCK_CACHE:
        _PHI_BLOCK_CACHE[key] = _phi_block_components(n, k, field)
    return _PHI_BLOCK_CACHE[key]


def phi_block_space(n: int, k: int, field: Field = QQ) -> MatrixSubspace:
    """A subspace of Mat(2n, 2n) of dimension 2 n^2 such that both it and
    its pre-annihilator are k-transitive, for 2 (n-k)^2 >= n^2.

    Elements are the blocks [[A, B], [phi(B), phi(A)]] with A, B free and
    phi a seeded-deterministic map whose kernel N and range V <= N are
    low-rank-free together with their trace annihilators; any nonzero
    element then shows rank > k in one of its blocks, and the displayed
    parameterization of the pre-annihilator does the same on the dual side.
    The constructor keeps the first deterministic candidate passing exact
    rank filters; finite-field certification is the deciders' job.
    """
    return _phi_block_cached(n, k, field)[2]


# ------------------------------------------------------------ eigen checks

def phi_eigen_structure(phi: LinearMapTable) -> dict:
    """Exact eigen-structure of a map table over Q: distinctness of the
    eigenvalues by squarefreeness of the characteristic polynomial, and the
    rank of every eigenvector checked inside Q[x]/(f) for each irreducible
    factor f (no floating point anywhere).

    Returns {"distinct_eigenvalues": bool, "factor_degrees": [...],
    "eigenvector_ranks": {degree pattern: rank}} where every eigenvector
    rank is reported as the full block size when nonsingular.
    """
    M = phi.matrix
    if M.field != QQ:
        raise ShapeMismatch("eigen structure check runs over Q")
    n2 = M.rows
    nb = phi.size
    rows = [[M[i, j] for j in range(n2)] for i in range(n2)]
    cp = charpoly(rows, QQ)
    distinct = poly_is_squarefree(cp)
    factors = factor_over_rationals(cp)
    ranks = []
    for f in factors:
        # kernel of (M - x I) over Q[x]/(f)
        sys_rows = []
        for i in range(n2):
            row = []
            for j in range(n2):
                const = (M[i, j],) if M[i, j] else ()
                if i == j:
                    row.append(poly_trim(poly_sub(const, (Fraction(0), Fraction(1)))))
                else:
                    row.append(const)
            sys_rows.append(row)
        kern = quotient_kernel(sys_rows, f, QQ)
        if not kern:
            raise VerificationFailed("characteristic factor without eigenvector")
        for v in kern:
            # reshape to the block size and check the determinant residue
            det = _quotient_det2(v, nb, f)
            ranks.append((len(f) - 1, nb if det else "singular"))
    return {
        "distinct_eigenvalues": distinct,
        "factor_degrees": sorted(len(f) - 1 for f in factors),
        "eigenvector_ranks": ranks,
    }


def _quotient_det2(v: list, nb: int, modulus) -> tuple:
    """Determinant residue of the nb x nb reshape of a residue vector
    (only nb = 2 is needed)."""
    from .polynomials import poly_divmod, poly_mul

    if nb != 2:
        raise ShapeMismatch("eigenvector rank check implemented for 2x2 blocks")
    a, b, c, d = v
    det = poly_sub(poly_mul(a, d), poly_mul(b, c))
    return poly_divmod(poly_trim(det), modulus)[1]


# ----------------------------------------------------------------- tensors

def sl_tensor_full(d: int, m: int, field: Field = QQ) -> MatrixSubspace:
    """Trace-zero d x d blocks tensored with the full m x m algebra:
    a (d-1)-transitive subspace of Mat(dm, dm) spanned by rank ones, with
    pre-annihilator span{I_d (x) E_ij} of minimum rank d."""
    if d < 2 or m < 1:
        raise ParameterOutOfRange("sl_tensor_full needs d >= 2, m >= 1")
    return trace_zero(d, field).tensor(
        MatrixSubspace.full_space(field, m, m))


def row_augmented_space(M: MatrixSubspace) -> MatrixSubspace:
    """Stack an arbitrary extra first row on top of the elements of M:
    a subspace of Mat(m+1, n) of dimension n + dim M that is n-separating
    and exactly as k-transitive as M."""
    f = M.field
    m, n = M.rows, M.cols
    gens = [Mat.unit(f, m + 1, n, 0, j) for j in range(n)]
    for B in M.basis:
        gens.append(Mat(f, m + 1, n,
                        [f.zero()] * n + list(B.entries())))
    return MatrixSubspace.from_generators(gens, rows=m + 1, cols=n, field=f)


def pattern_space(n: int, positions, field: Field = QQ) -> MatrixSubspace:
    """Span of the matrix units at the given 0-indexed (i, j) positions:
    the finite model of a bimodule over the diagonal algebra, and a fixed
    point of the diagonal bimodule closure."""
    pos = sorted(set((int(i), int(j)) for (i, j) in positions))
    for (i, j) in pos:
        if not (0 <= i < n and 0 <= j < n):
            raise ParameterOutOfRange(f"position {(i, j)} outside [0, {n})^2")
    gens = [Mat.unit(field, n, n, i, j) for (i, j) in pos]
    return MatrixSubspace.from_generators(gens, rows=n, cols=n, field=field) \
        if gens else MatrixSubspace.zero_space(field, n, n)


# ----------------------------------------------- the tensor counterexample

@dataclass
class CounterexampleCertificate:
    """Verification record for the rank-one obstruction showing that the
    tensor square of the dually transitive space is not transitive."""

    equations: list
    equations_ok: bool
    decomposition_ok: bool
    dual_pairing_ok: bool
    rank_one_perp_tensor: Mat
    rank_one_main_tensor: Mat
    verdict_tensor_dual: object
    verdict_tensor_main: object

    @property
    def all_ok(self) -> bool:
        from .deciders import Status

        return (self.equations_ok and self.decomposition_ok
                and self.dual_pairing_ok
                and self.verdict_tensor_dual.status == Status.DISPROVED
                and self.verdict_tensor_main.status == Status.DISPROVED)


def _rank_one_from_sign_pattern(field, usigns, vsigns) -> tuple:
    """u, v in Q^16 assembled from (e4, e3, e2, e1) blocks with signs."""
    return tuple(Mat.col(field, [s if t == 3 - b else 0
                                 for b, s in enumerate(signs) for t in range(4)])
                 for signs in (usigns, vsigns))


def _block_of(T: Mat, r: int, c: int, nb: int = 4) -> Mat:
    return Mat(T.field, nb, nb,
               [T[r * nb + i, c * nb + j] for i in range(nb) for j in range(nb)])


def _certify_rank_one_in_sum(L: MatrixSubspace, T: Mat, patterns) -> tuple:
    """Check the pairwise block equations of T against the letter patterns
    and produce an explicit decomposition T = P - Q with P in L (x) M_4
    (pattern blocks) and Q in M_4 (x) L.

    Returns (equations, all_ok, decomposition_ok)."""
    f = L.field
    equations = []
    ok = True
    P = Mat.zeros(f, 16, 16)
    Q = Mat.zeros(f, 16, 16)
    for letter, placements in patterns.items():
        (i1, j1, c1), (i2, j2, c2) = placements
        p1, p2 = (i1, j1), (i2, j2)
        T1 = _block_of(T, *p1)
        T2 = _block_of(T, *p2)
        c1f = f.from_int(c1)
        c2f = f.from_int(c2)
        lhs = T1.scale(c2f) - T2.scale(c1f)
        member = L.contains(lhs)
        equations.append({"letter": letter, "blocks": [p1, p2],
                          "member_of_block_space": member})
        ok = ok and member
        lam = T1.scale(f.one() / c1f)  # X at p1 chosen to be zero
        X2 = lam.scale(c2f) - T2
        P = P + _pattern_matrix(f, 4, placements).kron(lam)
        Q = Q + Mat.unit(f, 4, 4, *p2).kron(X2)
    decomposition_ok = ok and (P - Q == T)
    return equations, ok, decomposition_ok


def counterexample_certificate() -> CounterexampleCertificate:
    """Build and fully verify the rank-one obstructions for both tensor
    squares of the dually transitive 8-dimensional space.

    The displayed assembly u = (e4, e3, e2, e1), v = (e4, e3, -e2, -e1)
    solves the eight block equations for the pre-annihilator side; the
    mirrored assembly handles the main space.  Everything is re-verified by
    exact elimination, including the Disproved verdicts for the two tensor
    squares."""
    from .deciders import transitivity_disproof_from_witness

    L, _phi = dual_transitive_8dim()
    Lp = L.preannihilator()

    u, v = _rank_one_from_sign_pattern(QQ, (1, 1, 1, 1), (1, 1, -1, -1))
    T_perp = u @ v.transpose()  # rank one in (Lp tensor Lp)_perp
    equations, eq_ok, dec_ok = _certify_rank_one_in_sum(
        L, T_perp, _DUAL_TRANSITIVE_PATTERNS)
    # dual route: T annihilates every Kronecker generator of Lp (x) Lp
    pair_ok = _annihilates_tensor_square(Lp, T_perp)
    tensor_dual = Lp.tensor(Lp)
    verdict_dual = transitivity_disproof_from_witness(tensor_dual, 1, T_perp)

    T_main = _find_main_tensor_witness(L)
    tensor_main = L.tensor(L)
    verdict_main = transitivity_disproof_from_witness(tensor_main, 1, T_main)

    return CounterexampleCertificate(
        equations=equations,
        equations_ok=eq_ok,
        decomposition_ok=dec_ok,
        dual_pairing_ok=pair_ok,
        rank_one_perp_tensor=T_perp,
        rank_one_main_tensor=T_main,
        verdict_tensor_dual=verdict_dual,
        verdict_tensor_main=verdict_main,
    )


def _annihilates_tensor_square(S: MatrixSubspace, T: Mat) -> bool:
    """Whether T pairs to zero with every Kronecker generator of S (x) S."""
    return all(not Bi.kron(Bj).trace_pairing(T)
               for Bi in S.basis for Bj in S.basis)


def _find_main_tensor_witness(L: MatrixSubspace) -> Mat:
    """A rank-one element of (L tensor L)_perp, located by mirroring the
    displayed sign assembly (small deterministic sign search, then exact
    verification against the Kronecker generators of L tensor L)."""
    f = QQ
    sign_choices = [
        ((1, 1, 1, 1), (1, 1, -1, -1)),
        ((1, 1, -1, -1), (1, 1, 1, 1)),
        ((1, 1, 1, 1), (1, -1, 1, -1)),
        ((1, -1, 1, -1), (1, 1, 1, 1)),
        ((1, 1, 1, 1), (1, -1, -1, 1)),
        ((1, -1, -1, 1), (1, 1, 1, 1)),
        ((1, 1, -1, 1), (1, 1, 1, -1)),
        ((1, 1, 1, -1), (1, 1, -1, 1)),
    ]
    for us, vs in sign_choices:
        u, v = _rank_one_from_sign_pattern(f, us, vs)
        T = u @ v.transpose()
        if _annihilates_tensor_square(L, T):
            return T
    raise AssertionError("no mirrored sign assembly annihilates the tensor square")


# -------------------------------------------------------------- FamilySpec

@dataclass(frozen=True)
class FamilySpec:
    """A parsed family address like toeplitz:3 or minimal:4,5,2."""

    name: str
    params: tuple = ()
    inner: Optional["FamilySpec"] = None
    pattern: tuple = ()

    def __str__(self):
        if self.name == "rowaug":
            return f"rowaug:{self.inner}"
        if self.name == "pattern":
            pos = ",".join(f"{i}.{j}" for (i, j) in self.pattern)
            return f"pattern:{self.params[0]}:{pos}"
        if self.params:
            return f"{self.name}:{','.join(str(p) for p in self.params)}"
        return self.name


# name -> (parameter count, constructor(*params, field),
#          closed-form expectations(*params)); rowaug and pattern have
#          their own grammar
_FAMILIES = {
    "toeplitz": (1, toeplitz_space, lambda n: {
        "ambient": (n, n), "dim": 2 * n - 1, "transitive": 1}),
    "hankel": (1, hankel_space, lambda n: {
        "ambient": (n, n), "dim": 2 * n - 1, "transitive": 1}),
    "tracezero": (1, trace_zero, lambda n: {
        "ambient": (n, n), "dim": n * n - 1, "transitive": n - 1}),
    "minimal": (3, minimal_k_transitive, lambda m, n, k: {
        "ambient": (m, n), "dim": k * (m + n - k),
        "transitive": k, "not_transitive": k + 1}),
    "rankann": (3, rank_annihilator_space, lambda m, n, k: {
        "ambient": (m, n), "dim": m * n - 1,
        "transitive": k, "not_transitive": k + 1}),
    "vdiag": (2, vandermonde_diagonal_space, lambda p, k: {
        "ambient": (p, p), "dim": p - k, "min_rank": k + 1}),
    "dualtransitive": (0, lambda field: dual_transitive_8dim(field)[0],
                       lambda: {"ambient": (4, 4), "dim": 8, "transitive": 1,
                                "dual_transitive": 1}),
    "phiblock": (2, phi_block_space, lambda n, k: {
        "ambient": (2 * n, 2 * n), "dim": 2 * n * n,
        "transitive": k, "dual_transitive": k}),
    "sltensor": (2, sl_tensor_full, lambda d, m: {
        "ambient": (d * m, d * m), "dim": (d * d - 1) * m * m,
        "transitive": d - 1}),
    "full": (2, lambda m, n, field: MatrixSubspace.full_space(field, m, n),
             lambda m, n: {"ambient": (m, n), "dim": m * n}),
    "zero": (2, lambda m, n, field: MatrixSubspace.zero_space(field, m, n),
             lambda m, n: {"ambient": (m, n), "dim": 0}),
}


def _family(name: str) -> tuple:
    if name not in _FAMILIES:
        raise ParameterOutOfRange(f"unknown family {name!r}")
    return _FAMILIES[name]


def parse_family(text: str) -> FamilySpec:
    """Parse a family address: name[:int,...]; rowaug:<inner spec>;
    pattern:n:i.j,i.j,... (0-indexed positions)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if text.startswith("rowaug:"):
        return FamilySpec("rowaug", inner=parse_family(text[len("rowaug:"):]))
    if text.startswith("pattern:"):
        rest = text[len("pattern:"):]
        parts = rest.split(":", 1)
        n = int(parts[0])
        pos = []
        if len(parts) == 2 and parts[1]:
            for chunk in parts[1].split(","):
                i, j = chunk.split(".")
                pos.append((int(i), int(j)))
        return FamilySpec("pattern", params=(n,), pattern=tuple(pos))
    name, _, paramtext = text.partition(":")
    name = name.lower()
    arity = _family(name)[0]
    params = tuple(int(x) for x in paramtext.split(",")) if paramtext else ()
    if len(params) != arity:
        raise ParameterOutOfRange(
            f"family {name} takes {arity} parameters, got {len(params)}")
    return FamilySpec(name, params)


def build_family(spec: FamilySpec, field: Field = QQ) -> MatrixSubspace:
    """Construct the subspace a family address names."""
    if spec.name == "rowaug":
        return row_augmented_space(build_family(spec.inner, field))
    if spec.name == "pattern":
        return pattern_space(spec.params[0], spec.pattern, field)
    return _family(spec.name)[1](*spec.params, field)


def expected_properties(spec: FamilySpec) -> dict:
    """Closed-form expectations for a family instance, consumed by the
    report generator: ambient shape, dimension, and the headline
    transitivity/separation levels the construction is built to satisfy."""
    if spec.name == "rowaug":
        inner = expected_properties(spec.inner)
        m, n = inner["ambient"]
        return {"ambient": (m + 1, n), "dim": n + inner["dim"],
                "separating": n}
    if spec.name == "pattern":
        n = spec.params[0]
        return {"ambient": (n, n), "dim": len(spec.pattern)}
    return _family(spec.name)[2](*spec.params)
