"""Exact dense linear algebra: elimination, kernels, reduction."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from translab.errors import BadPrime, ShapeMismatch
from translab.fields import GF, QI, QQ, FpElement, GaussianRational
from translab.matrices import Mat, _rref_rows, reduce_mod


def brute_force_det(A):
    """Independent determinant oracle: Leibniz expansion."""
    n = A.rows
    total = A.field.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        term = A.field.one()
        for i in range(n):
            term = term * A[i, perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def rand_mat(rng, field, m, n, lo=-4, hi=4):
    return Mat(field, m, n,
               [field.from_int(rng.randint(lo, hi)) for _ in range(m * n)])


# ------------------------------------------------------------------- rank

def test_rank_identity_and_zero():
    assert Mat.identity(QQ, 3).rank() == 3
    assert Mat.zeros(QQ, 2, 5).rank() == 0


def test_rank_triangle_of_ones():
    # ones on and above the anti-diagonal; the Leibniz oracle certifies a
    # nonzero determinant, hence full rank
    A = Mat.from_rows(QQ, [[0, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert brute_force_det(A) != 0
    assert A.rank() == 3


def test_rank_transpose_invariant():
    rng = random.Random(7)
    for field in (QQ, GF(5), GF(9)):
        for _ in range(20):
            A = rand_mat(rng, field, rng.randint(1, 4), rng.randint(1, 4))
            assert A.rank() == A.transpose().rank()


# ------------------------------------------------------------------- rref

def test_rref_examples():
    R, piv = Mat.identity(QQ, 3).rref()
    assert R == Mat.identity(QQ, 3) and piv == (0, 1, 2)

    R, piv = Mat.from_rows(QQ, [[2, 4], [1, 2]]).rref()
    assert R == Mat.from_rows(QQ, [[1, 2], [0, 0]]) and piv == (0,)

    R, piv = Mat.from_rows(GF(2), [[1, 1], [1, 2]]).rref()
    assert R == Mat.identity(GF(2), 2) and piv == (0, 1)


def test_rref_idempotent_and_invertible_transform():
    rng = random.Random(3)
    for _ in range(12):
        A = rand_mat(rng, QQ, 4, 4)
        R, piv = A.rref()
        assert R.rref()[0] == R
        # R = E A with invertible E, recovered from the augmented rref
        aug = Mat(QQ, 4, 8,
                  [A[i, j] if j < 4 else QQ.from_int(int(j - 4 == i))
                   for i in range(4) for j in range(8)])
        Raug, _ = aug.rref()
        E = Mat(QQ, 4, 4, [Raug[i, 4 + j] for i in range(4) for j in range(4)])
        assert E.det() != 0
        assert E @ A == R


def test_pivots_strictly_increasing():
    rng = random.Random(11)
    for _ in range(20):
        A = rand_mat(rng, GF(3), 3, 5)
        _, piv = A.rref()
        assert list(piv) == sorted(set(piv))


# ----------------------------------------------------------------- kernel

def test_kernel_examples():
    assert Mat.identity(QQ, 3).kernel() == []
    assert len(Mat.zeros(QQ, 2, 3).kernel()) == 3
    A = Mat.from_rows(QQ, [[1, 1, 1]])
    basis = A.kernel()
    assert len(basis) == 2
    for v in basis:
        # substitution oracle
        assert sum(a * x for a, x in zip(A.row(0), v)) == 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    field = rng.choice([QQ, GF(5), GF(7)])
    A = rand_mat(rng, field, rng.randint(1, 4), rng.randint(1, 5))
    assert A.rank() + len(A.kernel()) == A.cols


# ------------------------------------------------------------------ solve

def test_solve_examples():
    assert Mat.identity(QQ, 2).solve([Fraction(3), Fraction(1, 2)]) == \
        (Fraction(3), Fraction(1, 2))
    x = Mat.from_rows(QQ, [[1, 1]]).solve([5])
    assert x is not None and x[0] + x[1] == 5
    assert Mat.from_rows(QQ, [[1], [1]]).solve([0, 1]) is None
    with pytest.raises(ShapeMismatch):
        Mat.identity(QQ, 2).solve([1, 2, 3])


def test_solve_random_consistency():
    rng = random.Random(23)
    for _ in range(30):
        field = rng.choice([QQ, GF(5)])
        A = rand_mat(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        xs = [field.from_int(rng.randint(-3, 3)) for _ in range(A.cols)]
        b = [sum((a * x for a, x in zip(A.row(i), xs)), field.zero())
             for i in range(A.rows)]
        got = A.solve(b)
        assert got is not None  # consistent by construction; solve verifies


# -------------------------------------------------------------------- det

def test_det_matches_leibniz():
    rng = random.Random(5)
    for field in (QQ, GF(7), QI):
        for _ in range(10):
            A = rand_mat(rng, field, 3, 3)
            assert A.det() == brute_force_det(A)


# ------------------------------------------------------------------- kron

def test_kron_block_convention():
    A = Mat.from_rows(QQ, [[1, 2], [0, 3]])
    B = Mat.from_rows(QQ, [[5, 0], [1, 1]])
    K = A.kron(B)
    assert K.shape == (4, 4)
    # block (0, 1) is A[0,1] * B
    assert K[0, 2] == 10 and K[1, 2] == 2 and K[1, 3] == 2


def test_trace_and_adjoint():
    z = GaussianRational(1, 2)
    A = Mat(QI, 2, 2, [z, QI.zero(), QI.one(), z])
    assert A.trace() == z + z
    assert A.conj_transpose()[0, 1] == QI.one()
    assert A.conj_transpose()[0, 0] == z.conjugate()


def test_trace_pairing_matches_trace_of_product():
    rng = random.Random(3)
    for field in (QQ, QI, GF(5)):
        for m, n in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            A = rand_mat(rng, field, m, n, lo=-2, hi=2)
            T = rand_mat(rng, field, n, m, lo=-2, hi=2)
            assert A.trace_pairing(T) == (A @ T).trace()
    with pytest.raises(ShapeMismatch):
        Mat.zeros(QQ, 2, 3).trace_pairing(Mat.zeros(QQ, 2, 3))
    with pytest.raises(ShapeMismatch):
        Mat.zeros(QQ, 2, 2).trace_pairing(Mat.zeros(GF(5), 2, 2))


# ------------------------------------------------------------- reduction

def test_reduce_mod_examples():
    assert reduce_mod(Mat.identity(QQ, 3), 5) == Mat.identity(GF(5), 3)
    half = Mat.from_rows(QQ, [[Fraction(1, 2)]])
    assert reduce_mod(half, 7) == Mat.from_rows(GF(7), [[4]])
    with pytest.raises(BadPrime):
        reduce_mod(Mat.from_rows(QQ, [[Fraction(1, 5)]]), 5)


def test_reduce_mod_gaussian():
    z = Mat(QI, 1, 1, [GaussianRational(1, 1)])
    # -1 is a square mod 5 (2^2 = 4): i maps to the smaller root 2
    assert reduce_mod(z, 5) == Mat.from_rows(GF(5), [[3]])
    r = reduce_mod(z, 49)
    i49 = GF(49).sqrt_of_minus_one()
    assert r[0, 0] == GF(49).one() + i49
    with pytest.raises(BadPrime):
        reduce_mod(z, 7)  # -1 is not a square mod 7


def _reduce_gaussian_reference(A, p, deg):
    """Q(i) into GF(p^deg) on plain integers: i goes to the smaller root
    r of -1 mod p, or over GF(p^2) = GF(p)[w], w^2 = omega, when there is
    none, to r w with r the smaller root of r^2 omega = -1.  Entries come
    back as (a, b) pairs for a + b w, b = 0 over GF(p)."""
    roots = [r for r in range(1, p) if r * r % p == (p - 1) % p]
    if roots:
        i = (roots[0], 0)
    elif deg == 1:
        raise BadPrime(
            f"-1 is not a square mod {p}; reduce into GF({p}^2) instead")
    else:
        omega = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        i = (0, next(r for r in range(1, p) if r * r * omega % p == p - 1))

    def red(x):
        if x.denominator % p == 0:
            raise BadPrime(f"denominator of {x} is divisible by {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    out = []
    for z in A.entries():
        a, b = red(z.re), red(z.im)
        out.append(((a + b * i[0]) % p, b * i[1] % p))
    return out


def test_reduce_mod_gaussian_matches_integer_reference():
    rng = random.Random(5)
    targets = ([(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 29, 37, 41)]
               + [(p, 2) for p in (3, 5, 7, 11, 13, 17)])
    raised = reduced = 0
    for _ in range(40):
        dens = rng.sample([1, 2, 3, 5, 7, 13], rng.randint(1, 3))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = Mat(QI, m, n, [GaussianRational(
            Fraction(rng.randint(-4, 4), rng.choice(dens)),
            Fraction(rng.randint(-4, 4), rng.choice(dens)))
            for _ in range(m * n)])
        for p, deg in targets:
            try:
                want = _reduce_gaussian_reference(A, p, deg)
            except BadPrime as exc:
                with pytest.raises(BadPrime) as got:
                    reduce_mod(A, p ** deg)
                assert str(got.value) == str(exc), (A, p, deg)
                raised += 1
                continue
            got = reduce_mod(A, p ** deg)
            assert got.field == GF(p ** deg) and got.shape == A.shape
            assert [(x.value, 0) if deg == 1 else (x.a, x.b)
                    for x in got.entries()] == want, (A, p, deg)
            reduced += 1
    assert raised and reduced


def test_reduce_mod_rank_preservation():
    # for primes large relative to the entries, the reduction preserves rank
    rng = random.Random(77)
    p = 1009
    for _ in range(25):
        A = rand_mat(rng, QQ, rng.randint(1, 4), rng.randint(1, 4),
                     lo=-9, hi=9)
        try:
            Ap = reduce_mod(A, p)
        except BadPrime:
            continue
        assert Ap.rank() == A.rank()


@pytest.mark.parametrize("p", [5, 43, 8191])
def test_reduce_mod_matches_fp_arithmetic(p):
    # each entry a/b reduces to FpElement(a) / FpElement(b); below the
    # shared-residue bound every residue is one element object
    rng = random.Random(p)
    A = Mat(QQ, 3, 4, [Fraction(rng.randint(-60, 60),
                                rng.choice([1, 1, 2, 3, 4, 9, 11]))
                       for _ in range(12)])
    R = reduce_mod(A, p)
    assert R.field == GF(p)
    for x, y in zip(A.entries(), R.entries()):
        assert y == FpElement(x.numerator, p) / FpElement(x.denominator, p)
        assert 0 <= y.value < p
    by_value = {}
    for y in R.entries():
        by_value.setdefault(y.value, set()).add(id(y))
    if p <= 1 << 12:
        assert all(len(ids) == 1 for ids in by_value.values())
    with pytest.raises(BadPrime):
        reduce_mod(Mat(QQ, 1, 2, [Fraction(1), Fraction(-3, 5 * p)]), p)


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        Mat.identity(QQ, 2) @ Mat.identity(QQ, 3)
    with pytest.raises(ShapeMismatch):
        Mat.identity(QQ, 2) + Mat.identity(GF(5), 2)


# ------------------------------------------------- integer elimination over Q

def fraction_rref_rows(rows):
    """The Gauss-Jordan loop on Fraction entries that _rref_rows ran over Q
    before its integer path: leftmost pivot column, first nonzero row at or
    below, pivot row scaled to one, eliminate above and below."""
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


_q_entry = st.builds(
    Fraction, st.integers(-30, 30),
    st.sampled_from([1, 1, 1, 2, 3, 12, 10**9 + 7, 2**61 - 1, 10**30]))


@st.composite
def _q_rows(draw):
    """Row lists over Q: 0 x n, n x 0, wide and tall shapes; half of them
    built from k base rows, so of rank at most k; some rows zeroed."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entries = st.lists(_q_entry, min_size=n, max_size=n)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        base = [draw(entries) for _ in range(k)]
        rows = []
        for _ in range(m):
            coeffs = draw(st.lists(_q_entry, min_size=k, max_size=k))
            rows.append([sum((c * b[j] for c, b in zip(coeffs, base)),
                             Fraction(0)) for j in range(n)])
    else:
        rows = [draw(entries) for _ in range(m)]
    for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
        rows[i] = [Fraction(0)] * n
    return rows


@settings(max_examples=200, deadline=None)
@given(_q_rows())
def test_rref_rows_over_q_matches_fraction_loop(rows):
    # the integer path must give the Fraction loop's RREF and pivots
    want = fraction_rref_rows([list(r) for r in rows])
    got = _rref_rows([list(r) for r in rows], QQ)
    assert got == want
    assert all(type(x) is Fraction for r in got[0] for x in r)
    if rows:
        A = Mat(QQ, len(rows), len(rows[0]), [x for r in rows for x in r])
        assert A.rank() == len(want[1])


def fraction_kernel(rows, ncols):
    """Kernel basis read off fraction_rref_rows: for each free column j, a
    1 at j and minus the pivot rows' column-j entries at their pivots."""
    R, pivots = fraction_rref_rows([list(r) for r in rows])
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][j]
        basis.append(tuple(v))
    return basis


@settings(max_examples=200, deadline=None)
@given(_q_rows(), st.integers(0, 7))
def test_kernel_and_rank_over_q_match_fraction_loop(rows, n_if_empty):
    # mixed denominators, zero rows and rank-deficient lists: the kernel
    # and rank readers give what the Fraction loop's RREF gives
    ncols = len(rows[0]) if rows else n_if_empty
    A = Mat(QQ, len(rows), ncols, [x for r in rows for x in r])
    kern = A.kernel()
    assert kern == fraction_kernel(rows, ncols)
    assert all(type(x) is Fraction for v in kern for x in v)
    assert A.rank() == len(fraction_rref_rows([list(r) for r in rows])[1])
    assert A.rank() + len(kern) == ncols


def _entry(rng, field):
    """A random element: any element of a finite field, a small integer
    over Q, a small Gaussian integer over Q(i)."""
    if field.is_finite:
        return rng.choice(field.elements())
    x = field.from_int(rng.randint(-4, 4))
    return x + GaussianRational(0, rng.randint(-4, 4)) if field == QI else x


@pytest.mark.parametrize("field", [QQ, QI, GF(7), GF(9)],
                         ids=["Q", "Qi", "GF7", "GF9"])
def test_det_matches_leibniz_with_row_swaps_and_when_singular(field):
    rng = random.Random(23)
    n = 4
    zero = field.zero()
    for _ in range(12):
        # rows of an upper triangular U with a nonzero diagonal, permuted so
        # that row 0 does not hold U's row 0: column 0 then has its only
        # nonzero entry below row 0, and the elimination must swap
        U = [[_entry(rng, field) if j > i else zero for j in range(n)]
             for i in range(n)]
        for i in range(n):
            while not U[i][i]:
                U[i][i] = _entry(rng, field)
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        A = Mat(field, n, n, [x for i in perm for x in U[i]])
        assert A.det() == brute_force_det(A) != zero
        # singular: the last row a combination of the first two, or a
        # zero column in the middle, so a column has no pivot
        c = _entry(rng, field)
        rows = [list(A.row(i)) for i in range(n - 1)]
        rows.append([a + c * b for a, b in zip(rows[0], rows[1])])
        S = Mat(field, n, n, [x for r in rows for x in r])
        Z = Mat(field, n, n, [zero if j == 1 else A[i, j]
                              for i in range(n) for j in range(n)])
        for M in (S, Z):
            assert M.det() == brute_force_det(M) == zero
