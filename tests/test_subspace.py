"""MatrixSubspace: canonical bases, duality, and the subspace algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from translab.errors import (BadPrime, NotIdempotent, ShapeMismatch,
                             SingularTransform)
from translab.families import (
    dual_transitive_8dim,
    toeplitz_space,
    trace_zero,
)
from translab.fields import GF, QI, QQ, GaussianRational
from translab.matrices import Mat
from translab.subspace import MatrixSubspace, vec


def rand_space(rng, field, d, m, n, lo=-4, hi=4):
    while True:
        gens = [Mat(field, m, n,
                    [field.from_int(rng.randint(lo, hi)) for _ in range(m * n)])
                for _ in range(d)]
        L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=field)
        if L.dim == d:
            return L


# ------------------------------------------------------------- construction

def test_from_generators_examples():
    I2 = Mat.identity(QQ, 2)
    assert MatrixSubspace.from_generators([I2, I2.scale(2)]).dim == 1
    units = [Mat.unit(QQ, 3, 3, i, j) for i in range(3) for j in range(3)]
    assert MatrixSubspace.from_generators(units).dim == 9
    assert toeplitz_space(3).dim == 5


def test_canonical_equality_is_structural():
    rng = random.Random(1)
    L = rand_space(rng, QQ, 3, 2, 3)
    # rebuild from scrambled generating sets: same canonical object
    gens = [L.element([QQ.from_int(rng.randint(-3, 3)) for _ in range(3)])
            for _ in range(6)]
    M = MatrixSubspace.from_generators(gens, rows=2, cols=3, field=QQ)
    if M.dim == L.dim:
        assert M == L and hash(M) == hash(L)
        assert M.basis == L.basis


def test_empty_generators_need_ambient():
    with pytest.raises(ShapeMismatch):
        MatrixSubspace.from_generators([])
    Z = MatrixSubspace.from_generators([], rows=2, cols=2, field=QQ)
    assert Z.dim == 0 and Z.is_zero()


def test_strict_rejects_dependent():
    I2 = Mat.identity(QQ, 2)
    with pytest.raises(ShapeMismatch):
        MatrixSubspace.from_generators([I2, I2.scale(3)], strict=True)


# -------------------------------------------------------------- membership

def test_contains_examples():
    T3 = toeplitz_space(3)
    assert T3.contains(Mat.identity(QQ, 3))
    assert not trace_zero(3).contains(Mat.identity(QQ, 3))
    assert T3.contains(Mat.zeros(QQ, 3, 3))
    assert trace_zero(3).contains(Mat.unit(QQ, 3, 3, 0, 1))


def test_coordinates_roundtrip():
    rng = random.Random(2)
    L = rand_space(rng, GF(5), 4, 3, 3)
    coeffs = [GF(5).from_int(rng.randint(0, 4)) for _ in range(4)]
    A = L.element(coeffs)
    got = L.coordinates_of(A)
    assert got is not None and L.element(got) == A


# ----------------------------------------------------------------- duality

def test_preannihilator_examples():
    full = MatrixSubspace.full_space(QQ, 3, 3)
    assert full.preannihilator().dim == 0
    Tp = toeplitz_space(3).preannihilator()
    assert Tp.dim == 4
    # every element has all diagonal sums zero
    for B in Tp.basis:
        for delta in range(-2, 3):
            s = QQ.zero()
            for i in range(3):
                j = i - delta
                if 0 <= j < 3:
                    s = s + B[i, j]
            assert not s
    R = Mat.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert MatrixSubspace.from_generators([R]).preannihilator().dim == 8


def test_duality_involution_and_dimension():
    rng = random.Random(3)
    for field in (QQ, GF(5), QI):
        for _ in range(8):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            d = rng.randint(0, m * n)
            L = rand_space(rng, field, d, m, n) if d else \
                MatrixSubspace.zero_space(field, m, n)
            Lp = L.preannihilator()
            assert L.dim + Lp.dim == m * n
            assert Lp.preannihilator() == L


def preannihilator_reference(L):
    """The pre-annihilator by two eliminations: the kernel of the pairing
    matrix, then canonicalized by from_generators."""
    m, n = L.rows, L.cols
    if L.is_zero():
        return MatrixSubspace.full_space(L.field, n, m)
    pairing = Mat(L.field, L.dim, n * m,
                  [x for B in L.basis for x in vec(B.transpose())])
    gens = [Mat(L.field, n, m, kv) for kv in pairing.kernel()]
    return MatrixSubspace.from_generators(gens, rows=n, cols=m, field=L.field)


_small_q = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 5]))


@st.composite
def _any_field_space(draw):
    """A zero, full or spanned subspace of Mat(m, n), m and n in 1..4, over
    Q, Q(i), GF(2), GF(5) or GF(9)."""
    field = draw(st.sampled_from([QQ, QI, GF(2), GF(5), GF(9)]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero", "full", "span"]))
    if kind == "zero":
        return MatrixSubspace.zero_space(field, m, n)
    if kind == "full":
        return MatrixSubspace.full_space(field, m, n)
    if field == QQ:
        elem = _small_q
    elif field == QI:
        elem = st.builds(GaussianRational, _small_q, _small_q)
    else:
        elem = st.sampled_from(list(field.elements()))
    d = draw(st.integers(1, m * n))
    gens = [Mat(field, m, n, draw(st.lists(elem, min_size=m * n,
                                           max_size=m * n)))
            for _ in range(d)]
    return MatrixSubspace.from_generators(gens, rows=m, cols=n, field=field)


@settings(max_examples=150, deadline=None)
@given(_any_field_space())
def test_preannihilator_matches_two_elimination_reference(L):
    want = preannihilator_reference(L)
    got = L.preannihilator()
    assert got == want
    assert got._pivots == want._pivots
    assert (got.rows, got.cols) == (L.cols, L.rows)


def test_pairing_convention_worked_example():
    # <A, T> = Tr(A T) pairs A[i, j] with T[j, i]
    A = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    T = Mat.from_rows(QQ, [[5, 6], [7, 8]])
    assert (A @ T).trace() == 1 * 5 + 2 * 7 + 3 * 6 + 4 * 8


# --------------------------------------------------------- sum / intersect

def test_sum_intersect_examples():
    T3 = toeplitz_space(3)
    assert T3.sum(T3) == T3
    assert T3.intersect(T3) == T3
    E11 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 0, 0)])
    E22 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 1, 1)])
    assert E11.sum(E22).dim == 2
    # one linear condition (trace = 3 t0 = 0) cuts the 5-dim Toeplitz space
    assert T3.intersect(trace_zero(3)).dim == 4


def test_modular_dimension_law():
    rng = random.Random(4)
    for _ in range(10):
        L = rand_space(rng, GF(3), rng.randint(1, 4), 2, 3)
        M = rand_space(rng, GF(3), rng.randint(1, 4), 2, 3)
        s = L.sum(M)
        i = L.intersect(M)
        assert s.dim == L.dim + M.dim - i.dim
        for B in i.basis:
            assert L.contains(B) and M.contains(B)


def _intersect_reference(L, M):
    """L meet M from the kernel of [vec(L_i) | -vec(M_j)]: each kernel
    vector (a | b) gives the element sum a_i L_i = sum b_j M_j."""
    if L.is_zero() or M.is_zero():
        return MatrixSubspace.zero_space(L.field, L.rows, L.cols)
    entries = []
    for pos in range(L.ambient_dim):
        entries += [vec(B)[pos] for B in L.basis]
        entries += [-vec(B)[pos] for B in M.basis]
    K = Mat(L.field, L.ambient_dim, L.dim + M.dim, entries)
    return MatrixSubspace.from_generators(
        [L.element(kv[:L.dim]) for kv in K.kernel()],
        rows=L.rows, cols=L.cols, field=L.field)


def _complement(L):
    """The span of the unit matrices off L's leading positions."""
    lead = {next(t for t, x in enumerate(vec(B)) if x) for B in L.basis}
    return MatrixSubspace.from_generators(
        [Mat.unit(L.field, L.rows, L.cols, t // L.cols, t % L.cols)
         for t in range(L.ambient_dim) if t not in lead],
        rows=L.rows, cols=L.cols, field=L.field)


def test_intersect_matches_kernel_reference():
    rng = random.Random(11)
    for field in (GF(3), GF(9), QQ, QI):
        if field == QI:
            def entry():
                return GaussianRational(Fraction(rng.randint(-2, 2),
                                                 rng.randint(1, 3)),
                                        rng.randint(-2, 2))
        elif field == QQ:
            def entry():
                return Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        else:
            def entry():
                return rng.choice(field.elements())

        def space(m, n):
            return MatrixSubspace.from_generators(
                [Mat(field, m, n, [entry() for _ in range(m * n)])
                 for _ in range(rng.randint(0, m * n))],
                rows=m, cols=n, field=field)

        for m, n in ((2, 2), (2, 3), (3, 2)):
            N = m * n
            for _ in range(4):
                L, M = space(m, n), space(m, n)
                Z = MatrixSubspace.zero_space(field, m, n)
                C = _complement(L)
                assert C.dim == N - L.dim and L.sum(C).is_full()
                for A, B in ((L, M), (M, L), (L, L), (L, Z), (Z, L), (L, C),
                             (C, L), (L, MatrixSubspace.full_space(field, m, n))):
                    got, want = A.intersect(B), _intersect_reference(A, B)
                    assert got == want and got._pivots == want._pivots
                assert L.intersect(C).is_zero() and L.intersect(L) == L


# ------------------------------------------------------------------ tensor

def test_tensor_examples():
    I2span = MatrixSubspace.from_generators([Mat.identity(QQ, 2)])
    full2 = MatrixSubspace.full_space(QQ, 2, 2)
    assert I2span.tensor(full2).dim == 4
    T2 = toeplitz_space(2)
    assert T2.tensor(T2).dim == 9


def test_dual_tensor_identity_random():
    rng = random.Random(5)
    for field in (GF(5), QQ):
        for _ in range(6):
            L = rand_space(rng, field, rng.randint(1, 3), 2, 2)
            M = rand_space(rng, field, rng.randint(1, 5), 2, 3)
            lhs = L.tensor(M).preannihilator()
            rhs = L.preannihilator().tensor(
                MatrixSubspace.full_space(field, 3, 2)).sum(
                MatrixSubspace.full_space(field, 2, 2).tensor(
                    M.preannihilator()))
            assert lhs == rhs


# ---------------------------------------------------------- product spans

def test_product_span_examples():
    full2 = MatrixSubspace.full_space(QQ, 2, 2)
    assert full2.product_span(full2) == full2
    T3 = toeplitz_space(3)
    assert T3.product_span(T3) == MatrixSubspace.full_space(QQ, 3, 3)
    E12 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 0, 1)])
    assert E12.product_span(E12).is_zero()


def test_product_span_associative_at_span_level():
    rng = random.Random(6)
    for _ in range(6):
        A = rand_space(rng, GF(3), 2, 2, 2)
        B = rand_space(rng, GF(3), 2, 2, 2)
        C = rand_space(rng, GF(3), 2, 2, 2)
        assert A.product_span(B).product_span(C) == \
            A.product_span(B.product_span(C))


def test_power_span_index_examples():
    assert MatrixSubspace.full_space(QQ, 3, 3).power_span_index() == 1
    assert toeplitz_space(3).power_span_index() == 2
    D, _ = dual_transitive_8dim()
    assert D.power_span_index() == 3
    # nilpotent span stabilizes below the full algebra
    E12 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 0, 1)])
    assert E12.power_span_index() is None


# ------------------------------------------------- transforms / compressions

def test_equivalence_transform():
    T3 = toeplitz_space(3)
    I3 = Mat.identity(QQ, 3)
    assert T3.equivalence_transform(I3, I3) == T3
    full = MatrixSubspace.full_space(QQ, 3, 3)
    S = Mat.from_rows(QQ, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    T = Mat.from_rows(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 2]])
    assert full.equivalence_transform(S, T) == full
    assert T3.equivalence_transform(S, T).dim == T3.dim
    with pytest.raises(SingularTransform):
        T3.equivalence_transform(Mat.zeros(QQ, 3, 3), I3)


def test_compress_examples():
    T3 = toeplitz_space(3)
    I3 = Mat.identity(QQ, 3)
    assert T3.compress(I3, I3) == T3
    full4 = MatrixSubspace.full_space(QQ, 4, 4)
    P = Mat.diag(QQ, [1, 1, 0, 0])
    assert full4.compress(P, P) == MatrixSubspace.full_space(QQ, 2, 2)
    with pytest.raises(NotIdempotent):
        T3.compress(Mat.from_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
                    .scale(2), I3)


def test_compress_dimension_bound_and_nonorthogonal_idempotent():
    rng = random.Random(7)
    # a non-orthogonal idempotent: Q^2 = Q with a nontrivial mixing block
    Q = Mat.from_rows(QQ, [[1, 1, 0], [0, 0, 0], [0, 0, 1]])
    assert Q @ Q == Q
    for _ in range(6):
        L = rand_space(rng, QQ, rng.randint(1, 5), 3, 3)
        C = L.compress(Q, Q)
        assert C.dim <= L.dim
        assert C.rows == 2 and C.cols == 2
    full = MatrixSubspace.full_space(QQ, 3, 3)
    assert full.compress(Mat.identity(QQ, 3), Mat.identity(QQ, 3)).dim == 9


def test_corner_compression_of_larger_toeplitz():
    # compressing the 5x5 Toeplitz algebra onto its leading 3x3 corner
    # yields exactly the 3x3 Toeplitz space, of dimension 2n - 1 = 5
    P = Mat.diag(QQ, [1, 1, 1, 0, 0])
    C = toeplitz_space(5).compress(P, P)
    assert C == toeplitz_space(3)
    assert C.dim == 5


# ------------------------------------------------- transpose / closures

def test_transpose_and_adjoint_space():
    T3 = toeplitz_space(3)
    assert T3.transpose_space() == T3  # transposed Toeplitz is Toeplitz
    E12 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 0, 1)])
    assert E12.transpose_space() == \
        MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 1, 0)])
    rng = random.Random(8)
    L = rand_space(rng, QI, 3, 2, 3)
    assert L.adjoint_space().adjoint_space() == L


def test_diagonal_bimodule_closure():
    D = MatrixSubspace.from_generators(
        [Mat.unit(QQ, 2, 2, 0, 0) + Mat.unit(QQ, 2, 2, 1, 1)])
    C = D.diagonal_bimodule_closure()
    assert C.dim == 2 and C.pattern() == frozenset({(0, 0), (1, 1)})
    assert toeplitz_space(3).diagonal_bimodule_closure() == \
        MatrixSubspace.full_space(QQ, 3, 3)
    # closure of a pattern space is itself
    assert C.diagonal_bimodule_closure() == C


def test_reduce_mod_preserves_canonical_dimension():
    T3 = toeplitz_space(3)
    T3p = T3.reduce_mod(5)
    assert T3p.dim == 5 and T3p.field == GF(5)
    # reduction of the canonical basis stays canonical
    rebuilt = MatrixSubspace.from_generators(list(T3p.basis))
    assert rebuilt == T3p


def test_reduce_mod_matches_canonicalized_reduction():
    # reduce_mod keeps the reduced canonical basis as it is: it must be
    # exactly the basis that canonicalizing the reduced generators gives,
    # over Q and Q(i), into GF(p) and GF(p^2)
    rng = random.Random(31)
    reduced = 0
    for field, q in ((QQ, 5), (QQ, 7), (QQ, 9), (QI, 5), (QI, 13), (QI, 9)):
        for _ in range(6):
            d = rng.randint(1, 5)
            gens = [Mat(field, 2, 3, [field.from_int(rng.randint(-4, 4))
                                      for _ in range(6)]) for _ in range(d)]
            L = MatrixSubspace.from_generators(gens)
            try:
                R = L.reduce_mod(q)
            except BadPrime:
                continue
            reduced += 1
            rebuilt = MatrixSubspace.from_generators(list(R.basis))
            assert R.basis == rebuilt.basis and R.dim == L.dim
            assert R.field == GF(q)
    assert reduced >= 24


_den_q = st.builds(Fraction, st.integers(-4, 4),
                   st.sampled_from([1, 2, 3, 5, 7, 12, 35, 10**9 + 7]))


@st.composite
def _denominator_space(draw):
    """A subspace of Mat(m, n) over Q or Q(i), m and n in 1..4, whose
    canonical basis carries a denominator other than 1."""
    field = draw(st.sampled_from([QQ, QI]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    elem = (_den_q if field == QQ else
            st.builds(GaussianRational, _den_q, _den_q))
    d = draw(st.integers(1, m * n))
    gens = [Mat(field, m, n, draw(st.lists(elem, min_size=m * n,
                                           max_size=m * n)))
            for _ in range(d)]
    L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=field)
    parts = [x for B in L.basis for x in B.entries()]
    if field == QI:
        parts = [y for x in parts for y in (x.re, x.im)]
    assume(any(x.denominator != 1 for x in parts))
    return L


@settings(max_examples=150, deadline=None)
@given(_denominator_space())
def test_preannihilator_reference_on_denominator_bases(L):
    test_preannihilator_matches_two_elimination_reference.hypothesis.inner_test(L)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_element_over_q_matches_fraction_loop(data):
    # the fraction-free combination must give the entries of one Fraction
    # product and sum per term, zero and integer coefficients included
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    gens = [Mat(QQ, m, n, data.draw(st.lists(_den_q, min_size=m * n,
                                             max_size=m * n)))
            for _ in range(data.draw(st.integers(1, m * n)))]
    L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=QQ)
    coeffs = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(-6, 6), _den_q),
        min_size=L.dim, max_size=L.dim))
    want = [Fraction(0)] * (L.rows * L.cols)
    for c, B in zip(coeffs, L.basis):
        for i, x in enumerate(B.entries()):
            want[i] += Fraction(c) * x
    got = L.element(coeffs).entries()
    assert list(got) == want
    assert all(type(x) is Fraction for x in got)
    assert [str(x) for x in got] == [str(x) for x in want]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GF(3), GF(5), QQ, QI]), st.data())
def test_tensor_is_canonical_basis_of_kronecker_products(field, data):
    # the sorted Kronecker products must be the basis from_generators
    # builds, zero-dimensional factors included
    def space():
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        if field.is_finite:
            elem = st.sampled_from(list(field.elements()))
        elif field == QQ:
            elem = _small_q
        else:
            elem = st.builds(GaussianRational, _small_q, _small_q)
        d = data.draw(st.integers(0, m * n))
        gens = [Mat(field, m, n, data.draw(st.lists(elem, min_size=m * n,
                                                    max_size=m * n)))
                for _ in range(d)]
        return MatrixSubspace.from_generators(gens, rows=m, cols=n,
                                              field=field)

    L, M = space(), space()
    got = L.tensor(M)
    want = MatrixSubspace.from_generators(
        [A.kron(B) for A in L.basis for B in M.basis],
        rows=L.rows * M.rows, cols=L.cols * M.cols, field=field)
    assert got == want
    assert got._pivots == want._pivots
    assert got.dim == L.dim * M.dim


def test_reduce_mod_rejects_every_finite_field_space():
    # the zero space over GF(5) used to come back over GF(7)
    for S in (MatrixSubspace.zero_space(GF(5), 2, 2),
              MatrixSubspace.full_space(GF(5), 2, 2)):
        with pytest.raises(ShapeMismatch,
                           match=r"expects a matrix over Q or Qi, got GF\(5\)"):
            S.reduce_mod(7)
    # a zero space over Q or Q(i) still reduces, at 7 too
    for f in (QQ, QI):
        Z = MatrixSubspace.zero_space(f, 2, 3).reduce_mod(7)
        assert (Z.field, Z.dim, Z.rows, Z.cols) == (GF(7), 0, 2, 3)
