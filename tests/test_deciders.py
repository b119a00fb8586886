"""The decision engine: verdicts, witnesses, and soundness labels."""

import ast
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import translab

from translab.deciders import (
    DEFAULT_PRIMES,
    DefinitionalSample,
    RankWitness,
    Status,
    check_k_separating,
    check_k_transitive,
    definitional_k_transitive_ff,
    definitional_transitivity_sample,
    find_invertible,
    min_rank_ff_exhaustive,
    pencil_min_rank_exact,
    rank_extremes_ff,
    rank_one_elements_ff,
    rank_witness_search_numeric,
    transitivity_disproof_from_witness,
    verify_rank_spanning,
)
from translab.deciders import (_choose_final_vector, _ff_low_rank_threshold,
                               _flag_violation, _projective_tuples_generic,
                               _separation_scan_ff,
                               _verify_separation_violation)
from translab.errors import (BadPrime, BudgetExceeded, DimensionTooLarge,
                             ShapeMismatch)
from translab import modp
from translab.families import (
    dual_transitive_8dim,
    minimal_k_transitive,
    random_subspace,
    rank_annihilator_obstruction,
    rank_annihilator_space,
    toeplitz_rank_one_generators,
    toeplitz_space,
    trace_zero,
    trace_zero_rank_one_generators,
)
from translab.fields import GF, QQ
from translab.matrices import Mat
from translab.serialize import transitivity_verdict_to_obj, dumps
from translab.subspace import MatrixSubspace


def rand_space(rng, field, d, m, n):
    while True:
        gens = [Mat(field, m, n,
                    [field.from_int(rng.randrange(field.size)) for _ in range(m * n)])
                for _ in range(d)]
        L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=field)
        if L.dim == d:
            return L


# ----------------------------------------------------------- transitivity

def test_full_space_certified_exact():
    v = check_k_transitive(MatrixSubspace.full_space(QQ, 3, 3), 1)
    assert v.status == Status.CERTIFIED_EXACT
    assert "closure" in v.soundness


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        check_k_transitive(toeplitz_space(3), 0)


def test_forced_regime_k_at_least_min():
    # k >= min(m, n): transitive iff the space is everything
    full = MatrixSubspace.full_space(QQ, 2, 3)
    assert check_k_transitive(full, 2).status == Status.CERTIFIED_EXACT
    v = check_k_transitive(toeplitz_space(2), 2)
    assert v.status == Status.DISPROVED
    assert v.witness.verify(toeplitz_space(2).preannihilator())


def test_rank_annihilator_dichotomy():
    L = rank_annihilator_space(3, 3, 1)
    assert check_k_transitive(L, 1).status == Status.CERTIFIED_EXACT
    v = check_k_transitive(L, 2)
    assert v.status == Status.DISPROVED
    assert v.witness.matrix == rank_annihilator_obstruction(3, 3, 1)


def test_trace_zero_certified_exact_via_singleton():
    v = check_k_transitive(trace_zero(3), 2)
    assert v.status == Status.CERTIFIED_EXACT
    assert "pencil" in " ".join(v.evidence["steps"])


def test_toeplitz_transitivity_ladder():
    assert check_k_transitive(toeplitz_space(2), 1).status == \
        Status.CERTIFIED_EXACT
    for n in (3, 4):
        v = check_k_transitive(toeplitz_space(n), 1)
        assert v.status == Status.CERTIFIED_FINITE_FIELD
        assert v.primes == (5, 7)
        assert "does not transfer" in v.soundness


def test_toeplitz_not_2_transitive():
    v = check_k_transitive(toeplitz_space(3), 2)
    assert v.status == Status.DISPROVED
    assert v.witness.matrix.rank() <= 2
    assert v.evidence["witness_field"] == "Q"


def test_finite_field_ambient_verdicts():
    f = GF(5)
    full = MatrixSubspace.full_space(f, 2, 2)
    assert check_k_transitive(full, 1).status == Status.CERTIFIED_EXACT
    T3 = toeplitz_space(3).reduce_mod(5)
    v = check_k_transitive(T3, 1)
    assert v.status == Status.CERTIFIED_FINITE_FIELD and v.primes == (5,)
    E11 = MatrixSubspace.from_generators([Mat.unit(f, 2, 2, 0, 0)])
    v2 = check_k_transitive(E11, 1)
    assert v2.status == Status.DISPROVED
    assert "field only" in v2.soundness


def test_seed_determinism():
    L = minimal_k_transitive(3, 3, 1)
    a = dumps(transitivity_verdict_to_obj(check_k_transitive(L, 2, seed=9)))
    b = dumps(transitivity_verdict_to_obj(check_k_transitive(L, 2, seed=9)))
    assert a == b


# ----------------------------------------------------------------- pencil

def test_pencil_dim1():
    V = MatrixSubspace.from_generators([Mat.diag(QQ, [1, 2])])
    assert not pencil_min_rank_exact(V, 1).low_rank_exists


def test_pencil_unit_diagonal_pair():
    V = MatrixSubspace.from_generators(
        [Mat.unit(QQ, 2, 2, 0, 0), Mat.unit(QQ, 2, 2, 1, 1)])
    res = pencil_min_rank_exact(V, 1)
    assert res.low_rank_exists
    # det(c0 E11 + c1 E22) = c0 c1; the infinity root (1, 0) gives E11
    assert res.witness.coefficients == (Fraction(1), Fraction(0))
    assert res.witness.matrix.rank() == 1


def test_pencil_identity_and_signature():
    # span{I2, diag(1, -1)} canonicalizes to {E11, E22}: a rank-one witness
    # exists (the canonical pencil's determinant form has rational roots)
    V = MatrixSubspace.from_generators(
        [Mat.identity(QQ, 2), Mat.diag(QQ, [1, -1])])
    res = pencil_min_rank_exact(V, 1)
    assert res.low_rank_exists
    assert res.witness is not None and res.witness.matrix.rank() == 1
    assert V.contains(res.witness.matrix)


def test_pencil_gaussian_witness_for_real_pencil():
    # det(c0 I + c1 [[0,1],[-1,0]]) = c0^2 + c1^2: roots only in Q(i)
    J = Mat.from_rows(QQ, [[0, 1], [-1, 0]])
    V = MatrixSubspace.from_generators([Mat.identity(QQ, 2), J])
    res = pencil_min_rank_exact(V, 1)
    assert res.low_rank_exists
    assert res.witness is not None and res.witness_field_tag == "Qi"
    assert res.witness.matrix.rank() == 1


def test_pencil_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        pencil_min_rank_exact(MatrixSubspace.full_space(QQ, 2, 2), 1)


# ------------------------------------------------------------- exhaustive

def test_min_rank_ff_examples():
    f = GF(5)
    R = Mat.from_rows(f, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    r, w = min_rank_ff_exhaustive(MatrixSubspace.from_generators([R]))
    assert r == 2 and w.matrix.rank() == 2

    Lp5 = toeplitz_space(3).preannihilator().reduce_mod(5)
    r, w = min_rank_ff_exhaustive(Lp5)
    assert r == 2
    assert w.verify(Lp5)
    # e.g. E11 - E22 qualifies: its diagonal sums vanish
    cand = Mat.diag(f, [1, -1, 0])
    assert Lp5.contains(cand) and cand.rank() == 2

    D, _ = dual_transitive_8dim()
    r, _ = min_rank_ff_exhaustive(D.preannihilator().reduce_mod(3))
    assert r >= 2


def test_min_rank_ff_budget_and_field_guards():
    with pytest.raises(BudgetExceeded):
        min_rank_ff_exhaustive(MatrixSubspace.full_space(GF(5), 3, 3),
                               budget=100)
    with pytest.raises(ShapeMismatch):
        min_rank_ff_exhaustive(toeplitz_space(3))


def test_min_rank_ff_quadratic_extension():
    f = GF(9)
    L = MatrixSubspace.from_generators(
        [Mat.identity(f, 2), Mat.diag(f, [1, 0])])
    r, w = min_rank_ff_exhaustive(L)
    assert r == 1 and w.matrix.rank() == 1 and L.contains(w.matrix)


def test_rank_one_elements_examples():
    # M2 over GF(2): independent oracle enumerates all 15 nonzero matrices
    f2 = GF(2)
    full = MatrixSubspace.full_space(f2, 2, 2)
    got = rank_one_elements_ff(full)
    brute = []
    for entries in itertools.product([0, 1], repeat=4):
        if not any(entries):
            continue
        M = Mat(f2, 2, 2, [f2.from_int(e) for e in entries])
        if M.rank() == 1:
            brute.append(M)
    key = lambda m: tuple(x.value for x in m.entries())
    assert len(got) == 9 and sorted(map(key, got)) == sorted(map(key, brute))

    # trace-zero over GF(3): exactly the pairs with y^T x = 0
    f3 = GF(3)
    tz = trace_zero(2).reduce_mod(3)
    got = rank_one_elements_ff(tz)
    for M in got:
        assert M.rank() == 1 and M.trace() == f3.zero()

    f5 = GF(5)
    assert rank_one_elements_ff(
        MatrixSubspace.from_generators([Mat.identity(f5, 2)])) == []


def _rank_one_elements_reference(L):
    # one exact Mat per projective pair (x, y), kept when L contains x y^T
    f = L.field
    out = []
    for x in _projective_tuples_generic(f, L.rows):
        xm = Mat.col(f, x)
        for y in _projective_tuples_generic(f, L.cols):
            cand = xm @ Mat.col(f, y).transpose()
            if L.contains(cand):
                out.append(cand)
    return out


@pytest.mark.parametrize("q, shapes", [
    (2, [(2, 2), (2, 3), (3, 3)]),
    (3, [(2, 3), (3, 3)]),
    (5, [(2, 2), (3, 2)]),
    (9, [(2, 2), (2, 3), (1, 3)]),
    (25, [(2, 2), (1, 2)]),
])
def test_rank_one_elements_match_exact_loop(q, shapes):
    # seeded random subspaces of Mat(m, n), each holding one planted
    # rank-one element, against the exact loop: the same elements in the
    # same order, over GF(p) and GF(p^2) alike
    f = GF(q)
    elems = f.elements()
    rng = random.Random(q)
    for m, n in shapes:
        for d in sorted({1, rng.randrange(1, m * n + 1), m * n}):
            x = [rng.choice(elems[1:])] + [rng.choice(elems)
                                            for _ in range(m - 1)]
            y = [rng.choice(elems) for _ in range(n - 1)]
            y.append(rng.choice(elems[1:]))
            gens = [Mat.col(f, x) @ Mat.col(f, y).transpose()]
            gens += [Mat(f, m, n, [rng.choice(elems) for _ in range(m * n)])
                     for _ in range(d - 1)]
            L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=f)
            got = rank_one_elements_ff(L)
            assert got, (q, m, n, d)
            assert got == _rank_one_elements_reference(L), (q, m, n, d)


def test_definitional_exhaustive_matches_annihilator_test():
    # the central equivalence, both directions, on random GF(3) subspaces
    rng = random.Random(42)
    f = GF(3)
    for _ in range(40):
        d = rng.randint(3, 7)
        L = rand_space(rng, f, d, 3, 3)
        for k in (1, 2):
            ok, X, _ = definitional_k_transitive_ff(L, k)
            Lp = L.preannihilator()
            if Lp.dim == 0:
                low_rank_free = True
            else:
                r, _w = min_rank_ff_exhaustive(Lp)
                low_rank_free = r > k
            assert ok == low_rank_free


# -------------------------------------------------------------- numeric

def test_numeric_search_trivial_recovery():
    R = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    V = MatrixSubspace.from_generators([R])
    w = rank_witness_search_numeric(V, 1, seed=0)
    assert w is not None and w.matrix.rank() == 1


def test_numeric_search_finds_toeplitz_obstruction():
    V = toeplitz_space(3).preannihilator()
    w = rank_witness_search_numeric(V, 2, seed=1)
    assert w is not None
    assert w.matrix.rank() <= 2 and V.contains(w.matrix)


def test_numeric_search_never_false_positive():
    # span{I2} has no rank-one element at all
    V = MatrixSubspace.from_generators([Mat.identity(QQ, 2)])
    for seed in range(5):
        assert rank_witness_search_numeric(V, 1, seed=seed) is None


def test_numeric_candidate_rejection():
    from translab.lowrank import verify_low_rank_candidate

    V = toeplitz_space(3).preannihilator()
    # a perturbed (non-witness) coefficient vector must be rejected exactly
    bad = (Fraction(1), Fraction(1, 3), Fraction(-2, 7), Fraction(1))
    assert verify_low_rank_candidate(V, bad, 1) is None
    assert verify_low_rank_candidate(V, (Fraction(0),) * 4, 2) is None


# ----------------------------------------------------------- definitional

def test_definitional_sample_examples():
    full = MatrixSubspace.full_space(QQ, 3, 3)
    for k in (1, 2, 3):
        out = definitional_transitivity_sample(full, k, trials=15, seed=0)
        assert not out.found_counterexample
    E11 = MatrixSubspace.from_generators([Mat.unit(QQ, 2, 2, 0, 0)])
    out = definitional_transitivity_sample(E11, 1, trials=60, seed=0)
    assert out.found_counterexample and out.tuple_matrix is not None
    T3 = toeplitz_space(3)
    out = definitional_transitivity_sample(T3, 2, trials=60, seed=0)
    assert out.found_counterexample  # dim 5 < 2 (3 + 3 - 2) = 8


# -------------------------------------------------------------- separation

def test_separation_examples_and_pinned_witnesses():
    full = MatrixSubspace.full_space(QQ, 3, 3)
    for k in (1, 2, 3):
        assert check_k_separating(full, k).certified

    T3 = toeplitz_space(3)
    s2 = check_k_separating(T3, 2)
    assert s2.status == Status.CERTIFIED_FINITE_FIELD and 5 in s2.primes

    s3 = check_k_separating(T3, 3)
    assert s3.status == Status.DISPROVED
    cols = [s3.witness_columns.column(j) for j in range(3)]
    e = [tuple(QQ.one() if i == t else QQ.zero() for i in range(3))
         for t in range(3)]
    assert cols == [e[0], e[2], e[1]]

    s4 = check_k_separating(toeplitz_space(4), 3)
    assert s4.status == Status.DISPROVED
    cols4 = [s4.witness_columns.column(j) for j in range(3)]
    e4 = [tuple(QQ.one() if i == t else QQ.zero() for i in range(4))
          for t in range(4)]
    assert cols4 == [e4[0], e4[3], e4[1]]


def test_separation_sampling_strategy():
    from translab.families import row_augmented_space

    RA = row_augmented_space(MatrixSubspace.zero_space(QQ, 3, 3))
    # sampling cannot certify, only disprove; RA is 3-separating
    out = check_k_separating(RA, 3, strategy="sample", trials=40, seed=0)
    assert out.status == Status.UNKNOWN
    # but it disproves quickly where violations are dense
    T3 = toeplitz_space(3)
    out2 = check_k_separating(T3, 3, strategy="sample", trials=100, seed=0)
    assert out2.status in (Status.DISPROVED, Status.UNKNOWN)
    if out2.status == Status.DISPROVED:
        assert out2.witness_columns.rank() == 3


def test_separation_finite_field_ambient():
    T3 = toeplitz_space(3).reduce_mod(5)
    assert check_k_separating(T3, 2).status == Status.CERTIFIED_FINITE_FIELD
    assert check_k_separating(T3, 3).status == Status.DISPROVED


def _separation_scan_reference(L, k):
    """The per-flag scan: exact elimination on every flag in turn."""
    f, n = L.field, L.cols
    for block in modp.iter_rref_blocks(n, k - 1, f.size, order="far-first"):
        for rep in block:
            Vrows = [[f.from_int(int(v)) for v in row] for row in rep]
            ck, inside = _flag_violation(L, Vrows)
            if inside:
                continue
            xk = _choose_final_vector(f, n, ck, Vrows)
            cols = [list(r) for r in Vrows] + [list(xk)]
            return Mat(f, n, k, [cols[j][i] for i in range(n)
                                 for j in range(k)])
    return None


@st.composite
def _small_prime_space(draw, cross_route=False):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4 if cross_route or p != 5 else 3))
    f = GF(p)
    lo = 0
    if cross_route:
        # the pre-annihilator route visits p^(mn - d) points; half the
        # draws are dense enough that the definitional scan compresses
        lo = max(0, m * n - {2: 12, 3: 8, 5: 6}[p])
        if draw(st.booleans()):
            lo = max(lo, min(m * n, m + modp._oversampling(p) + 1))
    d = draw(st.integers(lo, m * n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=d * m * n,
                            max_size=d * m * n))
    gens = [Mat(f, m, n, [f.from_int(x) for x in entries[i * m * n:
                                                         (i + 1) * m * n]])
            for i in range(d)]
    return MatrixSubspace.from_generators(gens, rows=m, cols=n, field=f)


@settings(max_examples=60, deadline=None)
@given(_small_prime_space())
def test_separation_scan_matches_per_flag_reference(L):
    # the batched rank scan must return exactly the witness (or None) of
    # exact elimination flag by flag, at every k
    for k in range(1, L.cols + 1):
        assert _separation_scan_ff(L, k) == _separation_scan_reference(L, k)


@settings(max_examples=60, deadline=None)
@given(_small_prime_space(cross_route=True))
def test_input_subspace_route_matches_preannihilator_route(L):
    # L is k-transitive iff its pre-annihilator has no nonzero element of
    # rank <= k; the definitional scan over input subspaces must agree
    Lp = L.preannihilator()
    # dependent generators can leave too large a pre-annihilator
    assume(L.field.size ** Lp.dim <= 5 ** 6)
    low = min_rank_ff_exhaustive(Lp)[0] if Lp.dim else None
    for k in range(1, L.cols + 1):
        ok, _X, _pts = definitional_k_transitive_ff(L, k)
        assert ok == (low is None or low > k), k


@st.composite
def _rectangular_prime_space(draw):
    # m != n up to 4 x 5 or 5 x 4; pre-annihilators small enough for the
    # exhaustive min-rank reference
    p = draw(st.sampled_from([2, 3, 5]))
    m, n = draw(st.sampled_from([(m, n) for m in range(1, 6)
                                 for n in range(1, 6)
                                 if m != n and m * n <= 20]))
    f = GF(p)
    d = draw(st.integers(max(0, m * n - {2: 12, 3: 8, 5: 6}[p]), m * n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=d * m * n,
                            max_size=d * m * n))
    gens = [Mat(f, m, n, [f.from_int(x) for x in entries[i * m * n:
                                                         (i + 1) * m * n]])
            for i in range(d)]
    return MatrixSubspace.from_generators(gens, rows=m, cols=n, field=f)


@settings(max_examples=60, deadline=None)
@given(_rectangular_prime_space())
def test_output_subspace_route_matches_input_route(L):
    # (L^T)^perp = (L^perp)^T and transposing keeps rank, so L is
    # k-transitive iff L^T is: the scan over the input subspaces of L^T
    # must agree with the scan over those of L and with the min-rank test,
    # and check_k_transitive, whichever route it takes, with both
    Lp = L.preannihilator()
    # dependent generators can leave too large a pre-annihilator
    assume(L.field.size ** Lp.dim <= 5 ** 6)
    low = min_rank_ff_exhaustive(Lp)[0] if Lp.dim else None
    LT = L.transpose_space()
    for k in range(1, min(L.rows, L.cols) + 1):
        expect = low is None or low > k
        assert definitional_k_transitive_ff(L, k)[0] == expect, k
        assert definitional_k_transitive_ff(LT, k)[0] == expect, k
        assert check_k_transitive(L, k).certified == expect, k


# m < n spaces on which the output-subspace route runs and fails mod p,
# with the verdict fields that the input-subspace and pre-annihilator
# routes alone give: (kind, p, m, n, k, generators, pinned).  "gf": L over
# GF(p) from its generators; "q": L over Q from its generators, checked
# with strategy "ff"; "perp": L = V^perp over Q for V from its generators
_OUTPUT_ROUTE_WITNESSES = [
    ("gf", 5, 2, 4, 1,
     [[1, 1, 0, 4, 2, 1, 2, 2], [2, 2, 4, 3, 0, 2, 4, 0],
      [2, 2, 1, 4, 1, 4, 0, 2], [1, 1, 2, 3, 3, 2, 2, 0]],
     {"status": "disproved", "coefficients": [0, 0, 1, 2],
      "matrix": [[0, 0], [1, 2], [4, 3], [2, 4]]}),
    ("gf", 5, 2, 4, 1,
     [[2, 4, 1, 0, 4, 1, 1, 0], [4, 0, 1, 2, 3, 0, 4, 0],
      [2, 2, 1, 1, 2, 4, 3, 0]],
     {"status": "disproved", "coefficients": [2, 1, 4, 2, 4],
      "matrix": [[2, 1], [4, 2], [1, 3], [3, 4]]}),
    ("gf", 5, 3, 4, 2,
     [[0, 4, 1, 2, 3, 0, 0, 3, 2, 0, 4, 0],
      [0, 4, 2, 4, 3, 4, 0, 1, 2, 1, 3, 3],
      [4, 0, 2, 3, 2, 4, 3, 0, 2, 1, 1, 1],
      [4, 3, 4, 2, 3, 1, 0, 3, 2, 4, 0, 3],
      [4, 3, 0, 4, 0, 3, 0, 1, 0, 3, 3, 1],
      [0, 4, 4, 1, 0, 3, 2, 3, 4, 3, 1, 3],
      [4, 4, 1, 3, 3, 0, 4, 2, 4, 3, 4, 3]],
     {"status": "disproved", "coefficients": [0, 0, 0, 1, 0],
      "matrix": [[0, 0, 0], [1, 0, 3], [3, 1, 4], [4, 3, 2]]}),
    ("q", 0, 2, 4, 1,
     [[0, 1, -2, 2, -2, 2, -1, 2], [1, 1, 2, 1, 0, 1, 1, -1],
      [-2, -1, 2, 0, -2, 0, 2, 2]],
     {"status": "unknown",
      "lifts": {"5": {"low_rank_mod_p": True, "lifted": False},
                "7": {"skipped": True},
                "11": {"low_rank_mod_p": True, "lifted": False}}}),
    ("perp", 0, 2, 4, 1,
     [[1, -1, 1, -1, 1, -1, 0, 0], [0, 0, 2, -1, 2, -2, 2, -1],
      [1, 1, 2, 0, 2, 1, 2, 0]],
     {"status": "disproved", "coefficients": [1, -1, 1],
      "matrix": [[1, -1], [1, -1], [1, -1], [0, 0]],
      "lifts": {"5": {"low_rank_mod_p": True, "lifted": False},
                "7": {"low_rank_mod_p": True, "lifted": True}}}),
    ("perp", 0, 3, 5, 2,
     [[0, 0, 0, -1, 1, -1, 0, 0, 0, 0, 0, 0, 1, -1, 1],
      [0, 2, 1, 2, -2, 0, 2, 2, -2, 1, -1, 1, 1, -1, -1],
      [-1, -2, -2, -1, 2, 2, -2, 1, -2, 0, -1, -1, 1, -2, 0],
      [-1, 1, 0, 0, -2, -1, -2, 1, -2, 1, 1, -1, -2, -1, 1],
      [-2, 2, -2, -2, 2, -1, -1, 0, -2, -2, -1, 2, -2, 2, -2],
      [2, 1, 2, -1, 1, -2, 1, -1, -2, 2, -1, -1, 2, -2, -2]],
     {"status": "disproved", "coefficients": [0, 0, 0, 1, -1, 1],
      "matrix": [[0, 0, 0], [1, -1, 1], [0, 0, 0], [0, 0, 0],
                 [-1, 1, -1]],
      "lifts": {"5": {"low_rank_mod_p": True, "lifted": True}}}),
]


@pytest.mark.parametrize("case", _OUTPUT_ROUTE_WITNESSES)
def test_output_subspace_route_keeps_witnesses(case):
    # the output route only decides: a failure it finds is re-derived on
    # the route chosen without it, so statuses, witnesses and lift
    # attempts stay those that route gives
    kind, p, m, n, k, gens, pinned = case
    f = GF(p) if kind == "gf" else QQ
    rows, cols = (n, m) if kind == "perp" else (m, n)
    S = MatrixSubspace.from_generators(
        [Mat(f, rows, cols, [f.from_int(x) for x in g]) for g in gens],
        rows=rows, cols=cols, field=f)
    L = S.preannihilator() if kind == "perp" else S
    v = check_k_transitive(L, k, strategy="auto" if kind == "gf" else "ff")
    assert v.status.value == pinned["status"]
    if "coefficients" in pinned:
        assert v.witness.coefficients == tuple(
            f.from_int(c) for c in pinned["coefficients"])
        assert v.witness.matrix.tolists() == [
            [f.from_int(x) for x in row] for row in pinned["matrix"]]
    else:
        assert v.witness is None
    infos = [v.evidence] if kind == "gf" else [
        info for key, info in v.evidence["ff"].items()
        if key != "certified_primes"]
    assert any(info.get("route") == "output-subspaces"
               and info["witness_route"] in ("input-subspaces",
                                             "pre-annihilator")
               and info["points"] <= info["route_choice"]["output-subspaces"]
               for info in infos if "route" in info)
    if kind != "gf":
        lifts = {key: ({"skipped": True} if "skipped" in info else
                       {"low_rank_mod_p": info.get("low_rank_mod_p"),
                        "lifted": info.get("lifted")})
                 for key, info in v.evidence["ff"].items()
                 if key != "certified_primes"}
        assert lifts == pinned["lifts"]


def test_output_subspace_failure_must_be_confirmed(monkeypatch):
    # a failure of the output route that the witness route does not find
    # is a bug, not a disproof
    from translab.errors import VerificationFailed

    L = minimal_k_transitive(2, 4, 1).reduce_mod(5)
    v = check_k_transitive(L, 1)
    assert v.status == Status.CERTIFIED_FINITE_FIELD
    assert v.evidence["route"] == "output-subspaces"
    assert v.evidence["route_choice"] == {
        "pre-annihilator": 31, "input-subspaces": 156,
        "output-subspaces": 6}
    monkeypatch.setattr(modp, "surjectivity_scan",
                        lambda basis, k, q, chunk=0: (False, None, 1))
    with pytest.raises(VerificationFailed, match="output-subspace scan"):
        check_k_transitive(L, 1)


@pytest.mark.parametrize("p,m,n,dim,k", [(7, 8, 8, 30, 1), (5, 3, 7, 6, 1),
                                         (2, 3, 6, 4, 2), (3, 2, 5, 3, 2)])
def test_separation_scan_matches_per_flag_reference_at_larger_n(p, m, n,
                                                                dim, k):
    # ambients beyond the property test: a random space (whose common
    # kernel is almost surely trivial) and one whose elements all kill e_n
    f = GF(p)
    rng = random.Random(p * 1000 + n)
    for last_col_zero in (False, True):
        gens = [Mat(f, m, n, [f.from_int(0 if last_col_zero and c == n - 1
                                         else rng.randrange(p))
                              for r in range(m) for c in range(n)])
                for _ in range(dim)]
        L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=f)
        ref = _separation_scan_reference(L, k)
        if last_col_zero:
            assert ref is not None
        assert _separation_scan_ff(L, k) == ref


def test_separation_budget_checked_per_prime():
    # denominators 35 make 5 and 7 bad primes; the up-front check passes
    # (2850 flags over GF(7)) but the fallback prime 11 needs 16226
    f = QQ
    L = MatrixSubspace.from_generators([
        Mat.from_rows(f, [[1, Fraction(1, 35), 0, 0], [0, 0, 1, 0]]),
        Mat.from_rows(f, [[0, 1, 0, 0], [0, 0, 0, Fraction(2, 35)]]),
    ])
    assert modp.gaussian_binomial(4, 2, 7) == 2850
    assert modp.gaussian_binomial(4, 2, 11) == 16226
    with pytest.raises(BudgetExceeded, match="GF\\(11\\)"):
        check_k_separating(L, 3, budget=2850)


def test_witness_checks_raise_under_optimize():
    # soundness must not depend on assert: with verification broken, -O
    # still refuses to report a disproof
    code = (
        "import translab.deciders as d\n"
        "from translab.errors import VerificationFailed\n"
        "from translab.families import toeplitz_space\n"
        "assert False, 'asserts are live'\n"
        "d.RankWitness.verify = lambda self, space: False\n"
        "try:\n"
        "    v = d.check_k_transitive(toeplitz_space(3), 2)\n"
        "except VerificationFailed:\n"
        "    print('raised')\n"
        "else:\n"
        "    print(v.status.value)\n"
    )
    src = os.path.dirname(os.path.dirname(translab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_failing_input_checks_raise_under_optimize():
    # a scan that reports a passing input as failing must be caught by
    # exact elimination under -O too, not crash on an empty kernel
    code = (
        "import numpy as np\n"
        "import translab.deciders as d\n"
        "from translab.errors import VerificationFailed\n"
        "from translab.families import toeplitz_space\n"
        "assert False, 'asserts are live'\n"
        "d.modp.surjectivity_scan = lambda basis, k, q, chunk=0: (\n"
        "    False, np.array([[1], [0], [0]]), 1)\n"
        "try:\n"
        "    v = d.check_k_transitive(toeplitz_space(3).reduce_mod(5), 1)\n"
        "except VerificationFailed:\n"
        "    print('raised')\n"
        "else:\n"
        "    print(v.status.value)\n"
    )
    src = os.path.dirname(os.path.dirname(translab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_solve_postcondition_raises_under_optimize():
    # Mat.solve re-checks A x = b exactly; a broken product must make it
    # raise under -O instead of returning a wrong solution
    code = (
        "import translab.matrices as M\n"
        "from translab.errors import VerificationFailed\n"
        "from translab.fields import QQ\n"
        "assert False, 'asserts are live'\n"
        "M._matvec = lambda A, x: [None] * A.rows\n"
        "try:\n"
        "    x = M.Mat.identity(QQ, 2).solve([1, 2])\n"
        "except VerificationFailed:\n"
        "    print('raised')\n"
        "else:\n"
        "    print('returned', x)\n"
    )
    src = os.path.dirname(os.path.dirname(translab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may
    # be one
    pkg = os.path.dirname(translab.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found


# ----------------------------------------------------------- rank spanning

def test_verify_rank_spanning_examples():
    assert verify_rank_spanning(toeplitz_space(3), 1,
                                toeplitz_rank_one_generators(3))
    assert verify_rank_spanning(trace_zero(3), 1,
                                trace_zero_rank_one_generators(3))
    assert not verify_rank_spanning(MatrixSubspace.full_space(QQ, 2, 2), 2,
                                    [Mat.identity(QQ, 2)])


# ------------------------------------------------------------- invertibles

def test_find_invertible_examples():
    assert find_invertible(toeplitz_space(3)) is not None
    sing = MatrixSubspace.from_generators(
        [Mat.unit(QQ, 2, 2, 0, 1), Mat.unit(QQ, 2, 2, 0, 0)])
    assert find_invertible(sing) is None
    M = find_invertible(minimal_k_transitive(4, 4, 1))
    assert M is not None and M.det() != 0


def _tile_budgets(L):
    """modp._TILE_CELLS values a projective scan of L must not depend on:
    one point per tile (on scans of up to 500 points, for run time), a
    few points, the default and unbounded; a scan of one point has one
    tile at every budget, so it gets the default alone."""
    q = L.field.size
    cells = L.rows * L.cols * (1 if q == L.field.p else 4)
    points = modp.projective_count(L.dim, q)
    if points == 1:
        return (modp._TILE_CELLS,)
    return (1, 8 * cells, modp._TILE_CELLS, 1 << 62)[points > 500:]


def test_rank_extremes_examples(monkeypatch):
    full = MatrixSubspace.full_space(GF(2), 2, 2)
    ex = rank_extremes_ff(full)
    assert (ex.min_nonzero_rank, ex.max_singular_rank) == (1, 1)
    ident = MatrixSubspace.from_generators([Mat.identity(GF(5), 3)])
    ex2 = rank_extremes_ff(ident)
    assert ex2.min_nonzero_rank == 3 and ex2.max_singular_rank is None
    D, _ = dual_transitive_8dim()
    ex3 = rank_extremes_ff(D.reduce_mod(3))
    assert ex3.min_nonzero_rank == 2
    assert ex3.max_singular_rank == 3  # frozen from the exhaustive run
    assert ex3.min_nonzero_rank + ex3.max_singular_rank >= 4
    # the same extremes, witnesses and points at every tile budget
    for L, want in [(full, ex), (ident, ex2), (D.reduce_mod(3), ex3)]:
        for cells in _tile_budgets(L):
            monkeypatch.setattr(modp, "_TILE_CELLS", cells)
            got = rank_extremes_ff(L)
            monkeypatch.undo()
            assert got == want, (L.field.tag, cells)


def _rank_extremes_reference(L):
    # one element at a time, in projective order, with exact Mat ranks
    n = L.rows
    r = s = rmat = smat = None
    pts = 0
    for coeffs in _projective_tuples_generic(L.field, L.dim):
        pts += 1
        T = L.element(coeffs)
        rk = T.rank()
        if r is None or rk < r:
            r, rmat = rk, T
        if rk < n and (s is None or rk > s):
            s, smat = rk, T
    return r, rmat, s, smat, pts


def test_rank_extremes_over_quadratic_extension_match_reference(monkeypatch):
    rng = random.Random(11)
    spaces = [toeplitz_space(3).reduce_mod(9)]
    while len(spaces) < 30:
        F = GF(rng.choice([9, 25, 49]))
        n = rng.randint(1, 3)
        elems = F.elements()
        gens = [Mat(F, n, n, [rng.choice(elems) if rng.random() < 0.7
                              else F.zero() for _ in range(n * n)])
                for _ in range(rng.randint(1, 3))]
        L = MatrixSubspace.from_generators(gens, rows=n, cols=n, field=F)
        if L.dim:
            spaces.append(L)
    for L in spaces:
        want = _rank_extremes_reference(L)
        for cells in _tile_budgets(L):
            monkeypatch.setattr(modp, "_TILE_CELLS", cells)
            ex = rank_extremes_ff(L)
            monkeypatch.undo()
            got = (ex.min_nonzero_rank, ex.min_witness, ex.max_singular_rank,
                   ex.max_witness, ex.points)
            assert got == want, (L.field.tag, L.dim, cells)


def _min_rank_reference(V):
    # one element at a time, in projective order, stopping at rank 1
    best = None
    for coeffs in _projective_tuples_generic(V.field, V.dim):
        T = V.element(coeffs)
        rk = T.rank()
        if best is None or rk < best[0]:
            best = (rk, tuple(coeffs), T)
            if rk == 1:
                break
    return best


def _threshold_reference(V, k):
    # the first element of rank <= k, counting the points visited
    pts = 0
    for coeffs in _projective_tuples_generic(V.field, V.dim):
        pts += 1
        T = V.element(coeffs)
        if T.rank() <= k:
            return tuple(coeffs), T, pts
    return None, None, pts


def _gf9_disproof_space():
    # its pre-annihilator (dim 5, 7381 points) has its first rank-1
    # element at point 4084, inside the scan's eighth block (points
    # 3551-4460)
    F = GF(9)
    E = F.elements()
    codes = [[4, 0, 0, 1, 3, 1, 0, 3, 0], [4, 4, 4, 3, 1, 4, 4, 1, 0],
             [0, 0, 4, 3, 4, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0, 1, 0, 3]]
    gens = [Mat(F, 3, 3, [E[c] for c in row]) for row in codes]
    return MatrixSubspace.from_generators(gens, rows=3, cols=3, field=F)


def test_min_rank_over_quadratic_extension_match_reference(monkeypatch):
    rng = random.Random(12)
    spaces = [_gf9_disproof_space().preannihilator()]
    while len(spaces) < 40:
        F = GF(rng.choice([9, 25, 49]))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        elems = F.elements()
        gens = [Mat(F, m, n, [rng.choice(elems) if rng.random() < 0.7
                              else F.zero() for _ in range(m * n)])
                for _ in range(rng.randint(1, 3))]
        L = MatrixSubspace.from_generators(gens, rows=m, cols=n, field=F)
        if L.dim and F.size ** L.dim <= 3000:
            spaces.append(L)
    assert any(L.rows != L.cols for L in spaces)
    for L in spaces:
        want = _min_rank_reference(L)
        hits = [_threshold_reference(L, k)
                for k in range(1, min(L.rows, L.cols) + 1)]
        for cells in _tile_budgets(L):
            monkeypatch.setattr(modp, "_TILE_CELLS", cells)
            r, w = min_rank_ff_exhaustive(L)
            assert (r, w.coefficients, w.matrix) == want, \
                (L.field.tag, L.rows, L.cols, L.dim, cells)
            for k, hit in enumerate(hits, 1):
                got = _ff_low_rank_threshold(L, k, 10**8)
                assert got == hit, (L.field.tag, k, cells)
            monkeypatch.undo()
    # the threshold hit's position, inside a later tile of its block at
    # the small budgets
    for cells in _tile_budgets(spaces[0]):
        monkeypatch.setattr(modp, "_TILE_CELLS", cells)
        assert _ff_low_rank_threshold(spaces[0], 1, 10**8)[2] == 4084
        monkeypatch.undo()


# ----------------------------------------------------- supplied witnesses

def test_disproof_from_witness_validates():
    L = toeplitz_space(3)
    T = Mat.diag(QQ, [1, -1, 0])  # diagonal sums vanish, rank 2
    v = transitivity_disproof_from_witness(L, 2, T)
    assert v.status == Status.DISPROVED and v.witness.verify(L.preannihilator())
    with pytest.raises(ValueError):
        transitivity_disproof_from_witness(L, 1, T)  # rank too large
    with pytest.raises(ValueError):
        transitivity_disproof_from_witness(L, 2, Mat.identity(QQ, 3))


def test_witnesses_reverify_independently():
    # every Disproved verdict's witness re-verifies through the exact kernel
    cases = [
        (toeplitz_space(3), 2),
        (rank_annihilator_space(3, 3, 1), 2),
        (minimal_k_transitive(3, 3, 1), 2),
    ]
    for L, k in cases:
        v = check_k_transitive(L, k)
        assert v.status == Status.DISPROVED
        assert v.witness.verify(L.preannihilator())


def test_products_of_transitive_spaces_gain_transitivity_ff():
    # random transitive pairs over GF(3): the product span certifies
    # min(k + l, m, p)-transitivity
    rng = random.Random(3)
    f = GF(3)
    found = 0
    while found < 4:
        K = rand_space(rng, f, rng.randint(5, 7), 3, 3)
        L = rand_space(rng, f, rng.randint(5, 7), 3, 3)
        if not (check_k_transitive(K, 1).certified
                and check_k_transitive(L, 1).certified):
            continue
        found += 1
        prod = K.product_span(L)
        assert check_k_transitive(prod, 2).certified


def test_transitive_implies_next_separating_ff():
    rng = random.Random(4)
    f = GF(3)
    found = 0
    while found < 6:
        L = rand_space(rng, f, rng.randint(5, 8), 3, 3)
        if not check_k_transitive(L, 1).certified:
            continue
        found += 1
        assert check_k_separating(L, 2).certified


def test_bad_prime_fallback():
    # an equivalent copy of a transitive space whose pre-annihilator basis
    # carries denominators divisible by 5: the pipeline must skip 5 and
    # substitute the next prime
    L = minimal_k_transitive(3, 3, 1)
    S = Mat.from_rows(QQ, [[1, Fraction(1, 5), 0], [0, 1, 0], [0, 0, 1]])
    T = Mat.from_rows(QQ, [[1, 0, 0], [Fraction(1, 5), 1, 0], [0, 0, 1]])
    L2 = L.equivalence_transform(S, T)
    assert any(x.denominator % 5 == 0
               for B in L2.preannihilator().basis for x in B.entries())
    v = check_k_transitive(L2, 1, primes=(5, 7))
    assert "skipped" in v.evidence["ff"]["5"]
    assert v.status == Status.CERTIFIED_FINITE_FIELD
    assert v.primes == (7, 11)


def test_preannihilator_bad_prime_skip_text_matches_eager_reduction():
    # Lp is reduced mod p only where a route needs it, but its BadPrime is
    # still found at the same prime with the text of reducing it there;
    # L is checked first
    L = minimal_k_transitive(3, 3, 1)
    S = Mat.from_rows(QQ, [[1, Fraction(1, 5), 0], [0, 1, 0], [0, 0, 1]])
    T = Mat.from_rows(QQ, [[1, 0, 0], [Fraction(1, 5), 1, 0], [0, 0, 1]])
    for L2, first in ((L.equivalence_transform(S, T), "Lp"),
                      (L.equivalence_transform(S, Mat.identity(QQ, 3)), "L")):
        Lp = L2.preannihilator()
        with pytest.raises(BadPrime) as exc:
            (L2 if first == "L" else Lp).reduce_mod(5)
        if first == "Lp":
            L2.reduce_mod(5)
        v = check_k_transitive(L2, 1, primes=(5, 7))
        assert v.evidence["ff"]["5"] == {"skipped": f"BadPrime: {exc.value}"}
        assert v.status == Status.CERTIFIED_FINITE_FIELD
        assert v.primes == (7, 11)


def test_exhausted_fallback_primes_leave_both_verdicts_unknown():
    # every fallback prime divides a denominator, so GF(5) is the only
    # usable prime; one prime is fewer than the two requested, and neither
    # transitivity nor separation may certify over it
    N = 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    S = Mat.from_rows(QQ, [[1, Fraction(1, N), 0], [0, 1, 0], [0, 0, 1]])
    L = minimal_k_transitive(3, 3, 1).equivalence_transform(
        S, Mat.identity(QQ, 3))
    for v in (check_k_transitive(L, 1, "ff"), check_k_separating(L, 2, "ff")):
        assert v.status == Status.UNKNOWN and v.primes == ()
        assert v.evidence["ff"]["certified_primes"] == [5]
        assert all("skipped" in v.evidence["ff"][str(p)]
                   for p in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))


def test_separation_rational_lift_evidence():
    # no lift: the flag that violates separation mod 5 and mod 7 is not a
    # rational violation, so the verdict stays unknown
    half = Fraction(1, 2)
    gens = [Mat.from_rows(QQ, rows) for rows in (
        [[1, 0, 0], [-half, -1, -half]],
        [[0, 1, 0], [-half, 1, half]],
        [[0, 0, 1], [0, 1, 0]])]
    L = MatrixSubspace.from_generators(gens, rows=2, cols=3, field=QQ)
    v = check_k_separating(L, 2, "ff")
    assert v.status == Status.UNKNOWN
    assert v.evidence["ff"] == {
        "5": {"points": 31, "violation_mod_p": True, "lifted": False},
        "7": {"points": 57, "violation_mod_p": True, "lifted": False},
        "certified_primes": []}
    # lift: the violating flag mod 5 is a violation over Q as well
    L = random_subspace(random.Random(0), QQ, 5, 3, 4, 1)
    v = check_k_separating(L, 4, "ff")
    assert v.status == Status.DISPROVED
    assert v.evidence["ff"]["5"]["lifted"] is True
    assert "certified_primes" not in v.evidence["ff"]
    assert _verify_separation_violation(L, v.witness_columns)


def test_prime_loop_does_not_swallow_bugs(monkeypatch):
    # only BadPrime may turn a prime into a skipped one; any other error
    # raised while reducing is a bug and must reach the caller
    from translab.subspace import MatrixSubspace

    def broken(self, q):
        raise RuntimeError("bug in reduce_mod")

    T4 = toeplitz_space(4)
    monkeypatch.setattr(MatrixSubspace, "reduce_mod", broken)
    with pytest.raises(RuntimeError, match="bug in reduce_mod"):
        check_k_transitive(T4, 1)
    with pytest.raises(RuntimeError, match="bug in reduce_mod"):
        check_k_separating(T4, 2)


def test_quadratic_extension_ambient_check():
    f9 = GF(9)
    from translab.families import build_family, parse_family

    T2 = build_family(parse_family("toeplitz:2"), f9)
    v = check_k_transitive(T2, 1)
    assert v.status == Status.CERTIFIED_FINITE_FIELD and v.primes == (9,)


def test_unknown_when_budget_exhausted():
    L = minimal_k_transitive(3, 3, 1)
    v = check_k_transitive(L, 1, strategy="ff", budget=10)
    assert v.status == Status.UNKNOWN
    assert "budget" in v.soundness
    skipped = [i for i in v.evidence["ff"].values()
               if isinstance(i, dict) and "skipped" in i]
    assert len(skipped) == 2


def test_numeric_strategy_cannot_certify():
    # the numeric search can only disprove; on a genuinely transitive space
    # it must come back unknown, while the ff strategy certifies
    L = minimal_k_transitive(4, 4, 2)
    assert all(B.rank() > 2 for B in L.preannihilator().basis)
    v_ff = check_k_transitive(L, 2, strategy="ff")
    assert v_ff.status == Status.CERTIFIED_FINITE_FIELD
    v_num = check_k_transitive(L, 2, strategy="numeric", numeric_restarts=3)
    assert v_num.status == Status.UNKNOWN


def test_ff_lift_pipeline_end_to_end():
    # a 3-dim space of 3x3 matrices whose canonical basis is all rank 3
    # while a hidden combination has rank 2, with denominators divisible
    # by 5: the pipeline must skip 5, fail to lift the GF(7) hit, and
    # succeed with the GF(11) fallback, producing an exact rational witness
    rows = [
        ["1", "0", "0", "1/2", "-21/8", "25/8", "-5/2", "-3", "3/4"],
        ["0", "1", "0", "-1", "3/2", "-5/2", "2", "2", "-1"],
        ["0", "0", "1", "0", "7/4", "-7/4", "1", "1", "-1/2"],
    ]
    gens = [Mat(QQ, 3, 3, [Fraction(x) for x in r]) for r in rows]
    V = MatrixSubspace.from_generators(gens)
    assert [B.rank() for B in V.basis] == [3, 3, 3]
    L = V.preannihilator()  # so the searched pre-annihilator is V itself
    v = check_k_transitive(L, 2, strategy="ff")
    assert v.status == Status.DISPROVED
    assert v.evidence["witness_field"] == "Q"
    assert "skipped" in v.evidence["ff"]["5"]
    assert v.evidence["ff"]["7"]["lifted"] is False
    assert v.evidence["ff"]["11"]["lifted"] is True
    assert v.witness.matrix.rank() == 2
    assert v.witness.verify(V)


def test_certification_primes_must_be_prime():
    # a square prime power reduced into GF(p^2) once crashed the lift of a
    # low-rank element, and 1 divided by zero; neither certifies anything
    rng = random.Random(1)
    for _ in range(9):
        L = random_subspace(rng, QQ, 12, 4, 4, 2)
    T = toeplitz_space(3)
    for bad in (9, 4, 1):
        with pytest.raises(ValueError, match="prime"):
            check_k_transitive(L, 2, primes=(bad,), strategy="ff")
        with pytest.raises(ValueError, match="prime"):
            check_k_separating(T, 3, primes=(5, bad))
