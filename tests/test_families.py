"""The concrete family constructors and their claimed properties."""

import pytest

from translab.deciders import (
    Status,
    check_k_transitive,
    definitional_transitivity_sample,
    min_rank_ff_exhaustive,
)
from translab.errors import ParameterOutOfRange
from translab.families import (
    FamilySpec,
    build_family,
    counterexample_certificate,
    dual_transitive_8dim,
    dual_transitive_perp_display,
    dual_transitive_phi,
    dual_transitive_theorem_form,
    hankel_space,
    min_rank_diagonal_annihilator,
    minimal_k_transitive,
    minimal_k_transitive_obstruction,
    parse_family,
    pattern_space,
    phi_block_map,
    phi_block_space,
    phi_eigen_structure,
    rank_annihilator_space,
    row_augmented_space,
    sl_tensor_full,
    toeplitz_space,
    trace_zero,
    vandermonde_diagonal_space,
)
from translab.fields import GF, QQ
from translab.matrices import Mat
from translab.subspace import MatrixSubspace


# ------------------------------------------------------------- dimensions

def test_dimension_closed_forms_within_desk_budget():
    for n in range(1, 7):
        assert toeplitz_space(n).dim == 2 * n - 1
        assert hankel_space(n).dim == 2 * n - 1
    for n in range(2, 7):
        assert trace_zero(n).dim == n * n - 1
    for p in range(1, 7):
        for k in range(0, min(p, 3) + 1):
            assert vandermonde_diagonal_space(p, k).dim == p - k
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(1, min(m, n, 4)):
                N = min_rank_diagonal_annihilator(m, n, k)
                assert N.dim == m * n - k * (m + n - k), (m, n, k)
                assert minimal_k_transitive(m, n, k).dim == k * (m + n - k)
    for m in range(2, 7):
        for n in range(2, 7):
            for k in range(0, min(m, n, 4) - 1):
                assert rank_annihilator_space(m, n, k).dim == m * n - 1
    for d in range(2, 5):
        for m in range(1, 3):
            assert sl_tensor_full(d, m).dim == (d * d - 1) * m * m


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        vandermonde_diagonal_space(3, 4)
    with pytest.raises(ParameterOutOfRange):
        min_rank_diagonal_annihilator(3, 3, 3)
    with pytest.raises(ParameterOutOfRange):
        trace_zero(1)
    with pytest.raises(ParameterOutOfRange):
        phi_block_space(4, 2)  # 2 (n-k)^2 < n^2
    with pytest.raises(ParameterOutOfRange):
        rank_annihilator_space(2, 2, 2)


# ------------------------------------------------------------- vandermonde

def test_vandermonde_examples():
    V = vandermonde_diagonal_space(4, 2)
    assert V.dim == 2
    assert V.contains(Mat.diag(QQ, [1, 1, 1, 1]))
    assert V.contains(Mat.diag(QQ, [1, 2, 3, 4]))
    assert vandermonde_diagonal_space(3, 0).dim == 3
    # every nonzero element of the (5, 2) space has rank >= 3 (exhaustive)
    r, _ = min_rank_ff_exhaustive(vandermonde_diagonal_space(5, 2).reduce_mod(7))
    assert r == 3


def test_diagonal_annihilator_low_rank_free_ff():
    N = min_rank_diagonal_annihilator(3, 3, 1)
    r, _ = min_rank_ff_exhaustive(N.reduce_mod(5))
    assert r == 2


# ---------------------------------------------------------------- minimal

def test_minimal_equals_trace_zero_at_top_k():
    for n in (2, 3, 4):
        L = minimal_k_transitive(n, n, n - 1)
        assert L == trace_zero(n)
        # the identity pair witnesses the equivalence claim
        I = Mat.identity(QQ, n)
        assert L.equivalence_transform(I, I) == trace_zero(n)


def test_minimal_obstruction_is_shortest_diagonal_element():
    W = minimal_k_transitive_obstruction(3, 3, 1)
    assert W.rank() == 2
    N = min_rank_diagonal_annihilator(3, 3, 1)
    assert N.contains(W)
    W2 = minimal_k_transitive_obstruction(4, 4, 2)
    assert W2.rank() == 3
    assert min_rank_diagonal_annihilator(4, 4, 2).contains(W2)


# --------------------------------------------------------------- toeplitz

def test_toeplitz_contains_identity_and_preann_structure():
    T3 = toeplitz_space(3)
    assert T3.contains(Mat.identity(QQ, 3))
    assert T3.preannihilator().dim == 4


def test_hankel_is_flipped_toeplitz():
    H = hankel_space(3)
    # reversing the row order of a Hankel matrix gives a Toeplitz matrix
    Pflip = Mat.from_rows(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    gens = [Pflip @ B for B in H.basis]
    assert MatrixSubspace.from_generators(gens) == toeplitz_space(3)


# ------------------------------------------------------------ trace zero

def test_trace_zero_preannihilator_is_identity_span():
    for n in (2, 3):
        Lp = trace_zero(n).preannihilator()
        assert Lp == MatrixSubspace.from_generators([Mat.identity(QQ, n)])


# -------------------------------------------------------- dual transitive

def test_dual_transitive_displayed_parameterizations():
    D, phi = dual_transitive_8dim()
    assert D.dim == 8
    assert D.preannihilator() == dual_transitive_perp_display()
    A = Mat.from_rows(QQ, [[1, 2], [3, 4]])
    assert phi.apply(A) == Mat.from_rows(QQ, [[4, 6], [2, 1]])
    assert dual_transitive_theorem_form().dim == 8


def test_dual_transitive_both_sides_transitive():
    D, _ = dual_transitive_8dim()
    v = check_k_transitive(D, 1)
    vp = check_k_transitive(D.preannihilator(), 1)
    assert v.status == Status.CERTIFIED_FINITE_FIELD and v.primes == (5, 7)
    assert vp.status == Status.CERTIFIED_FINITE_FIELD and vp.primes == (5, 7)


def test_phi_eigen_structure():
    es = phi_eigen_structure(dual_transitive_phi())
    assert es["distinct_eigenvalues"]
    assert sorted(es["factor_degrees"]) == [1, 1, 2]
    assert all(r == 2 for (_deg, r) in es["eigenvector_ranks"])


def test_dual_transitive_power_span_index():
    D, _ = dual_transitive_8dim()
    assert D.power_span_index() == 3
    D2 = D.product_span(D)
    acc = D.sum(D2)
    assert acc.diagonal_expectation().dim == 3
    assert not acc.is_full()


# ------------------------------------------------------------- phi blocks

def test_phi_block_structure():
    PB = phi_block_space(4, 1)
    assert (PB.rows, PB.cols, PB.dim) == (8, 8, 32)
    assert PB.preannihilator().dim == 32
    # determinism: rebuilding gives the same canonical object
    assert phi_block_space(4, 1) == PB
    # the coordinate table of the map agrees with the space structure
    pm = phi_block_map(4, 1)
    U = Mat.unit(QQ, 4, 4, 1, 2)
    img = pm.apply(U)
    gen = Mat(QQ, 8, 8,
              [U[i, j] if i < 4 and j < 4 else
               (img[i - 4, j - 4] if i >= 4 and j >= 4 else QQ.zero())
               for i in range(8) for j in range(8)])
    assert PB.contains(gen)


def test_phi_block_rank_dichotomy_sampled():
    import random

    pm = phi_block_map(4, 1)
    rng = random.Random(0)
    for _ in range(40):
        A = Mat(QQ, 4, 4, [QQ.from_int(rng.randint(-3, 3)) for _ in range(16)])
        if A.is_zero():
            continue
        assert A.rank() > 1 or pm.apply(A).rank() > 1


# -------------------------------------------------------------- sl tensor

def test_sl_tensor_examples():
    S = sl_tensor_full(2, 2)
    assert S.dim == 12
    Sp = S.preannihilator()
    assert Sp.dim == 4
    expected = MatrixSubspace.from_generators([Mat.identity(QQ, 2)]).tensor(
        MatrixSubspace.full_space(QQ, 2, 2))
    assert Sp == expected
    r, _ = min_rank_ff_exhaustive(Sp.reduce_mod(5))
    assert r == 2
    v = check_k_transitive(sl_tensor_full(3, 2), 2, primes=(5,))
    assert v.status == Status.CERTIFIED_FINITE_FIELD


# ----------------------------------------------------------- row augmented

def test_row_augmented_examples():
    from translab.deciders import check_k_separating

    RA = row_augmented_space(MatrixSubspace.zero_space(QQ, 3, 3))
    assert (RA.rows, RA.cols, RA.dim) == (4, 3, 3)
    assert check_k_separating(RA, 3, primes=(5,)).certified
    assert check_k_transitive(RA, 1).status == Status.DISPROVED
    assert row_augmented_space(toeplitz_space(3)).dim == 8


# ----------------------------------------------------------------- pattern

def test_pattern_space_examples():
    allpos = [(i, j) for i in range(2) for j in range(2)]
    assert pattern_space(2, allpos) == MatrixSubspace.full_space(QQ, 2, 2)
    upper = pattern_space(2, [(0, 0), (0, 1), (1, 1)])
    v = check_k_transitive(upper, 1)
    assert v.status == Status.DISPROVED
    assert v.witness.matrix.rank() == 1
    # a missing column kills transitivity: the definitional probe at e_j
    missing_col = pattern_space(3, [(i, j) for i in range(3)
                                    for j in range(3) if j != 1])
    out = definitional_transitivity_sample(missing_col, 1, trials=80, seed=0)
    assert check_k_transitive(missing_col, 1).status == Status.DISPROVED
    # pattern spaces are fixed by the closure
    assert upper.diagonal_bimodule_closure() == upper


def test_pattern_transitive_iff_all_columns_full():
    import random

    rng = random.Random(9)
    f = GF(5)
    for _ in range(40):
        positions = [(i, j) for i in range(3) for j in range(3)
                     if rng.random() < 0.7]
        P = pattern_space(3, positions, f)
        cols_full = all(
            all((i, j) in set(positions) for i in range(3)) for j in range(3))
        if P.dim == 0:
            assert not cols_full
            continue
        verdict = check_k_transitive(P, 1)
        assert verdict.certified == cols_full
        # for patterns, transitive means the whole algebra
        assert cols_full == (P.dim == 9)


# ----------------------------------------------------- the counterexample

def test_counterexample_certificate_full():
    cert = counterexample_certificate()
    assert cert.equations_ok and len(cert.equations) == 8
    assert cert.decomposition_ok
    assert cert.dual_pairing_ok
    assert cert.rank_one_perp_tensor.rank() == 1
    assert cert.rank_one_main_tensor.rank() == 1
    assert cert.verdict_tensor_dual.status == Status.DISPROVED
    assert cert.verdict_tensor_main.status == Status.DISPROVED
    assert cert.all_ok


# ------------------------------------------------------------ family specs

def test_family_spec_parse_and_build():
    cases = [
        ("toeplitz:3", 5),
        ("hankel:2", 3),
        ("tracezero:3", 8),
        ("minimal:4,5,2", 14),
        ("rankann:3,3,1", 8),
        ("vdiag:4,2", 2),
        ("dualtransitive", 8),
        ("sltensor:2,2", 12),
        ("full:2,3", 6),
        ("zero:2,2", 0),
        ("rowaug:toeplitz:3", 8),
        ("pattern:2:0.0,1.1", 2),
    ]
    for text, dim in cases:
        spec = parse_family(text)
        assert build_family(spec).dim == dim
        assert parse_family(str(spec)) == spec
    assert parse_family("(minimal:3,3,1)") == FamilySpec("minimal", (3, 3, 1))
    with pytest.raises(ParameterOutOfRange):
        parse_family("nosuchfamily:3")
    with pytest.raises(ParameterOutOfRange):
        parse_family("toeplitz:1,2")


def test_families_over_finite_fields():
    T = build_family(parse_family("toeplitz:3"), GF(5))
    assert T.field == GF(5) and T.dim == 5


def test_toeplitz_rank_one_spanning_range():
    from translab.deciders import verify_rank_spanning
    from translab.families import toeplitz_rank_one_generators

    # any 2n - 1 distinct nonzero values give a rank-one spanning set
    for n in (2, 3, 4):
        gens = toeplitz_rank_one_generators(n)
        assert len(gens) == 2 * n - 1
        assert verify_rank_spanning(toeplitz_space(n), 1, gens)
    alt = toeplitz_rank_one_generators(3, points=[2, 3, -1, -2, 5])
    assert verify_rank_spanning(toeplitz_space(3), 1, alt)


def test_expected_properties_exported():
    from translab.families import expected_properties

    ep = expected_properties(parse_family("minimal:4,5,2"))
    assert ep["dim"] == 14 and ep["ambient"] == (4, 5)
    assert ep["transitive"] == 2 and ep["not_transitive"] == 3
    ep2 = expected_properties(parse_family("rowaug:toeplitz:3"))
    assert ep2 == {"ambient": (4, 3), "dim": 8, "separating": 3}


def test_every_family_name_matches_its_expectations():
    from translab.families import _FAMILIES, expected_properties

    cases = {
        "toeplitz": "toeplitz:3", "hankel": "hankel:3",
        "tracezero": "tracezero:3", "minimal": "minimal:3,4,1",
        "rankann": "rankann:3,4,1", "vdiag": "vdiag:4,2",
        "dualtransitive": "dualtransitive", "phiblock": "phiblock:4,1",
        "sltensor": "sltensor:2,2", "full": "full:2,3", "zero": "zero:2,3",
        "rowaug": "rowaug:minimal:3,4,1", "pattern": "pattern:3:0.1,2.2",
    }
    assert set(cases) == set(_FAMILIES) | {"rowaug", "pattern"}
    for text in cases.values():
        spec = parse_family(text)
        expect = expected_properties(spec)
        L = build_family(spec)
        assert (L.dim, (L.rows, L.cols)) == (expect["dim"], expect["ambient"]), text
    for call in (build_family, expected_properties):
        with pytest.raises(ParameterOutOfRange):
            call(FamilySpec("nosuchfamily"))
