"""The reproduction report: one machine-checkable row per headline claim.

Each row records a claim id, a short statement, the computed value, the
expected value, a pass flag, and the soundness label of whatever
certification backs it (exact, finite-field with its primes, observation).
Row order is fixed by the manifest, so identical invocations produce
byte-identical reports.
"""

from __future__ import annotations

import random
import time

from .deciders import (
    Status,
    check_k_separating,
    check_k_transitive,
    find_invertible,
    min_rank_ff_exhaustive,
    rank_extremes_ff,
    verify_rank_spanning,
)
from .families import (
    counterexample_certificate,
    dual_transitive_8dim,
    dual_transitive_perp_display,
    minimal_k_transitive,
    minimal_k_transitive_obstruction,
    pattern_space,
    phi_block_space,
    random_subspace,
    phi_eigen_structure,
    rank_annihilator_space,
    row_augmented_space,
    sl_tensor_full,
    toeplitz_rank_one_generators,
    toeplitz_space,
    trace_zero,
    trace_zero_rank_one_generators,
    vandermonde_diagonal_space,
)
from .fields import GF, QQ
from .matrices import Mat
from .serialize import REPORT_SCHEMA
from .subspace import MatrixSubspace

__all__ = ["build_report", "report_rows", "format_report_table", "REPORT_SCHEMA"]

EXACT = "exact"
FF57 = "finite field GF(5), GF(7)"
FF5 = "finite field GF(5)"
OBS = "observation (finite-field reading of a characteristic-zero statement)"


def _row(rid: str, claim: str, computed, expected, soundness: str) -> dict:
    return {
        "id": rid,
        "claim": claim,
        "computed": computed,
        "expected": expected,
        "ok": computed == expected,
        "soundness": soundness,
    }


class _TimedRows(list):
    """A row list that appends to ``seconds`` how long each row took: the
    time from the previous append, or from its creation, to its own."""

    def __init__(self, seconds: list):
        super().__init__()
        self.seconds = seconds
        self.last = time.perf_counter()

    def append(self, row):
        now = time.perf_counter()
        self.seconds.append(now - self.last)
        self.last = now
        super().append(row)


def report_rows(seconds: list | None = None) -> list:
    """The report's rows; with a ``seconds`` list, each row's seconds are
    appended to it, in row order."""
    from .families import build_family, expected_properties, parse_family

    rows = [] if seconds is None else _TimedRows(seconds)

    # constructor dimensions against each family's exported expectations
    manifest_dims = [
        "toeplitz:2", "toeplitz:5", "hankel:3", "tracezero:4",
        "minimal:3,3,1", "minimal:5,5,4", "rankann:4,4,2", "vdiag:5,2",
        "dualtransitive", "phiblock:4,1", "sltensor:3,2",
        "rowaug:toeplitz:3", "pattern:3:0.0,1.1,2.2",
    ]
    dim_checks = []
    for text in manifest_dims:
        spec = parse_family(text)
        expect = expected_properties(spec)
        space = build_family(spec)
        dim_checks.append(
            space.dim == expect["dim"]
            and (space.rows, space.cols) == tuple(expect["ambient"]))
    rows.append(_row(
        "family-dimension-manifest",
        "every family constructor matches its exported closed-form "
        "dimension and ambient shape",
        dim_checks, [True] * len(manifest_dims), EXACT))

    # minimal-dimension construction
    for (m, n) in [(3, 3), (4, 4), (4, 5), (5, 5)]:
        for k in range(1, min(m, n)):
            L = minimal_k_transitive(m, n, k)
            rows.append(_row(
                f"min-dim-{m}-{n}-{k}",
                f"the minimal k-transitive construction in Mat({m},{n}) at "
                f"k={k} has dimension k(m+n-k)",
                L.dim, k * (m + n - k), EXACT))
    L = minimal_k_transitive(3, 3, 1)
    v = check_k_transitive(L, 1)
    rows.append(_row(
        "min-trans-3-3-1",
        "the minimal construction at (3,3,1) certifies 1-transitive",
        [v.status.value, list(v.primes)],
        [Status.CERTIFIED_FINITE_FIELD.value, [5, 7]], FF57))
    v2 = check_k_transitive(L, 2)
    wit = minimal_k_transitive_obstruction(3, 3, 1)
    rows.append(_row(
        "min-not-2-trans-3-3-1",
        "the same space fails 2-transitivity with an exact rational witness",
        [v2.status.value,
         v2.witness is not None and v2.witness.matrix.rank() <= 2,
         L.preannihilator().contains(wit)],
        [Status.DISPROVED.value, True, True], EXACT))

    # Toeplitz family
    for n in range(2, 6):
        rows.append(_row(
            f"toeplitz-dim-{n}",
            f"Toeplitz matrices in Mat({n},{n}) form a space of dimension 2n-1",
            toeplitz_space(n).dim, 2 * n - 1, EXACT))
    v = check_k_transitive(toeplitz_space(2), 1)
    rows.append(_row(
        "toeplitz-trans-2",
        "Toeplitz 2x2 is transitive (exact pencil route)",
        v.status.value, Status.CERTIFIED_EXACT.value, EXACT))
    for n in (3, 4, 5):
        v = check_k_transitive(toeplitz_space(n), 1)
        rows.append(_row(
            f"toeplitz-trans-{n}",
            f"Toeplitz {n}x{n} is transitive",
            [v.status.value, list(v.primes)],
            [Status.CERTIFIED_FINITE_FIELD.value, [5, 7]], FF57))
    for n in (2, 3, 4):
        rows.append(_row(
            f"toeplitz-power-index-{n}",
            f"products of two Toeplitz {n}x{n} matrices span everything",
            toeplitz_space(n).power_span_index(), 2, EXACT))
    for n in (3, 4):
        s2 = check_k_separating(toeplitz_space(n), 2, primes=(5,))
        s3 = check_k_separating(toeplitz_space(n), 3)
        tuple_cols = None
        if s3.witness_columns is not None:
            X = s3.witness_columns
            tuple_cols = [[str(X[i, j]) for i in range(X.rows)]
                          for j in range(X.cols)]
        expected_cols = [
            ["1" if i == 0 else "0" for i in range(n)],
            ["1" if i == n - 1 else "0" for i in range(n)],
            ["1" if i == 1 else "0" for i in range(n)],
        ]
        rows.append(_row(
            f"toeplitz-sep-{n}",
            f"Toeplitz {n}x{n} is 2-separating but not 3-separating, with "
            "the first/last-column witness tuple",
            [s2.status.value, s3.status.value, tuple_cols],
            [Status.CERTIFIED_FINITE_FIELD.value, Status.DISPROVED.value,
             expected_cols],
            "2-separation over GF(5); the disproof tuple is exact over Q"))
    rows.append(_row(
        "toeplitz-rank-one-spanned",
        "Toeplitz 3x3 is spanned by the rank-one geometric-sequence matrices",
        verify_rank_spanning(toeplitz_space(3), 1,
                             toeplitz_rank_one_generators(3)),
        True, EXACT))
    P = Mat.diag(QQ, [1, 1, 1, 0, 0])
    comp = toeplitz_space(5).compress(P, P)
    rows.append(_row(
        "toeplitz-corner-compression",
        "compressing Toeplitz 5x5 to the leading 3x3 corner yields the "
        "Toeplitz 3x3 space of dimension 2n-1",
        [comp.dim, comp == toeplitz_space(3)], [5, True], EXACT))

    # trace zero
    v = check_k_transitive(trace_zero(3), 2)
    rows.append(_row(
        "trace-zero-trans",
        "trace-zero 3x3 matrices are 2-transitive (singleton pencil route)",
        v.status.value, Status.CERTIFIED_EXACT.value, EXACT))
    rows.append(_row(
        "trace-zero-rank-one-spanned",
        "trace-zero 3x3 is spanned by rank ones",
        verify_rank_spanning(trace_zero(3), 1,
                             trace_zero_rank_one_generators(3)),
        True, EXACT))

    # rank annihilator family
    L = rank_annihilator_space(3, 3, 1)
    v1 = check_k_transitive(L, 1)
    v2 = check_k_transitive(L, 2)
    rows.append(_row(
        "rank-annihilator-3-3-1",
        "the annihilator of one rank-2 matrix is transitive but not "
        "2-transitive (the matrix itself is the obstruction)",
        [v1.status.value, v2.status.value,
         v2.witness is not None and v2.witness.matrix.rank() == 2],
        [Status.CERTIFIED_EXACT.value, Status.DISPROVED.value, True], EXACT))

    # dually transitive space
    D, phi = dual_transitive_8dim()
    Dp = D.preannihilator()
    vk = check_k_transitive(D, 1)
    vp = check_k_transitive(Dp, 1)
    rows.append(_row(
        "dual-transitive-both",
        "the 8-dimensional block space and its pre-annihilator are both "
        "transitive",
        [D.dim, Dp.dim, Dp == dual_transitive_perp_display(),
         vk.status.value, list(vk.primes), vp.status.value, list(vp.primes)],
        [8, 8, True, Status.CERTIFIED_FINITE_FIELD.value, [5, 7],
         Status.CERTIFIED_FINITE_FIELD.value, [5, 7]], FF57))
    es = phi_eigen_structure(phi)
    rows.append(_row(
        "dual-transitive-phi-eigen",
        "the block map has 4 distinct eigenvalues and every eigenvector "
        "has rank 2 (exact characteristic-polynomial factorization)",
        [es["distinct_eigenvalues"], sum(es["factor_degrees"]),
         all(r == 2 for (_d, r) in es["eigenvector_ranks"])],
        [True, 4, True], EXACT))

    # products of the dually transitive space
    D2 = D.product_span(D)
    acc = D.sum(D2)
    rows.append(_row(
        "product-diag-dim",
        "the diagonal expectation of span{L, L^2} for the dually transitive "
        "space is only three dimensional",
        acc.diagonal_expectation().dim, 3, EXACT))
    rows.append(_row(
        "product-square-not-full",
        "span{L, L^2} is a proper subspace of Mat(4,4)",
        acc.is_full(), False, EXACT))
    rows.append(_row(
        "product-power-index",
        "three products are needed: span{L, L^2, L^3} = Mat(4,4)",
        D.power_span_index(), 3, EXACT))

    # product of transitive spaces gains transitivity; the dually
    # transitive space keeps its product proper (codimension one), and the
    # singleton annihilator earns the stronger exact certification
    vprod = check_k_transitive(D2, 2, primes=(5,))
    rows.append(_row(
        "product-gains-transitivity",
        "the product of two transitive subspaces of Mat(4,4) is 2-transitive",
        [D2.is_full(), vprod.certified],
        [False, True],
        "exact (singleton annihilator pencil); subsumes the GF(5) reading"))

    # tensor counterexample
    cert = counterexample_certificate()
    rows.append(_row(
        "tensor-counterexample",
        "a rank-one obstruction lies in the annihilator of each tensor "
        "square of the dually transitive space, so neither tensor square "
        "is transitive",
        [cert.equations_ok, cert.decomposition_ok, cert.dual_pairing_ok,
         cert.verdict_tensor_dual.status.value,
         cert.verdict_tensor_main.status.value],
        [True, True, True, Status.DISPROVED.value, Status.DISPROVED.value],
        EXACT))

    # dual tensor identity on random pairs
    rng = random.Random(20240817)
    ok_ff = 0
    for _ in range(10):
        Lr = random_subspace(rng, GF(5), 2, 2, 2, 4)
        Mr = random_subspace(rng, GF(5), 2, 3, 3, 4)
        if _dual_tensor_identity_holds(Lr, Mr):
            ok_ff += 1
    ok_q = 0
    for _ in range(3):
        Lr = random_subspace(rng, QQ, 2, 2, 2, 4)
        Mr = random_subspace(rng, QQ, 2, 3, 3, 4)
        if _dual_tensor_identity_holds(Lr, Mr):
            ok_q += 1
    rows.append(_row(
        "dual-tensor-identity",
        "the annihilator of a tensor product is the sum of the two one-sided "
        "tensor annihilators (random samples over GF(5) and Q)",
        [ok_ff, ok_q], [10, 3], EXACT))

    # sl tensor full
    S = sl_tensor_full(2, 2)
    Sp = S.preannihilator()
    r, _w = min_rank_ff_exhaustive(Sp.reduce_mod(5))
    rows.append(_row(
        "sl-tensor-2-2",
        "trace-zero (x) full in Mat(4,4): the annihilator has minimum rank 2"
        " over GF(5)",
        [S.dim, Sp.dim, r], [12, 4, 2], FF5))
    v = check_k_transitive(sl_tensor_full(3, 2), 2, primes=(5,))
    rows.append(_row(
        "sl-tensor-3-2",
        "trace-zero (x) full in Mat(6,6) is 2-transitive",
        [v.status.value, list(v.primes)],
        [Status.CERTIFIED_FINITE_FIELD.value, [5]], FF5))

    # phi block construction
    PB = phi_block_space(4, 1)
    vb = check_k_transitive(PB, 1, primes=(5,))
    vbp = check_k_transitive(PB.preannihilator(), 1, primes=(5,))
    rows.append(_row(
        "phi-block-4-1",
        "the block construction in Mat(8,8) and its pre-annihilator are "
        "both transitive",
        [PB.dim, vb.status.value, vbp.status.value],
        [32, Status.CERTIFIED_FINITE_FIELD.value,
         Status.CERTIFIED_FINITE_FIELD.value], FF5))

    # vandermonde diagonal space
    V = vandermonde_diagonal_space(5, 2)
    rff, _ = min_rank_ff_exhaustive(V.reduce_mod(7))
    rows.append(_row(
        "vandermonde-5-2",
        "the degree-truncated diagonal space has no nonzero element of rank "
        "at most 2 (exhaustive over GF(7))",
        [V.dim, rff], [3, 3], "finite field GF(7)"))

    # row augmented
    RA = row_augmented_space(MatrixSubspace.zero_space(QQ, 3, 3))
    sra = check_k_separating(RA, 3, primes=(5,))
    vra = check_k_transitive(RA, 1)
    rows.append(_row(
        "row-augmented-separating",
        "a free first row over the zero space is 3-separating yet not "
        "transitive",
        [sra.status.value, vra.status.value],
        [Status.CERTIFIED_FINITE_FIELD.value, Status.DISPROVED.value],
        "separation over GF(5); the transitivity disproof is exact"))

    # invertibles in transitive spaces
    inv_found = []
    for label, space in [
        ("toeplitz:3", toeplitz_space(3)),
        ("toeplitz:4", toeplitz_space(4)),
        ("tracezero:3", trace_zero(3)),
        ("minimal:3,3,1", minimal_k_transitive(3, 3, 1)),
        ("minimal:4,4,1", minimal_k_transitive(4, 4, 1)),
        ("dualtransitive", D),
        ("phiblock:4,1", PB),
        ("sltensor:2,2", S),
    ]:
        inv_found.append(find_invertible(space, attempts=200, seed=0)
                         is not None)
    rows.append(_row(
        "transitive-invertibles",
        "every transitive manifest instance contains an invertible element "
        "(200 seeded attempts)",
        inv_found, [True] * len(inv_found), EXACT))

    # min/max rank observation
    obs = []
    for label, space in [
        ("tracezero:2", trace_zero(2).reduce_mod(5)),
        ("toeplitz:3", toeplitz_space(3).reduce_mod(5)),
        ("minimal:3,3,1", minimal_k_transitive(3, 3, 1).reduce_mod(5)),
    ]:
        ex = rank_extremes_ff(space)
        n = space.rows
        s = ex.max_singular_rank
        obs.append(s is None or ex.min_nonzero_rank + s >= n)
    rows.append(_row(
        "rank-extremes-observation",
        "minimum nonzero rank plus maximum singular rank reaches the matrix "
        "size on the sampled transitive spaces over GF(5) (reported as an "
        "observation only)",
        obs, [True] * len(obs), OBS))

    # pattern spaces against the diagonal-module dichotomy
    agree = 0
    for mask in range(16):
        positions = [(i, j) for t, (i, j) in enumerate(
            [(i, j) for i in range(2) for j in range(2)]) if mask >> t & 1]
        P2 = pattern_space(2, positions, GF(5))
        is_trans = P2.dim > 0 and check_k_transitive(P2, 1).certified
        agree += int(is_trans == (len(positions) == 4))
    rows.append(_row(
        "pattern-dichotomy",
        "a diagonal-module pattern space is transitive exactly when it is "
        "the full matrix space (all 16 patterns of Mat(2,2))",
        agree, 16, FF5))

    return list(rows)


def _dual_tensor_identity_holds(L: MatrixSubspace, M: MatrixSubspace) -> bool:
    lhs = L.tensor(M).preannihilator()
    full_nm = MatrixSubspace.full_space(L.field, M.cols, M.rows)
    full_pl = MatrixSubspace.full_space(L.field, L.cols, L.rows)
    rhs = L.preannihilator().tensor(full_nm).sum(
        full_pl.tensor(M.preannihilator()))
    return lhs == rhs


def build_report(seconds: list | None = None) -> dict:
    """The report; ``seconds``, when given, receives each row's seconds
    (see report_rows) and leaves the report itself unchanged."""
    rows = report_rows(seconds)
    return {
        "schema": REPORT_SCHEMA,
        "rows": rows,
        "all_ok": all(r["ok"] for r in rows),
        "total": len(rows),
        "failures": [r["id"] for r in rows if not r["ok"]],
    }


def format_report_table(report: dict, seconds: list | None = None,
                        cpu_s: float | None = None) -> str:
    """One line per row; with ``seconds`` from build_report, each line
    starts with the row's seconds and the summary line gives their sum,
    followed by ``cpu_s``, the process CPU seconds of the build, when
    given.  CPU above the wall seconds is time other threads spent."""
    lines = []
    width = max(len(r["id"]) for r in report["rows"]) + 2
    for i, r in enumerate(report["rows"]):
        flag = "ok  " if r["ok"] else "FAIL"
        timed = "" if seconds is None else f"{seconds[i]:8.3f}s  "
        lines.append(f"{timed}{flag}  {r['id']:<{width}} {r['soundness']}")
    total = "" if seconds is None else f" in {sum(seconds):.3f}s"
    if seconds is not None and cpu_s is not None:
        total += f" ({cpu_s:.3f}s CPU)"
    lines.append(
        f"{report['total']} rows{total}, "
        f"{'all passing' if report['all_ok'] else 'FAILURES: ' + ', '.join(report['failures'])}")
    return "\n".join(lines)
