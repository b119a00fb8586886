"""The exact re-verifiers reject wrong witnesses, and the deciders refuse
to report what their re-verifier rejects."""

import pytest

from translab import deciders
from translab.deciders import (PencilResult, RankWitness, Status,
                               check_k_separating, check_k_transitive,
                               pencil_min_rank_exact,
                               _verify_separation_violation)
from translab.errors import VerificationFailed
from translab.families import toeplitz_space
from translab.fields import GF, QQ
from translab.matrices import Mat
from translab.serialize import dumps, transitivity_verdict_to_obj
from translab.subspace import MatrixSubspace


def _diagonal():
    """span{E00, E11} in Mat(2, 2) over Q: members of rank 1 and 2."""
    return MatrixSubspace.from_generators(
        [Mat.unit(QQ, 2, 2, 0, 0), Mat.unit(QQ, 2, 2, 1, 1)])


def _witness(T, bound):
    return RankWitness((QQ.one(),), T, bound)


def test_rank_witness_accepts_a_good_witness():
    assert _witness(Mat.unit(QQ, 2, 2, 0, 0), 1).verify(_diagonal())


@pytest.mark.parametrize("T,bound", [
    (Mat.zeros(QQ, 2, 2), 2),                      # zero
    (Mat.identity(QQ, 2), 1),                      # a member of rank 2
    (Mat.unit(QQ, 2, 3, 0, 0), 1),                 # wrong shape
    (Mat.unit(GF(5), 2, 2, 0, 0), 1),              # wrong field
    (Mat.unit(QQ, 2, 2, 0, 1), 1),                 # rank 1, not a member
], ids=["zero", "rank-above-bound", "shape", "field", "non-member"])
def test_rank_witness_rejects_a_bad_witness(T, bound):
    assert _witness(T, bound).verify(_diagonal()) is False


def test_separation_violation_rejects_a_rank_deficient_tuple():
    # every element of L that kills e_1 kills the last column e_1 again,
    # so only the full-column-rank check rejects this X
    L = toeplitz_space(3)
    X = Mat.from_rows(QQ, [[1, 1], [0, 0], [0, 0]])
    assert _verify_separation_violation(L, X) is False


def test_separation_violation_rejects_a_killed_final_column():
    # Mat(3, 3) is 2-separating: E_12 kills e_1 but not e_2
    L = MatrixSubspace.full_space(QQ, 3, 3)
    X = Mat.from_rows(QQ, [[1, 0], [0, 1], [0, 0]])
    assert _verify_separation_violation(L, X) is False
    # and a true violation of Toeplitz(3) at k = 3 is accepted
    v = check_k_separating(toeplitz_space(3), 3)
    assert _verify_separation_violation(toeplitz_space(3), v.witness_columns)


def test_transitivity_disproof_raises_when_its_witness_is_rejected(
        monkeypatch):
    monkeypatch.setattr(RankWitness, "verify", lambda self, space: False)
    with pytest.raises(VerificationFailed, match="rank witness"):
        check_k_transitive(toeplitz_space(3).reduce_mod(5), 2)


def test_separation_disproof_raises_when_its_violation_is_rejected(
        monkeypatch):
    monkeypatch.setattr(deciders, "_verify_separation_violation",
                        lambda L, X: False)
    with pytest.raises(VerificationFailed, match="separation violation"):
        check_k_separating(toeplitz_space(3).reduce_mod(5), 3)
    # over Q a violation mod p disproves only through a verified lift
    v = check_k_separating(toeplitz_space(3), 3)
    assert v.status == Status.UNKNOWN and v.witness_columns is None
    assert all(info["lifted"] is False for key, info in
               v.evidence["ff"].items() if key != "certified_primes")


# the pencil route's honest unknown: the gcd t^2 - 1/2 of the 2-minors has
# no rational root, and no Gaussian one either
_PENCIL_UNKNOWN = """{
  "evidence": {
    "budget": 100000000,
    "dim": 2,
    "dim_perp": 2,
    "pencil_gcd": {
      "gcd_coefficients_low_to_high": [
        "-1/2",
        "0",
        "1"
      ],
      "infinity_multiplicity": 0
    },
    "seed": 0,
    "steps": [
      "pencil route (dim <= 2)",
      "a low-rank element exists over the algebraic closure but has no \
root in the base field; no witness to report"
    ],
    "strategy": "auto"
  },
  "k": 1,
  "kind": "transitivity-verdict",
  "primes": [],
  "soundness": "no sound conclusion reached within the budget",
  "status": "unknown",
  "witness": null
}
"""


def test_pencil_without_a_root_in_the_field_is_unknown():
    V = MatrixSubspace.from_generators(
        [Mat.identity(QQ, 2), Mat.from_rows(QQ, [[0, 2], [1, 0]])])
    v = check_k_transitive(V.preannihilator(), 1)
    assert v.status == Status.UNKNOWN and v.witness is None
    assert v.evidence["pencil_gcd"] == {
        "gcd_coefficients_low_to_high": ["-1/2", "0", "1"],
        "infinity_multiplicity": 0}
    assert dumps(transitivity_verdict_to_obj(v)) == _PENCIL_UNKNOWN


def _first_row_units():
    """span{E00, E01} in Mat(3, 3) over Q: every element has rank <= 1."""
    return MatrixSubspace.from_generators(
        [Mat.unit(QQ, 3, 3, 0, 0), Mat.unit(QQ, 3, 3, 0, 1)])


def test_pencil_branches_before_the_minors():
    S = _first_row_units()
    # dimension 0: nothing to find
    assert (pencil_min_rank_exact(MatrixSubspace.zero_space(QQ, 3, 3), 1)
            == PencilResult(False, None, None, None))
    # k >= min(m, n): the first basis matrix, with rank bound k
    assert pencil_min_rank_exact(S, 3) == PencilResult(
        True, RankWitness((QQ.one(), QQ.zero()), S.basis[0], 3), "Q", None)
    # dimension 1: the basis matrix when its rank is at most k
    E = MatrixSubspace.from_generators([Mat.unit(QQ, 3, 3, 0, 0)])
    assert pencil_min_rank_exact(E, 1) == PencilResult(
        True, RankWitness((QQ.one(),), E.basis[0], 1), "Q", None)
    I3 = MatrixSubspace.from_generators([Mat.identity(QQ, 3)])
    assert (pencil_min_rank_exact(I3, 2)
            == PencilResult(False, None, None, None))


@pytest.mark.parametrize("space,k", [
    (_first_row_units(), 3),                                   # k >= min
    (MatrixSubspace.from_generators([Mat.unit(QQ, 3, 3, 0, 0)]), 1),  # dim 1
    (_first_row_units(), 1),                           # all minors vanish
], ids=["k-at-least-min", "dim-1", "all-minors-vanish"])
def test_pencil_witnesses_are_reverified(monkeypatch, space, k):
    monkeypatch.setattr(RankWitness, "verify", lambda self, space: False)
    with pytest.raises(VerificationFailed, match="rank witness"):
        pencil_min_rank_exact(space, k)


# every 2-minor of c0 E00 + c1 E01 vanishes identically, so the pencil
# route reports E00 with no gcd certificate
_PENCIL_ALL_MINORS_VANISH = """{
  "evidence": {
    "budget": 100000000,
    "dim": 7,
    "dim_perp": 2,
    "seed": 0,
    "steps": [
      "pencil route (dim <= 2)"
    ],
    "strategy": "auto",
    "witness_field": "Q"
  },
  "k": 1,
  "kind": "transitivity-verdict",
  "primes": [],
  "soundness": "exact witness over Q; valid over every extension",
  "status": "disproved",
  "witness": {
    "coefficients": [
      "1",
      "0"
    ],
    "matrix": {
      "cols": 3,
      "entries": [
        "1",
        "0",
        "0",
        "0",
        "0",
        "0",
        "0",
        "0",
        "0"
      ],
      "field": "Q",
      "rows": 3
    },
    "rank_bound": 1
  }
}
"""


def test_pencil_with_vanishing_minors_disproves_with_the_first_basis_matrix():
    S = _first_row_units()
    v = check_k_transitive(S.preannihilator(), 1)
    assert v.status == Status.DISPROVED
    assert v.witness.matrix == Mat.unit(QQ, 3, 3, 0, 0)
    assert v.evidence["steps"] == ["pencil route (dim <= 2)"]
    assert "pencil_gcd" not in v.evidence
    assert dumps(transitivity_verdict_to_obj(v)) == _PENCIL_ALL_MINORS_VANISH
