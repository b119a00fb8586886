"""JSON interchange: bit-exact round trips and canonical loading."""

import json
from fractions import Fraction

import pytest

from translab.deciders import check_k_separating, check_k_transitive
from translab.errors import ShapeMismatch
from translab.families import dual_transitive_8dim, toeplitz_space
from translab.fields import GF, QI, QQ, GaussianRational
from translab.matrices import Mat
from translab.serialize import (
    dumps,
    mat_from_obj,
    mat_to_obj,
    separation_verdict_to_obj,
    subspace_from_obj,
    subspace_to_obj,
    transitivity_verdict_to_obj,
)
from translab.subspace import MatrixSubspace


def test_matrix_roundtrip_all_fields():
    samples = [
        Mat.from_rows(QQ, [[Fraction(1, 2), -3], [0, Fraction(7, 3)]]),
        Mat(QI, 1, 3, [GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
                       GaussianRational(0, 1), QI.zero()]),
        Mat.from_rows(GF(7), [[5, 6], [0, 1]]),
        Mat(GF(9), 1, 2, [GF(9).from_pair(1, 2), GF(9).from_pair(0, 0)]),
    ]
    for A in samples:
        obj = mat_to_obj(A)
        back = mat_from_obj(json.loads(dumps(obj)))
        assert back == A
        assert dumps(mat_to_obj(back)) == dumps(obj)


def test_subspace_roundtrip_bit_exact():
    for L in (toeplitz_space(3), dual_transitive_8dim()[0].preannihilator(),
              toeplitz_space(3).reduce_mod(5)):
        text = dumps(subspace_to_obj(L))
        back = subspace_from_obj(json.loads(text))
        assert back == L
        assert dumps(subspace_to_obj(back)) == text


def test_loader_canonicalizes_and_strict_rejects():
    I2 = Mat.identity(QQ, 2)
    obj = {
        "rows": 2, "cols": 2, "field": "Q",
        "basis": [["1", "0", "0", "1"], ["2", "0", "0", "2"]],
    }
    L = subspace_from_obj(obj)
    assert L.dim == 1 and L.contains(I2)
    with pytest.raises(ShapeMismatch):
        subspace_from_obj(obj, strict=True)


def test_loader_reports_bad_entries():
    obj = {"rows": 1, "cols": 2, "field": "Q", "basis": [["1", "x"]]}
    with pytest.raises(ShapeMismatch) as e:
        subspace_from_obj(obj)
    assert "entry 1" in str(e.value)
    with pytest.raises(ShapeMismatch):
        subspace_from_obj({"rows": 1, "cols": 2, "field": "Q",
                           "basis": [["1"]]})


def test_verdict_serialization_includes_soundness():
    v = check_k_transitive(toeplitz_space(3), 2)
    obj = transitivity_verdict_to_obj(v)
    assert obj["status"] == "disproved"
    assert obj["witness"]["rank_bound"] == 2
    assert "soundness" in obj and obj["kind"] == "transitivity-verdict"
    text = dumps(obj)
    assert json.loads(text) == obj

    s = check_k_separating(toeplitz_space(3), 3)
    sobj = separation_verdict_to_obj(s)
    assert sobj["status"] == "disproved"
    assert sobj["witness_columns"]["rows"] == 3
    assert sobj["soundness"] == s.soundness
    assert s.soundness == "exact witness over Q; valid over every extension"
    c = check_k_separating(toeplitz_space(3), 2, primes=(5,))
    assert separation_verdict_to_obj(c)["soundness"] == (
        "exhaustively certified over GF(5) only; "
        "does not transfer to characteristic zero")
