"""Decider and root-finding paths that the rest of the suite never runs:
finite-field certification of a Q(i) space that skips primes, the
finite-field ambient's over-budget verdict, a numeric disproof after every
prime was skipped, and the root finders past degree 2."""

import hashlib
import random
from fractions import Fraction

from translab.deciders import Status, check_k_transitive
from translab.families import minimal_k_transitive, random_subspace
from translab.fields import GF, QI, QQ, GaussianRational
from translab.polynomials import field_roots, rational_roots
from translab.serialize import dumps, transitivity_verdict_to_obj


def _digest(v) -> str:
    return hashlib.sha256(
        dumps(transitivity_verdict_to_obj(v)).encode()).hexdigest()


def test_qi_certification_skips_the_primes_without_a_square_root_of_minus_one():
    # -1 is no square mod 7 or 11, so reduce_mod raises BadPrime there and
    # the fallback primes 11 and 13 join the plan
    L = random_subspace(random.Random(0), QI, 5, 3, 3, 1)
    v = check_k_transitive(L, 1, strategy="ff")
    assert v.status == Status.CERTIFIED_FINITE_FIELD
    assert v.primes == (5, 13)
    ff = v.evidence["ff"]
    for p in (7, 11):
        assert ff[str(p)] == {"skipped": f"BadPrime: -1 is not a square mod "
                                         f"{p}; reduce into GF({p}^2) instead"}
    assert ff["5"]["route"] == ff["13"]["route"] == "input-subspaces"
    assert _digest(v) == ("5592fc8a492222115b552b7fee7a2e26"
                          "24b5b2a10d1bdc34fe83f7301cf5c339")


def test_finite_field_ambient_over_budget_is_unknown():
    L = minimal_k_transitive(3, 3, 1, GF(5))
    v = check_k_transitive(L, 1, budget=10)
    assert v.status == Status.UNKNOWN
    assert v.witness is None and v.primes == ()
    assert v.evidence["steps"] == ["enumeration exceeds the budget"]
    assert _digest(v) == ("f7a623d99593908c1ff748e792720e5e"
                          "2b613da344112506795478411515baa9")


def test_numeric_disproof_after_every_prime_was_skipped():
    rng = random.Random(2)
    d = rng.randint(3, 6)
    L = random_subspace(rng, QQ, d, 3, 3, 2)
    v = check_k_transitive(L, 1, budget=10)
    assert v.status == Status.DISPROVED
    ff = v.evidence["ff"]
    assert ff["certified_primes"] == []
    assert ff["5"]["skipped"].startswith("BadPrime: ")
    assert (ff["7"]["skipped"] == ff["11"]["skipped"]
            == "both enumeration routes exceed the budget")
    assert v.evidence["steps"] == ["numeric witness search"]
    assert v.evidence["witness_field"] == "Q"
    assert v.witness.verify(L.preannihilator())
    assert v.witness.matrix.rank() == 1
    assert _digest(v) == ("d4c5286d68cb6f02f4dafe5004aab71e"
                          "ac546a7cf3bc786b41facb08b5c0bd35")


def test_rational_roots_strip_the_root_zero_and_find_none():
    F = Fraction
    assert rational_roots([F(0), F(0), F(1)]) == [F(0)]           # x^2
    assert rational_roots([F(0), F(-1), F(0), F(1)]) == [F(1), F(0), F(-1)]
    assert rational_roots([F(0), F(2), F(0), F(1)]) == [F(0)]     # x^3 + 2x
    assert rational_roots([F(1), F(0), F(1)]) == []               # x^2 + 1
    assert rational_roots([F(2), F(0), F(0), F(1)]) == []         # x^3 + 2


def test_field_roots_past_degree_two_over_q_and_qi():
    F = Fraction
    cubic = [F(-6), F(11), F(-6), F(1)]  # (x - 1)(x - 2)(x - 3)
    assert field_roots(cubic, QQ) == [F(1), F(2), F(3)]
    gauss = [GaussianRational(r, 0) for r in (1, 2, 3)]
    assert field_roots(cubic, QI) == gauss
    assert field_roots([GaussianRational(c, 0) for c in cubic], QI) == gauss
    # x^3 - 4x with mixed Fraction and real Gaussian coefficients
    mixed = [F(0), GaussianRational(-4, 0), F(0), GaussianRational(1, 0)]
    assert field_roots(mixed, QI) == [GaussianRational(r, 0)
                                      for r in (2, 0, -2)]
    # a non-real coefficient past degree 2 gets no roots
    assert field_roots([GaussianRational(0, 1), F(-4), F(0), F(1)], QI) == []
