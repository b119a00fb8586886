"""The pre-annihilator's back-pointer: (X^perp)^perp is X itself, and the
spaces it hands out equal, and decide like, the ones elimination builds."""

import random
from fractions import Fraction

from translab.deciders import check_k_transitive
from translab.families import minimal_k_transitive
from translab.fields import GF, QI, QQ, GaussianRational
from translab.matrices import Mat
from translab.serialize import dumps, subspace_to_obj, transitivity_verdict_to_obj
from translab.subspace import MatrixSubspace

from test_subspace import preannihilator_reference


def _without_pointer(S):
    """S rebuilt through the internal constructor, with no back-pointer."""
    return MatrixSubspace(S.field, S.rows, S.cols, S.basis, S._pivots)


def _entry(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 5]))
    if field == QI:
        return GaussianRational(Fraction(rng.randint(-2, 2), rng.choice([1, 3])),
                                Fraction(rng.randint(-2, 2)))
    return rng.choice(list(field.elements()))


def _seeded_spaces(rng, field):
    """Zero, full and spanned subspaces of Mat(m, n), m <= 3, n <= 4."""
    for m in range(1, 4):
        for n in range(1, 5):
            yield MatrixSubspace.zero_space(field, m, n)
            yield MatrixSubspace.full_space(field, m, n)
            for _ in range(2):
                gens = [Mat(field, m, n, [_entry(rng, field)
                                          for _ in range(m * n)])
                        for _ in range(rng.randint(1, m * n))]
                yield MatrixSubspace.from_generators(
                    gens, rows=m, cols=n, field=field)


def test_preannihilator_of_preannihilator_is_the_space():
    rng = random.Random(19)
    for field in (QQ, QI, GF(5), GF(9)):
        for X in _seeded_spaces(rng, field):
            S = X.preannihilator()
            assert S.preannihilator() is X
            assert S._dual is X and X._dual is None
            # the elimination, without the pointer, rebuilds X exactly
            R = _without_pointer(S).preannihilator()
            assert R is not X
            assert R == X and R.basis == X.basis
            assert R._pivots == X._pivots
            assert (dumps(subspace_to_obj(R))
                    == dumps(subspace_to_obj(X)))
            want = preannihilator_reference(_without_pointer(S))
            assert want == X and want._pivots == X._pivots


def test_minimal_grid_decides_alike_without_pointer():
    # the certify-scan grid up to Mat(4, 4): deciding the pre-annihilator
    # built space and its pointer-free copy gives the same bytes
    for m in range(2, 5):
        for n in range(2, 5):
            for k in range(1, min(m, n)):
                L = minimal_k_transitive(m, n, k)
                assert L._dual is not None
                C = _without_pointer(L)
                for at in (k, k + 1):
                    a = check_k_transitive(L, at)
                    b = check_k_transitive(C, at)
                    assert a.status == b.status, (m, n, k, at)
                    assert a.witness == b.witness, (m, n, k, at)
                    assert (dumps(transitivity_verdict_to_obj(a))
                            == dumps(transitivity_verdict_to_obj(b))), (
                        m, n, k, at)
