"""The exhaustive finite-field deciders against the brute-force oracle of
perfbench, which shares no code with translab: check_k_transitive,
min_rank_ff_exhaustive and rank_extremes_ff on seeded random spaces up to
Mat(3, 4) over GF(3), GF(5) and GF(9)."""

import importlib.util
import random
from pathlib import Path

import pytest

from translab.deciders import (Status, check_k_transitive,
                               min_rank_ff_exhaustive, rank_extremes_ff)
from translab.fields import GF
from translab.matrices import Mat
from translab.subspace import MatrixSubspace


def _oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _oracle()

# the largest pre-annihilator dimension drawn per field, which bounds the
# oracle's enumeration to at most 364 points per space
_PERP_DIM = {3: 6, 5: 4, 9: 3}
_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]


def _space(F, oracle_field, rng, m, n, d):
    """A random d-dimensional space as oracle generators (codes 0..q-1) and
    as a translab subspace.  The oracle codes GF(9) as a + 3b for a + b w,
    translab as from_pair(a, b)."""
    q = oracle_field.q
    while True:
        gens = [[rng.randrange(q) for _ in range(m * n)] for _ in range(d)]
        if _ORACLE.rank(gens, oracle_field) == d:
            break
    conv = ([F.from_pair(x % 3, x // 3) for x in range(9)] if q == 9
            else [F.from_int(x) for x in range(q)])
    mats = [Mat(F, m, n, [conv[x] for x in g]) for g in gens]
    return gens, MatrixSubspace.from_generators(mats, rows=m, cols=n, field=F)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_finite_field_deciders_match_the_oracle(q):
    F, OF = GF(q), _ORACLE.SmallField(q)
    rng = random.Random(2300 + q)
    verdicts = []
    for m, n in _SHAPES:
        for e in [e for e in range(1, min(_PERP_DIM[q], m * n - 1) + 1)
                  for _ in range(3)]:
            gens, L = _space(F, OF, rng, m, n, m * n - e)
            perp = _ORACLE.preannihilator(gens, m, n, OF)
            lo, hi = _ORACLE.rank_profile(perp, n, m, OF)
            Lp = L.preannihilator()
            assert Lp.dim == len(perp) == e
            r, w = min_rank_ff_exhaustive(Lp)
            assert r == lo and w.matrix.rank() == lo and w.verify(Lp), \
                (q, m, n, e)
            if m == n:
                ex = rank_extremes_ff(Lp)
                assert (ex.min_nonzero_rank, ex.max_singular_rank) == \
                    (lo, hi), (q, m, n, e)
            for k in range(1, min(m, n) + 1):
                v = check_k_transitive(L, k)
                want = lo > k  # transitive iff every nonzero T has rank > k
                assert v.status == (Status.CERTIFIED_FINITE_FIELD if want
                                    else Status.DISPROVED), (q, m, n, e, k)
                if not want:
                    assert v.witness.verify(Lp)
                    assert v.witness.matrix.rank() <= k
                verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)
