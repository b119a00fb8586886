"""check_k_separating against the brute-force oracle of perfbench, which
shares no code with translab."""

import importlib.util
import random
from pathlib import Path

import pytest

from translab.deciders import Status, check_k_separating
from translab.errors import ShapeMismatch
from translab.families import random_subspace
from translab.fields import GF


def _oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_separation_matches_the_oracle_over_gf3(m, n):
    # two seeded random spaces of each dimension from 1 to m n - 1; both
    # answers must occur, or the comparison shows little
    oracle = _oracle()
    F = oracle.SmallField(3)
    f = GF(3)
    rng = random.Random(100 * m + n)
    seen = []
    for d in [d for d in range(1, m * n) for _ in range(2)]:
        L = random_subspace(rng, f, d, m, n, 1)
        gens = [[x.value for x in B.entries()] for B in L.basis]
        for k in range(2, min(n, 4) + 1):
            v = check_k_separating(L, k)
            want = oracle.is_separating(gens, m, n, k, F)
            assert v.status == (Status.CERTIFIED_FINITE_FIELD if want
                                else Status.DISPROVED), (m, n, d, k)
            seen.append(want)
    assert 0 < sum(seen) < len(seen)


def test_separation_over_gf9_is_refused():
    # the scan runs over GF(p) only; separation over GF(p^2) would turn
    # this refusal into a verdict
    L = random_subspace(random.Random(9), GF(9), 4, 3, 3, 1)
    with pytest.raises(ShapeMismatch, match="needs GF\\(p\\)"):
        check_k_separating(L, 2)
