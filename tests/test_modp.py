"""The numpy mod-p lane, cross-checked against the exact kernel."""

import math
import random

import numpy as np
import pytest

from translab.fields import GF
from translab.matrices import Mat
from translab.modp import (
    batched_rank_mod_p,
    gaussian_binomial,
    inverse_table,
    iter_projective_blocks,
    iter_rref_blocks,
    min_rank_scan,
    projective_count,
    separation_scan,
    surjectivity_scan,
)
from translab.subspace import MatrixSubspace


# _TILE_CELLS budgets that a scan's answer must not depend on, for
# points of `cells` product cells: one point per tile, a few points per
# tile, the default and unbounded
def _tile_budgets(cells):
    from translab import modp

    return (1, 8 * cells, modp._TILE_CELLS, 1 << 62)


def test_inverse_table():
    for p in (2, 3, 5, 7, 11):
        inv = inverse_table(p)
        for k in range(1, p):
            assert (k * int(inv[k])) % p == 1
        # one shared table per prime, which no caller may write into
        assert inverse_table(p) is inv
        assert not inv.flags.writeable
        with pytest.raises(ValueError):
            inv[1] = 0


def _exact_rank(f, mat):
    R, C = mat.shape
    return Mat(f, R, C, [f.from_int(int(x)) for x in mat.ravel()]).rank()


def _batch_with_rank_profile(rng, p, R, C):
    """Two R x C matrices over GF(p) per rank bound r = 0..min(R, C):
    products of random R x r and r x C factors, so rank-deficient
    matrices occur at every p, plus two uniformly random matrices."""
    mats = []
    for r in range(min(R, C) + 1):
        for _ in range(2):
            X = np.array([[rng.randrange(p) for _ in range(r)]
                          for _ in range(R)], dtype=np.int64).reshape(R, r)
            Y = np.array([[rng.randrange(p) for _ in range(C)]
                          for _ in range(r)], dtype=np.int64).reshape(r, C)
            mats.append((X @ Y) % p)
    for _ in range(2):
        mats.append(np.array([[rng.randrange(p) for _ in range(C)]
                              for _ in range(R)], dtype=np.int64)
                    .reshape(R, C))
    return np.stack(mats)


def test_batched_rank_matches_exact():
    rng = random.Random(0)
    # at 128 rows the kernel's row weights 1..R outgrow a signed byte
    shapes = [(32, 8), (16, 10), (6, 4), (1, 7), (7, 1), (4, 4), (3, 5),
              (127, 3), (128, 3), (129, 2)]
    # 43 is the largest fallback prime; 8191 needs a dtype wider than
    # int16, and at 40 columns wider than int32
    for p in (2, 3, 5, 7, 43, 8191):
        f = GF(p)
        for R, C in shapes + ([(3, 40)] if p == 8191 else []):
            arr = _batch_with_rank_profile(rng, p, R, C)
            want = [_exact_rank(f, M) for M in arr]
            ranks = batched_rank_mod_p(arr, p)
            assert ranks.tolist() == want
            # the same matrices unreduced, at the top of the exact range of
            # a float32 and of a float64 product, the largest entries a
            # product can hand the kernel before _mod_matmul moves to int64
            for top, dt in [(1 << 24, np.float32), (1 << 53, np.float64),
                            (1 << 53, np.int64)]:
                lifted = arr + (top - 1 - arr) // p * p
                assert lifted.max() < top and (lifted % p == arr).all()
                ranks = batched_rank_mod_p(lifted.astype(dt), p)
                assert ranks.tolist() == want
        # degenerate batches: no matrices, no rows, no columns
        for shape in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)]:
            arr = np.zeros(shape, dtype=np.int64)
            ranks = batched_rank_mod_p(arr, p)
            assert ranks.tolist() == [_exact_rank(f, M) for M in arr]


def test_mod_matmul_is_exact_beyond_float64():
    # at inner dimension 2 and p near 1e8 the entries of the product pass
    # 2^53, where float64 rounds; past 2^63 no dtype holds them
    from translab import modp

    p = 99_999_989
    rng = random.Random(7)
    a = [[rng.randrange(p) for _ in range(2)] for _ in range(50)]
    b = [[rng.randrange(p) for _ in range(50)] for _ in range(2)]
    got = modp._mod_matmul(np.array(a), np.array(b), p) % p
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]
    assert got.tolist() == want
    with pytest.raises(ValueError):
        modp._mod_matmul(np.ones((1, 2), dtype=np.int64),
                         np.ones((2, 1), dtype=np.int64), 1 << 32)


def test_projective_enumeration_order_and_count():
    # raw lexicographic ascending over normalized representatives
    blocks = list(iter_projective_blocks(3, 3, chunk=4))
    arr = np.concatenate(blocks, axis=0)
    assert len(arr) == projective_count(3, 3) == 13
    assert arr[0].tolist() == [0, 0, 1]
    assert arr[1].tolist() == [0, 1, 0]
    assert arr[2].tolist() == [0, 1, 1]
    assert arr[-1].tolist() == [1, 2, 2]
    as_tuples = [tuple(v) for v in arr.tolist()]
    assert as_tuples == sorted(as_tuples)
    # first nonzero coordinate is always one
    for v in as_tuples:
        lead = next(x for x in v if x)
        assert lead == 1


def test_rref_representative_count():
    for (n, k, q) in [(3, 1, 3), (3, 2, 3), (4, 2, 5), (4, 1, 7)]:
        total = sum(b.shape[0] for b in iter_rref_blocks(n, k, q, chunk=64))
        assert total == gaussian_binomial(n, k, q)


def test_rref_representatives_are_canonical():
    f = GF(3)
    seen = set()
    for block in iter_rref_blocks(4, 2, 3, chunk=16):
        for rep in block:
            M = Mat.from_rows(f, [[int(x) for x in row] for row in rep])
            R, piv = M.rref()
            assert R == M and len(piv) == 2
            seen.add(M.entries())
    assert len(seen) == gaussian_binomial(4, 2, 3)


def test_min_rank_scan_matches_bruteforce(monkeypatch):
    from translab import modp

    rng = random.Random(1)
    p = 3
    f = GF(p)
    for _ in range(10):
        D = rng.randint(1, 3)
        basis = np.array(
            [[[rng.randrange(p) for _ in range(3)] for _ in range(3)]
             for _ in range(D)], dtype=np.int64)
        L = MatrixSubspace.from_generators(
            [Mat.from_rows(f, b.tolist()) for b in basis],
            rows=3, cols=3, field=f)
        if L.dim != D:
            continue
        best, coeffs, pts = min_rank_scan(basis, p)
        first = min_rank_scan(basis, p, threshold=best)
        for cells in _tile_budgets(9):
            monkeypatch.setattr(modp, "_TILE_CELLS", cells)
            got = min_rank_scan(basis, p)
            hit = min_rank_scan(basis, p, threshold=best)
            monkeypatch.undo()
            assert got[0] == best and got[2] == pts
            assert np.array_equal(got[1], coeffs)
            assert hit[0] == first[0] and hit[2] == first[2]
            assert np.array_equal(hit[1], first[1])
        # brute force over every nonzero combination
        expect = min(
            L.element(c).rank()
            for c in _all_nonzero_coeffs(f, D)
        )
        assert best == expect
        # the scan's coefficients are taken over the raw basis it was given
        raw = [Mat.from_rows(f, b.tolist()) for b in basis]
        wit = Mat.zeros(f, 3, 3)
        for c, B in zip(coeffs, raw):
            wit = wit + B.scale(f.from_int(int(c)))
        assert wit.rank() == best and not wit.is_zero()
        assert pts == projective_count(D, p)


def _all_nonzero_coeffs(f, d):
    import itertools

    for tup in itertools.product(f.elements(), repeat=d):
        if any(tup):
            yield tup


def test_surjectivity_scan_on_known_spaces():
    from translab.families import toeplitz_space

    f = GF(5)
    T3 = toeplitz_space(3).reduce_mod(5)
    basis = np.array([[[T3.basis[d][i, j].value for j in range(3)]
                       for i in range(3)] for d in range(T3.dim)])
    ok, fail, pts = surjectivity_scan(basis, 1, 5)
    assert ok and fail is None and pts == projective_count(3, 5)
    # the span of E11 alone fails at the first input not reaching row 2
    E11 = MatrixSubspace.from_generators([Mat.unit(f, 2, 2, 0, 0)])
    basis2 = np.array([[[1, 0], [0, 0]]])
    ok2, fail2, _ = surjectivity_scan(basis2, 1, 5)
    assert not ok2 and fail2 is not None


def test_separation_scan_does_not_depend_on_chunking(monkeypatch):
    # small chunks split pivot sets over several blocks and merge the
    # blocks of consecutive pivot sets, and small tile budgets rank a
    # block in several tiles; the first violation must not move
    from translab import modp

    rng = np.random.default_rng(5)
    for q, m, n, D, k in [(3, 2, 5, 3, 2), (2, 3, 5, 8, 3), (3, 3, 4, 8, 3),
                          (3, 2, 4, 5, 2), (7, 2, 3, 3, 2), (3, 2, 4, 0, 2)]:
        for _ in range(4):
            basis = rng.integers(0, q, size=(D, m, n))
            ref = separation_scan(basis, k, q)
            width = ((k - 1) * m + n * m) * D
            runs = [(chunk, modp._TILE_CELLS) for chunk in (1, 7, 40)]
            runs += [(modp.DEFAULT_CHUNK, cells)
                     for cells in _tile_budgets(width)]
            for chunk, cells in runs:
                monkeypatch.setattr(modp, "DEFAULT_CHUNK", chunk)
                monkeypatch.setattr(modp, "_TILE_CELLS", cells)
                got = separation_scan(basis, k, q)
                monkeypatch.undo()
                assert (got is None) == (ref is None), (q, m, n, D, k, cells)
                if ref is not None:
                    assert np.array_equal(got, ref)


def _surjectivity_reference(basis, k, p, chunk):
    # the uncompressed scan, block by block: rank every (D, m*k) matrix
    # whose row d is A_d X read row-major; the last item is the first
    # failure's position in its block
    D, m, n = basis.shape
    points = 0
    for block in iter_rref_blocks(n, k, p, chunk):
        M = np.einsum("dit,bjt->bdij", basis, block) % p
        ranks = batched_rank_mod_p(M.reshape(len(block), D, m * k), p)
        points += len(block)
        bad = np.nonzero(ranks < m * k)[0]
        if bad.size:
            return False, block[int(bad[0])].T, points, int(bad[0])
    return True, None, points, None


def _planted_failure_basis(rng, p, m, n, k, D):
    """A random D-dimensional subspace of {A : h^T A x0 = 0}: every input
    subspace containing x0 fails.  x0 has zeros in its first k
    coordinates, so the first pivot set, and the first point, pass."""
    h = rng.integers(1, p, size=m)
    x0 = rng.integers(0, p, size=n)
    x0[:k] = 0
    x0[-1] = 1
    while True:
        A = rng.integers(0, p, size=(D, m, n))
        resid = np.einsum("i,dit,t->d", h, A, x0) % p
        A[:, 0, n - 1] = (A[:, 0, n - 1] - resid * pow(int(h[0]), p - 2, p)) % p
        assert not (np.einsum("i,dit,t->d", h, A, x0) % p).any()
        if batched_rank_mod_p(A.reshape(1, D, m * n), p)[0] == D:
            return A


# (p, m, n, k, D) with D > m*k + s(p): s(2) = 9, s(3) = 6, s(5) = 4,
# s(7) = 3, s(43) = s(8191) = 1; products run in float32 up to p = 43 and
# in float64 at p = 8191
_COMPRESSED_SHAPES = [(2, 3, 5, 1, 13), (2, 3, 6, 2, 17), (3, 3, 4, 1, 11),
                      (3, 3, 5, 2, 13), (5, 2, 4, 1, 7), (5, 3, 4, 2, 11),
                      (7, 2, 4, 1, 7), (7, 3, 4, 2, 10), (43, 3, 2, 1, 5),
                      (8191, 3, 2, 1, 5)]


def _sketch_calls(basis, k, p):
    """The _sketch calls of one definitional scan: (rows, h, p) when the h
    rows of K exceed rows = m k + s(p), none otherwise.  K spans the left
    kernel of the last j unit columns [A_d e_t], j the largest j <= n - k
    with D - j m >= rows (0 when there is none), so h = D - rank U."""
    from translab import modp

    D, m, n = basis.shape
    rows = m * k + modp._oversampling(p)
    j = _blind(m, n, k, p, D)
    U = basis[:, :, n - j:].reshape(1, D, m * j)
    h = D - int(batched_rank_mod_p(U, p)[0]) if j else D
    return [(rows, h, p)] if h > rows else []


def _blind(m, n, k, q, D):
    """j, the trailing columns the definitional scan's compression is blind
    to: the largest j <= n - k with D - j m >= m k + s(q), or 0."""
    from translab import modp

    return max(0, min(n - k, (D - m * k - modp._oversampling(q)) // m))


def test_surjectivity_scan_compression_is_exact(monkeypatch):
    # a compressed rank below m*k proves nothing; with a rank-deficient
    # compression every point is a candidate and the scan must still
    # return exactly what the uncompressed scan returns
    from translab import modp

    rng = np.random.default_rng(11)
    deficient = (np.zeros, np.ones)
    later = 0
    for p, m, n, k, D in _COMPRESSED_SHAPES:
        rows = m * k + modp._oversampling(p)
        assert D > rows
        planted = _planted_failure_basis(rng, p, m, n, k, D)
        free = rng.integers(0, p, size=(D, m, n))
        for basis in (planted, free):
            # the small primes cover the block boundaries of chunk 7
            for chunk in (7, modp.DEFAULT_CHUNK)[p > 43:]:
                ref = _surjectivity_reference(basis, k, p, chunk)
                if basis is planted:
                    assert not ref[0]
                for fill in (None,) + deficient:
                    budgets = (modp._TILE_CELLS,)
                    if chunk == modp.DEFAULT_CHUNK and fill is None:
                        # tile budgets on the sketch's own path, where a
                        # block is a whole pivot set; one point per tile
                        # only on scans of up to 500 points, for run time
                        budgets = _tile_budgets(m * k * D)[
                            gaussian_binomial(n, k, p) > 500:]
                        # a failure past the first point of its block sits
                        # in a later tile of it at the small budgets
                        later += basis is planted and ref[3] > 0
                    for cells in budgets:
                        calls = []
                        if fill is not None:
                            def sketch(r, d, q, fill=fill):
                                calls.append((r, d, q))
                                return fill((r, d), dtype=int)
                            monkeypatch.setattr(modp, "_sketch", sketch)
                        monkeypatch.setattr(modp, "_TILE_CELLS", cells)
                        got = surjectivity_scan(basis, k, p, chunk)
                        monkeypatch.undo()
                        assert fill is None or calls == _sketch_calls(
                            basis, k, p)
                        assert got[0] == ref[0] and got[2] == ref[2], (
                            p, m, n, k, cells)
                        if not ref[0]:
                            assert np.array_equal(got[1], ref[1]), (
                                p, m, n, k, cells)
    assert later >= 4


def _basis_killing(rng, p, m, n, D, x0):
    """A random D-dimensional subspace of {A : h^T A x0 = 0} for a random
    h with nonzero entries; x0 must be nonzero."""
    h = rng.integers(1, p, size=m)
    t0 = int(np.flatnonzero(x0)[0])
    scale = pow(int(h[0] * x0[t0]), p - 2, p)
    while True:
        A = rng.integers(0, p, size=(D, m, n))
        resid = np.einsum("i,dit,t->d", h, A, x0) % p
        A[:, 0, t0] = (A[:, 0, t0] - resid * scale) % p
        assert not (np.einsum("i,dit,t->d", h, A, x0) % p).any()
        if batched_rank_mod_p(A.reshape(1, D, m * n), p)[0] == D:
            return A


# (p, m, n, k, D): k = 2..4, p in {2, 3, 5, 7, 43}, at most 1,893 points;
# a prime as large as 8191 has no such shape: with n > k >= 2 there are
# over 6.7e7 points, and with n = k one point, which has no runs
_PREFIX_SHAPES = [(2, 3, 5, 2, 8), (3, 2, 4, 2, 6), (5, 3, 3, 2, 7),
                  (7, 2, 3, 2, 5), (5, 3, 4, 3, 11), (3, 2, 4, 3, 7),
                  (2, 2, 5, 4, 9), (3, 2, 5, 4, 9), (43, 2, 3, 2, 5)]


@pytest.mark.parametrize("forced", [True, False])
def test_input_ranks_match_direct_ranks(monkeypatch, forced):
    # rank [M1 | M2] = rank M1 + rank(Q M2): the prefix path must return
    # exactly the ranks of the direct route, point by point, when the
    # first k - 1 rows fail (the prefix holds e_1 and h^T A e_1 = 0), when
    # the last row fails (it is e_n and h^T A e_n = 0), and on blocks cut
    # inside a run of equal prefixes or thinned to every other point;
    # forced takes the prefix path on every block that has runs, and the
    # unforced scan-sized blocks choose their route by the saving.  At the
    # default chunk the small tile budgets cut a forced block into several
    # tiles that end on run boundaries
    from translab import modp

    eliminate = modp._eliminate
    leads = []
    default = modp._TILE_CELLS
    prefix_ranks = modp._prefix_ranks
    tiles = []
    split = 0

    def spy(mats, lead, p, bound):
        leads.append(lead)
        return eliminate(mats, lead, p, bound)

    def tile_spy(*args):
        tiles.append(len(args[1]))
        return prefix_ranks(*args)

    monkeypatch.setattr(modp, "_eliminate", spy)
    monkeypatch.setattr(modp, "_prefix_ranks", tile_spy)
    if forced:
        monkeypatch.setattr(modp, "_PREFIX_MIN_SAVING", float("-inf"))
    rng = np.random.default_rng(17)
    for p, m, n, k, D in _PREFIX_SHAPES:
        for x0 in np.eye(n, dtype=np.int64)[[0, -1]]:
            basis = _basis_killing(rng, p, m, n, D, x0)
            W = modp._basis_rows(basis, p)
            deficient = 0
            leads.clear()
            # blocks of one point, which have no runs, only at the small
            # primes
            for chunk in (1, 7, 40)[p > 7:3 * forced] + (modp.DEFAULT_CHUNK,):
                for block in iter_rref_blocks(n, k, p, chunk):
                    for part in (block, block[::2])[:1 + (chunk > 1)]:
                        M = np.einsum("dit,bjt->bdij", basis, part) % p
                        want = batched_rank_mod_p(
                            M.reshape(len(part), D, m * k), p)
                        budgets = (default,)
                        if forced and chunk == modp.DEFAULT_CHUNK:
                            budgets = _tile_budgets(m * k * D)
                        for cells in budgets:
                            monkeypatch.setattr(modp, "_TILE_CELLS", cells)
                            before = len(tiles)
                            got = modp._input_ranks(part, W, m, p)
                            assert got.tolist() == want.tolist(), (
                                p, m, n, k, chunk, cells)
                            split += len(tiles) - before > 1
                        monkeypatch.setattr(modp, "_TILE_CELLS", default)
                        deficient += int((want < m * k).sum())
            assert deficient, (p, m, n, k)
            assert not forced or (k - 1) * m in leads, (p, m, n, k)
    assert split or not forced


def test_batched_rank_matches_exact_on_negative_entries():
    # the kernel reduces to balanced residues, so entries of either sign,
    # unreduced and in any dtype, must give the ranks of their residues
    rng = random.Random(3)
    for p in (2, 3, 5, 7, 43, 8191):
        f = GF(p)
        for R, C in [(6, 4), (4, 6), (8, 8), (1, 5), (33, 3)]:
            arr = _batch_with_rank_profile(rng, p, R, C)
            want = [_exact_rank(f, M) for M in arr]
            shifts = np.array([[rng.randrange(-9, 1) for _ in range(C)]
                               for _ in range(R)], dtype=np.int64)
            balanced = (arr + p // 2) % p - p // 2
            assert balanced.min() < 0
            for neg in (balanced, arr + p * shifts,
                        arr - p * (1 << 40), arr - (1 << 53) // p * p):
                assert (neg % p == arr).all()
                for dt in (np.int64, np.float64):
                    if np.abs(neg).max() >= 1 << 53 and dt is np.float64:
                        continue
                    ranks = batched_rank_mod_p(neg.astype(dt), p)
                    assert ranks.tolist() == want, (p, R, C)


def _growth_batch(p, C):
    """Two C x C matrices of balanced residues on which the lazy
    elimination grows one entry as far as it can: rows 0..C-2 are e_i plus
    h = p // 2 in the last column, and the last row holds -h in every
    other column, so each of the C - 1 pivots moves its last entry by h^2,
    always the same way.  That entry then ends at zero mod p in the first matrix (rank C - 1)
    and not in the second (rank C)."""
    h = p // 2
    M = np.zeros((2, C, C), dtype=np.int64)
    M[:, np.arange(C - 1), np.arange(C - 1)] = 1
    M[:, :C - 1, C - 1] = h
    M[:, C - 1, :C - 1] = -h
    grown = (C - 1) * h * h
    for i, last in enumerate((-grown, 1 - grown)):
        M[i, C - 1, C - 1] = (last + h) % p - h
    return M, [C - 1, C]


# (p, working dtype up to the limit): the kernel holds
# bound + C (p // 2)^2 + p // 2 for input entries of magnitude at most
# bound; 43 and 8191 never run in int8, so their first switch is tested
_DTYPE_SWITCHES = [(2, np.int8), (3, np.int8), (5, np.int8), (7, np.int8),
                   (11, np.int8), (43, np.int16), (8191, np.int32)]


@pytest.mark.parametrize("p,dt", _DTYPE_SWITCHES)
def test_batched_rank_at_each_dtype_switch(monkeypatch, p, dt):
    # C columns on both sides of the limit of dt, for entries of magnitude
    # at most h: the working dtype must widen exactly there, and the ranks
    # must stay exact on matrices that grow an entry as far as the lazy
    # elimination can, and on random balanced ones
    from translab import modp

    h = p // 2
    limit = (np.iinfo(dt).max - 2 * h) // (h * h)
    wider = np.dtype({np.int8: np.int16, np.int16: np.int32,
                      np.int32: np.int64}[dt])
    used = []
    eliminate = modp._eliminate

    def spy(mats, lead, p, bound):
        out = eliminate(mats, lead, p, bound)
        used.append(out[1].dtype)
        return out

    monkeypatch.setattr(modp, "_eliminate", spy)
    rng = random.Random(p)
    f = GF(p)
    for C, want_dt in ((limit, np.dtype(dt)), (limit + 1, wider)):
        grown, want = _growth_batch(p, C)
        rand = np.array([[[rng.randrange(-h, h + 1) for _ in range(C)]
                          for _ in range(3)] for _ in range(4)])
        used.clear()
        assert batched_rank_mod_p(grown, p).tolist() == want
        assert batched_rank_mod_p(rand, p).tolist() == [
            _exact_rank(f, M) for M in rand]
        assert used == [want_dt, want_dt], (p, C)


def test_scan_products_are_exact():
    # the definitional and separation products, and the projective
    # products over GF(p) and over GF(p^2) real forms, against int64
    # products mod p
    from translab import modp

    rng = np.random.default_rng(23)
    for q, m, n, k, D, B in [(2, 3, 4, 2, 5, 40), (3, 2, 5, 3, 4, 33),
                             (5, 8, 8, 1, 32, 64), (7, 3, 3, 2, 6, 50),
                             (11, 2, 4, 2, 3, 20), (43, 2, 3, 1, 4, 20),
                             (8191, 2, 3, 2, 3, 20)]:
        basis = rng.integers(0, q, size=(D, m, n))
        block = rng.integers(0, q, size=(B, k, n)).astype(np.int32)
        W = modp._basis_rows(basis, q)
        unit = W.reshape(m, D, n).transpose(2, 0, 1).reshape(n * m, D, 1)
        got = modp._input_products(block, W, m, q, unit)
        assert got.dtype == modp._scan_dtype(n, q)
        assert np.abs(got).max() <= n * (q // 2) ** 2
        # want[j*m + i, d, b] = (A_d x_j)_i, then (A_d e_t)_i
        want = np.einsum("dit,bjt->jidb", basis, block).reshape(k * m, D, B)
        units = basis.transpose(2, 1, 0).reshape(n * m, D, 1)
        assert ((got[:k * m] - want) % q == 0).all(), q
        assert ((got[k * m:] - units) % q == 0).all(), q
    for q, omega, m, n, D in [(5, None, 3, 4, 3), (7, None, 4, 4, 2),
                              (9, 2, 2, 3, 3), (25, 2, 3, 3, 2)]:
        p = math.isqrt(q) if omega else q
        basis = rng.integers(0, q, size=(D, m, n))
        seen = []
        real = modp.batched_rank_mod_p

        def spy(mats, p):
            seen.append(np.array(mats))
            return real(mats, p)

        modp.batched_rank_mod_p = spy
        try:
            blocks = [(codes[lo:lo + len(ranks)].copy(), seen[-1])
                      for codes, _, tiles in
                      modp._ranked_joined(basis, q, 16, omega)
                      for lo, ranks in tiles]
        finally:
            modp.batched_rank_mod_p = real
        assert sum(len(c) for c, _ in blocks) == projective_count(D, q)
        for codes, mats in blocks:
            if omega is None:
                want = np.einsum("bd,dij->bij", codes, basis)
            else:
                # (a + b w)(x + y w) = (a x + omega b y) + (a y + b x) w,
                # and X + w Y has the real form [[X, omega Y], [Y, X]]
                a, b = codes // p, codes % p
                x, y = basis // p, basis % p
                X = (np.einsum("bd,dij->bij", a, x)
                     + omega * np.einsum("bd,dij->bij", b, y))
                Y = (np.einsum("bd,dij->bij", a, y)
                     + np.einsum("bd,dij->bij", b, x))
                want = np.block([[X, omega * Y], [Y, X]])
            assert mats.shape == want.shape
            assert ((mats - want) % p == 0).all(), q


def test_scans_multiply_without_blas(monkeypatch):
    # every scan product is an integer contraction, so no BLAS product is
    # left in modp: _mod_matmul serves only the definitional scan's
    # compression (S K, then S K A) and the rank-one scan, and always
    # yields signed integers
    from translab import modp
    from translab.deciders import rank_one_elements_ff
    from translab.families import trace_zero

    calls = []
    dtypes = []
    real = modp._mod_matmul

    def spy(a, b, p):
        calls.append((a.shape, b.shape))
        out = real(a, b, p)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(modp, "_mod_matmul", spy)
    rng = np.random.default_rng(31)
    # phi-block-4-1's shape: 32 basis matrices in Mat(8, 8) over GF(5)
    basis = rng.integers(0, 5, size=(32, 8, 8))
    rows = 8 + modp._oversampling(5)
    surjectivity_scan(basis, 1, 5)
    # blind to the last 2 columns: K has 32 - 16 rows
    assert calls == [((rows, 16), (16, 32)), ((rows, 32), (32, 64))]
    calls.clear()
    min_rank_scan(rng.integers(0, 5, size=(4, 4, 4)), 5)
    min_rank_scan(rng.integers(0, 9, size=(3, 3, 3)), 9, omega=2)
    separation_scan(rng.integers(0, 5, size=(5, 3, 3)), 2, 5)
    surjectivity_scan(rng.integers(0, 7, size=(9, 3, 4)), 2, 7)
    assert calls == []
    for q in (5, 9):
        assert rank_one_elements_ff(trace_zero(2).reduce_mod(q))
    assert calls
    assert all(np.issubdtype(dt, np.signedinteger) for dt in dtypes), dtypes


def test_phi_block_scans_rank_in_tiles():
    # each tile forms its own products, working copy and scratch, so the
    # definitional scans of the block construction (97,656 points in
    # blocks of 32,768) hold no block-sized temporaries: at most 6 MiB of
    # traced allocations each, against 12 MiB with whole blocks
    import tracemalloc

    from translab.deciders import _scan_codes
    from translab.families import phi_block_space

    PB = phi_block_space(4, 1)
    bases = [_scan_codes(L.reduce_mod(5))[0]
             for L in (PB, PB.preannihilator())]
    # fill the per-prime tables and import the sketch's generator first
    surjectivity_scan(bases[0], 1, 5)
    for basis in bases:
        tracemalloc.start()
        try:
            got = surjectivity_scan(basis, 1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (True, None, projective_count(8, 5))
        assert peak <= 6 << 20, peak


# ------------------------------------------------ pieces joined into blocks

def _exact_ranks_of_codes(f, basis, codes):
    """Exact ranks of sum_d c_d A_d for each row of coefficient codes,
    codes and basis entries indexing f.elements()."""
    elems = f.elements()
    D, m, n = basis.shape
    mats = [Mat.from_rows(f, [[elems[int(x)] for x in row] for row in B])
            for B in basis]
    ranks = []
    for row in codes:
        acc = Mat.zeros(f, m, n)
        for c, A in zip(row, mats):
            acc = acc + A.scale(elems[int(c)])
        ranks.append(acc.rank())
    return ranks


def _projective_reference(f, basis, chunk, threshold=None, extremes=False):
    """The projective scans piece by piece, with exact ranks: each piece of
    iter_projective_blocks is ranked on its own (over GF(p^2) pieces hold
    chunk // (4 m n) points and the leading one is code p).  Returns what
    min_rank_scan (or rank_extremes_scan) must return."""
    D, m, n = basis.shape
    q = f.size
    quad = q != f.characteristic
    if quad:
        chunk = max(1, chunk // (4 * m * n))
    best = best_c = s = s_c = None
    points = 0
    for piece in iter_projective_blocks(D, q, chunk):
        codes = piece.copy()
        if quad:
            lead = (codes != 0).argmax(axis=1)
            codes[np.arange(len(codes)), lead] = f.characteristic
        ranks = _exact_ranks_of_codes(f, basis, codes)
        start = points
        points += len(codes)
        for i, r in enumerate(ranks):
            if threshold is not None:
                if r <= threshold:
                    return r, codes[i], start + i + 1 if quad else points
                continue
            if best is None or r < best:
                best, best_c = r, codes[i]
                if r == 1 and not extremes:
                    return best, best_c, points
            if extremes and r < n and (s is None or r > s):
                s, s_c = r, codes[i]
    if threshold is not None:
        return None, None, points
    if extremes:
        return best, best_c, s, s_c, points
    return best, best_c, points


def _random_small_bases(rng, q, count):
    """Random (D, m, n) code arrays of linearly independent matrices over
    GF(q), every other one with a rank-one last matrix, which is the
    first point of the projective order."""
    f = GF(q)
    out = []
    while len(out) < count:
        D, m, n = (int(x) for x in rng.integers(1, 4, size=3))
        basis = rng.integers(0, q, size=(D, m, n))
        if len(out) % 2:
            basis[-1] = 0
            basis[-1, 0, 0] = 1
        flat = basis.reshape(1, D, m * n)
        if _exact_ranks_of_codes(f, flat, np.ones((1, 1), int))[0] == D:
            out.append(basis)
    return out


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray) or isinstance(g, np.ndarray):
            assert np.array_equal(g, w)
        else:
            assert g == w


@pytest.mark.parametrize("q", [3, 5, 9])
def test_joined_projective_scans_match_per_piece_reference(monkeypatch, q):
    # joining pieces into one kernel call changes no answer, witness or
    # points: first hit in enumeration order, points over whole pieces
    # (the hit's position over GF(p^2)), at the default budgets, with
    # small and unbounded tiles, and with every piece joined
    from translab import modp

    f = GF(q)
    omega = None if q == f.characteristic else f.omega
    rng = np.random.default_rng(2000 + q)
    budgets = [{}, {"_TILE_CELLS": 1}, {"_TILE_CELLS": 40},
               {"_TILE_CELLS": 1 << 62},
               {"_TILE_CELLS": 1 << 62, "_JOIN_FLOOR": 1 << 62}]
    for basis in _random_small_bases(rng, q, 12):
        D, m, n = basis.shape
        for chunk in (2, modp.DEFAULT_CHUNK):
            wants = {t: _projective_reference(f, basis, chunk, threshold=t)
                     for t in (None, 1, max(1, min(m, n) - 1))}
            square = m == n
            if square:
                ext = _projective_reference(f, basis, chunk, extremes=True)
            for patch in budgets:
                for name, value in patch.items():
                    monkeypatch.setattr(modp, name, value)
                for t, want in wants.items():
                    _same(min_rank_scan(basis, q, chunk, threshold=t,
                                        omega=omega), want)
                if square:
                    _same(modp.rank_extremes_scan(basis, q, chunk, omega),
                          ext)
                monkeypatch.undo()


@pytest.mark.parametrize("q", [3, 5])
def test_joined_surjectivity_scan_matches_per_piece_reference(monkeypatch,
                                                              q):
    # the definitional scan over joined pieces returns the first failure
    # of enumeration order and counts the whole pieces up to it, also when
    # the first point fails (every A_d kills e_1), whatever the budgets
    from translab import modp

    rng = np.random.default_rng(3000 + q)
    budgets = [{}, {"_TILE_CELLS": 1}, {"_TILE_CELLS": 1 << 62},
               {"_TILE_CELLS": 1 << 62, "_JOIN_FLOOR": 1 << 62}]
    cases = []
    for i in range(10):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        n += 1
        k = int(rng.integers(1, n))
        D = int(rng.integers(m * k, m * k + 3))
        basis = rng.integers(0, q, size=(D, m, n))
        if i % 3 == 0:
            basis[:, :, 0] = 0
        cases.append((basis, k))
    first = 0
    for basis, k in cases:
        for chunk in (2, modp.DEFAULT_CHUNK):
            ok, X, points, at = _surjectivity_reference(basis, k, q, chunk)
            piece = next(iter_rref_blocks(basis.shape[2], k, q, chunk))
            first += at == 0 and points == len(piece)
            for patch in budgets:
                for name, value in patch.items():
                    monkeypatch.setattr(modp, name, value)
                got = surjectivity_scan(basis, k, q, chunk)
                monkeypatch.undo()
                assert got[0] == ok and got[2] == points, (basis.shape, k)
                if not ok:
                    assert np.array_equal(got[1], X)
    assert first


def _kernel_calls(monkeypatch):
    from translab import modp

    calls = []
    real = modp.batched_rank_mod_p

    def spy(mats, p):
        calls.append(mats.shape)
        return real(mats, p)

    monkeypatch.setattr(modp, "batched_rank_mod_p", spy)
    return calls


def test_rref_scan_joins_the_pieces_after_its_largest(monkeypatch):
    # Gr(1, 5) over GF(7) has pieces of 2401, 343, 49, 7 and 1 points; the
    # first is ranked alone and the other four join into one kernel call
    calls = _kernel_calls(monkeypatch)
    basis = np.random.default_rng(2).integers(0, 7, size=(5, 2, 5))
    assert surjectivity_scan(basis, 1, 7) == (True, None, 2801)
    assert [shape[0] for shape in calls] == [2401, 400]


def test_first_point_hit_ranks_no_more_than_the_floor(monkeypatch):
    # the projective order starts with its smallest pieces (1, q, q^2,
    # ...), and a rank-one first point must stay cheap: the first kernel
    # call holds the first piece alone, well within _JOIN_FLOOR cells
    from translab import modp

    calls = _kernel_calls(monkeypatch)
    for q, m, n, D in [(3, 3, 3, 6), (3, 4, 3, 5), (5, 4, 4, 4), (7, 2, 2, 6)]:
        basis = np.random.default_rng(q).integers(0, q, size=(D, m, n))
        basis[-1] = 0
        basis[-1, 0, 0] = 1
        for threshold in (None, 1):
            calls.clear()
            rank, coeffs, points = min_rank_scan(basis, q, threshold=threshold)
            assert rank == 1 and points == 1
            assert coeffs.tolist() == [0] * (D - 1) + [1]
            assert len(calls) == 1
            B, R, C = calls[0]
            assert B == 1 and B * R * C <= modp._JOIN_FLOOR, (q, m, n, D)


# ------------------------------------- grouped probes of the definitional scan

# (q, m, n, k, D) with j >= 1 blind columns: j is the largest j <= n - k
# with D - j m >= m k + s(q); s(2) = 9, s(3) = 6, s(5) = 4, s(7) = 3
_GROUPED_SHAPES = [(2, 3, 7, 1, 18), (2, 3, 7, 2, 19), (3, 2, 7, 1, 12),
                   (3, 3, 6, 2, 15), (5, 2, 6, 1, 10), (5, 3, 5, 2, 13),
                   (7, 3, 4, 1, 9), (7, 3, 5, 1, 12), (7, 3, 5, 2, 12)]


def _grouped_basis(rng, q, m, n, k, D, x0=None, deficient=False):
    """A random D-dimensional subspace of Mat(m, n) over GF(q), as codes.
    With x0, every element A has h^T A x0 = 0 for a random h with nonzero
    entries, so every input subspace holding x0 fails.  With deficient,
    the last columns of every A_d are a multiple of one fixed matrix, so
    the unit columns [A_d e_t] over them have rank at most 1."""
    j = _blind(m, n, k, q, D) if deficient else 0
    P = rng.integers(1, q, size=(m, j))
    while True:
        A = rng.integers(0, q, size=(D, m, n))
        if deficient:
            A[:, :, n - j:] = rng.integers(0, q, size=(D, 1, 1)) * P % q
        if x0 is not None:
            h = rng.integers(1, q, size=m)
            t0 = int(np.flatnonzero(x0[:n - j])[0])
            resid = np.einsum("i,dit,t->d", h, A, x0) % q
            scale = pow(int(h[0] * x0[t0]), q - 2, q)
            A[:, 0, t0] = (A[:, 0, t0] - resid * scale) % q
            assert not (np.einsum("i,dit,t->d", h, A, x0) % q).any()
        if batched_rank_mod_p(A.reshape(1, D, m * n), q)[0] == D:
            return A


def _planted_vectors(rng, q, n, k, j):
    """Vectors x0 whose lines make the first failure fall, for k = 1: at
    the first point of a group (zero on the last j coordinates), inside
    a group (nonzero there) and at a tail representative (pivot among
    the last j coordinates).  Their first k coordinates are zero, so the
    first pivot set passes."""
    out = []
    for where in ("first", "inside", "tail"):
        x0 = rng.integers(0, q, size=n)
        x0[:k] = 0
        cut = n - j
        if where == "tail":
            x0[:cut] = 0
            x0[cut] = 1
        else:
            if k >= cut:
                continue
            x0[k] = 1
            x0[cut:] = 0 if where == "first" else rng.integers(1, q, size=j)
        out.append(x0)
    return out


def _where(X, j):
    """Where the failure X (columns are the representative's rows) sits:
    at a tail representative; at the first point of its group of points
    equal on their first n - j columns, when every row is zero on the
    last j; inside one, when the last row is not, for its predecessor
    then differs only there; or elsewhere."""
    n = len(X)
    if not X[:n - j, -1].any():
        return "tail"
    if not X[n - j:].any():
        return "first"
    return "inside" if X[n - j:, -1].any() else "other"


def _same_as_reference(basis, k, q, chunk):
    ref = _surjectivity_reference(basis, k, q, chunk)
    got = surjectivity_scan(basis, k, q, chunk)
    assert got[0] == ref[0] and got[2] == ref[2], (basis.shape, k, q, chunk)
    if not ref[0]:
        assert np.array_equal(got[1], ref[1]), (basis.shape, k, q, chunk)
    return ref


def test_grouped_scan_matches_the_reference(monkeypatch):
    # seeded bases blind to j >= 1 columns over GF(2), GF(3), GF(5) and
    # GF(7) at k = 1 and 2, free and with planted failures at a group's
    # first point, inside a group and at a tail representative; chunk 7
    # cuts groups at piece boundaries, and one point per tile at the
    # small shapes cuts them at tile boundaries
    from translab import modp

    rng = np.random.default_rng(29)
    seen = set()
    for q, m, n, k, D in _GROUPED_SHAPES:
        j = _blind(m, n, k, q, D)
        assert j >= 1
        points = gaussian_binomial(n, k, q)
        bases = [_grouped_basis(rng, q, m, n, k, D, x0)
                 for x0 in [None] + _planted_vectors(rng, q, n, k, j)]
        if points > 10 ** 5:
            # for run time, one planted failure only on the largest shape:
            # each reference scan of it ranks the 117,649 points of its
            # first pivot set at least
            bases = bases[2:3]
        for basis in bases:
            for chunk in (7, modp.DEFAULT_CHUNK)[points > 3000:]:
                ref = _same_as_reference(basis, k, q, chunk)
                if not ref[0]:
                    seen.add((k, _where(ref[1], j)))
            if points <= 500:
                monkeypatch.setattr(modp, "_TILE_CELLS", 1)
                _same_as_reference(basis, k, q, modp.DEFAULT_CHUNK)
                monkeypatch.undo()
    assert {(1, "first"), (1, "inside"), (1, "tail")} <= seen, seen
    assert {w for kk, w in seen if kk == 2} >= {"first", "tail"}, seen


def test_grouped_scan_with_rank_deficient_unit_columns():
    # the unit columns [A_d e_t] over the blind columns have rank 1, so K
    # keeps D - 1 rows and the sketch goes on top of it
    from translab import modp

    rng = np.random.default_rng(30)
    for q, m, n, k, D in [(3, 2, 7, 1, 10), (5, 3, 5, 1, 11)]:
        j = _blind(m, n, k, q, D)
        assert j >= 1
        # a tail vector is zero off the last j coordinates, where every
        # A_d is a multiple of one matrix: it cannot be planted there
        planted = [x0 for x0 in _planted_vectors(rng, q, n, k, j)
                   if x0[:n - j].any()]
        for x0 in [None] + planted:
            basis = _grouped_basis(rng, q, m, n, k, D, x0, deficient=True)
            U = basis[:, :, n - j:].reshape(1, D, m * j)
            assert batched_rank_mod_p(U, q)[0] == 1
            assert len(modp._left_kernel(U[0], q)) == D - 1
            for chunk in (7, modp.DEFAULT_CHUNK):
                _same_as_reference(basis, k, q, chunk)


def test_grouped_scan_is_exact_when_every_probe_fails(monkeypatch):
    # a zero sketch makes every probe fail: every point is then a
    # candidate, and the scan must still return exactly what the
    # uncompressed scan returns
    from translab import modp

    rng = np.random.default_rng(31)
    calls = []

    def sketch(r, h, q):
        calls.append((r, h, q))
        return np.zeros((r, h), dtype=int)

    for q, m, n, k, D in [(2, 3, 7, 1, 19), (3, 2, 6, 1, 11),
                          (7, 3, 4, 1, 10), (2, 3, 7, 2, 20)]:
        j = _blind(m, n, k, q, D)
        assert j >= 1
        for x0 in [None] + _planted_vectors(rng, q, n, k, j):
            basis = _grouped_basis(rng, q, m, n, k, D, x0)
            for chunk in (7, modp.DEFAULT_CHUNK):
                calls.clear()
                monkeypatch.setattr(modp, "_sketch", sketch)
                ref = _same_as_reference(basis, k, q, chunk)
                monkeypatch.undo()
                assert calls == _sketch_calls(basis, k, q) != []
                assert x0 is None or not ref[0]


def test_phi_block_scans_rank_one_probe_per_group(monkeypatch):
    # work count, not time: Gr(1, 8) over GF(5) has 97,656 points; blind
    # to the last 2 columns, each scan probes the 3,906 groups of 25
    # points, re-ranks the 6 tail representatives and the 25 members of
    # each failing group, about q^-5 of them.  The bound leaves room for
    # 20 failing groups, against 97,656 matrices and more before
    from translab.deciders import _scan_codes
    from translab.families import phi_block_space

    PB = phi_block_space(4, 1)
    calls = _kernel_calls(monkeypatch)
    for L in (PB, PB.preannihilator()):
        calls.clear()
        got = surjectivity_scan(_scan_codes(L.reduce_mod(5))[0], 1, 5)
        assert got == (True, None, projective_count(8, 5))
        ranked = sum(shape[0] for shape in calls)
        assert 3906 + 6 <= ranked <= 3906 + 6 + 25 * 20, ranked
