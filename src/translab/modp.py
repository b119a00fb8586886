"""Batched linear algebra over GF(p) on numpy integer arrays.

This is the performance lane behind the exhaustive finite-field searches.
Every witness produced here is re-verified by the exact kernel; a scan that
finds no failure certifies a verdict on its own, so the arithmetic below is
exact by construction, not by tolerance.  Enumeration orders are documented
and deterministic; chunked scans return the same winner a sequential scan
would (first index in enumeration order).

Every scan operand is a balanced residue, in [-h, h] for h = p // 2 (at
p = 2 the kernel's reductions give {-1, 0}).  A sum of K products of
balanced residues has magnitude at most K h^2, against K (p-1)^2 for
residues in [0, p): about a quarter, which keeps every product and every
elimination below in a narrow integer type (cf. the centred
representatives of Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields", ACM TOMS 35, 2008).  Every product is an
integer contraction (np.einsum) in the narrowest signed integer dtype
holding K h^2: int8 at the shipped primes' scan shapes, int16, int32 or
int64 beyond, and a ValueError past int64.

Ranks come from a swap-free elimination that reduces lazily, on a
batch-last layout (C, R, B) of B matrices with R rows and C columns,
which the scans write directly: only the pivot column and pivot row are
reduced, to balanced residues, and every other entry absorbs at most one
update per eliminated column, each a product of two balanced residues.
Over `lead` eliminated columns, entries of magnitude at most U on input
(h for residues, K h^2 for products) stay within U + lead h^2, and a
reduction adds h before it divides, so the kernel works in the narrowest
signed integer dtype holding U + lead h^2 + h.  For reduced input that is
int8 for p = 5 up to 30 columns and for p = 7 up to 13, int16, int32 or
int64 beyond, and a ValueError past int64.

The definitional scan ranks compressed matrices first.  Each of its
matrices M has D rows and t = m k columns, so rank M <= t even when D is
much larger.  For a fixed (t + s) x D matrix S over GF(q),
rank(S M) <= rank M, so every M whose compressed copy S M has rank t has
rank t; only the others are ranked again on their D rows.  The
oversampling s = s(q) is the least s >= 1 with q^(s+1) >= 2^10, which
leaves about q^-(s+1) of the full-rank points to re-rank.  S only decides
how much work is repeated, never the answer.

The definitional scan also shares elimination between its points.
Consecutive representatives X share their first k - 1 rows P and differ
in the last row x.  With M1 = [A_d P] and M2 = [A_d x],
rank [M1 | M2] = rank M1 + rank (Q M2) for any Q whose rows span the left
kernel of M1, so one elimination of M1 per run of equal prefixes leaves
each point an m-column rank instead of an m k-column one.  The identity is
exact, so every rank is the one of the matrix itself, and with it the
scan's answer.

The projective scans (min_rank_scan, rank_extremes_scan) and
rank_one_pair_scan also run over GF(p^2) = GF(p)[w], w^2 = omega.  An
element a + b w is coded a*p + b, its index in QuadExtDomain.elements().
A matrix X + w Y in Mat(m, n) acts on GF(p)^(2n) as the real form
[[X, omega Y], [Y, X]] (_real_form), whose rank over GF(p) is twice the
rank of X + w Y over GF(p^2), so the ranks come from batched_rank_mod_p.
Pieces then hold about a chunk of real-form entries rather than a chunk
of points: each real form has 4 m n entries.

Every scan walks its enumeration in pieces, blocks and tiles.  A piece
is what the enumeration yields at once: the points of one pivot set
(iter_rref_blocks) or of one leading coordinate (iter_projective_blocks),
cut into at most chunk points (over GF(p^2), about a chunk of real-form
entries).  A block is what a scan forms at once: one piece, or
consecutive whole pieces joined so that one kernel call ranks them all
(_blocks).  A tile is a stretch of consecutive points of one block whose
products hold at most _TILE_CELLS = 2^20 cells (one point at least); a
tile of the prefix route holds whole runs.  Each tile forms its own
products, the kernel's working copy and its scratch, so a scan's working
set does not grow with chunk: at phi-block-4-1's shape, blocks of 32,768
points with 96-cell products, tracemalloc's peak per definitional scan is
4.0 MiB against 12.0 MiB for whole blocks.

A kernel call costs about 0.1 ms whatever its size, which is most of the
time of a piece of a few dozen points, so _blocks joins small pieces.  A
scan's first piece is ranked alone, so a hit there (often the first
point, in the projective order) costs what it would with no joining.
Each later block joins pieces of up to _JOIN_FLOOR product cells, or up
to the cells already ranked when that is more, at most _TILE_CELLS, so
the work a hit can leave wasted stays small against what came before
it.  The separation scan's first block joins whole pieces up to one tile
as well: its far-first order starts with small pieces (1, q, q^2, ...
flags at k = 2) and ends with its largest, a scan that finds no
violation ranks every flag, and a violation costs far more exact work
than its tile's ranks, so ranking the first piece alone would only add
kernel calls.  A piece is built only with its block, never held while
the next one is built.  The lex rref order starts with its largest
piece, so the rest of a mid-size scan joins into one block; the
projective order grows q-fold per piece, so there the second block is
the one that joins.  In the definitional scan a joined block holds too
few points for the prefix route, as each of its pieces would alone.

Ranks are independent per point, and tiles run in enumeration order with
the first tile that settles a scan ending it, so the answer and witness
are those of ranking every point alone.  points counts every point of
the whole pieces up to and including the piece that holds the hit (over
GF(p^2), the position of a threshold hit), or every point when nothing
ends the scan, so nothing a scan returns depends on its blocks or tiles.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "inverse_table",
    "batched_rank_mod_p",
    "gaussian_binomial",
    "projective_count",
    "iter_projective_blocks",
    "iter_rref_blocks",
    "min_rank_scan",
    "surjectivity_scan",
    "separation_scan",
    "rank_extremes_scan",
    "rank_one_pair_scan",
]

DEFAULT_CHUNK = 1 << 15


@functools.cache
def inverse_table(p: int) -> np.ndarray:
    """inv[k] = k^-1 mod p for k in 1..p-1 (inv[0] = 0).  One read-only
    table per prime, shared by every caller."""
    inv = np.zeros(p, dtype=np.int32)
    for k in range(1, p):
        inv[k] = pow(k, p - 2, p)
    inv.flags.writeable = False
    return inv


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the integer array x in place to balanced residues, of
    magnitude at most p // 2, and return it; x's dtype must hold
    |x| + p // 2.  Floor division by a scalar is vectorised, which makes
    this several times faster than np.remainder on small integer types."""
    t = x + p // 2
    t //= p
    t *= p
    x -= t
    return x


_INT_DTYPES = tuple((np.dtype(t), int(np.iinfo(t).max))
                    for t in (np.int8, np.int16, np.int32, np.int64))


def _int_dtype(top: int, p: int) -> np.dtype:
    """Narrowest signed integer dtype holding every magnitude up to top."""
    for dt, most in _INT_DTYPES:
        if top <= most:
            return dt
    raise ValueError(f"p = {p} is too large for the numpy rank kernel")


def _scan_dtype(inner: int, p: int) -> np.dtype:
    """Dtype of the scan products over this inner dimension: a sum of
    inner products of balanced residues is at most inner (p // 2)^2."""
    return _int_dtype(inner * (p // 2) ** 2, p)


def _rank_dtype(p: int, lead: int, bound: int) -> np.dtype:
    """Working dtype of _eliminate over `lead` columns of entries of
    magnitude at most bound: they stay within bound + lead (p // 2)^2,
    and a reduction adds p // 2 (see the module docstring)."""
    h = p // 2
    return _int_dtype(bound + lead * h * h + h, p)


@functools.cache
def _balanced(p: int, dt: np.dtype) -> np.ndarray:
    """The balanced residue of each of 0, 1, .., p - 1, in dt, read-only:
    taking from it balances an array of residues in one call."""
    table = _reduce(np.arange(p, dtype=np.int64), p).astype(dt)
    table.flags.writeable = False
    return table


@functools.cache
def _inverse_scales(p: int, dt: np.dtype) -> np.ndarray:
    """scales[v + p // 2] = v^-1 mod p as a balanced residue in dt, for
    every balanced residue v (0 for v = 0), read-only.  Shifting the index
    keeps it nonnegative, where take is several times faster."""
    h = p // 2
    table = _balanced(p, dt).take(inverse_table(p).take(np.arange(-h, p - h)))
    table.flags.writeable = False
    return table


def _basis_rows(basis: np.ndarray, q: int) -> np.ndarray:
    """W[i*D + d, t] = basis[d, i, t] as a balanced residue mod q, in
    _scan_dtype(n, q): W @ x^T holds (A_d x)_i at row i*D + d, every
    basis matrix applied at once."""
    D, m, n = basis.shape
    rows = basis.transpose(1, 0, 2).reshape(m * D, n) % q
    return _balanced(q, _scan_dtype(n, q)).take(rows.astype(np.intp))


def _mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for 2-D integer arrays, not reduced: both operands
    are reduced to balanced residues and contracted in _scan_dtype."""
    dt = _scan_dtype(a.shape[1], p)
    a, b = (_reduce(x % p, p).astype(dt, copy=False) for x in (a, b))
    return np.einsum("ik,kj->ij", a, b)


def batched_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of matrices over GF(p).

    mats has shape (B, R, C) and integer entries in an integer or float
    dtype, reduced or not, such as the unreduced scan products.  One
    min/max pass reads their largest magnitude U, which _eliminate's
    dtype bound U + C (p // 2)^2 + p // 2 takes in; only entries too wide
    for int64 are reduced first.  This is the only place that transposes:
    _eliminate works on the (C, R, B) view, so a batch built in that
    layout costs no copy.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) array")
    B, R, C = mats.shape
    if B == 0 or R == 0 or C == 0:
        return np.zeros(B, dtype=np.int64)
    bound = max(-int(mats.min()), int(mats.max()))
    h = p // 2
    if bound + C * h * h + h > _INT_DTYPES[-1][1]:
        mats, bound = mats % p, p - 1
    return _eliminate(mats.transpose(2, 1, 0), C, p, bound)[0]


def _eliminate(mats: np.ndarray, lead: int, p: int,
               bound: int) -> tuple:
    """Eliminate the first `lead` columns of a batch laid out batch-last,
    mats[c, r, b] = entry (r, c) of matrix b, whose entries are integers
    of magnitude at most bound, in any dtype that holds them exactly;
    they are cast once into the working dtype.

    No row swaps: the pivot of column c is the first row nonzero there mod
    p, and only columns c+1.. are updated, which also cancels the pivot
    row's own trailing entries mod p, so it is never chosen again; a
    matrix without a pivot gets a zero update because 0 has scale 0.  Only
    the pivot column and row are reduced, to balanced residues, so over at
    most `lead` updates, each a product of two of them, every entry stays
    within bound + lead (p // 2)^2, which the dtype of _rank_dtype holds
    together with a reduction's headroom.

    Returns (ranks of those columns, working copy of shape (C, R, B)).  The
    copy's columns lead.. then hold, mod p, zero on every pivot row and the
    Schur complement of the leading columns on every other row, so they
    are zero mod p exactly when they add nothing to the rank.
    """
    C, R, B = mats.shape
    # allocation order matters to the peak RSS under glibc malloc:
    # allocating the working copy before its small side arrays raised the
    # peak of `translab report paper` from 170 MB to 202 MB
    rank = np.zeros(B, dtype=np.int64)
    dt = _rank_dtype(p, lead, bound)
    scales = _inverse_scales(p, dt)
    A = np.empty((C, R, B), dtype=dt)
    A[...] = mats
    if B == 0 or R == 0:
        return rank, A
    arange_b = np.arange(B)
    maxrank = min(R, C)
    # the largest weight w = R - r over a column's nonzero rows r marks
    # its pivot row R - w, at flat offset start[w] of the (R, B) column
    # slab; a zero column (w = 0) takes row R - 1, whose scale is 0
    weight = np.arange(R, 0, -1, dtype=np.min_scalar_type(R))[:, None]
    start = (R - np.maximum(np.arange(R + 1), 1)) * B
    # scratch for the rank-one update of the trailing columns
    buf = np.empty((C - 1) * R * B if lead else 0, dtype=dt)
    for c in range(lead):
        col = _reduce(A[c], p)
        top = np.multiply(col != 0, weight).max(axis=0)
        has = top > 0
        if not has.any():
            continue
        rank += has
        # when only ranks are wanted, stop once none can grow
        if c == C - 1 or (lead == C and c + 1 >= maxrank
                          and (rank >= maxrank).all()):
            break
        at = start.take(top)
        at += arange_b
        scale = col.reshape(-1).take(at)
        scale += p // 2
        scale = scales.take(scale)
        tail = A[c + 1:]
        piv = _reduce(tail.reshape(C - c - 1, R * B).take(at, axis=1), p)
        piv *= scale
        _reduce(piv, p)
        upd = buf[:tail.size].reshape(tail.shape)
        np.multiply(piv[:, None, :], col, out=upd)
        tail -= upd
    return rank, A


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial ({n} {k})_{q} is not an integer")
    return num // den


def projective_count(d: int, q: int) -> int:
    return (q**d - 1) // (q - 1)


def _projective_pieces(d: int, q: int,
                       chunk: int) -> Iterator[tuple]:
    """(size, build) for each piece of iter_projective_blocks(d, q, chunk),
    in order: build() makes the piece, so its size is known before it is
    built."""
    for lead in range(d - 1, -1, -1):
        nfree = d - 1 - lead
        total = q**nfree
        for start in range(0, total, chunk):
            cnt = min(chunk, total - start)
            yield cnt, functools.partial(_projective_piece, d, q, lead,
                                         start, cnt)


def _projective_piece(d: int, q: int, lead: int, start: int,
                      cnt: int) -> np.ndarray:
    arr = np.zeros((cnt, d), dtype=np.int32)
    arr[:, lead] = 1
    idx = np.arange(start, start + cnt, dtype=np.int64)
    for pos in range(d - 1, lead, -1):
        arr[:, pos] = idx % q
        idx //= q
    return arr


def iter_projective_blocks(d: int, q: int,
                           chunk: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
    """Projective representatives of GF(q)^d in ascending lexicographic
    order of the raw coefficient tuple, first nonzero coordinate scaled
    to 1.  Yields (B, d) blocks, one per leading coordinate cut into at
    most chunk points; concatenating all blocks gives the full
    enumeration in order.
    """
    for _, build in _projective_pieces(d, q, chunk):
        yield build()


def _pivot_sets(n: int, k: int, order: str):
    combos = list(itertools.combinations(range(n), k))
    if order == "lex":
        return combos
    if order == "far-first":
        # largest pivot descending, then lexicographic; used by the
        # separation scan so that configurations probing the farthest
        # coordinate are visited first (gives the documented witnesses)
        return sorted(combos, key=lambda t: (-t[-1], t) if t else ())
    raise ValueError(f"unknown pivot order {order!r}")


def _rref_pieces(n: int, k: int, q: int, chunk: int,
                 order: str) -> Iterator[tuple]:
    """(size, build) for each piece of iter_rref_blocks(n, k, q, chunk,
    order), in order, as in _projective_pieces."""
    for pivots in _pivot_sets(n, k, order):
        pivset = set(pivots)
        free = [(r, c) for r in range(k)
                for c in range(pivots[r] + 1, n) if c not in pivset]
        total = q ** len(free)
        for start in range(0, total, chunk):
            cnt = min(chunk, total - start)
            yield cnt, functools.partial(_rref_piece, n, q, pivots, free,
                                         start, cnt)


def _rref_piece(n: int, q: int, pivots: tuple, free: list, start: int,
                cnt: int) -> np.ndarray:
    arr = np.zeros((cnt, len(pivots), n), dtype=np.int32)
    arr[:, range(len(pivots)), list(pivots)] = 1
    idx = np.arange(start, start + cnt, dtype=np.int64)
    for r, c in reversed(free):
        arr[:, r, c] = idx % q
        idx //= q
    return arr


def iter_rref_blocks(n: int, k: int, q: int, chunk: int = DEFAULT_CHUNK,
                     order: str = "lex") -> Iterator[np.ndarray]:
    """Row-RREF representatives of the k-dimensional subspaces of GF(q)^n.

    Yields (B, k, n) blocks, one per pivot set cut into at most chunk
    points; rows of each representative are the canonical basis with
    strictly increasing pivots.  Free entries ascend in raw lexicographic
    order with row-major significance.
    """
    for _, build in _rref_pieces(n, k, q, chunk, order):
        yield build()


# the scans rank each logical block in tiles of at most this many product
# cells, so that a tile's products, the kernel's working copy and its
# scratch stay near a core's L2 cache (see the module docstring)
_TILE_CELLS = 1 << 20


def _tiles(B: int, cells: int) -> list:
    """(lo, hi) bounds of the tiles of a block of B points of `cells`
    product cells each: the fewest tiles of at most _TILE_CELLS cells, or
    of one point, with sizes differing by at most one point."""
    per = max(1, _TILE_CELLS // max(cells, 1))
    count = max(1, -(-B // per))
    return [(i * B // count, (i + 1) * B // count) for i in range(count)]


def _blocks(pieces: Iterator[tuple], cells: int, most: int | None = None,
            first: int = 0) -> Iterator[tuple]:
    """Consecutive pieces of an enumeration joined into blocks, in order.

    pieces yields (size, build) pairs as _projective_pieces does, and each
    point costs `cells` product cells.  Each block is one piece, or the
    longest run of whole pieces whose cells fit in min(_TILE_CELLS, room),
    so that it is one tile, and whose points number at most `most` when
    given.  room is `first` for the first block, so that 0 leaves the
    first piece alone, and max(_JOIN_FLOOR, cells of the points before it)
    for each later one.  Yields (block, ends), ends[j] being the enumeration
    position just past the block's j-th piece.  Pieces are built with
    their block, so a piece alone in its block is yielded before the next
    is built.
    """
    pieces = iter(pieces)
    pos = 0
    room = first
    nxt = next(pieces, None)
    while nxt is not None:
        cap = min(_TILE_CELLS, room) // max(cells, 1)
        if most is not None:
            cap = min(cap, most)
        ends = [pos + nxt[0]]
        builds = [nxt[1]]
        nxt = next(pieces, None)
        while nxt is not None and ends[-1] + nxt[0] - pos <= cap:
            ends.append(ends[-1] + nxt[0])
            builds.append(nxt[1])
            nxt = next(pieces, None)
        pos = ends[-1]
        room = max(_JOIN_FLOOR, pos * cells)
        if len(builds) == 1:
            yield builds[0](), ends
        else:
            yield np.concatenate([build() for build in builds]), ends


def _through(ends: list, block: np.ndarray, i: int) -> int:
    """The points a scan ending at point i of a block of _blocks reports:
    every point of the whole pieces up to the one holding point i."""
    return ends[bisect.bisect_right(ends, ends[-1] - len(block) + i)]


# ------------------------------------------------------------------- scans

def _real_form(codes: np.ndarray, p: int, omega: int | None) -> np.ndarray:
    """Residues of the real forms of the (..., m, n) matrices of element
    codes: the codes mod p over GF(p) (omega None), and the (..., 2m, 2n)
    matrix [[X, omega Y], [Y, X]] of X + w Y over GF(p^2)."""
    if omega is None:
        return codes % p
    X, Y = codes // p, codes % p
    return np.block([[X, omega * Y % p], [Y, X]])


def _as_codes(block: np.ndarray, q: int, omega: int | None) -> np.ndarray:
    """A block of iter_projective_blocks(d, q) as element codes, in place:
    over GF(p^2) the leading coordinate, one, is code p."""
    if omega is not None:
        lead = (block != 0).argmax(axis=1)
        block[np.arange(len(block)), lead] = math.isqrt(q)
    return block


def _ranked_joined(basis: np.ndarray, q: int, chunk: int,
                   omega: int | None):
    """(block, ends, tiles) for the blocks of projective combinations of
    the basis matrices, in the order of iter_projective_blocks: block
    holds coefficient codes, ends is as in _blocks, and tiles yields
    (offset, ranks) for the consecutive tiles of the block (see _tiles),
    ranked only as it is read.

    basis: (D, m, n) array of element codes in [0, q).  With omega None, q
    is prime and pieces hold chunk points.  Otherwise q = p^2, w^2 = omega,
    and the ranks come from the real forms (see the module docstring).
    """
    D, m, n = basis.shape
    p = q if omega is None else math.isqrt(q)
    if omega is not None:
        # rows d and D + d: the real forms of B_d and of w B_d
        # = omega Y_d + w X_d
        basis = np.concatenate([basis, omega * (basis % p) % p * p
                                + basis // p])
        m, n = 2 * m, 2 * n
        chunk = max(1, chunk // (m * n))
    gen = _real_form(basis, p, omega)
    # flat[c*m + i, d] = gen[d, i, c], balanced: flat @ coords^T is the
    # batch in the kernel's (C, R, B) layout
    balanced = _balanced(p, _scan_dtype(len(gen), p))
    flat = balanced.take(gen.transpose(2, 1, 0).reshape(n * m, -1))

    def tiles(coords):
        for lo, hi in _tiles(len(coords), m * n):
            ranks = batched_rank_mod_p(
                np.einsum("rd,db->rb", flat, balanced.take(coords[lo:hi].T))
                .reshape(n, m, -1).transpose(2, 1, 0), p)
            yield lo, ranks if omega is None else ranks // 2

    for codes, ends in _blocks(_projective_pieces(D, q, chunk), m * n):
        coords = _as_codes(codes, q, omega)
        if omega is not None:
            coords = np.concatenate([codes // p, codes % p], axis=1)
        yield codes, ends, tiles(coords)


def min_rank_scan(basis: np.ndarray, q: int, chunk: int = DEFAULT_CHUNK,
                  threshold: int | None = None, omega: int | None = None):
    """Scan all projective combinations of the basis matrices.

    basis: (D, m, n) array of element codes over GF(q): q prime, or
    q = p^2 with w^2 = omega, codes as in the module docstring.
    Coefficients come back as codes.

    With threshold=None, returns (min_rank, coeffs, points) for the first
    element attaining the global minimum rank in enumeration order, after
    visiting every point (early exit only when rank 1 is hit, which no later
    point can beat).  With a threshold, returns as soon as the first element
    of rank <= threshold is found; min_rank is then that element's rank and
    coeffs its coefficients, or (None, None, points) if none exists.
    points counts the whole pieces up to the one holding the element
    returned early, or all of them (see the module docstring), except at
    a threshold hit over GF(p^2), where it is the hit's position in the
    enumeration.
    """
    best_rank = best_coeffs = None
    points = 0
    for block, ends, tiles in _ranked_joined(basis, q, chunk, omega):
        points = ends[-1]
        for lo, ranks in tiles:
            if threshold is not None:
                hit = np.flatnonzero(ranks <= threshold)
                if hit.size:
                    i = lo + int(hit[0])
                    points = (_through(ends, block, i) if omega is None
                              else points - len(block) + i + 1)
                    return int(ranks[hit[0]]), block[i].copy(), points
                continue
            local = int(ranks.min())
            if best_rank is None or local < best_rank:
                i = lo + int(np.argmax(ranks == local))
                best_rank, best_coeffs = local, block[i].copy()
                if best_rank == 1:
                    return best_rank, best_coeffs, _through(ends, block, i)
    return best_rank, best_coeffs, points


def _oversampling(q: int) -> int:
    """s(q), the least s >= 1 with q^(s+1) >= 2^10: a (t + s) x t matrix
    over GF(q) drawn at random has rank below t with probability about
    q^-(s+1)."""
    s = 1
    while q ** (s + 1) < 1 << 10:
        s += 1
    return s


def _sketch(rows: int, D: int, q: int) -> np.ndarray:
    """The compression matrix S of surjectivity_scan: rows x D residues
    mod q from a constant-seeded generator, so every run repeats the same
    work.  The stdlib generator spares the GF(p) lane the import of
    numpy.random, which costs time and peak memory."""
    rng = random.Random(0)
    return np.array([[rng.randrange(q) for _ in range(D)]
                     for _ in range(rows)], dtype=np.int64)


def _input_products(block: np.ndarray, W: np.ndarray, m: int, q: int,
                    unit: np.ndarray | None = None) -> np.ndarray:
    """(m k + len(unit), R, B) batch in the kernel's layout over (B, k, n)
    representatives X, for the R basis matrices in W (see _basis_rows):
    column j*m + i, row d of matrix b is (A_d x_j)_i for row x_j of X_b,
    one integer contraction per row j, in W's dtype.  The rows of unit,
    balanced residues of shape (u, R, 1), fill the columns after them in
    every matrix.  Entries are unreduced, of magnitude at most
    n (q // 2)^2."""
    B, k, n = block.shape
    R = W.shape[0] // m
    extra = 0 if unit is None else len(unit)
    out = np.empty((k * m + extra, R, B), dtype=W.dtype)
    # xs[j, t, b] = entry t of row j of X_b, balanced, contiguous along b
    xs = _balanced(q, W.dtype).take(block.transpose(1, 2, 0))
    for j in range(k):
        np.einsum("rt,tb->rb", W, xs[j],
                  out=out[j * m:(j + 1) * m].reshape(m * R, B))
    if extra:
        out[k * m:] = unit
    return out


# the prefix path of _input_tiles pays off once it saves about this many
# cell updates on a block; below it, its extra numpy calls cost more.  On
# the int8 kernel the report's and certify-scan's blocks break even
# between savings of 4.7e5 and 6.2e5
_PREFIX_MIN_SAVING = 1 << 19

# a scan's blocks after its first piece join pieces of up to this many
# product cells in all, or up to the cells ranked before them (see
# _blocks).  Measured in process (min of 400 interleaved runs, 2-CPU
# host) on six min_rank_scan shapes over GF(3), GF(5), GF(7) and GF(9):
# a rank-one first point took 0.07-0.17 ms at every floor, its piece
# being alone, while full scans of 10-121 points took 0.37-0.47 ms with
# no joins, 0.21-0.44 ms at 2^10 cells and 0.21-0.40 ms at 2^12; 2^14
# gained nothing more
_JOIN_FLOOR = 1 << 12


def _prefix_ranks(pre: np.ndarray, runs: np.ndarray, x: np.ndarray,
                  W: np.ndarray, m: int, q: int,
                  unit: np.ndarray) -> np.ndarray:
    """Ranks of the matrices of _input_products over whole runs of
    representatives that share their first k - 1 rows, with one
    elimination per run.  pre (G, k - 1, n) holds each run's first k - 1
    rows and runs the run lengths.  unit (u m, R, 1) holds the columns
    [A_d e_t] for u unit vectors e_t, as balanced residues, and x (B, u)
    each point's last row on them; its other entries are zero.

    Write the matrix of X as [M1 | M2], M1 = [A_d P] for the first k - 1
    rows P and M2 = [A_d x] for the last row x.  For Q spanning the left
    kernel of M1, rank [M1 | M2] = rank M1 + rank (Q M2).  One _eliminate
    of [A_d P | A_d e_t] per run, with lead (k - 1) m, gives rank M1 and
    leaves Q [A_d e_t] on the rows without a pivot and zero on the pivot
    rows; Q M2 is then sum_t x_t Q [A_d e_t], an m-column matrix per
    point.
    """
    G, u = len(runs), x.shape[1]
    R, n = W.shape[0] // m, W.shape[1]
    lead = pre.shape[1] * m
    # the products M[c, r, g]: row r, column c of [A_r P_g | unit]
    rank1, work = _eliminate(_input_products(pre, W, m, q, unit), lead, q,
                             n * (q // 2) ** 2)
    # comp[t, i, r, g]: entry (r, i) of Q_g [A_d e_t], balanced; sums of
    # u products of balanced residues fit dt
    dt = _scan_dtype(u, q)
    comp = _reduce(work[lead:], q).astype(dt, copy=False).reshape(u, m, R, G)
    # rows that are zero for every t (the pivot rows among them) add
    # nothing to any rank: move the others first, in order, and keep as
    # many rows as the fullest run needs
    live = comp.any(axis=(0, 1))
    order = np.argsort(~live, axis=0, kind="stable")[:live.sum(0).max()]
    comp = np.take_along_axis(comp, order[None, None], axis=2)
    # qm2[i, r, b]: entry (r, i) of Q M2 for point b, in the kernel's
    # layout, unreduced
    xs = _balanced(q, dt).take(x.T)
    qm2 = np.repeat(comp[0], runs, axis=2) * xs[0]
    for j in range(1, u):
        qm2 += np.repeat(comp[j], runs, axis=2) * xs[j]
    rank2 = _eliminate(qm2, m, q, u * (q // 2) ** 2)[0]
    return np.repeat(rank1, runs) + rank2


def _run_tiles(runs: np.ndarray, B: int, per_run: int,
               per_point: int) -> list:
    """(g0, g1) bounds of consecutive runs grouped into tiles of at most
    _TILE_CELLS cells, a run of r points costing per_run + r per_point
    cells; a run above that is a tile of its own."""
    G = len(runs)
    if G * per_run + B * per_point <= _TILE_CELLS:
        return [(0, G)]
    cost = np.cumsum(runs * per_point + per_run)
    bounds, g0 = [], 0
    while g0 < G:
        top = (int(cost[g0 - 1]) if g0 else 0) + _TILE_CELLS
        g1 = max(g0 + 1, int(np.searchsorted(cost, top, side="right")))
        bounds.append((g0, g1))
        g0 = g1
    return bounds


def _prefix_saving(W: np.ndarray, m: int, k: int) -> int:
    """The cell updates the prefix route saves per point of a block of
    representatives of k rows, over the basis matrices in W (see
    _input_tiles)."""
    R, n = W.shape[0] // m, W.shape[1]
    t = m * k
    return R * ((t * (t - 1) - m * (m - 1)) // 2 - (n - k + 1) * m)


def _input_tiles(block: np.ndarray, W: np.ndarray, m: int, q: int):
    """(offset, ranks) for consecutive tiles of the block: the ranks of
    the matrices of _input_products(block, W, m, q), tile by tile, each
    tile formed and ranked only as it is read.

    Consecutive representatives share their first k - 1 rows in runs, and
    the prefix route (_prefix_ranks) eliminates those rows once per run:
    each point then costs m(m-1)/2 column updates and u m column
    combinations (u <= n - k + 1 unit vectors) instead of t(t-1)/2 column
    updates, t = m k.  Blocks where that saves less than
    _PREFIX_MIN_SAVING cell updates, or whose runs average fewer than two
    points, take the direct route.  Runs are maximal blocks of consecutive
    equal prefixes, so any order of the block gives the same ranks.

    The route is chosen once per block.  Direct tiles hold at most
    _TILE_CELLS product cells (see _tiles); prefix tiles end on run
    boundaries, so that no run's M1 is eliminated twice, and hold at most
    _TILE_CELLS cells of M1 and Q M2 products unless one run does.
    """
    B, k, n = block.shape
    R = W.shape[0] // m
    t = m * k
    direct = k == 1 or B * _prefix_saving(W, m, k) < _PREFIX_MIN_SAVING
    if not direct:
        pre = block[:, :k - 1]
        shift = (pre[1:] != pre[:-1]).any(axis=(1, 2))
        starts = np.concatenate(([0], np.flatnonzero(shift) + 1))
        G = len(starts)
        direct = 2 * G > B
    if direct:
        for lo, hi in _tiles(B, t * R):
            yield lo, batched_rank_mod_p(
                _input_products(block[lo:hi], W, m, q).transpose(2, 1, 0), q)
        return
    runs = np.diff(starts, append=B)
    x = block[:, k - 1]
    used = np.flatnonzero(x.any(axis=0))
    u = len(used)
    unit = W.reshape(m, R, n)[:, :, used].transpose(2, 0, 1)
    unit = unit.reshape(u * m, R, 1)
    for g0, g1 in _run_tiles(runs, B, (t - m + u * m) * R, m * R):
        lo = int(starts[g0])
        hi = int(starts[g1]) if g1 < G else B
        yield lo, _prefix_ranks(pre[starts[g0:g1]], runs[g0:g1],
                                x[lo:hi, used], W, m, q, unit)


def _input_ranks(block: np.ndarray, W: np.ndarray, m: int,
                 q: int) -> np.ndarray:
    """Ranks of the matrices of _input_products(block, W, m, q): every
    tile of _input_tiles in one array, with no copy for one tile."""
    tiles = [ranks for _, ranks in _input_tiles(block, W, m, q)]
    return tiles[0] if len(tiles) == 1 else np.concatenate(tiles)


def surjectivity_scan(basis: np.ndarray, k: int, q: int,
                      chunk: int = DEFAULT_CHUNK):
    """Definitional k-transitivity scan over GF(q), q prime.

    basis: (D, m, n) array for a subspace L of Mat(m, n).  Enumerates the
    canonical representatives X of all k-dimensional input subspaces and
    checks that A -> A @ X maps L onto Mat(m, k), i.e. the stacked
    (D, m*k) coefficient matrix M has full rank t = m*k.

    Blocks are ranked tile by tile, in enumeration order (see the module
    docstring and _input_tiles), and the first tile holding a failure
    ends the scan.  When D > t + s(q) (see _oversampling), each tile is
    first ranked on the t + s(q) rows of S M, for the fixed S of _sketch,
    by applying the compressed basis S A once formed.
    rank(S M) <= rank M <= t, so a point whose compressed rank is t
    passes; the tile's other points are the candidates, ranked again on
    their full D-row products, and the first candidate whose full rank is
    below t is the tile's first failure.  The result is therefore the
    same for every S.

    Both rankings eliminate the first k - 1 rows of each run of
    representatives once and rank only the m-column remainder Q M2 of
    each point (rank M = rank M1 + rank Q M2, Q spanning the left kernel
    of M1) where that saves work.  Every point gets its own rank, so
    points, candidates and the first failure are those of ranking each M
    directly, whatever the blocks and tiles; points counts every point of
    the pieces up to the one holding the first failure.

    Returns (ok, first_failure, points): first_failure is the (n, k) input
    matrix (columns are the representative rows) of the first failing
    subspace in enumeration order, or None.
    """
    D, m, n = basis.shape
    points = 0
    target = m * k
    full = _basis_rows(basis, q)
    rows = target + _oversampling(q)
    sketched = D > rows
    probe = full
    if sketched:
        flat = basis.reshape(D, m * n) % q
        probe = _basis_rows(
            _mod_matmul(_sketch(rows, D, q), flat, q).reshape(rows, m, n), q)
    # pieces joined into one block take the direct route, as each of them
    # does alone: their saving stays below _PREFIX_MIN_SAVING
    per = _prefix_saving(probe, m, k)
    most = (_PREFIX_MIN_SAVING - 1) // per if per > 0 else None
    pieces = _rref_pieces(n, k, q, chunk, "lex")
    for block, ends in _blocks(pieces, len(probe) * k, most):
        points = ends[-1]
        for lo, ranks in _input_tiles(block, probe, m, q):
            bad = np.flatnonzero(ranks < target)
            if sketched and bad.size:
                cand = block[lo:lo + len(ranks)][bad]
                bad = bad[_input_ranks(cand, full, m, q) < target]
            if bad.size:
                i = lo + int(bad[0])
                return False, block[i].T.copy(), _through(ends, block, i)
    return True, None, points


def separation_scan(basis: np.ndarray, k: int,
                    q: int) -> Optional[np.ndarray]:
    """k-separation scan over GF(q), q prime.

    basis: (D, m, n) array for a subspace L of Mat(m, n).  L is k-separating
    when, for every (k-1)-dimensional subspace V' of GF(q)^n, the common
    kernel ck of W = {A in L : A V' = 0} lies inside V'.  The V' are walked
    in the order of iter_rref_blocks(n, k - 1, q, order="far-first").

    Rank criterion.  Every A in W kills V', so V' lies in ck, and
    ck = V' (+) (ck meet Y) for any complement Y of V': ck lies inside V'
    iff dim ck == k - 1.  Index the rows of [A_d X] by the basis element
    d, where X is the representative of V': a coefficient vector c
    gives an element A_c of W iff c kills [A_d X] from the left.  ck is the
    common kernel of the A_c over a basis of that left kernel, so
    dim ck = n - rank of those A_c stacked, and V' violates iff that rank
    is below n - (k - 1).

    Each representative is one matrix [A_d X | A_d e_1 | ... | A_d e_n]
    over the unit vectors e_t; the columns A_d e_t are those of the basis
    and the same for every V'.  The kernel eliminates the (k-1) m leading
    columns; the rows without a pivot then hold c^T [A_d e_t] for a basis
    of that left kernel, which are the entries of the A_c, and the pivot
    rows hold zero.  A second kernel call ranks them as a (D m) x n
    matrix.  Nothing depends on the pivot set of V', so blocks join whole
    pieces of flags across pivot sets, the first block too (see _blocks),
    and each tile costs one product and two kernel calls.

    Returns the (k-1, n) representative of the first violating V' in
    enumeration order, or None when L is k-separating over GF(q).
    """
    D, m, n = basis.shape
    j = k - 1
    lead = j * m
    W = _basis_rows(basis, q)
    # unit[t*m + i, d, 0] = (A_d e_t)_i
    unit = W.reshape(m, D, n).transpose(2, 0, 1).reshape(n * m, D, 1)
    # cells of [A_d X | A_d e_t] per flag
    width = (lead + n * m) * max(D, 1)
    pieces = _rref_pieces(n, j, q, DEFAULT_CHUNK, "far-first")
    for block, _ in _blocks(pieces, width, first=_TILE_CELLS):
        for lo, hi in _tiles(len(block), width):
            # the products [A_d X | A_d e_t], read by the first kernel call
            # only: M[c, d, b] is row d, column c of representative b's
            # matrix
            rest = _eliminate(_input_products(block[lo:hi], W, m, q, unit),
                              lead, q, n * (q // 2) ** 2)[1][lead:]
            # stacked[t, i*D + d, b] = (A_c e_t)_i mod p, c the left-kernel
            # vector row d of representative b now holds; n columns keep
            # the kernel's column loop short
            stacked = rest.reshape(n, m * D, hi - lo)
            ranks = batched_rank_mod_p(stacked.transpose(2, 1, 0), q)
            # the next tile's arrays must not meet this one's
            del rest, stacked
            bad = np.nonzero(ranks < n - j)[0]
            if bad.size:
                return block[lo + int(bad[0])].copy()
    return None


def rank_extremes_scan(basis: np.ndarray, q: int, chunk: int = DEFAULT_CHUNK,
                       omega: int | None = None):
    """Exhaustive min nonzero rank and max singular rank over GF(q).

    basis: (D, n, n) codes, q and omega as in min_rank_scan.  Returns
    (r, r_coeffs, s, s_coeffs, points); s is None when every nonzero
    element is invertible.  Witnesses are the first attaining elements in
    enumeration order.
    """
    D, m, n = basis.shape
    if m != n:
        raise ValueError("rank extremes need a square ambient")
    r = r_coeffs = s = s_coeffs = None
    points = 0
    for block, ends, tiles in _ranked_joined(basis, q, chunk, omega):
        points = ends[-1]
        for lo, ranks in tiles:
            local_min = int(ranks.min())
            if r is None or local_min < r:
                i = int(np.argmax(ranks == local_min))
                r, r_coeffs = local_min, block[lo + i].copy()
            sing = ranks[ranks < n]
            if sing.size:
                local_max = int(sing.max())
                if s is None or local_max > s:
                    i = int(np.argmax(ranks == local_max))
                    s, s_coeffs = local_max, block[lo + i].copy()
    return r, r_coeffs, s, s_coeffs, points


def rank_one_pair_scan(cokernel: np.ndarray, m: int, n: int, q: int,
                       omega: int | None = None):
    """All projective pairs (x, y) with x y^T in the subspace.

    cokernel: (R, m*n) array of element codes, q and omega as in
    min_rank_scan, whose rows annihilate (by the standard dot product on
    row-major coordinates) exactly the vectorizations of subspace
    elements: x y^T lies in the subspace iff x^T C_r y = 0 for the m x n
    matrix C_r of every row r.  Each tile of x's forms U = x^T C_r, then
    U y for every y.  Over GF(p^2) both products run on real forms: the
    last row of the real form of a row vector z is [Im z, Re z], and the
    real form is multiplicative, so the last row of the real form of x^T
    times that of C_r is [Im, Re] of x^T C_r, and that times the real form
    of y is [Im, Re] of x^T C_r y.

    Returns (x, y) code vectors in enumeration order (x outer, y inner,
    both in the projective order of iter_projective_blocks).
    """
    p = q if omega is None else math.isqrt(q)
    xs, ys = (_as_codes(np.concatenate(list(iter_projective_blocks(d, q))),
                        q, omega) for d in (m, n))
    # rows[b]: the last row of the real form of x_b^T
    rows = _real_form(xs[:, None, :], p, omega)[:, -1]
    # C[i, r*n2 + j]: entry (i, j) of the real form of C_r
    C = _real_form(cokernel.reshape(-1, m, n), p, omega)
    R, m2, n2 = C.shape
    C = C.transpose(1, 0, 2).reshape(m2, R * n2)
    # Y[j, b*c + e]: entry (j, e) of the real form of the column y_b
    Y = _real_form(ys[:, :, None], p, omega)
    c = Y.shape[2]
    Y = Y.transpose(1, 0, 2).reshape(n2, len(ys) * c)
    out = []
    for lo, hi in _tiles(len(xs), R * len(ys) * c):
        U = _mod_matmul(rows[lo:hi], C, p).reshape((hi - lo) * R, n2)
        resid = _mod_matmul(U, Y, p) % p
        hits = ~resid.reshape(hi - lo, R, len(ys), c).any(axis=(1, 3))
        for i, j in zip(*np.nonzero(hits)):
            out.append((xs[lo + i].copy(), ys[j].copy()))
    return out
