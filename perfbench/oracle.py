"""Brute-force answers for the small finite-field workload.

Plain Python over GF(p) and GF(9), sharing no code with translab: field
elements are the integers 0..q-1 (for GF(9), a + 3b stands for a + b*w with
w*w = 2, the representation translab uses for GF(3^2)).  Everything here is
exhaustive: minimum ranks visit every nonzero pre-annihilator element up to
scalars, and separation visits every flag.
"""

from __future__ import annotations

import itertools


class SmallField:
    """GF(q) for a prime q or q = 9, as lookup tables on 0..q-1."""

    def __init__(self, q: int):
        self.q = q
        if q == 9:
            p, w2 = 3, 2

            def mul(x, y):
                a, b, c, d = x % 3, x // 3, y % 3, y // 3
                return (a * c + w2 * b * d) % p + 3 * ((a * d + b * c) % p)

            def add(x, y):
                return (x % 3 + y % 3) % 3 + 3 * ((x // 3 + y // 3) % 3)
        else:
            def mul(x, y):
                return x * y % q

            def add(x, y):
                return (x + y) % q
        els = range(q)
        self.add = [[add(x, y) for y in els] for x in els]
        self.mul = [[mul(x, y) for y in els] for x in els]
        self.neg = [next(y for y in els if self.add[x][y] == 0) for x in els]
        self.inv = [0] + [next(y for y in els if self.mul[x][y] == 1)
                          for x in range(1, q)]


def rref(rows, F: SmallField):
    """Reduced row echelon form of a list of rows; returns (rows, pivots)."""
    rows = [list(r) for r in rows if any(r)]
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = inv[rows[r][c]]
        rows[r] = [mul[s][x] for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                nf = neg[f]
                rows[i] = [add[x][mul[nf][y]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, F: SmallField) -> int:
    return len(rref(rows, F)[1])


def nullspace(rows, ncols: int, F: SmallField) -> list:
    """Basis of {x : rows . x = 0}."""
    R, pivots = rref(rows, F) if rows else ([], [])
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg[R[r][j]]
        basis.append(v)
    return basis


def combine(coeffs, vecs, F: SmallField) -> list:
    out = [0] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            out = [F.add[x][F.mul[c][y]] for x, y in zip(out, v)]
    return out


def projective(d: int, q: int):
    """Every nonzero vector of GF(q)^d up to scalars (leading entry 1)."""
    for lead in range(d):
        for tail in itertools.product(range(q), repeat=d - 1 - lead):
            yield (0,) * lead + (1,) + tail


def matrix_rank(flat, rows: int, cols: int, F: SmallField) -> int:
    return rank([flat[i * cols:(i + 1) * cols] for i in range(rows)], F)


def preannihilator(gens, m: int, n: int, F: SmallField) -> list:
    """Basis (row-major n x m vectors) of {T : Tr(A T) = 0 for A in span}.

    Tr(A T) = sum_ij A[i][j] T[j][i], so each generator contributes the row
    with A[i][j] at T's coordinate j*m + i."""
    eqs = []
    for A in gens:
        row = [0] * (m * n)
        for i in range(m):
            for j in range(n):
                row[j * m + i] = A[i * n + j]
        eqs.append(row)
    return nullspace(eqs, m * n, F)


def rank_profile(basis, rows: int, cols: int, F: SmallField) -> tuple:
    """(min nonzero rank, max rank below min(rows, cols) or None) over every
    nonzero element of span(basis), by enumeration up to scalars."""
    full = min(rows, cols)
    lo = hi = None
    for c in projective(len(basis), F.q):
        r = matrix_rank(combine(c, basis, F), rows, cols, F)
        lo = r if lo is None else min(lo, r)
        if r < full:
            hi = r if hi is None else max(hi, r)
        if lo == 1 and hi == full - 1:  # neither can move any further
            break
    return lo, hi


def subspaces(n: int, d: int, q: int):
    """Every d-dimensional subspace of GF(q)^n, as an RREF basis."""
    for pivots in itertools.combinations(range(n), d):
        free = [(r, c) for r in range(d) for c in range(pivots[r] + 1, n)
                if c not in pivots]
        for vals in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, vals):
                rows[r][c] = v
            yield rows


def is_separating(gens, m: int, n: int, k: int, F: SmallField) -> bool:
    """k-separation checked on every (k-1)-dimensional V: the common kernel
    of W = {A in span(gens) : A V = 0} must lie inside V."""
    add, mul = F.add, F.mul
    for V in subspaces(n, k - 1, F.q):
        # coefficient c is in W iff sum_d c_d (B_d v) = 0 for v in V
        cols = []
        for B in gens:
            col = []
            for v in V:
                for i in range(m):
                    s = 0
                    for j in range(n):
                        s = add[s][mul[B[i * n + j]][v[j]]]
                    col.append(s)
            cols.append(col)
        if V:
            eqs = [[cols[d][t] for d in range(len(gens))]
                   for t in range(len(cols[0]))]
            W = [combine(c, gens, F) for c in nullspace(eqs, len(gens), F)]
        else:
            W = [list(B) for B in gens]
        stacked = [A[i * n:(i + 1) * n] for A in W for i in range(m)]
        kernel = nullspace(stacked, n, F) if stacked else \
            [[int(i == t) for i in range(n)] for t in range(n)]
        base = rank(V, F) if V else 0
        for x in kernel:
            if rank(V + [x], F) > base:
                return False
    return True
