"""Transitivity and separation deciders with explicit soundness labels.

The central dichotomy: a subspace L of Mat(m, n) is k-transitive exactly
when its pre-annihilator contains no nonzero element of rank at most k.
Over a finite field both sides of that equivalence can be decided by
exhaustive enumeration; over Q or Q(i) the exact routes are the pencil
procedure (dim <= 2) and verified witnesses, while finite-field
certification is reported as such and never silently promoted to a
characteristic-zero claim.

Over GF(p) three exhaustive routes answer the same question.  L is
k-transitive exactly when L^T is, since (L^T)^perp = (L^perp)^T and
transposing keeps every rank.  So besides the pre-annihilator route
(projective_count(dim L^perp, p) elements) and the input-subspace route
(the Gr(k, n) input subspaces of L), the output-subspace route scans the
Gr(k, m) input subspaces of L^T.  The smallest count runs, ties going to
the first two.  Witnesses come only from the first two: when the
output-subspace route finds a failure, the cheaper of them runs as well
and must fail too, so no verdict or witness depends on the choice.

Over Q or Q(i), transitivity and separation certify by one rule.  The
space is reduced mod each requested prime; a prime that collides with a
denominator is replaced by the next fallback prime.  The verdict is
certified_finite_field only when every prime that ran certified and at
least as many primes ran as were requested.  A failure found mod p
disproves only once its lift to the space's own field verifies exactly.

Verdict statuses:

* ``disproved``                a verified witness exists; valid over every
                               extension of the witness's field
* ``certified_exact``          no low-rank element over the algebraic
                               closure (pencil / singleton route only)
* ``certified_finite_field``   exhaustive absence over the listed primes'
                               fields, and nothing more
* ``unknown``                  no sound conclusion within the budget
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field
from enum import Enum
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .errors import (BadPrime, BudgetExceeded, DimensionTooLarge,
                     ShapeMismatch, VerificationFailed)
from .fields import (
    QI,
    QQ,
    GF,
    Field,
    GaussianRational,
    PrimeFieldDomain,
    is_prime,
)
from .lowrank import search_low_rank_element
from .matrices import Mat, _matvec
from . import modp
from .polynomials import BinaryForm, poly_add, poly_mul, poly_neg
from .subspace import MatrixSubspace

__all__ = [
    "Status",
    "RankWitness",
    "TransitivityVerdict",
    "SeparationVerdict",
    "PencilResult",
    "RankExtremes",
    "DefinitionalSample",
    "check_k_transitive",
    "min_rank_ff_exhaustive",
    "pencil_min_rank_exact",
    "rank_witness_search_numeric",
    "definitional_transitivity_sample",
    "definitional_k_transitive_ff",
    "check_k_separating",
    "rank_one_elements_ff",
    "verify_rank_spanning",
    "find_invertible",
    "rank_extremes_ff",
    "transitivity_disproof_from_witness",
    "DEFAULT_PRIMES",
    "DEFAULT_BUDGET",
]

DEFAULT_PRIMES = (5, 7)
DEFAULT_BUDGET = 10**8
# primes 2 and 3 are skipped by default: degenerate reductions are common
_FALLBACK_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


class Status(str, Enum):
    DISPROVED = "disproved"
    CERTIFIED_EXACT = "certified_exact"
    CERTIFIED_FINITE_FIELD = "certified_finite_field"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RankWitness:
    """A nonzero element of a subspace with verified rank bound.

    coefficients are taken over the canonical basis of the space that was
    searched (the pre-annihilator for transitivity disproofs); the matrix is
    the assembled element.
    """

    coefficients: tuple
    matrix: Mat
    rank_bound: int

    def verify(self, space: MatrixSubspace) -> bool:
        """Re-verify through independent exact elimination: nonzero,
        member of the space, rank within the bound."""
        T = self.matrix
        if T.is_zero():
            return False
        if T.rank() > self.rank_bound:
            return False
        if T.shape != (space.rows, space.cols) or T.field != space.field:
            return False
        return space.contains(T)


class _Verdict:
    """What transitivity and separation verdicts share: whether the status
    certifies, and its soundness label."""

    @property
    def certified(self) -> bool:
        return self.status in (Status.CERTIFIED_EXACT,
                               Status.CERTIFIED_FINITE_FIELD)

    @property
    def soundness(self) -> str:
        if self.status == Status.CERTIFIED_EXACT:
            return "no low-rank obstruction over the algebraic closure"
        if self.status == Status.CERTIFIED_FINITE_FIELD:
            fields = ", ".join(f"GF({p})" for p in self.primes)
            return (f"exhaustively certified over {fields} only; "
                    "does not transfer to characteristic zero")
        if self.status == Status.DISPROVED:
            tag = self.evidence.get("witness_field", "")
            if tag in ("Q", "Qi"):
                return f"exact witness over {tag}; valid over every extension"
            return f"witness over {tag}; valid for that field only"
        return "no sound conclusion reached within the budget"


@dataclass
class TransitivityVerdict(_Verdict):
    status: Status
    k: int
    witness: Optional[RankWitness]
    primes: tuple = ()
    evidence: dict = dc_field(default_factory=dict)


@dataclass
class SeparationVerdict(_Verdict):
    status: Status
    k: int
    witness_columns: Optional[Mat]  # n x k, full column rank
    primes: tuple = ()
    evidence: dict = dc_field(default_factory=dict)


@dataclass
class PencilResult:
    """Outcome of the exact dim <= 2 decision.

    low_rank_exists is decided over the algebraic closure; the witness, when
    present, lives in the base field (or Q(i) when a Q pencil only has
    Gaussian roots) and is exactly verified.
    """

    low_rank_exists: bool
    witness: Optional[RankWitness]
    witness_field_tag: Optional[str]
    gcd_certificate: Optional[tuple]


@dataclass
class RankExtremes:
    min_nonzero_rank: int
    min_witness: Mat
    max_singular_rank: Optional[int]
    max_witness: Optional[Mat]
    points: int


@dataclass
class DefinitionalSample:
    found_counterexample: bool
    tuple_matrix: Optional[Mat]
    trials: int
    seed: int


# --------------------------------------------------------------- utilities

def _require(cond: bool, what: str) -> None:
    """Raise VerificationFailed unless cond holds; unlike assert, this
    check also runs under python -O."""
    if not cond:
        raise VerificationFailed(f"{what} failed exact re-verification")


def _witness(coeffs, T: Mat, k: int, space: MatrixSubspace) -> RankWitness:
    """RankWitness(coeffs, T, k), once RankWitness.verify accepts it as an
    element of space; every rank witness is built here."""
    w = RankWitness(tuple(coeffs), T, k)
    _require(w.verify(space), "rank witness")
    return w


def _check_primes(primes: Sequence[int]) -> None:
    """Raise ValueError unless every certification prime is a prime."""
    bad = [p for p in primes if not is_prime(p)]
    if bad:
        raise ValueError(f"certification primes must be prime, got {bad}")


def _codes(f: Field, entries) -> tuple:
    """(codes, omega) for modp's scans over a finite field f: the entries
    as a flat array of indices into f.elements(), and f's omega over
    GF(p^2), None over GF(p)."""
    if isinstance(f, PrimeFieldDomain):
        return np.array([x.value for x in entries], dtype=np.int64), None
    return (np.array([x.a * f.p + x.b for x in entries], dtype=np.int64),
            f.omega)


def _scan_codes(V: MatrixSubspace) -> tuple:
    """(codes, omega) for modp's projective scans: V's basis as a
    (D, m, n) array of codes (see _codes)."""
    codes, omega = _codes(V.field, [x for B in V.basis for x in B.entries()])
    return codes.reshape(V.dim, V.rows, V.cols), omega


def _from_codes(field: Field, codes) -> list:
    elems = field.elements()
    return [elems[int(c)] for c in codes]


def _lift_vectors(coeffs: Sequence[int], p: int):
    """Plain and centered integer lifts of GF(p) coefficients."""
    plain = tuple(int(c) % p for c in coeffs)
    centered = tuple(c if c <= p // 2 else c - p for c in plain)
    yield plain
    if centered != plain:
        yield centered


def _lift_to_qi(L: MatrixSubspace) -> MatrixSubspace:
    gens = [Mat(QI, B.rows, B.cols,
                [GaussianRational(x, 0) for x in B.entries()])
            for B in L.basis]
    return MatrixSubspace.from_generators(gens, rows=L.rows, cols=L.cols,
                                          field=QI)


def _projective_tuples_generic(field: Field, d: int):
    """Projective coefficient tuples over any finite field, ascending lex
    order of the raw tuple with first nonzero coordinate equal to one.
    Mirrors modp.iter_projective_blocks for prime fields; the reference
    order of _choose_final_vector's closed form."""
    elems = field.elements()
    one = field.one()
    zero = field.zero()
    for lead in range(d - 1, -1, -1):
        nfree = d - 1 - lead
        for suffix in itertools.product(elems, repeat=nfree):
            yield tuple([zero] * lead + [one] + list(suffix))


# ------------------------------------------------------ exhaustive FF ops

def min_rank_ff_exhaustive(V: MatrixSubspace,
                           budget: int = DEFAULT_BUDGET) -> tuple:
    """Exact minimum rank over the nonzero elements of a finite-field
    subspace, with the first witness in projective enumeration order.

    The enumeration cost is measured as q**dim(V) raw points against the
    budget.  Raises BudgetExceeded beyond it.
    """
    f = V.field
    if not f.is_finite:
        raise ShapeMismatch("min_rank_ff_exhaustive needs a finite field")
    if V.dim == 0:
        raise ValueError("the zero subspace has no nonzero elements")
    q = f.size
    if q**V.dim > budget:
        raise BudgetExceeded(
            f"{q}^{V.dim} points exceed the budget of {budget}")
    basis, omega = _scan_codes(V)
    best, codes, _pts = modp.min_rank_scan(basis, q, omega=omega)
    coeffs = _from_codes(f, codes)
    return best, _witness(coeffs, V.element(coeffs), best, V)


def _ff_low_rank_threshold(V: MatrixSubspace, k: int, budget: int):
    """First element of rank <= k in projective order, or None.

    Returns (coeffs, matrix, points) or (None, None, points)."""
    f = V.field
    q = f.size
    if q**V.dim > budget:
        raise BudgetExceeded(f"{q}^{V.dim} points exceed the budget")
    basis, omega = _scan_codes(V)
    r, codes, pts = modp.min_rank_scan(basis, q, threshold=k, omega=omega)
    if r is None:
        return None, None, pts
    c = _from_codes(f, codes)
    return tuple(c), V.element(c), pts


def definitional_k_transitive_ff(L: MatrixSubspace, k: int,
                                 budget: int = DEFAULT_BUDGET) -> tuple:
    """Exhaustive definitional check over the subspace's own prime field:
    for every canonical representative X of a k-dimensional input subspace,
    the map A -> A @ X restricted to L must cover Mat(m, k).

    Returns (ok, first_failure_X or None, points)."""
    f = L.field
    if not isinstance(f, PrimeFieldDomain):
        raise ShapeMismatch("definitional exhaustive check needs GF(p)")
    q = f.size
    n = L.cols
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= cols")
    points = modp.gaussian_binomial(n, k, q)
    if points > budget:
        raise BudgetExceeded(f"{points} input subspaces exceed the budget")
    if L.dim == 0:
        # every input subspace fails; the first is spanned by e_1, ..., e_k
        return False, Mat(f, n, k, [f.one() if i == j else f.zero()
                                    for i in range(n) for j in range(k)]), 0
    basis = _scan_codes(L)[0]
    ok, failure, pts = modp.surjectivity_scan(basis, k, q)
    if ok:
        return True, None, pts
    return False, Mat(f, n, k, _from_codes(f, failure.ravel())), pts


def rank_one_elements_ff(L: MatrixSubspace,
                         budget: int = DEFAULT_BUDGET) -> list:
    """All rank-one elements x y^T of a finite-field subspace up to scalar,
    in projective (x outer, y inner) enumeration order."""
    f = L.field
    if not f.is_finite:
        raise ShapeMismatch("rank_one_elements_ff needs a finite field")
    q = f.size
    m, n = L.rows, L.cols
    if q ** (m + n) > budget:
        raise BudgetExceeded(f"{q}^{m + n} pairs exceed the budget")
    cok = L.coordinate_matrix().kernel()
    codes, omega = _codes(f, [x for z in cok for x in z])
    elems = f.elements()
    return [Mat(f, m, n, [elems[a] * elems[b] for a in x for b in y])
            for x, y in modp.rank_one_pair_scan(
                codes.reshape(len(cok), m * n), m, n, q, omega)]


def rank_extremes_ff(L: MatrixSubspace,
                     budget: int = DEFAULT_BUDGET) -> RankExtremes:
    """Exhaustive minimum nonzero rank r and maximum singular rank s over
    the subspace's own finite field (square ambient)."""
    f = L.field
    if not f.is_finite:
        raise ShapeMismatch("rank_extremes_ff needs a finite field")
    if L.rows != L.cols:
        raise ShapeMismatch("rank_extremes_ff needs a square ambient")
    if L.dim == 0:
        raise ValueError("the zero subspace has no nonzero elements")
    q = f.size
    if q**L.dim > budget:
        raise BudgetExceeded(f"{q}^{L.dim} points exceed the budget")
    basis, omega = _scan_codes(L)
    r, rc, s, sc, pts = modp.rank_extremes_scan(basis, q, omega=omega)
    rmat = L.element(_from_codes(f, rc))
    smat = L.element(_from_codes(f, sc)) if sc is not None else None
    return RankExtremes(r, rmat, s, smat, pts)


# ----------------------------------------------------------- pencil route

def pencil_min_rank_exact(V: MatrixSubspace, k: int) -> PencilResult:
    """Exact low-rank decision for dim(V) <= 2 over Q or Q(i).

    dim 1: compare the basis matrix's rank with k.  dim 2: the rank <= k
    locus of the pencil c0 B0 + c1 B1 is cut out by the (k+1)-minors, which
    are binary forms in (c0, c1); a nonzero rank <= k element exists over
    the algebraic closure iff their gcd is nonconstant.  A root of the gcd
    in the base field (or in Q(i) for a Q pencil) gives an exact witness.
    """
    f = V.field
    if f not in (QQ, QI):
        raise ShapeMismatch("the pencil procedure runs over Q or Qi")
    if V.dim > 2:
        raise DimensionTooLarge(f"pencil procedure needs dim <= 2, got {V.dim}")
    if V.dim == 0:
        return PencilResult(False, None, None, None)
    B0 = V.basis[0]
    first = (f.one(),) + (f.zero(),) * (V.dim - 1)
    if k >= min(V.rows, V.cols):
        return PencilResult(True, _witness(first, B0, k, V), f.tag, None)
    if V.dim == 1:
        if B0.rank() <= k:
            return PencilResult(True, _witness(first, B0, k, V), f.tag, None)
        return PencilResult(False, None, None, None)

    gcd = BinaryForm.gcd(_minor_forms(B0, V.basis[1], k + 1))
    if gcd is None:
        # every (k+1)-minor vanishes identically: all elements have rank <= k
        return PencilResult(True, _witness(first, B0, k, V), f.tag, None)
    cert = (tuple(gcd.poly), gcd.inf_mult)
    if not gcd.has_projective_root():
        return PencilResult(False, None, None, cert)
    # a Q pencil without a rational witness tries its Gaussian roots; a Q(i)
    # witness still disproves transitivity over every extension of Q(i), in
    # particular over C
    for g in (f, QI) if f == QQ else (f,):
        W = V if g == f else _lift_to_qi(V)
        for (c0, c1) in gcd.roots_in_field(g):
            T = W.basis[0].scale(c0) + W.basis[1].scale(c1)
            if not T.is_zero() and T.rank() <= k:
                return PencilResult(True, _witness((c0, c1), T, k, W), g.tag,
                                    cert)
    return PencilResult(True, None, None, cert)


def _minor_forms(B0: Mat, B1: Mat, size: int) -> list:
    """All size x size minors of c0 B0 + c1 B1 as binary forms (dehomogenized
    at c1 = 1, entries are degree <= 1 polynomials in t = c0).

    Each minor is expanded along its first row, skipping zero entries.  The
    minor on the remaining rows and columns is memoized, so minors that
    share their trailing rows share those expansions."""
    m, n = B0.shape
    entries = {(i, j): (B1[i, j], B0[i, j]) for i in range(m)
               for j in range(n) if B0[i, j] or B1[i, j]}
    memo: dict = {}

    def minor(rows, cols):
        key = (rows, cols)
        if key in memo:
            return memo[key]
        det = ()
        for j, c in enumerate(cols):
            e = entries.get((rows[0], c))
            if e is None:
                continue
            if len(rows) == 1:
                det = poly_add(det, e)
                continue
            sub = minor(rows[1:], cols[:j] + cols[j + 1:])
            if sub:
                term = poly_mul(e, sub)
                det = poly_add(det, poly_neg(term) if j % 2 else term)
        memo[key] = det
        return det

    return [BinaryForm(minor(rows, cols), size)
            for rows in itertools.combinations(range(m), size)
            for cols in itertools.combinations(range(n), size)]


# -------------------------------------------------------- numeric search

def rank_witness_search_numeric(V: MatrixSubspace, k: int, *, seed: int = 0,
                                iterations: int = 300, restarts: int = 10,
                                tol: float = 1e-9,
                                max_denominator: int = 10**6,
                                stats: Optional[dict] = None
                                ) -> Optional[RankWitness]:
    """Alternating-minimization front end; never returns an unverified
    witness (failure is None, false positives are impossible).  A given
    stats dict receives the search's integer counts."""
    if V.field not in (QQ, QI):
        raise ShapeMismatch("numeric search runs over Q or Qi")
    hit = search_low_rank_element(
        V, k, seed=seed, iterations=iterations, restarts=restarts, tol=tol,
        max_denominator=max_denominator, stats=stats)
    if hit is None:
        return None
    coeffs, T = hit
    return _witness(coeffs, T, k, V)


# ------------------------------------------------------- main transitivity

def check_k_transitive(L: MatrixSubspace, k: int, strategy: str = "auto", *,
                       primes: Sequence[int] = DEFAULT_PRIMES, seed: int = 0,
                       budget: int = DEFAULT_BUDGET,
                       numeric_iterations: int = 300,
                       numeric_restarts: int = 10,
                       max_denominator: int = 10**6) -> TransitivityVerdict:
    """Decide k-transitivity with an explicit soundness label.

    Dispatch: dim of the pre-annihilator 0 -> certified exact; finite-field
    ambient -> exhaustive enumeration over that field; dim <= 2 over Q/Qi ->
    exact pencil; otherwise finite-field certification over the requested
    primes and, per strategy, the numeric witness search.  Disproofs carry
    exactly verified witnesses and transfer to every field extension of the
    witness's field; k = 0 is rejected; k >= min(m, n) short-circuits to
    the full-space test.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if strategy not in ("auto", "ff", "numeric"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_primes(primes)
    m, n = L.rows, L.cols
    Lp = L.preannihilator()
    d = Lp.dim
    ev: dict = {"strategy": strategy, "seed": seed, "budget": budget,
                "dim": L.dim, "dim_perp": d, "steps": []}

    if k >= min(m, n):
        ev["steps"].append("forced: k >= min(m, n), transitive iff full")
        if d == 0:
            return TransitivityVerdict(Status.CERTIFIED_EXACT, k, None, (), ev)
        coeffs = [Lp.field.one()] + [Lp.field.zero()] * (d - 1)
        return _disproved(k, _witness(coeffs, Lp.basis[0], k, Lp), ev)

    if d == 0:
        ev["steps"].append("pre-annihilator is zero")
        return TransitivityVerdict(Status.CERTIFIED_EXACT, k, None, (), ev)

    if L.field.is_finite:
        def decide():
            coeffs, T = _low_rank_over_own_field(L.field, L, lambda: L,
                                                 lambda: Lp, k, budget, ev)
            return coeffs and _disproved(k, _witness(coeffs, T, k, Lp), ev)
        return _own_field_verdict(TransitivityVerdict, L, k, ev, decide)

    if d <= 2:
        ev["steps"].append("pencil route (dim <= 2)")
        res = pencil_min_rank_exact(Lp, k)
        if res.gcd_certificate is not None:
            ev["pencil_gcd"] = _cert_to_strings(res.gcd_certificate, L.field)
        if not res.low_rank_exists:
            return TransitivityVerdict(Status.CERTIFIED_EXACT, k, None, (), ev)
        if res.witness is not None:
            return _disproved(k, res.witness, ev)
        ev["steps"].append(
            "a low-rank element exists over the algebraic closure but has "
            "no root in the base field; no witness to report")
        return TransitivityVerdict(Status.UNKNOWN, k, None, (), ev)

    # quick disproof: the canonical basis occasionally contains a witness
    for i, B in enumerate(Lp.basis):
        if not B.rank_exceeds(k):
            ev["steps"].append(f"basis scan hit at index {i}")
            coeffs = [Lp.field.zero()] * d
            coeffs[i] = Lp.field.one()
            return _disproved(k, _witness(coeffs, B, k, Lp), ev)

    def at_prime(p, reductions, info):
        # the route scan over GF(p); a rank <= k element found there ends
        # certification once its plain or centered lift verifies over L's
        # field
        own_q, perp_q = reductions
        coeffs, _T = _low_rank_over_own_field(GF(p), L, own_q, perp_q, k,
                                              budget, info)
        if coeffs is None:
            return True
        info["low_rank_mod_p"] = True
        for lift in _lift_vectors([c.value for c in coeffs], p):
            cand = [Lp.field.from_int(c) for c in lift]
            T = Lp.element(cand)
            if not T.is_zero() and T.rank() <= k:
                info["lifted"] = True
                return _disproved(k, _witness(cand, T, k, Lp), ev)
        info["lifted"] = False
        return False

    if strategy in ("auto", "ff"):
        # L's BadPrime at p first, then Lp's; each is reduced only when a
        # route needs it
        dens = _denominator_lcm(L), _denominator_lcm(Lp)
        verdict = _certify_over_primes(
            TransitivityVerdict, k,
            lambda p: (_reduction_when_needed(L, p, dens[0]),
                       _reduction_when_needed(Lp, p, dens[1])),
            primes, ev, at_prime)
        if verdict is not None:
            return verdict

    if strategy in ("auto", "numeric"):
        ev["steps"].append("numeric witness search")
        ev["numeric"] = {}
        w = rank_witness_search_numeric(
            Lp, k, seed=seed, iterations=numeric_iterations,
            restarts=numeric_restarts, max_denominator=max_denominator,
            stats=ev["numeric"])
        if w is not None:
            return _disproved(k, w, ev)

    return TransitivityVerdict(Status.UNKNOWN, k, None, (), ev)


def _cert_to_strings(cert, f: Field):
    poly, inf = cert
    return {"gcd_coefficients_low_to_high": [f.format(c) for c in poly],
            "infinity_multiplicity": inf}


def _own_field_verdict(kind, L, k, ev, decide):
    """The verdict of the given kind from the exhaustive decision decide()
    over L's own finite field: its disproof, certified when it returns
    None, unknown when its enumeration exceeds the budget."""
    try:
        verdict = decide()
    except BudgetExceeded:
        ev["steps"].append("enumeration exceeds the budget")
        return kind(Status.UNKNOWN, k, None, (), ev)
    return verdict or kind(Status.CERTIFIED_FINITE_FIELD, k, None,
                           (L.field.size,), ev)


def _disproved(k, witness: RankWitness, ev) -> TransitivityVerdict:
    """The disproved transitivity verdict for a verified rank witness,
    labelled with the field the witness lives in."""
    ev["witness_field"] = witness.matrix.field.tag
    return TransitivityVerdict(Status.DISPROVED, k, witness, (), ev)


def _violated(k, X: Mat, ev) -> SeparationVerdict:
    """The same for a verified separation violation X."""
    ev["witness_field"] = X.field.tag
    return SeparationVerdict(Status.DISPROVED, k, X, (), ev)


_STEP_TEXT = {
    "input-subspaces": "exhaustive definitional route over own field",
    "pre-annihilator": "exhaustive pre-annihilator route over own field",
    "output-subspaces": "exhaustive output-subspace route over own field",
}


def _low_rank_over_own_field(f, L, own, perp, k, budget, info):
    """The first nonzero element of rank <= k of Lp = perp(), the
    pre-annihilator of L over the finite field f, as (coeffs, T), or
    (None, None) when there is none.  own() is L over f; only L's shape
    and dimension are read, which a reduction keeps.  own and perp are
    called only by the routes that need them.

    The route is chosen by point count.  The pre-annihilator route visits
    the projective_count(d_perp, q) elements of L^perp up to scalars, the
    input-subspace route the Gr(k, n) input subspaces of L and the
    output-subspace route the Gr(k, m) input subspaces of L^T; the last
    two need a prime field.  The witness route is the cheaper of the first
    two, ties to the pre-annihilator, when its enumeration fits the
    budget; the output route replaces it only when strictly cheaper.
    Raises BudgetExceeded when no route fits the budget.

    Records the compared counts, the route and its points in info.  The
    witness is the first one of the witness route in its documented order;
    when the output route finds a failure, the witness route runs as well
    and must fail too, and both routes and their points are recorded.
    """
    q, m, n = f.size, L.rows, L.cols
    d_perp = m * n - L.dim
    counts = info["route_choice"] = {
        "pre-annihilator": modp.projective_count(d_perp, q)}
    if isinstance(f, PrimeFieldDomain):
        counts["input-subspaces"] = modp.gaussian_binomial(n, k, q)
        counts["output-subspaces"] = modp.gaussian_binomial(m, k, q)
    cols = counts.get("input-subspaces")
    if cols is not None and cols < counts["pre-annihilator"] and cols <= budget:
        route = "input-subspaces"
    elif q**d_perp <= budget:
        route = "pre-annihilator"
    else:
        raise BudgetExceeded("both enumeration routes exceed the budget")
    confirm = counts.get("output-subspaces", counts[route]) < counts[route]
    info["route"] = "output-subspaces" if confirm else route
    steps = info.get("steps")
    if steps is not None:
        steps.append(_STEP_TEXT[info["route"]])
    points = "points"
    if confirm:
        # L is k-transitive iff L^T is: (L^T)^perp = (L^perp)^T, and
        # transposing keeps every rank
        ok, _X, info["points"] = modp.surjectivity_scan(
            _scan_codes(own())[0].transpose(0, 2, 1), k, q)
        if ok:
            return None, None
        info["witness_route"], points = route, "witness_points"
        if steps is not None:
            steps.append(_STEP_TEXT[route])
    if route == "pre-annihilator":
        coeffs, T, info[points] = _ff_low_rank_threshold(perp(), k, budget)
    else:
        ok, X, info[points] = definitional_k_transitive_ff(own(), k, budget)
        coeffs, T = (None, None) if ok else _witness_from_failing_input(
            own(), perp(), X, k)
    if confirm:
        _require(coeffs is not None, "output-subspace scan")
    return coeffs, T


def _witness_from_failing_input(L, Lp, X: Mat, k: int):
    """Given a failing k-input X over GF(p), produce a rank <= k element of
    the pre-annihilator: T = X @ W for a kernel solution W of the pairing
    system; exact linear algebra over GF(p)."""
    f = L.field
    D = L.dim
    m, n = L.rows, L.cols
    # rows: one equation per basis element; unknowns: W (k x m) row-major
    entries = []
    for B in L.basis:
        BX = B @ X  # m x k
        # Tr(B X W) = sum_{a,b} (B X)[b, a] W[a, b]
        entries.extend(BX[b, a] for a in range(k) for b in range(m))
    sysmat = Mat(f, D, k * m, entries)
    kv = sysmat.kernel()
    _require(bool(kv), "failing input (pairing system)")
    W = Mat(f, k, m, kv[0])
    T = X @ W
    _require(not T.is_zero(), "failing input (nonzero obstruction)")
    coeffs = Lp.coordinates_of(T)
    _require(coeffs is not None, "failing input (pre-annihilator membership)")
    return coeffs, T


def _certify_over_primes(kind, k, reduce, primes, ev, at_prime):
    """The certified_finite_field verdict of the given kind, a disproof
    from at_prime, or None.

    reduce(p) gives the reductions mod each prime p of the plan.  A prime
    at which it raises BadPrime does not run: its entry in ev["ff"]
    records the skip, and the next fallback prime not in the plan joins
    it.  Every other prime runs at_prime(p, reductions, info), info
    being its fresh ev["ff"] entry; at_prime returns a verdict, which ends
    certification, or whether p certified.  The rule: every prime that ran
    certified, and at least len(primes) primes ran.
    """
    ff = ev.setdefault("ff", {})
    plan = list(primes)
    fallback = iter([p for p in _FALLBACK_PRIMES if p not in plan])
    ran, certified = 0, []
    while plan:
        p = plan.pop(0)
        info = ff[str(p)] = {}
        try:
            reductions = reduce(p)
        except BadPrime as exc:  # substitute the next prime
            info["skipped"] = f"{type(exc).__name__}: {exc}"
            plan.extend(itertools.islice(fallback, 1))
            continue
        ran += 1
        try:
            outcome = at_prime(p, reductions, info)
        except BudgetExceeded as exc:  # p ran but certifies nothing
            info["skipped"] = str(exc)
            outcome = False
        if isinstance(outcome, _Verdict):
            return outcome
        if outcome:
            certified.append(p)
    ff["certified_primes"] = certified
    if ran and len(certified) == ran >= len(primes):
        return kind(Status.CERTIFIED_FINITE_FIELD, k, None, tuple(certified),
                    ev)
    return None


def _denominator_lcm(S: MatrixSubspace) -> int:
    """The lcm of the denominators in S's canonical basis over Q, or of
    both parts over Q(i)."""
    xs = [x for B in S.basis for x in B.entries()]
    if S.field == QI:
        xs = [y for x in xs for y in (x.re, x.im)]
    return lcm(*{x.denominator for x in xs})


def _reduction_when_needed(S: MatrixSubspace, p: int, den: int):
    """A function returning S.reduce_mod(p) when first called, den being
    _denominator_lcm(S) and p a prime.

    When p divides a denominator, or -1 is no square mod p over Q(i), the
    reduction of a nonzero S raises BadPrime; it then runs here first, so
    that it raises here with its own text.  A zero S reduces at every p.
    """
    if not den % p or (S.field == QI and p % 4 == 3):
        S.reduce_mod(p)
    return functools.cache(lambda: S.reduce_mod(p))


def transitivity_disproof_from_witness(L: MatrixSubspace, k: int,
                                       T: Mat) -> TransitivityVerdict:
    """Build a Disproved verdict from a supplied obstruction T.

    T must be a nonzero element of the pre-annihilator with rank <= k; the
    membership is verified against the pairing directly and the coefficients
    are recomputed over the canonical basis."""
    if T.is_zero():
        raise ValueError("witness must be nonzero")
    if T.rank() > k:
        raise ValueError(f"witness rank {T.rank()} exceeds {k}")
    for B in L.basis:
        if B.trace_pairing(T):
            raise ValueError("witness does not annihilate the subspace")
    Lp = L.preannihilator()
    coeffs = Lp.coordinates_of(T)
    _require(coeffs is not None, "pre-annihilator membership")
    w = _witness(coeffs, T, k, Lp)
    ev = {"strategy": "supplied-witness", "witness_field": T.field.tag,
          "steps": ["witness verified by exact elimination"]}
    return TransitivityVerdict(Status.DISPROVED, k, w, (), ev)


# ----------------------------------------------------------- definitional

def _random_full_rank(rng, f, n: int, k: int) -> Mat:
    """The first n x k matrix of full column rank among those drawn with
    entries rng.randint(-3, 3), row-major."""
    while True:
        X = Mat(f, n, k, [f.from_int(rng.randint(-3, 3))
                          for _ in range(n * k)])
        if X.rank() == k:
            return X


def definitional_transitivity_sample(L: MatrixSubspace, k: int,
                                     trials: int = 100,
                                     seed: int = 0) -> DefinitionalSample:
    """Random exact probes of the definition over Q / Q(i): sample integer
    full-column-rank X (n x k) and test surjectivity of A -> A @ X on L.
    Any failure is an exact disproof of k-transitivity."""
    if L.field not in (QQ, QI):
        raise ShapeMismatch("definitional sampling runs over Q or Qi")
    if not 1 <= k <= L.cols:
        raise ValueError("need 1 <= k <= cols")
    rng = random.Random(seed)
    n, m = L.cols, L.rows
    f = L.field
    for _ in range(trials):
        X = _random_full_rank(rng, f, n, k)
        if L.dim == 0:
            return DefinitionalSample(True, X, trials, seed)
        stacked = Mat(f, L.dim, m * k,
                      [x for B in L.basis for x in (B @ X).entries()])
        if stacked.rank() < m * k:
            return DefinitionalSample(True, X, trials, seed)
    return DefinitionalSample(False, None, trials, seed)


# -------------------------------------------------------------- separation

def check_k_separating(L: MatrixSubspace, k: int, strategy: str = "auto", *,
                       primes: Sequence[int] = DEFAULT_PRIMES, seed: int = 0,
                       budget: int = DEFAULT_BUDGET,
                       trials: int = 200) -> SeparationVerdict:
    """Decide the k-separating property.

    L is k-separating when for every independent x_1..x_k some element
    kills x_1..x_{k-1} but not x_k.  Equivalently, for every (k-1)-dim
    subspace V' the common kernel of W = {A in L : A V' = 0} stays inside
    V'; the finite-field scan enumerates canonical representatives of the
    V' (pivot sets with the farthest coordinate first, free entries
    ascending) and reports the first violating flag.  Its final column is
    the first standard basis vector in the common kernel outside V', or
    failing that the last vector of the common kernel's basis outside V'
    (the first such combination of that basis in projective order).

    Over Q / Q(i), "ff" certifies over the requested primes and lifts any
    violating flag to an exactly verified rational disproof; "sample" does
    seeded random disproof search only.
    """
    if not 1 <= k <= L.cols:
        raise ValueError("need 1 <= k <= cols")
    if strategy not in ("auto", "ff", "sample"):
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_primes(primes)
    n = L.cols
    ev: dict = {"strategy": strategy, "seed": seed, "budget": budget,
                "steps": []}

    def flags(q, over=""):
        # the flags to scan over GF(q), raising BudgetExceeded past budget
        pts = modp.gaussian_binomial(n, k - 1, q)
        if pts > budget:
            raise BudgetExceeded(f"{pts} flags{over} exceed the budget")
        return pts

    if L.field.is_finite:
        if not isinstance(L.field, PrimeFieldDomain):
            raise ShapeMismatch("the separation scan needs GF(p)")

        def decide():
            ev["points"] = flags(L.field.size)
            bad = _separation_scan_ff(L, k)
            if bad is None:
                return None
            _require(_verify_separation_violation(L, bad),
                     "separation violation")
            return _violated(k, bad, ev)
        return _own_field_verdict(SeparationVerdict, L, k, ev, decide)

    if strategy == "sample":
        rng = random.Random(seed)
        f = L.field
        for _ in range(trials):
            X = _random_full_rank(rng, f, n, k)
            if _verify_separation_violation(L, X):
                return _violated(k, X, ev)
        ev["steps"].append("no counterexample found by sampling")
        return SeparationVerdict(Status.UNKNOWN, k, None, (), ev)

    def at_prime(p, reductions, info):
        # the flag scan over GF(p); a violating flag found there ends
        # certification once its plain lift verifies over L's field
        info["points"] = flags(p, f" over GF({p})")
        bad = _separation_scan_ff(reductions[0], k)
        if bad is None:
            return True
        info["violation_mod_p"] = True
        lifted = Mat(L.field, n, k,
                     [L.field.from_int(x.value) for x in bad.entries()])
        if lifted.rank() == k and _verify_separation_violation(L, lifted):
            info["lifted"] = True
            return _violated(k, lifted, ev)
        info["lifted"] = False
        return False

    verdict = _certify_over_primes(SeparationVerdict, k,
                                   lambda p: (L.reduce_mod(p),), primes, ev,
                                   at_prime)
    return verdict or SeparationVerdict(Status.UNKNOWN, k, None, (), ev)


def _separation_scan_ff(L: MatrixSubspace, k: int) -> Optional[Mat]:
    """First violating flag (x_1 .. x_k as an n x k matrix) over the
    subspace's own field GF(p), in the documented enumeration order;
    None when L is k-separating over that field.

    modp.separation_scan finds the flag; exact elimination then confirms
    it and builds the final column of the witness."""
    f = L.field
    n = L.cols
    rep = modp.separation_scan(_scan_codes(L)[0], k, f.size)
    if rep is None:
        return None
    Vrows = [_from_codes(f, row) for row in rep]
    ck, inside = _flag_violation(L, Vrows)
    _require(not inside, "violating flag")
    xk = _choose_final_vector(f, n, ck, Vrows)
    cols = [list(r) for r in Vrows] + [list(xk)]
    return Mat(f, n, k, [cols[j][i] for i in range(n) for j in range(k)])


def _killing_elements(L: MatrixSubspace, Vrows) -> list:
    """A basis of W = {A in L : A v = 0 for v in Vrows}."""
    f = L.field
    m, n = L.rows, L.cols
    j = len(Vrows)
    if L.dim == 0 or j == 0:
        return list(L.basis)
    X = Mat(f, n, j, [Vrows[c][r] for r in range(n) for c in range(j)])
    prods = [B @ X for B in L.basis]
    sysm = Mat(f, m * j, L.dim,
               [P[i, c] for i in range(m) for c in range(j) for P in prods])
    return [L.element(kv) for kv in sysm.kernel()]


def _flag_violation(L: MatrixSubspace, Vrows) -> tuple:
    """Common kernel of W = {A in L : A v = 0 for v in Vrows} and whether it
    stays inside span(Vrows)."""
    f = L.field
    m, n = L.rows, L.cols
    W_basis = _killing_elements(L, Vrows)
    # with W = 0 the stack has no rows and its kernel is the unit vectors
    stacked = Mat(f, len(W_basis) * m, n,
                  [x for B in W_basis for x in B.entries()])
    ck = stacked.kernel()
    return ck, _in_span(f, n, Vrows, ck)


def _in_span(f, n: int, rows, vecs) -> bool:
    """Whether every vector of vecs lies in the span of rows (length-n
    tuples over f): rank([rows; vecs]) == rank(rows)."""
    flat = [x for r in rows for x in r]
    both = Mat(f, len(rows) + len(vecs), n, flat + [x for v in vecs for x in v])
    return both.rank() == Mat(f, len(rows), n, flat).rank()


def _choose_final_vector(f, n, ck, Vrows):
    """The first standard basis vector in span(ck) outside span(Vrows), or
    failing that the last vector of ck outside it: the first combination of
    ck outside span(Vrows) in _projective_tuples_generic's order, since one
    led by ck[i] lies inside whenever ck[i] and every later ck[j] do."""
    for t in range(n):
        e = tuple(f.one() if i == t else f.zero() for i in range(n))
        if _in_span(f, n, ck, [e]) and not _in_span(f, n, Vrows, [e]):
            return e
    for v in reversed(ck):
        if not _in_span(f, n, Vrows, [v]):
            return v
    _require(False, "violating flag (final column)")


def _verify_separation_violation(L: MatrixSubspace, X: Mat) -> bool:
    """Exact verification: X has full column rank and every element of L
    killing the first k-1 columns also kills the last."""
    n, k = X.shape
    if X.rank() != k:
        return False
    Vrows = [X.column(j) for j in range(k - 1)]
    return not any(any(_matvec(B, X.column(k - 1)))
                   for B in _killing_elements(L, Vrows))


# --------------------------------------------------------------- utilities

def verify_rank_spanning(L: MatrixSubspace, r: int,
                         generators: Sequence[Mat]) -> bool:
    """True iff every generator lies in L with rank <= r and the generators
    span L exactly."""
    for G in generators:
        if G.rank() > r or not L.contains(G):
            return False
    span = MatrixSubspace.from_generators(
        list(generators), rows=L.rows, cols=L.cols, field=L.field)
    return span == L


def find_invertible(L: MatrixSubspace, attempts: int = 200,
                    seed: int = 0) -> Optional[Mat]:
    """Seeded random small-integer combinations; first one with exactly
    nonzero determinant, or None after the attempt budget."""
    if L.rows != L.cols:
        raise ShapeMismatch("find_invertible needs a square ambient")
    if L.field not in (QQ, QI):
        raise ShapeMismatch("find_invertible runs over Q or Qi")
    if L.dim == 0:
        return None
    rng = random.Random(seed)
    f = L.field
    for _ in range(attempts):
        coeffs = [f.from_int(rng.randint(-2, 2)) for _ in range(L.dim)]
        if not any(coeffs):
            continue
        M = L.element(coeffs)
        if M.det():
            return M
    return None
