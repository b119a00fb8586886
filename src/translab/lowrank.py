"""Floating-point search for low-rank elements of a matrix subspace.

Alternating minimization of || sum_i c_i B_i - X Y^T ||_F over the
coefficient vector c and the rank-k factors X, Y.  The factor update is the
closed-form truncated SVD, the coefficient update is the normal-equation
least squares, and c is renormalized every round.  Converged coefficient
vectors are snapped to exact rationals through continued-fraction
convergents (Fraction.limit_denominator) over an increasing denominator
ladder, and every snapped candidate is verified exactly; only candidates
that pass exact verification are ever reported, so the search can miss
witnesses but can never fabricate one.  Restarts run lazily in seed order,
one numeric_low_rank_coefficients call each on a shared generator, and the
search stops at the first restart whose snapped candidate verifies.  The
float basis and its Gram pseudo-inverse are formed once per search and
shared by its restarts.  Each iterate's truncated SVD serves its residual
check and the next update.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .fields import QI, QQ, GaussianRational
from .matrices import Mat
from .subspace import MatrixSubspace

__all__ = ["rationalize", "numeric_low_rank_coefficients", "search_low_rank_element"]

DENOMINATOR_LADDER = (1, 2, 3, 4, 6, 12, 24, 60, 120, 1000, 10**4, 10**6)


def rationalize(x: float, max_denominator: int) -> Fraction:
    """Best continued-fraction convergent with bounded denominator."""
    return Fraction(x).limit_denominator(max_denominator)


def _basis_to_floats(space: MatrixSubspace) -> np.ndarray:
    if space.field not in (QQ, QI):
        raise ValueError("numeric search runs over Q or Qi only")
    qi = space.field == QI
    out = np.zeros((space.dim, space.rows * space.cols),
                   dtype=np.complex128 if qi else np.float64)
    for d, B in enumerate(space.basis):
        out[d] = [complex(float(x.re), float(x.im)) if qi else float(x)
                  for x in B.entries()]
    return out


def _float_setup(space: MatrixSubspace) -> tuple:
    """(flat, flat_h, gram_pinv): the float basis, its conjugate and the
    pseudo-inverse of its Gram matrix, which every restart shares."""
    flat = _basis_to_floats(space)
    flat_h = flat.conj()
    return flat, flat_h, np.linalg.pinv(flat @ flat_h.T)


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of x by np.linalg.norm's own formula (the square
    root of the dot products of the real and imaginary parts with
    themselves), without its dispatch."""
    x = x.ravel()
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _truncate_rank(T: np.ndarray, k: int) -> np.ndarray:
    U, s, Vh = np.linalg.svd(T, full_matrices=False)
    s[k:] = 0.0
    return (U * s) @ Vh


def numeric_low_rank_coefficients(space: MatrixSubspace, k: int, *,
                                  seed: int = 0, iterations: int = 300,
                                  restarts: int = 10, tol: float = 1e-9,
                                  rng: Optional[np.random.Generator] = None,
                                  _setup: Optional[tuple] = None
                                  ) -> list[np.ndarray]:
    """Converged float coefficient vectors (unit norm, deterministic sign),
    one per restart that reached the residual tolerance.  Starting points
    are drawn from rng, or from a generator seeded with seed.  _setup is
    _float_setup(space) when the caller already holds it, as
    search_low_rank_element does for its restarts."""
    D = space.dim
    if D == 0 or k < 1:
        return []
    m, n = space.rows, space.cols
    flat, flat_h, gram_pinv = _setup or _float_setup(space)
    if rng is None:
        rng = np.random.default_rng(seed)
    complex_field = flat.dtype == np.complex128
    found = []
    for _ in range(restarts):
        c = rng.standard_normal(D)
        if complex_field:
            c = c + 1j * rng.standard_normal(D)
        c = c / _norm(c)
        Tk = _truncate_rank((c @ flat).reshape(m, n), k)
        ok = False
        for _ in range(iterations):
            c_new = gram_pinv @ (flat_h @ Tk.reshape(-1))
            nrm = _norm(c_new)
            if nrm < 1e-13:
                break
            c_new = c_new / nrm
            delta = _norm(c_new - c)
            c = c_new
            T = (c @ flat).reshape(m, n)
            Tk = _truncate_rank(T, k)
            resid = _norm(T - Tk)
            scale = max(_norm(T), 1e-300)
            if resid / scale < tol:
                ok = True
                break
            if delta < 1e-15:
                break
        if ok:
            # deterministic phase: scale so the largest coordinate is +1
            j = int(np.argmax(np.abs(c)))
            found.append(c / c[j])
    return found


def _snap(space: MatrixSubspace, c: np.ndarray, bound: int):
    if space.field == QQ:
        return tuple(rationalize(float(v.real), bound) for v in c)
    return tuple(
        GaussianRational(rationalize(float(v.real), bound),
                         rationalize(float(v.imag), bound))
        for v in c
    )


def verify_low_rank_candidate(space: MatrixSubspace, coeffs, k: int) -> Optional[Mat]:
    """Exact check of a snapped candidate: the combination must be nonzero
    with rank at most k.  Returns the assembled matrix or None."""
    if len(coeffs) != space.dim or not any(coeffs):
        return None
    T = space.element(coeffs)
    if T.is_zero() or T.rank() > k:
        return None
    return T


def search_low_rank_element(space: MatrixSubspace, k: int, *, seed: int = 0,
                            iterations: int = 300, restarts: int = 10,
                            tol: float = 1e-9,
                            max_denominator: int = 10**6,
                            stats: Optional[dict] = None):
    """Search for a nonzero element of rank <= k in the space.

    Returns (coefficients, matrix) with exact entries, or None.  Failure is
    always possible; a returned element is exactly verified.  Restarts run
    lazily in seed order, one numeric_low_rank_coefficients call each on
    the search's one _float_setup, and the search returns at the first
    restart whose snapped candidate verifies, so later restarts never run.
    A given stats dict receives integer counts: restarts run, restarts
    converged, candidates rejected as zero or for rank > k, and the ladder
    denominator of the accepted snap.
    """
    if stats is None:
        stats = {}
    stats.update(restarts=0, converged=0, rejected_zero=0, rejected_rank=0)
    if space.dim == 0 or k < 1:
        return None
    rng = np.random.default_rng(seed)
    setup = _float_setup(space)
    for _ in range(restarts):
        # the shared rng gives the draws of one all-restart call
        found = numeric_low_rank_coefficients(
            space, k, iterations=iterations, restarts=1, tol=tol, rng=rng,
            _setup=setup)
        stats["restarts"] += 1
        stats["converged"] += len(found)
        for c in found:
            c[np.abs(c) < 1e-10] = 0.0
            for bound in DENOMINATOR_LADDER:
                if bound > max_denominator:
                    break
                coeffs = _snap(space, c, bound)
                T = verify_low_rank_candidate(space, coeffs, k)
                if T is not None:
                    stats["denominator"] = bound
                    return coeffs, T
                stats["rejected_zero" if not any(coeffs)
                      else "rejected_rank"] += 1
    return None
