"""Field-generic dense univariate polynomials, plus the binary-form and
small-factorization helpers used by the exact pencil decision procedure and
the eigen-structure checks.

A polynomial is a tuple of coefficients (c0, c1, ..., cd) with cd nonzero,
or the empty tuple for the zero polynomial.  All arithmetic is exact over
whichever field the coefficients live in.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .fields import Field, GaussianRational, QI, QQ
from .matrices import Mat

__all__ = [
    "poly_trim",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_scale",
    "poly_mul",
    "poly_divmod",
    "poly_gcd",
    "poly_derivative",
    "poly_eval",
    "poly_is_squarefree",
    "monic",
    "rational_roots",
    "field_roots",
    "sqrt_exact",
    "charpoly",
    "BinaryForm",
]


def poly_trim(p: Sequence) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_add(p, q) -> tuple:
    if len(q) > len(p):
        p, q = q, p
    out = list(p)
    for i, b in enumerate(q):
        out[i] = out[i] + b
    return poly_trim(out)


def poly_neg(p) -> tuple:
    return tuple(-a for a in p)


def poly_sub(p, q) -> tuple:
    return poly_add(p, poly_neg(q))


def poly_scale(p, c) -> tuple:
    return poly_trim([c * a for a in p])


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [p[0] * q[0] - p[0] * q[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(p, q) -> tuple:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quo = [None] * max(0, len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = p[i] / lead
        quo[i - dq] = c
        if c:
            for j in range(dq + 1):
                p[i - dq + j] = p[i - dq + j] - c * q[j]
    zero = lead - lead
    quo = [zero if c is None else c for c in quo]
    return poly_trim(quo), poly_trim(p)


def monic(p) -> tuple:
    if not p:
        return ()
    lead = p[-1]
    return tuple(a / lead for a in p)


def poly_gcd(p, q) -> tuple:
    """Monic gcd via the Euclidean algorithm."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return monic(p)


def poly_derivative(p) -> tuple:
    if len(p) <= 1:
        return ()
    out = []
    for i in range(1, len(p)):
        c = p[i]
        s = c
        for _ in range(i - 1):
            s = s + c
        out.append(s)
    return poly_trim(out)


def poly_eval(p, x):
    if not p:
        return x - x
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def poly_is_squarefree(p) -> bool:
    if len(p) <= 1:
        return True
    g = poly_gcd(p, poly_derivative(p))
    return len(g) == 1


# ------------------------------------------------------------ exact roots

def sqrt_exact(x):
    """Exact square root inside the element's own field, or None.

    Fractions: both numerator and denominator must be perfect squares.
    Gaussian rationals: solved via the norm (needs |x| to be a rational
    square, then the half-angle coordinates must be rational squares too).
    """
    if isinstance(x, Fraction):
        if x < 0:
            return None
        rn = _isqrt_exact(x.numerator)
        rd = _isqrt_exact(x.denominator)
        if rn is None or rd is None:
            return None
        return Fraction(rn, rd)
    if isinstance(x, GaussianRational):
        a, b = x.re, x.im
        if b == 0:
            r = sqrt_exact(a)
            if r is not None:
                return GaussianRational(r, 0)
            r = sqrt_exact(-a)
            if r is not None:
                return GaussianRational(0, r)
            return None
        n = sqrt_exact(a * a + b * b)
        if n is None:
            return None
        c2 = (a + n) / 2
        c = sqrt_exact(c2)
        if c is None or c == 0:
            return None
        d = b / (2 * c)
        cand = GaussianRational(c, d)
        return cand if cand * cand == x else None
    raise TypeError(f"sqrt_exact does not handle {type(x).__name__}")


def _isqrt_exact(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def rational_roots(p: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over Q, with multiplicity
    stripped, ordered positive before negative, then by magnitude and
    denominator.  Uses the rational root test on the primitive integer form.
    """
    p = poly_trim(p)
    if not p or len(p) == 1:
        return []
    # strip powers of x
    roots = set()
    while p[0] == 0:
        roots.add(Fraction(0))
        p = p[1:]
        if len(p) == 1:
            break
    if len(p) > 1:
        from math import gcd, lcm

        den = lcm(*[c.denominator for c in p]) if len(p) > 1 else 1
        ip = [int(c * den) for c in p]
        g = 0
        for c in ip:
            g = gcd(g, c)
        if g:
            ip = [c // g for c in ip]
        a0, an = ip[0], ip[-1]
        for r in _divisors(abs(a0)):
            for s in _divisors(abs(an)):
                for cand in (Fraction(r, s), Fraction(-r, s)):
                    if poly_eval(p, cand) == 0:
                        roots.add(cand)
    return sorted(roots, key=lambda t: (t <= 0, abs(t), t.denominator))


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def field_roots(p: Sequence, field: Field) -> list:
    """Roots of p inside the given exact field (Q or Qi), deterministic order.

    Linear and quadratic polynomials are solved exactly; for higher degree
    over Q the rational root test is used (which finds every root in Q).
    Over Qi, higher-degree polynomials are reduced by the roots found on
    their Q-restriction when all coefficients are real; otherwise only
    degree <= 2 is supported.
    """
    p = poly_trim(p)
    if len(p) <= 1:
        return []
    deg = len(p) - 1
    if deg == 1:
        return [-p[0] / p[1]]
    if deg == 2:
        a, b, c = p[2], p[1], p[0]
        disc = b * b - 4 * a * c
        if field == QQ:
            r = sqrt_exact(disc if isinstance(disc, Fraction) else disc)
            if r is None:
                return []
            cands = {(-b + r) / (2 * a), (-b - r) / (2 * a)}
            return sorted(cands, key=lambda t: (t <= 0, abs(t), t.denominator))
        if field == QI:
            dd = disc if isinstance(disc, GaussianRational) else GaussianRational(disc, 0)
            r = sqrt_exact(dd)
            if r is None:
                return []
            aa = a if isinstance(a, GaussianRational) else GaussianRational(a, 0)
            bb = b if isinstance(b, GaussianRational) else GaussianRational(b, 0)
            cands = {(-bb + r) / (2 * aa), (-bb - r) / (2 * aa)}
            return sorted(cands, key=_gauss_key)
        raise TypeError(f"field_roots does not handle {field.tag}")
    if field == QQ:
        return rational_roots(p)
    if field == QI and all(
        (isinstance(c, GaussianRational) and c.im == 0) or isinstance(c, Fraction)
        for c in p
    ):
        reals = rational_roots([c.re if isinstance(c, GaussianRational) else c for c in p])
        return [GaussianRational(r, 0) for r in reals]
    return []


def _gauss_key(z: GaussianRational):
    return (
        z.re <= 0,
        z.norm(),
        z.re.denominator + z.im.denominator,
        (z.re, z.im) <= (0, 0),
    )


# ------------------------------------------------------- char polynomial

def charpoly(rows: list, field: Field) -> tuple:
    """Characteristic polynomial det(x I - M) of a square matrix given as a
    list of rows of field elements.  Faddeev-LeVerrier; characteristic zero
    fields only (needs division by 1..n)."""
    if field.characteristic != 0:
        raise ValueError("charpoly requires a characteristic-zero field")
    n = len(rows)
    M = Mat(field, n, n, [x for row in rows for x in row])
    ident = Mat.identity(field, n)
    coeffs = [field.zero()] * n + [field.one()]
    Mk = ident
    for k in range(1, n + 1):
        if k > 1:
            Mk = M @ Mk + ident.scale(coeffs[n - k + 1])
        coeffs[n - k] = -(M @ Mk).trace() / field.from_int(k)
    return poly_trim(coeffs)


# ----------------------------------------------- quotient-ring elimination

def poly_extended_gcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic."""
    a, b = poly_trim(a), poly_trim(b)
    if not a and not b:
        return (), (), ()
    one_el = (a or b)[-1] / (a or b)[-1]
    r0, r1 = a, b
    s0, s1 = (one_el,), ()
    t0, t1 = (), (one_el,)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if not r0:
        return (), s0, t0
    lead = r0[-1]
    inv = one_el / lead
    return poly_scale(r0, inv), poly_scale(s0, inv), poly_scale(t0, inv)


def quotient_inverse(a, modulus):
    """Inverse of a nonzero residue in F[x]/(modulus), modulus irreducible."""
    a = poly_divmod(poly_trim(a), modulus)[1]
    if not a:
        raise ZeroDivisionError("zero residue has no inverse")
    g, s, _t = poly_extended_gcd(a, modulus)
    if len(g) != 1:
        raise ValueError("modulus is not irreducible against this residue")
    # g is monic and constant, hence (1,): s is the inverse
    return poly_divmod(s, modulus)[1]


def quotient_kernel(rows: list, modulus, field: Field) -> list:
    """Kernel basis of a matrix over the field F[x]/(modulus).

    rows: list of rows whose entries are coefficient tuples (residues).
    Returns kernel vectors with residue entries, free columns in ascending
    unit-assignment order.
    """

    def red(p):
        return poly_divmod(poly_trim(p), modulus)[1]

    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    M = [[red(e) for e in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if M[i][c]:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = quotient_inverse(M[r][c], modulus)
        M[r] = [red(poly_mul(inv, e)) for e in M[r]]
        for i in range(nrows):
            if i == r or not M[i][c]:
                continue
            f = M[i][c]
            M[i] = [red(poly_sub(e, poly_mul(f, pe)))
                    for e, pe in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    one = (field.one(),)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for j in free:
        v = [() for _ in range(ncols)]
        v[j] = one
        for rr, pc in enumerate(pivots):
            if M[rr][j]:
                v[pc] = red(poly_neg(M[rr][j]))
        basis.append(v)
    return basis


def factor_over_rationals(p: Sequence[Fraction]) -> list[tuple]:
    """Monic irreducible factors over Q (with multiplicity), for polynomials
    whose non-linear part has degree at most 2 after rational roots are
    removed.  Raises ValueError beyond that depth."""
    p = monic(poly_trim(p))
    if len(p) <= 1:
        return []
    factors = []
    work = p
    changed = True
    while changed and len(work) > 1:
        changed = False
        for r in rational_roots(work):
            lin = (-r, Fraction(1))
            q, rem = poly_divmod(work, lin)
            if not rem:
                factors.append(lin)
                work = q
                changed = True
                break
    if len(work) == 2:
        factors.append(monic(work))
    elif len(work) == 3:
        factors.append(monic(work))  # quadratic with no rational roots
    elif len(work) > 3:
        raise ValueError(
            "factorization beyond rational roots plus a quadratic remainder "
            "is not supported")
    return factors


# ----------------------------------------------------------- binary forms

class BinaryForm:
    """A homogeneous form f(c0, c1) of degree d, stored as the dehomogenized
    polynomial p(t) = f(t, 1) plus the multiplicity of the root at infinity
    (the point (1, 0)), i.e. inf_mult = d - deg p.

    Used for the minor forms of a matrix pencil c0*B0 + c1*B1: gcds of such
    forms decide whether the pencil meets a low-rank locus.
    """

    __slots__ = ("poly", "inf_mult", "degree")

    def __init__(self, coeffs: Sequence, degree: int):
        """coeffs[i] is the coefficient of c0^i * c1^(degree - i)."""
        p = poly_trim(coeffs)
        self.poly = p
        self.inf_mult = degree - (len(p) - 1) if p else degree
        self.degree = degree

    @classmethod
    def from_poly(cls, poly: Sequence, inf_mult: int) -> "BinaryForm":
        """The form of the trimmed polynomial poly with inf_mult roots at
        infinity, of degree deg poly + inf_mult."""
        return cls(poly, (len(poly) - 1 if poly else 0) + inf_mult)

    def is_zero(self) -> bool:
        return not self.poly

    @staticmethod
    def gcd(forms: list["BinaryForm"]) -> Optional["BinaryForm"]:
        """Monic gcd of the nonzero forms; None when every form is zero."""
        live = [f for f in forms if not f.is_zero()]
        if not live:
            return None
        g = live[0].poly
        inf = live[0].inf_mult
        for f in live[1:]:
            g = poly_gcd(g, f.poly)
            inf = min(inf, f.inf_mult)
        return BinaryForm.from_poly(monic(g), inf)

    def has_projective_root(self) -> bool:
        return self.inf_mult > 0 or len(self.poly) > 1

    def roots_in_field(self, field: Field) -> list[tuple]:
        """Projective roots (c0, c1) with coordinates in the field, infinity
        first, then finite roots in the deterministic field_roots order."""
        out = []
        one = field.one()
        zero = field.zero()
        if self.inf_mult > 0:
            out.append((one, zero))
        for t in field_roots(self.poly, field):
            if field == QI and isinstance(t, Fraction):
                t = GaussianRational(t, 0)
            out.append((t, one))
        return out
