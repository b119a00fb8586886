"""Polynomial helpers: gcd, roots, characteristic polynomials, quotients."""

from fractions import Fraction

import pytest

from translab.fields import QI, QQ, GaussianRational
from translab.polynomials import (
    BinaryForm,
    charpoly,
    factor_over_rationals,
    field_roots,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_is_squarefree,
    poly_mul,
    quotient_inverse,
    quotient_kernel,
    rational_roots,
    sqrt_exact,
)

F = Fraction


def p(*coeffs):
    return tuple(F(c) for c in coeffs)


def test_divmod_and_gcd():
    a = poly_mul(p(1, 1), p(-2, 1))      # (x+1)(x-2)
    q, r = poly_divmod(a, p(1, 1))
    assert q == p(-2, 1) and r == ()
    g = poly_gcd(poly_mul(a, p(3, 1)), poly_mul(p(1, 1), p(5, 1)))
    assert g == p(1, 1)


def test_squarefree():
    assert poly_is_squarefree(p(-1, 0, 1))          # x^2 - 1
    assert not poly_is_squarefree(poly_mul(p(1, 1), p(1, 1)))


def test_rational_roots_orders_positive_first():
    # (x-1)(x+1)(2x-3) has roots 1, -1, 3/2
    f = poly_mul(poly_mul(p(-1, 1), p(1, 1)), p(-3, 2))
    roots = rational_roots(f)
    assert set(roots) == {F(1), F(-1), F(3, 2)}
    assert roots[0] == F(1)  # positive before negative at equal magnitude


def test_sqrt_exact():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(F(2)) is None
    assert sqrt_exact(GaussianRational(0, 2)) == GaussianRational(1, 1)
    assert sqrt_exact(GaussianRational(-4, 0)) == GaussianRational(0, 2)
    z = GaussianRational(F(3), F(4))
    r = sqrt_exact(z)
    assert r is not None and r * r == z


def test_field_roots_quadratics():
    assert field_roots(p(-4, 0, 1), QQ) == [F(2), F(-2)]
    assert field_roots(p(2, 0, 1), QQ) == []   # x^2 + 2 has no rational roots
    gr = field_roots(tuple(GaussianRational(c, 0) for c in (1, 0, 1)), QI)
    assert set(gr) == {GaussianRational(0, 1), GaussianRational(0, -1)}


def test_charpoly_via_eigen_example():
    rows = [[QQ.from_int(v) for v in r]
            for r in [[0, 0, 0, 1], [0, 0, 2, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]
    cp = charpoly(rows, QQ)
    # x^4 - 3x^2 + 2 = (x^2 - 1)(x^2 - 2)
    assert cp == p(2, 0, -3, 0, 1)
    assert poly_is_squarefree(cp)
    assert set(rational_roots(cp)) == {F(1), F(-1)}


def test_factor_over_rationals():
    cp = p(2, 0, -3, 0, 1)
    factors = factor_over_rationals(cp)
    degs = sorted(len(f) - 1 for f in factors)
    assert degs == [1, 1, 2]
    prod = (F(1),)
    for f in factors:
        prod = poly_mul(prod, f)
    assert prod == cp
    with pytest.raises(ValueError):
        factor_over_rationals(p(1, 0, 1, 0, 1))  # x^4 + x^2 + 1, no rational roots


def test_quotient_ring_inverse_and_kernel():
    mod = p(-2, 0, 1)  # x^2 - 2, irreducible
    x = p(0, 1)
    inv = quotient_inverse(x, mod)
    assert poly_divmod(poly_mul(x, inv), mod)[1] == p(1)
    # kernel of [[x, -1], [2... the matrix (x I - M) for M = [[0, 1], [2, 0]]
    rows = [[p(0, 1), p(-1)], [p(-2), p(0, 1)]]
    kern = quotient_kernel(rows, mod, QQ)
    assert len(kern) == 1
    v = kern[0]
    # substitute back: (x I - M) v = 0 mod x^2 - 2
    for row in rows:
        acc = ()
        for e, c in zip(row, v):
            acc = poly_divmod(poly_mul(e, c), mod)[1] if not acc else \
                tuple_sum(acc, poly_divmod(poly_mul(e, c), mod)[1])
        acc = poly_divmod(acc, mod)[1] if acc else ()
        assert acc == ()


def tuple_sum(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F(0)
        y = b[i] if i < len(b) else F(0)
        out.append(x + y)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_binary_form_roots():
    # c0 c1: infinity root first, then the finite root
    g = BinaryForm(p(0, 1), 2)
    roots = g.roots_in_field(QQ)
    assert roots == [(F(1), F(0)), (F(0), F(1))]
    # c0^2 - c1^2: positive root before negative
    f = BinaryForm(p(-1, 0, 1), 2)
    assert f.roots_in_field(QQ) == [(F(1), F(1)), (F(-1), F(1))]
    # gcd of {c0 c1, c0^2}: c0^2 does not vanish at infinity (1, 0), so the
    # only common root is (0, 1)
    g2 = BinaryForm.gcd([BinaryForm(p(0, 1), 2), BinaryForm(p(0, 0, 1), 2)])
    assert g2.inf_mult == 0 and g2.has_projective_root()
    assert g2.roots_in_field(QQ) == [(F(0), F(1))]


def test_exact_square_roots_of_large_integers():
    from translab.polynomials import _isqrt_exact

    # float square roots lose the last digits past 2^53 and overflow past
    # about 1e308
    assert _isqrt_exact(10**400) == 10**200
    assert _isqrt_exact(10**400 + 1) is None
    a = 10**30 + 7
    assert _isqrt_exact(a * a) == a
    assert set(field_roots(poly_mul(p(-a, 1), p(-1, 1)), QQ)) == {F(a), F(1)}


def test_gaussian_quadratic_roots_order_does_not_depend_on_the_hash_seed():
    # 3+i and 1-3i agree in sign, norm and denominators; the order of the
    # roots of (x - (3+i)) (x - (1-3i)) = x^2 - (4-2i) x + (6-8i) is fixed
    # by (re, im), not by the iteration order of a set of them
    from translab.polynomials import _gauss_key
    r1, r2 = GaussianRational(1, -3), GaussianRational(3, 1)
    assert _gauss_key(r1) < _gauss_key(r2)
    p = [GaussianRational(6, -8), GaussianRational(-4, 2), GaussianRational(1)]
    assert field_roots(p, QI) == [r1, r2]
