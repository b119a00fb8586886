"""Scalar arithmetic and the literal grammar for the four fields."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from translab.errors import BadPrime
from translab.fields import (
    GF,
    QI,
    QQ,
    Fp2Element,
    FpElement,
    GaussianRational,
    field_from_tag,
    is_prime,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rational_field_basics():
    assert QQ.parse("-2/5") == Fraction(-2, 5)
    assert QQ.format(Fraction(6, 4)) == "3/2"
    assert QQ.parse("7") == 7
    with pytest.raises(ValueError):
        QQ.parse("2.5")


@given(rationals, rationals)
def test_gaussian_arithmetic_matches_complex(a, b):
    z = GaussianRational(a, b)
    w = GaussianRational(b, a)
    prod = z * w
    # (a+bi)(b+ai) = (ab - ba) + (a^2 + b^2) i
    assert prod == GaussianRational(0, a * a + b * b)
    assert z + w - w == z
    if z:
        assert z / z == GaussianRational(1, 0)
    assert z.conjugate().conjugate() == z


@given(rationals, rationals)
def test_gaussian_parse_roundtrip(a, b):
    z = GaussianRational(a, b)
    assert QI.parse(QI.format(z)) == z


def test_gaussian_literals():
    assert QI.parse("1/2-3/4 i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert QI.parse("5") == GaussianRational(5, 0)
    assert QI.parse("2 i") == GaussianRational(0, 2)
    assert QI.format(GaussianRational(0, -1)) == "-1 i"


def test_prime_field_arithmetic():
    f = GF(7)
    a, b = f.from_int(3), f.from_int(5)
    assert a + b == f.from_int(1)
    assert a * b == f.from_int(1)
    assert (a / b).value == (3 * pow(5, 5, 7)) % 7
    assert -a == f.from_int(4)
    assert bool(f.zero()) is False
    # structural equality is modulus-aware
    assert FpElement(2, 5) != FpElement(2, 7)
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()


def test_prime_field_literals():
    f = GF(11)
    assert f.parse("13 mod 11") == f.from_int(2)
    assert f.format(f.from_int(-1)) == "10 mod 11"
    with pytest.raises(ValueError):
        f.parse("3 mod 7")


def test_quadratic_extension():
    f = GF(25)
    assert f.tag == "GF(5^2)"
    assert f.omega == 2  # smallest non-residue mod 5
    w = f.gen()
    assert w * w == f.from_int(2)
    x = f.from_pair(2, 3)
    assert x * x.inverse() == f.one()
    # Frobenius conjugation negates the w coordinate
    assert x.conjugate() == f.from_pair(2, -3)
    assert f.parse(f.format(x)) == x
    assert len(f.elements()) == 25


def test_sqrt_of_minus_one():
    for q in (9, 49, 121, 169):
        f = GF(q)
        i = f.sqrt_of_minus_one()
        assert i * i == f.from_int(-1)


def test_prime_field_sqrt_of_minus_one():
    assert GF(2).sqrt_of_minus_one() == GF(2).one()
    for p in range(5, 100, 4):
        if is_prime(p):
            r = GF(p).sqrt_of_minus_one()
            assert r * r == GF(p).from_int(-1) and r.value <= p // 2, p
    for p in (3, 7, 11):
        with pytest.raises(BadPrime) as exc:
            GF(p).sqrt_of_minus_one()
        assert str(exc.value) == (
            f"-1 is not a square mod {p}; reduce into GF({p}^2) instead")


def test_quadratic_extension_sqrt_of_minus_one_is_pinned():
    pinned = {9: "0+1w", 25: "2+0w", 49: "0+3w", 121: "0+4w", 169: "5+0w",
              289: "4+0w", 361: "0+3w", 529: "0+3w", 841: "12+0w",
              961: "0+14w"}
    for q, text in pinned.items():
        f = GF(q)
        i = f.sqrt_of_minus_one()
        assert f.format(i) == f"{text} mod {f.p}^2"
        assert i * i == f.from_int(-1)


def test_gf_constructor_validation():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(8)  # p^3 unsupported
    with pytest.raises(ValueError):
        GF(4)  # quadratic extension needs an odd prime
    assert GF(2).size == 2


def test_field_tags_roundtrip():
    for f in (QQ, QI, GF(5), GF(25), GF(7), GF(49)):
        assert field_from_tag(f.tag) == f
    with pytest.raises(ValueError):
        field_from_tag("GF(10)")


@given(st.integers(0, 48), st.integers(0, 48))
def test_fp2_field_axioms(a, b):
    f = GF(49)
    x = f.from_pair(a % 7, (a * 3 + 1) % 7)
    y = f.from_pair(b % 7, (b * 2 + 5) % 7)
    assert x * y == y * x
    assert x * (y + f.one()) == x * y + x
    if y:
        assert (x / y) * y == x


# ------------------------------------------------------------ interning

# (q, interned): GF(4093) and GF(61^2) = 3,721 elements sit inside the
# bound of 4,096, GF(4099) and GF(67^2) = 4,489 elements fall back
_BOUNDARY = [(2, True), (3, True), (4093, True), (4099, False),
             (9, True), (61 * 61, True), (67 * 67, False)]


def _fresh(f, a, b=0):
    """A newly constructed element a (+ b w), built without the domain."""
    if f.size == f.p:
        return FpElement(a, f.p)
    return Fp2Element(a, b, f.p, f.omega)


def _coords(x):
    return (x.value,) if isinstance(x, FpElement) else (x.a, x.b)


def _same(x, y):
    """x and y are the same element, slot by slot."""
    assert type(x) is type(y) and x == y and hash(x) == hash(y)
    assert _coords(x) == _coords(y) and x.p == y.p
    if isinstance(x, Fp2Element):
        assert x.omega == y.omega


def _sample(f, rng, count):
    p, ext = f.p, f.size != f.p
    pairs = [(a, b) for a in range(p) for b in (range(p) if ext else [0])]
    if len(pairs) > count:
        edges = [(0, 0), (1, 0), (p - 1, 0), (0, 1), (p - 1, p - 1)]
        pairs = [e for e in edges if ext or e[1] == 0] + rng.sample(pairs, count)
    return [_fresh(f, a, b) for a, b in pairs]


@pytest.mark.parametrize("q,interned", _BOUNDARY)
def test_interned_results_equal_fresh_elements(q, interned):
    import random

    f = GF(q)
    p, ext = f.p, f.size != f.p
    assert bool(f.interned) is interned
    assert len(f.interned) == (f.size if interned else 0)

    def expect(a, b=0):
        x = _fresh(f, a, b)
        if interned:
            shared = f.interned[(a % p) * p + b % p if ext else a % p]
            _same(shared, x)
            return shared
        return x

    def check(got, a, b=0):
        want = expect(a, b)
        _same(got, want)
        if interned:
            assert got is want

    rng = random.Random(q)
    xs = _sample(f, rng, 12)
    ys = _sample(f, rng, 12)
    om = f.omega if ext else 0
    for x in xs:
        xa, xb = (x.a, x.b) if ext else (x.value, 0)
        check(-x, -xa, -xb)
        if x:
            n = (xa * xa - om * xb * xb) % p
            ninv = pow(n, p - 2, p)
            check(x.inverse(), xa * ninv, -xb * ninv)
        for y in ys:
            ya, yb = (y.a, y.b) if ext else (y.value, 0)
            check(x + y, xa + ya, xb + yb)
            check(x - y, xa - ya, xb - yb)
            check(x * y, xa * ya + xb * yb * om, xa * yb + xb * ya)
            if y:
                _same(x / y, x * y.inverse())
                if interned:
                    assert x / y is x * y.inverse()
    # int operands coerce, on either side
    x = xs[-1]
    xa, xb = (x.a, x.b) if ext else (x.value, 0)
    for got, a, b in [(x + 5, xa + 5, xb), (5 + x, xa + 5, xb),
                      (x - 5, xa - 5, xb), (5 - x, 5 - xa, -xb),
                      (x * 5, 5 * xa, 5 * xb), (5 * x, 5 * xa, 5 * xb)]:
        _same(got, _fresh(f, a, b))
    _same(x / 1, x)
    # the domain's constructors
    check(f.zero(), 0)
    check(f.one(), 1)
    check(f.from_int(-1), -1)
    check(f.from_int(p + 2), 2)
    check(f.parse(f.format(xs[-1])), xa, xb)
    if ext:
        check(f.from_pair(p + 1, -1), 1, -1)
        check(f.gen(), 0, 1)


@pytest.mark.parametrize("q", [q for q, interned in _BOUNDARY if interned])
def test_elements_keep_their_order_and_are_the_interned_entries(q):
    f = GF(q)
    els = f.elements()
    assert isinstance(els, list)
    if f.size == f.p:
        assert [x.value for x in els] == list(range(q))
    else:
        assert [(x.a, x.b) for x in els] == \
            [(a, b) for a in range(f.p) for b in range(f.p)]
    assert all(x is y for x, y in zip(els, f.interned))


def test_elements_above_the_bound_keep_their_order():
    f = GF(4099)
    assert f.interned == ()
    assert [x.value for x in f.elements()] == list(range(4099))
    f = GF(67 * 67)
    assert f.interned == ()
    els = f.elements()
    assert [(x.a, x.b) for x in els[:3]] == [(0, 0), (0, 1), (0, 2)]
    assert (els[67].a, els[67].b) == (1, 0) and len(els) == 4489


@pytest.mark.parametrize("q,r,message", [
    (3, 5, "mixed prime fields"), (4093, 4099, "mixed prime fields"),
    (9, 25, "mixed quadratic extensions"),
    (61 * 61, 67 * 67, "mixed quadratic extensions")])
def test_mixed_fields_still_raise(q, r, message):
    x, y = GF(q).one(), GF(r).one()
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: y + x, lambda: y * x):
        with pytest.raises(ValueError, match=message):
            op()


@pytest.mark.parametrize("q", [3, 9])
def test_shared_elements_refuse_setattr(q):
    f = GF(q)
    x = f.one()
    assert x is f.interned[1 if q == 3 else 3]
    for name in ("value", "a", "p", "omega"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, 0)
    assert f.one() == 1 and f.interned[0] == 0


def test_no_table_is_built_at_import():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = ("import translab.cli, translab.fields as f; "
              "print(len(f._FP_INTERNED), len(f._FP2_INTERNED))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["0", "0"]
