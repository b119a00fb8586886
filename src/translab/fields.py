"""Exact scalar arithmetic for the four supported fields.

Supported fields and their element types:

* ``QQ``        rationals, elements are :class:`fractions.Fraction`
* ``QI``        Gaussian rationals a + b*i, :class:`GaussianRational`
* ``GF(p)``     prime field, :class:`FpElement`
* ``GF(p^2)``   quadratic extension a + b*w with w*w = omega, where omega is
                the smallest positive quadratic non-residue mod p (fixed, so
                the representation is deterministic across runs);
                :class:`Fp2Element`

Every element type is immutable, hashable, and supports ``+ - * /`` plus
unary ``-``; zero tests via ``bool(x)``.  Equality is structural after
normalization (Fraction keeps reduced form with positive denominator, the
finite fields store values reduced into ``[0, p)``).

String grammar (round trips are bit exact):

* rational:          ``a`` or ``a/b`` with ``b > 0`` (``b`` omitted when 1)
* Gaussian rational: ``re``, ``im i``, ``re+im i`` or ``re-im i``
                     where ``re``/``im`` are rationals, one space before ``i``
* GF(p):             ``k mod p``
* GF(p^2):           ``a+bw mod p^2`` (both coordinates always printed)
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

__all__ = [
    "Field",
    "RationalField",
    "GaussianRationalField",
    "PrimeFieldDomain",
    "QuadExtDomain",
    "GaussianRational",
    "FpElement",
    "Fp2Element",
    "QQ",
    "QI",
    "GF",
    "field_from_tag",
    "is_prime",
    "conjugate",
]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_GAUSS_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?) ?i)?$"
    r"|^(?P<im_only>[+-]?\d+(?:/\d+)?) ?i$"
)
_FP_RE = re.compile(r"^(?P<v>-?\d+) mod (?P<p>\d+)$")
_FP2_RE = re.compile(r"^(?P<a>-?\d+)\+(?P<b>-?\d+)w mod (?P<p>\d+)\^2$")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


class _Scalar:
    """What the exact element types share: immutability, and subtraction
    from the left and division, written through each type's own _coerce,
    -, * and inverse().  The hot operators stay in each type."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()


class GaussianRational(_Scalar):
    """A Gaussian rational re + im*i with exact Fraction coordinates."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im, "i"))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"


class FpElement(_Scalar):
    """An element of GF(p), value stored reduced into [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return FpElement(pow(self.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def conjugate(self) -> "FpElement":
        return self

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"

    def __str__(self):
        return f"{self.value} mod {self.p}"


class Fp2Element(_Scalar):
    """An element a + b*w of GF(p^2) with w*w = omega (a fixed non-residue)."""

    __slots__ = ("a", "b", "p", "omega")

    def __init__(self, a: int, b: int, p: int, omega: int):
        object.__setattr__(self, "a", a % p)
        object.__setattr__(self, "b", b % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "omega", omega)

    def _coerce(self, other):
        if isinstance(other, Fp2Element):
            if other.p != self.p:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, int):
            return Fp2Element(other, 0, self.p, self.omega)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp2Element(self.a + o.a, self.b + o.b, self.p, self.omega)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp2Element(self.a - o.a, self.b - o.b, self.p, self.omega)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp2Element(
            self.a * o.a + self.b * o.b * self.omega,
            self.a * o.b + self.b * o.a,
            self.p,
            self.omega,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Fp2Element":
        # (a + bw)^-1 = (a - bw) / (a^2 - omega b^2); the denominator is a
        # nonzero element of GF(p) because omega is a non-residue.
        p = self.p
        n = (self.a * self.a - self.omega * self.b * self.b) % p
        if n == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({p}^2)")
        ninv = pow(n, p - 2, p)
        return Fp2Element(self.a * ninv, -self.b * ninv, p, self.omega)

    def __neg__(self):
        return Fp2Element(-self.a, -self.b, self.p, self.omega)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, Fp2Element):
            return self.p == other.p and self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.p, "w"))

    def conjugate(self) -> "Fp2Element":
        # Frobenius x -> x^p sends w to -w.
        return Fp2Element(self.a, -self.b, self.p, self.omega)

    def __repr__(self):
        return f"Fp2Element({self.a}, {self.b}, {self.p})"

    def __str__(self):
        return f"{self.a}+{self.b}w mod {self.p}^2"


Scalar = Union[Fraction, GaussianRational, FpElement, Fp2Element]


def conjugate(x: Scalar) -> Scalar:
    """Field conjugation: complex conjugate on Q(i), Frobenius on GF(p^2),
    identity elsewhere."""
    if isinstance(x, Fraction):
        return x
    return x.conjugate()


class Field:
    """Field descriptor: constructors, parsing, formatting, enumeration."""

    tag: str
    characteristic: int
    size: int | None  # None for infinite fields

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def from_int(self, n: int) -> Scalar:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, x: Scalar) -> str:
        return str(x)

    def element_type(self) -> type:
        raise NotImplementedError

    def check_element(self, x) -> None:
        if not isinstance(x, self.element_type()):
            raise TypeError(f"{x!r} is not an element of {self.tag}")

    def elements(self):
        """All field elements in a deterministic order (finite fields only)."""
        raise NotImplementedError(f"{self.tag} is not finite")

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __repr__(self):
        return f"<field {self.tag}>"


class RationalField(Field):
    tag = "Q"
    characteristic = 0
    size = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        return _parse_fraction(text)

    def element_type(self):
        return Fraction

    def check_element(self, x):
        # bool is an int subclass but never a valid entry
        if not isinstance(x, Fraction):
            raise TypeError(f"{x!r} is not a rational (use Fraction)")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class GaussianRationalField(Field):
    tag = "Qi"
    characteristic = 0
    size = None

    def zero(self):
        return GaussianRational(0, 0)

    def one(self):
        return GaussianRational(1, 0)

    def i(self):
        return GaussianRational(0, 1)

    def from_int(self, n):
        return GaussianRational(n, 0)

    def parse(self, text):
        text = text.strip()
        m = _GAUSS_RE.fullmatch(text)
        if not m:
            raise ValueError(f"not a Gaussian rational literal: {text!r}")
        if m.group("im_only") is not None:
            return GaussianRational(0, Fraction(m.group("im_only")))
        re_part = Fraction(m.group("re"))
        im_part = Fraction(0)
        if m.group("im") is not None:
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
        return GaussianRational(re_part, im_part)

    def element_type(self):
        return GaussianRational

    def __eq__(self, other):
        return isinstance(other, GaussianRationalField)

    def __hash__(self):
        return hash("Qi")


class PrimeFieldDomain(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.tag = f"GF({p})"
        self.characteristic = p
        self.size = p

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def parse(self, text):
        text = text.strip()
        m = _FP_RE.match(text)
        if m:
            if int(m.group("p")) != self.p:
                raise ValueError(f"modulus mismatch: {text!r} in {self.tag}")
            return FpElement(int(m.group("v")), self.p)
        if re.match(r"^-?\d+$", text):
            return FpElement(int(text), self.p)
        raise ValueError(f"not a {self.tag} literal: {text!r}")

    def element_type(self):
        return FpElement

    def check_element(self, x):
        if not isinstance(x, FpElement) or x.p != self.p:
            raise TypeError(f"{x!r} is not an element of {self.tag}")

    def elements(self):
        return [FpElement(v, self.p) for v in range(self.p)]

    def __eq__(self, other):
        return isinstance(other, PrimeFieldDomain) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"no quadratic non-residue mod {p}")


class QuadExtDomain(Field):
    def __init__(self, p: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"GF(p^2) needs an odd prime, got {p}")
        self.p = p
        self.omega = _smallest_nonresidue(p)
        self.tag = f"GF({p}^2)"
        self.characteristic = p
        self.size = p * p

    def zero(self):
        return Fp2Element(0, 0, self.p, self.omega)

    def one(self):
        return Fp2Element(1, 0, self.p, self.omega)

    def gen(self):
        return Fp2Element(0, 1, self.p, self.omega)

    def from_int(self, n):
        return Fp2Element(n, 0, self.p, self.omega)

    def from_pair(self, a: int, b: int):
        return Fp2Element(a, b, self.p, self.omega)

    def parse(self, text):
        text = text.strip()
        m = _FP2_RE.match(text)
        if not m:
            raise ValueError(f"not a {self.tag} literal: {text!r}")
        if int(m.group("p")) != self.p:
            raise ValueError(f"modulus mismatch: {text!r} in {self.tag}")
        return Fp2Element(int(m.group("a")), int(m.group("b")), self.p, self.omega)

    def element_type(self):
        return Fp2Element

    def check_element(self, x):
        if not isinstance(x, Fp2Element) or x.p != self.p:
            raise TypeError(f"{x!r} is not an element of {self.tag}")

    def elements(self):
        # ordered by (a, b): a + b*w
        return [
            Fp2Element(a, b, self.p, self.omega)
            for a in range(self.p)
            for b in range(self.p)
        ]

    def sqrt_of_minus_one(self) -> Fp2Element:
        """A deterministic square root of -1 in GF(p^2)."""
        p = self.p
        if p % 4 == 1:
            r = _sqrt_mod_p(p - 1, p)
            return Fp2Element(r, 0, p, self.omega)
        # p = 3 mod 4: -1 is a non-residue mod p, so -1/omega is a residue
        # and (b*w)^2 = b^2*omega = -1 has a solution b mod p.
        b = _sqrt_mod_p((-pow(self.omega, p - 2, p)) % p, p)
        return Fp2Element(0, b, p, self.omega)

    def __eq__(self, other):
        return isinstance(other, QuadExtDomain) and other.p == self.p

    def __hash__(self):
        return hash(("GF2", self.p))


def _sqrt_mod_p(a: int, p: int) -> int:
    """Smallest square root of a mod p (a must be a residue)."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = _smallest_nonresidue(p)
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
                if i == m:
                    raise ValueError(f"{a} is not a residue mod {p}")
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    if r * r % p != a:
        raise ValueError(f"{a} is not a residue mod {p}")
    return min(r, p - r)


QQ = RationalField()
QI = GaussianRationalField()


@lru_cache(maxsize=None)
def _gf(p: int, deg: int) -> Field:
    if deg == 1:
        return PrimeFieldDomain(p)
    return QuadExtDomain(p)


def GF(q: int) -> Field:
    """GF(q) for q a prime or the square of an odd prime."""
    if q < 2:
        raise ValueError(f"invalid field size {q}")
    if is_prime(q):
        return _gf(q, 1)
    r = isqrt(q)
    if r * r == q and is_prime(r):
        return _gf(r, 2)
    raise ValueError(f"field size must be p or p^2 for prime p, got {q}")


_TAG_RE = re.compile(r"^GF\((\d+)(\^2)?\)$")


def field_from_tag(tag: str) -> Field:
    """Inverse of Field.tag: "Q", "Qi", "GF(p)", "GF(p^2)"."""
    if tag == "Q":
        return QQ
    if tag == "Qi":
        return QI
    m = _TAG_RE.match(tag.strip())
    if m:
        p = int(m.group(1))
        return _gf(p, 2 if m.group(2) else 1)
    raise ValueError(f"unknown field tag {tag!r}")
