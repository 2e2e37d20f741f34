"""Exact arithmetic in Q(tau) (tau**2 = tau + 1), its complexification, and
real quadratic extensions Q(tau, sqrt(d))."""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]


class TowerMismatchError(ValueError):
    """Mixed arithmetic between quadratic extensions with different radicands."""


def _fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def power(base, exponent: int, identity, mul=operator.mul):
    """base ** exponent by square-and-multiply under mul, starting from
    identity; a negative exponent inverts the base."""
    if exponent < 0:
        base, exponent = base.inverse(), -exponent
    result = identity
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        base = mul(base, base)
        exponent >>= 1
    return result


def _json_fraction(pair) -> Fraction:
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(n) is int for n in pair)):
        raise ValueError(
            f"expected a [numerator, denominator] pair of integers, got {pair!r}")
    return Fraction(*pair)


def _sign_u_plus_v_sqrt5(u: Fraction, v: Fraction) -> int:
    if v == 0:
        return -1 if u < 0 else (0 if u == 0 else 1)
    if u == 0:
        return -1 if v < 0 else 1
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    lead = 1 if u > 0 else -1
    diff = u * u - 5 * v * v
    if diff == 0:
        return 0
    return lead if diff > 0 else -lead


class GoldenNumber:
    """Element a + b*tau of Q(tau)."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        self._a = _fraction(a)
        self._b = _fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @classmethod
    def coerce(cls, value: GoldenNumber | RationalLike) -> GoldenNumber:
        if isinstance(value, GoldenNumber):
            return value
        return cls(value, 0)

    def __add__(self, other: GoldenNumber | RationalLike) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            other = GoldenNumber(other, 0)
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return GoldenNumber(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self._a, -self._b)

    def __sub__(self, other: GoldenNumber | RationalLike) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            other = GoldenNumber(other, 0)
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return GoldenNumber(self._a - other._a, self._b - other._b)

    def __rsub__(self, other: RationalLike) -> GoldenNumber:
        return GoldenNumber(other, 0) - self

    def __mul__(self, other: GoldenNumber | RationalLike) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(self._a * other, self._b * other)
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        bb = self._b * other._b
        return GoldenNumber(self._a * other._a + bb,
                            self._a * other._b + self._b * other._a + bb)

    __rmul__ = __mul__

    def inverse(self) -> GoldenNumber:
        if self.is_zero():
            raise ZeroDivisionError("golden number has no inverse: it is zero")
        norm = self._a * self._a + self._a * self._b - self._b * self._b
        return GoldenNumber((self._a + self._b) / norm, -self._b / norm)

    def __truediv__(self, other: GoldenNumber | RationalLike) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return GoldenNumber(self._a / other, self._b / other)
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: RationalLike) -> GoldenNumber:
        return GoldenNumber(other, 0) * self.inverse()

    def __pow__(self, exponent: int) -> GoldenNumber:
        return power(self, exponent, ONE)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GoldenNumber(other, 0)
        if isinstance(other, QuadExtNumber):
            return NotImplemented
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def galois(self) -> GoldenNumber:
        return GoldenNumber(self._a + self._b, -self._b)

    def real(self) -> float:
        return float(self._a) + float(self._b) * (1 + 5 ** 0.5) / 2

    def sign(self) -> int:
        return _sign_u_plus_v_sqrt5(2 * self._a + self._b, self._b)

    def sqrt(self) -> GoldenNumber | None:
        if self.is_zero():
            return GoldenNumber(0, 0)
        if self.sign() < 0:
            return None
        big_a, big_b = self._a, self._b
        if big_b == 0:
            root = _fraction_sqrt(big_a)
            if root is not None:
                return GoldenNumber(root, 0)
        # (a + b*tau)**2 = self  with  u = b**2  solving  5u**2 - (2B+4A)u + B**2 = 0
        disc = (2 * big_b + 4 * big_a) ** 2 - 20 * big_b * big_b
        disc_root = _fraction_sqrt(disc)
        if disc_root is None:
            return None
        for branch in (disc_root, -disc_root):
            u = (2 * big_b + 4 * big_a + branch) / 10
            if u <= 0:
                continue
            b = _fraction_sqrt(u)
            if b is None:
                continue
            a = (big_b - u) / (2 * b)
            for candidate in (GoldenNumber(a, b), GoldenNumber(-a, -b)):
                if candidate * candidate == self and candidate.sign() > 0:
                    return candidate
        return None

    def __str__(self) -> str:
        return (f"{self._a.numerator}/{self._a.denominator}"
                f" + {self._b.numerator}/{self._b.denominator}*t")

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"a": [self._a.numerator, self._a.denominator],
                "b": [self._b.numerator, self._b.denominator]}

    @classmethod
    def from_json(cls, obj: dict) -> GoldenNumber:
        return cls(_json_fraction(obj["a"]), _json_fraction(obj["b"]))


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
TAU = GoldenNumber(0, 1)
SQRT5 = GoldenNumber(-1, 2)
KAPPA_RADICAND = GoldenNumber(1, 3)


class GoldenComplex:
    """Element re + im*i of Q(tau, i)."""

    __slots__ = ("_re", "_im")

    def __init__(self,
                 re: GoldenNumber | RationalLike = 0,
                 im: GoldenNumber | RationalLike = 0) -> None:
        self._re = GoldenNumber.coerce(re)
        self._im = GoldenNumber.coerce(im)

    @property
    def re(self) -> GoldenNumber:
        return self._re

    @property
    def im(self) -> GoldenNumber:
        return self._im

    @classmethod
    def coerce(cls, value: GoldenComplex | GoldenNumber | RationalLike) -> GoldenComplex:
        if isinstance(value, GoldenComplex):
            return value
        return cls(GoldenNumber.coerce(value), 0)

    def __add__(self, other: GoldenComplex | GoldenNumber | RationalLike) -> GoldenComplex:
        if isinstance(other, (int, Fraction, GoldenNumber)):
            other = GoldenComplex(other, 0)
        if not isinstance(other, GoldenComplex):
            return NotImplemented
        return GoldenComplex(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __neg__(self) -> GoldenComplex:
        return GoldenComplex(-self._re, -self._im)

    def __sub__(self, other: GoldenComplex | GoldenNumber | RationalLike) -> GoldenComplex:
        return self + (-GoldenComplex.coerce(other))

    def __rsub__(self, other: GoldenNumber | RationalLike) -> GoldenComplex:
        return GoldenComplex.coerce(other) - self

    def __mul__(self, other: GoldenComplex | GoldenNumber | RationalLike) -> GoldenComplex:
        if isinstance(other, (int, Fraction, GoldenNumber)):
            other = GoldenComplex(other, 0)
        if not isinstance(other, GoldenComplex):
            return NotImplemented
        return GoldenComplex(self._re * other._re - self._im * other._im,
                             self._re * other._im + self._im * other._re)

    __rmul__ = __mul__

    def conjugate(self) -> GoldenComplex:
        return GoldenComplex(self._re, -self._im)

    def norm(self) -> GoldenNumber:
        return self._re * self._re + self._im * self._im

    def inverse(self) -> GoldenComplex:
        norm = self.norm()
        if norm.is_zero():
            raise ZeroDivisionError("golden complex number has no inverse: it is zero")
        inv = norm.inverse()
        return GoldenComplex(self._re * inv, -self._im * inv)

    def __truediv__(self, other: GoldenComplex | GoldenNumber | RationalLike) -> GoldenComplex:
        return self * GoldenComplex.coerce(other).inverse()

    def __rtruediv__(self, other: GoldenNumber | RationalLike) -> GoldenComplex:
        return GoldenComplex.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> GoldenComplex:
        return power(self, exponent, GoldenComplex(1, 0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GoldenNumber)):
            other = GoldenComplex(other, 0)
        if not isinstance(other, GoldenComplex):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        if self._im.is_zero():
            return hash(self._re)
        return hash((self._re, self._im))

    def is_zero(self) -> bool:
        return self._re.is_zero() and self._im.is_zero()

    def galois(self) -> GoldenComplex:
        return GoldenComplex(self._re.galois(), self._im.galois())

    def real(self) -> complex:
        return complex(self._re.real(), self._im.real())

    def __str__(self) -> str:
        if self._im.is_zero():
            return str(self._re)
        return f"{self._re} + ({self._im})*i"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"re": self._re.to_json(), "im": self._im.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> GoldenComplex:
        return cls(GoldenNumber.from_json(obj["re"]), GoldenNumber.from_json(obj["im"]))


class QuadExtNumber:
    """Element base + ext*kappa of Q(tau, kappa), kappa**2 = radicand in Q(tau)."""

    __slots__ = ("_base", "_ext", "_radicand")

    def __init__(self,
                 base: GoldenNumber | RationalLike,
                 ext: GoldenNumber | RationalLike,
                 radicand: GoldenNumber | RationalLike) -> None:
        self._base = GoldenNumber.coerce(base)
        self._ext = GoldenNumber.coerce(ext)
        self._radicand = GoldenNumber.coerce(radicand)

    @property
    def base(self) -> GoldenNumber:
        return self._base

    @property
    def ext(self) -> GoldenNumber:
        return self._ext

    @property
    def radicand(self) -> GoldenNumber:
        return self._radicand

    def _lift(self, value: QuadExtNumber | GoldenNumber | RationalLike) -> QuadExtNumber:
        if isinstance(value, QuadExtNumber):
            if value._radicand == self._radicand:
                return value
            # a purely-base value belongs to every tower
            if value._ext.is_zero():
                return QuadExtNumber(value._base, 0, self._radicand)
            if self._ext.is_zero():
                return value
            raise TowerMismatchError(
                f"mixed radicands {self._radicand} and {value._radicand}")
        return QuadExtNumber(GoldenNumber.coerce(value), ZERO, self._radicand)

    def __add__(self, other: QuadExtNumber | GoldenNumber | RationalLike) -> QuadExtNumber:
        if not isinstance(other, (QuadExtNumber, GoldenNumber, int, Fraction)):
            return NotImplemented
        other = self._lift(other)
        radicand = self._radicand if not self._ext.is_zero() else other._radicand
        return QuadExtNumber(self._base + other._base, self._ext + other._ext, radicand)

    __radd__ = __add__

    def __neg__(self) -> QuadExtNumber:
        return QuadExtNumber(-self._base, -self._ext, self._radicand)

    def __sub__(self, other: QuadExtNumber | GoldenNumber | RationalLike) -> QuadExtNumber:
        if not isinstance(other, (QuadExtNumber, GoldenNumber, int, Fraction)):
            return NotImplemented
        return self + (-self._lift(other))

    def __rsub__(self, other: GoldenNumber | RationalLike) -> QuadExtNumber:
        return self._lift(other) - self

    def __mul__(self, other: QuadExtNumber | GoldenNumber | RationalLike) -> QuadExtNumber:
        if not isinstance(other, (QuadExtNumber, GoldenNumber, int, Fraction)):
            return NotImplemented
        other = self._lift(other)
        radicand = self._radicand if not self._ext.is_zero() else other._radicand
        return QuadExtNumber(
            self._base * other._base + self._ext * other._ext * radicand,
            self._base * other._ext + self._ext * other._base,
            radicand)

    __rmul__ = __mul__

    def inverse(self) -> QuadExtNumber:
        norm = self._base * self._base - self._ext * self._ext * self._radicand
        if norm.is_zero():
            raise ZeroDivisionError("quadratic extension number has no inverse: it is zero")
        inv = norm.inverse()
        return QuadExtNumber(self._base * inv, -self._ext * inv, self._radicand)

    def __truediv__(self, other: QuadExtNumber | GoldenNumber | RationalLike) -> QuadExtNumber:
        if not isinstance(other, (QuadExtNumber, GoldenNumber, int, Fraction)):
            return NotImplemented
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other: GoldenNumber | RationalLike) -> QuadExtNumber:
        return self._lift(other) * self.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GoldenNumber, GoldenComplex)):
            # a value with no imaginary or kappa part compares as its GoldenNumber
            return self._ext.is_zero() and other == self._base
        if not isinstance(other, QuadExtNumber):
            return NotImplemented
        if self._ext.is_zero() and other._ext.is_zero():
            return self._base == other._base
        return (self._base == other._base and self._ext == other._ext
                and self._radicand == other._radicand)

    def __hash__(self) -> int:
        if self._ext.is_zero():
            return hash(self._base)
        return hash((self._base, self._ext, self._radicand))

    def is_zero(self) -> bool:
        return self._base.is_zero() and self._ext.is_zero()

    def real(self) -> float:
        return self._base.real() + self._ext.real() * self._radicand.real() ** 0.5

    def sign(self) -> int:
        base_sign, ext_sign = self._base.sign(), self._ext.sign()
        if ext_sign == 0:
            return base_sign
        if base_sign == 0:
            return ext_sign
        if base_sign == ext_sign:
            return base_sign
        diff = self._base * self._base - self._ext * self._ext * self._radicand
        return base_sign * diff.sign()

    def golden_part(self) -> GoldenNumber:
        if not self._ext.is_zero():
            raise ValueError("value does not lie in the golden base field")
        return self._base

    def __str__(self) -> str:
        return f"{self._base} + ({self._ext})*k  [k^2 = {self._radicand}]"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"base": self._base.to_json(), "ext": self._ext.to_json(),
                "radicand": self._radicand.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> QuadExtNumber:
        return cls(GoldenNumber.from_json(obj["base"]),
                   GoldenNumber.from_json(obj["ext"]),
                   GoldenNumber.from_json(obj["radicand"]))


Scalar = Union[GoldenNumber, QuadExtNumber]

