"""Exact arithmetic in Q(tau) (tau**2 = tau + 1) and in its two quadratic
extensions Q(tau, i) and Q(tau, kappa), kappa = sqrt(1 + 3*tau), which share
one implementation."""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[int, Fraction]


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


class PayloadError(ValueError):
    """A JSON payload error at a place inside the payload."""

    def __init__(self, place: str, detail) -> None:
        super().__init__(f"{place.lstrip()}: {detail}")
        self.place, self.detail = place, detail


def json_entry(parse, payload, key, where: str = "", *args):
    """parse(payload[key], *args), a parse error prefixed with the entry's place,
    where[key] or where "key", and then the place of a nested entry in it."""
    try:
        return parse(payload[key], *args)
    except (ValueError, ZeroDivisionError) as error:
        place = f"{where}[{key}]" if isinstance(key, int) else f'{where} "{key}"'
        if isinstance(error, PayloadError):
            place, error = place + error.place, error.detail
        raise PayloadError(place, error) from None


def json_object(obj, keys: tuple[str, ...], form: str) -> None:
    """Raise ValueError naming the expected form and what is missing unless
    obj is a JSON object holding every key of keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected {form}, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f'expected {form}, missing key "{key}"')


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
        """The positive root in Q(tau), or None. A root y has norm n and trace
        t with n^2 = N(self) and t^2 = Tr(self) + 2n, and y^2 - t y + n = 0
        gives y = (self + n)/t; when t = 0, y = c*sqrt(5) with 5c^2 = self."""
        if self.is_zero():
            return GoldenNumber(0, 0)
        if self.sign() < 0:
            return None
        norm = _fraction_sqrt(self._a * self._a + self._a * self._b - self._b * self._b)
        if norm is None:
            return None
        for n in (norm, -norm):
            trace = _fraction_sqrt(2 * self._a + self._b + 2 * n)
            if trace:
                root = (self + n) / trace
                return root if root.sign() > 0 else -root
        c = _fraction_sqrt(self._a / 5) if self._b == 0 else None
        return None if c is None else GoldenNumber(-c, 2 * c)

    def __str__(self) -> str:
        return (f"{self._a.numerator}/{self._a.denominator}"
                f" + {self._b.numerator}/{self._b.denominator}*t")

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"a": [self._a.numerator, self._a.denominator],
                "b": [self._b.numerator, self._b.denominator]}

    @classmethod
    def from_json(cls, obj: dict) -> GoldenNumber:
        json_object(obj, ("a", "b"), 'a golden scalar {"a": [n, d], "b": [n, d]}')
        return cls(_json_fraction(obj["a"]), _json_fraction(obj["b"]))


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
TAU = GoldenNumber(0, 1)
SQRT5 = GoldenNumber(-1, 2)
KAPPA_RADICAND = GoldenNumber(1, 3)


class _QuadraticExtension:
    """Element u + v*sqrt(r) of Q(tau, sqrt(r)), with the non-square radicand
    r in Q(tau) fixed by the subclass as _RADICAND. Values of two different
    extensions compare equal only when both lie in Q(tau), and arithmetic
    between them raises TypeError."""

    __slots__ = ("_u", "_v")

    _RADICAND: GoldenNumber | int

    def __init__(self,
                 u: GoldenNumber | RationalLike = 0,
                 v: GoldenNumber | RationalLike = 0) -> None:
        self._u = GoldenNumber.coerce(u)
        self._v = GoldenNumber.coerce(v)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        return cls(GoldenNumber.coerce(value), 0)

    def _lift(self, value):
        """value in this extension, or None if it is not a value of it or of
        Q(tau)."""
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction, GoldenNumber)):
            return type(self)(value, 0)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return type(self)(self._u + other._u, self._v + other._v)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self._u, -self._v)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return type(self)(self._u - other._u, self._v - other._v)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return type(self)(self._u * other._u + self._v * other._v * self._RADICAND,
                          self._u * other._v + self._v * other._u)

    __rmul__ = __mul__

    def conjugate(self):
        return type(self)(self._u, -self._v)

    def norm(self) -> GoldenNumber:
        return self._u * self._u - self._v * self._v * self._RADICAND

    def inverse(self):
        norm = self.norm()
        if norm.is_zero():
            raise ZeroDivisionError("quadratic extension number has no inverse: it is zero")
        inv = norm.inverse()
        return type(self)(self._u * inv, -self._v * inv)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        return power(self, exponent, type(self)(1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GoldenNumber)):
            return self._v.is_zero() and self._u == other
        if not isinstance(other, _QuadraticExtension):
            return NotImplemented
        if type(other) is not type(self) and not self._v.is_zero():
            return False
        return self._u == other._u and self._v == other._v

    def __hash__(self) -> int:
        if self._v.is_zero():
            return hash(self._u)
        return hash((self._u, self._v))

    def is_zero(self) -> bool:
        return self._u.is_zero() and self._v.is_zero()


class GoldenComplex(_QuadraticExtension):
    """Element re + im*i of Q(tau, i), i**2 = -1."""

    __slots__ = ()

    _RADICAND = -1

    @property
    def re(self) -> GoldenNumber:
        return self._u

    @property
    def im(self) -> GoldenNumber:
        return self._v

    def galois(self) -> GoldenComplex:
        return GoldenComplex(self._u.galois(), self._v.galois())

    def real(self) -> complex:
        return complex(self._u.real(), self._v.real())

    def __str__(self) -> str:
        if self._v.is_zero():
            return str(self._u)
        return f"{self._u} + ({self._v})*i"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"re": self._u.to_json(), "im": self._v.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> GoldenComplex:
        json_object(obj, ("re", "im"), 'a complex scalar {"re": golden, "im": golden}')
        return cls(*(json_entry(GoldenNumber.from_json, obj, key) for key in ("re", "im")))


class QuadExtNumber(_QuadraticExtension):
    """Element base + ext*kappa of Q(tau, kappa), kappa**2 = KAPPA_RADICAND =
    1 + 3*tau."""

    __slots__ = ()

    _RADICAND = KAPPA_RADICAND

    @property
    def base(self) -> GoldenNumber:
        return self._u

    @property
    def ext(self) -> GoldenNumber:
        return self._v

    def real(self) -> float:
        return self._u.real() + self._v.real() * KAPPA_RADICAND.real() ** 0.5

    def sign(self) -> int:
        base_sign, ext_sign = self._u.sign(), self._v.sign()
        if ext_sign == 0:
            return base_sign
        if base_sign == 0:
            return ext_sign
        if base_sign == ext_sign:
            return base_sign
        return base_sign * self.norm().sign()

    def golden_part(self) -> GoldenNumber:
        if not self._v.is_zero():
            raise ValueError("value does not lie in the golden base field")
        return self._u

    def __str__(self) -> str:
        return f"{self._u} + ({self._v})*k  [k^2 = {KAPPA_RADICAND}]"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"base": self._u.to_json(), "ext": self._v.to_json(),
                "radicand": KAPPA_RADICAND.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> QuadExtNumber:
        json_object(obj, ("base", "ext", "radicand"), "a kappa-form scalar "
                    '{"base": golden, "ext": golden, "radicand": golden}')
        base, ext, radicand = (json_entry(GoldenNumber.from_json, obj, key)
                               for key in ("base", "ext", "radicand"))
        if radicand != KAPPA_RADICAND:
            raise ValueError(f"kappa radicand must be {KAPPA_RADICAND}, got {radicand}")
        return cls(base, ext)


Scalar = Union[GoldenNumber, QuadExtNumber]

