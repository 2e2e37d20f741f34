"""Quaternionic 2x2 matrix groups over Q(tau), their Lorentz images under the
double cover onto the 4-dimensional hyperbolic isometries, the hyperboloid
models, and the disc model that the complex 2x2 group acts on."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Union

from .exactfield import (GoldenNumber, GoldenComplex, KAPPA_RADICAND, QuadExtNumber,
                         Scalar, ONE, ZERO, power)

ScalarLike = Union[Scalar, int, Fraction]


class InvalidElementError(ValueError):
    """Matrix fails the defining exact identity of its group."""


class DomainError(ValueError):
    """Point lies outside the domain of the requested map."""


def _scalar(value: ScalarLike) -> Scalar:
    if isinstance(value, (GoldenNumber, QuadExtNumber)):
        return value
    return GoldenNumber.coerce(value)


class Quaternion:
    """Quaternion with coordinates in Q(tau) or a quadratic extension of it."""

    __slots__ = ("_coords",)

    def __init__(self, w: ScalarLike = 0, x: ScalarLike = 0,
                 y: ScalarLike = 0, z: ScalarLike = 0) -> None:
        self._coords = (_scalar(w), _scalar(x), _scalar(y), _scalar(z))

    @property
    def coords(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return self._coords

    @property
    def re(self) -> Scalar:
        return self._coords[0]

    def __add__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*(s + o for s, o in zip(self._coords, other._coords)))

    def __sub__(self, other: Quaternion) -> Quaternion:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*(s - o for s, o in zip(self._coords, other._coords)))

    def __neg__(self) -> Quaternion:
        return Quaternion(*(-s for s in self._coords))

    def __mul__(self, other: Quaternion | ScalarLike) -> Quaternion:
        if isinstance(other, (int, Fraction, GoldenNumber, QuadExtNumber)):
            return Quaternion(*(s * other for s in self._coords))
        if not isinstance(other, Quaternion):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            # the zero the full product gives: kappa-typed if any coordinate is
            kappa = any(isinstance(c, QuadExtNumber) for c in self._coords + other._coords)
            return Quaternion(*[QuadExtNumber() if kappa else ZERO] * 4)
        w1, x1, y1, z1 = self._coords
        w2, x2, y2, z2 = other._coords
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    def __pow__(self, exponent: int) -> Quaternion:
        return power(self, exponent, QUAT_ONE)

    def conjugate(self) -> Quaternion:
        w, x, y, z = self._coords
        return Quaternion(w, -x, -y, -z)

    def norm_sq(self) -> Scalar:
        w, x, y, z = self._coords
        return w * w + x * x + y * y + z * z

    def inverse(self) -> Quaternion:
        return self.conjugate() * self.norm_sq().inverse()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coords)

    def is_unit(self) -> bool:
        return self.norm_sq() == ONE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return all(s == o for s, o in zip(self._coords, other._coords))

    def __hash__(self) -> int:
        return hash(self._coords)

    def real(self) -> tuple[float, float, float, float]:
        return tuple(c.real() for c in self._coords)

    def __str__(self) -> str:
        w, x, y, z = self._coords
        return f"({w}) + ({x})i + ({y})j + ({z})k"

    __repr__ = __str__


QUAT_ONE = Quaternion(1, 0, 0, 0)


def _integer_form(scalars):
    """The scalars as integer coordinates on the basis 1, tau, kappa,
    tau*kappa over one common denominator: (denominator, ones, taus, kappas,
    tau_kappas), each coordinate an int list in the order of the scalars."""
    parts = [(v.base, v.ext) if isinstance(v, QuadExtNumber) else (v, ZERO)
             for v in scalars]
    rationals = [(u.a, u.b, w.a, w.b) for u, w in parts]
    denominator = lcm(*(f.denominator for four in rationals for f in four))
    ones, taus, kappas, tau_kappas = ([f.numerator * (denominator // f.denominator)
                                       for f in column] for column in zip(*rationals))
    return denominator, ones, taus, kappas, tau_kappas


def _exact(denominator, parts, kappa, width):
    """The exact scalars (ones + taus*tau + (kappas + tau_kappas*tau)*kappa) /
    denominator of parts = (ones, taus, kappas, tau_kappas), in rows of width:
    a QuadExtNumber where kappa holds, a GoldenNumber elsewhere."""
    def golden(p: int, q: int) -> GoldenNumber:
        return GoldenNumber(Fraction(p, denominator), Fraction(q, denominator))

    entries = [QuadExtNumber(golden(p, q), golden(r, s)) if k else golden(p, q)
               for p, q, r, s, k in zip(*parts, kappa)]
    return tuple(tuple(entries[i:i + width]) for i in range(0, len(entries), width))


# kappa^2 = 1 + 3*tau as the integer pair (1, 3)
_KAPPA_SQ = (int(KAPPA_RADICAND.a), int(KAPPA_RADICAND.b))


def _golden_times(r, ones, taus):
    """r = (r0, r1), meaning r0 + r1*tau, times each ones[i] + taus[i]*tau,
    on ints with tau^2 = tau + 1; returns the 1 and tau coordinates."""
    r0, r1 = r
    return ([r0 * p + r1 * q for p, q in zip(ones, taus)],
            [r1 * p + (r0 + r1) * q for p, q in zip(ones, taus)])


def _golden_quadratic(form, ones, taus):
    """form at ones + taus*tau, for a form that is a bilinear map B(x, x)
    over the integers: by Karatsuba, F(p + q tau) = F(p) + c tau + F(q) tau^2
    with c = F(p + q) - F(p) - F(q), and tau^2 = tau + 1. Three integer
    evaluations; returns the 1 and tau coordinates of each output."""
    fp, fq = form(ones), form(taus)
    fpq = form([p + q for p, q in zip(ones, taus)])
    return [p + q for p, q in zip(fp, fq)], [pq - p for p, pq in zip(fp, fpq)]


def _quadratic(form, ones, taus, kappas, tau_kappas):
    """form, a bilinear map B(x, x) over the integers, at the point
    u + v*kappa of Z[tau, kappa], u = ones + taus*tau and v = kappas +
    tau_kappas*tau: F(u) + kappa^2 F(v) + kappa (F(u + v) - F(u) - F(v)) with
    kappa^2 = 1 + 3 tau. Three evaluations over Z[tau], so 9 integer ones,
    or 3 when v is zero; returns the four coordinates of each output."""
    u0, u1 = _golden_quadratic(form, ones, taus)
    if not (any(kappas) or any(tau_kappas)):
        zeros = [0] * len(u0)
        return u0, u1, zeros, zeros
    v0, v1 = _golden_quadratic(form, kappas, tau_kappas)
    w0, w1 = _golden_quadratic(form, [p + q for p, q in zip(ones, kappas)],
                               [p + q for p, q in zip(taus, tau_kappas)])
    k0, k1 = _golden_times(_KAPPA_SQ, v0, v1)
    return ([a + k for a, k in zip(u0, k0)], [b + k for b, k in zip(u1, k1)],
            [e - a - c for a, c, e in zip(u0, v0, w0)],
            [f - b - d for b, d, f in zip(u1, v1, w1)])


def _times(rows, columns):
    """The product of the 5x5 rows and the 5 x p columns on integer
    coordinates. As in a sum of exact products, an entry is a QuadExtNumber
    exactly when a factor in its row or its column is one."""
    p = len(columns[0])

    def product_form(x):  # x: the 25 entries of rows, then the 5p of columns
        return [sum(x[i + k] * x[25 + k * p + j] for k in range(5))
                for i in range(0, 25, 5) for j in range(p)]

    denominator, *coords = _integer_form([v for row in (*rows, *columns) for v in row])
    kappa = [any(isinstance(v, QuadExtNumber) for v in (*row, *column))
             for row in rows for column in zip(*columns)]
    return _exact(denominator * denominator, _quadratic(product_form, *coords), kappa, p)


def _lorentz_gram(m):
    """The upper triangle of M^T J M, J = diag(1, 1, 1, 1, -1), for the 5x5
    matrix M with entries m in row order, over any commutative ring."""
    return [m[i] * m[j] + m[5 + i] * m[5 + j] + m[10 + i] * m[10 + j]
            + m[15 + i] * m[15 + j] - m[20 + i] * m[20 + j]
            for i in range(5) for j in range(i, 5)]


def _block_minors(m):
    """The 2x2 minors of rows 1-2, then of rows 3-4, of the upper-left 4x4
    block of the 5x5 matrix with entries m in row order, on the column pairs
    of combinations(range(4), 2) in order."""
    return [m[5 * r + j] * m[5 * r + 5 + k] - m[5 * r + k] * m[5 * r + 5 + j]
            for r in (0, 2) for j, k in combinations(range(4), 2)]


def _laplace(minors):
    """[det] of that block from _block_minors, by the Laplace expansion along
    rows 1-2: the columns complementary to pair i are pair 5 - i."""
    return [sum(sign * minors[i] * minors[11 - i]
                for i, sign in enumerate((1, -1, 1, 1, -1, 1)))]


class LorentzMatrix5:
    """5x5 Lorentz matrix preserving x1^2+...+x4^2-x5^2, future-preserving, det 1."""

    __slots__ = ("_rows",)

    def __init__(self, rows, validate: bool = True) -> None:
        self._rows = tuple(tuple(_scalar(v) for v in row) for row in rows)
        if len(self._rows) != 5 or any(len(r) != 5 for r in self._rows):
            raise InvalidElementError("expected a 5x5 matrix")
        if not validate:
            return
        # The checks run on integer coordinates over one denominator D.
        denominator, *coords = _integer_form([v for row in self._rows for v in row])
        ones, *rest = _quadratic(_lorentz_gram, *coords)
        square = denominator * denominator
        if ones != [(square if j < 4 else -square) if i == j else 0
                    for i in range(5) for j in range(i, 5)] or any(map(any, rest)):
            raise InvalidElementError("matrix does not preserve the Lorentz form")
        if self._rows[4][4].sign() < 0:
            raise InvalidElementError("matrix does not preserve the future cone")
        # Then M^-1 = J M^T J, so by Jacobi's identity M55 = (M^-1)_55 =
        # det(A)/det(M) for the upper-left 4x4 block A: det(M) = 1 exactly
        # when det(A) = M55, and det(A) D^4 comes from two quadratic forms.
        block = _quadratic(_laplace, *_quadratic(_block_minors, *coords))
        cube = square * denominator
        if [part[0] for part in block] != [part[24] * cube for part in coords]:
            raise InvalidElementError("matrix does not have determinant one")

    @property
    def rows(self):
        return self._rows

    def __getitem__(self, index: int):
        return self._rows[index]

    def __mul__(self, other):
        if not isinstance(other, LorentzMatrix5):
            return NotImplemented
        return LorentzMatrix5(_times(self._rows, other._rows), validate=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LorentzMatrix5):
            return NotImplemented
        return self._rows == other._rows

    def apply(self, point: HyperboloidPoint) -> HyperboloidPoint:
        column = _times(self._rows, [(v,) for v in point.coords])
        return HyperboloidPoint(v for (v,) in column)

    def real(self) -> list[list[float]]:
        return [[v.real() for v in row] for row in self._rows]

    @classmethod
    def identity(cls) -> LorentzMatrix5:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5)),
                   validate=False)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]" for row in self._rows)

    __repr__ = __str__


class _SpinMatrix:
    """2x2 matrix A with A* J A = J (J = diag(1,-1)) over the subclass's
    entry ring, which has a conjugation, possibly carrying an implicit
    positive scalar factor mu with mu^2 = scale_sq."""

    __slots__ = ("_a", "_b", "_c", "_d", "_scale_sq", "_member")

    def __init__(self, a, b, c, d, scale_sq: GoldenNumber | int | Fraction = 1,
                 validate: bool = True) -> None:
        self._a, self._b, self._c, self._d = a, b, c, d
        self._scale_sq = GoldenNumber.coerce(scale_sq)
        self._member: bool | None = None
        if validate and not self.is_member():
            raise InvalidElementError("matrix does not satisfy A* J A = J")

    def _with(self, a, b, c, d, scale_sq: GoldenNumber, member: bool | None):
        """A matrix of this type with the given entries, not validated; member
        is its known membership, or None to leave it to is_member()."""
        result = object.__new__(type(self))
        result._a, result._b, result._c, result._d = a, b, c, d
        result._scale_sq, result._member = scale_sq, member
        return result

    a = property(lambda self: self._a)
    b = property(lambda self: self._b)
    c = property(lambda self: self._c)
    d = property(lambda self: self._d)

    def is_member(self) -> bool:
        if self._member is None:
            s = self._scale_sq
            a, b, c, d = self._a, self._b, self._c, self._d
            norm_first = (a.conjugate() * a - c.conjugate() * c).re
            norm_second = (b.conjugate() * b - d.conjugate() * d).re
            cross = a.conjugate() * b - c.conjugate() * d
            self._member = (s.sign() > 0 and s * norm_first == ONE
                            and s * norm_second == -ONE and cross.is_zero())
        return self._member

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._with(self._a * other._a + self._b * other._c,
                          self._a * other._b + self._b * other._d,
                          self._c * other._a + self._d * other._c,
                          self._c * other._b + self._d * other._d,
                          self._scale_sq * other._scale_sq,
                          True if self._member and other._member else None)

    def __neg__(self):
        return self._with(-self._a, -self._b, -self._c, -self._d,
                          self._scale_sq, self._member)

    def inverse(self):
        return self._with(self._a.conjugate(), -self._c.conjugate(),
                          -self._b.conjugate(), self._d.conjugate(),
                          self._scale_sq, True if self._member else None)

    def __pow__(self, exponent: int):
        one, zero = type(self._a)(1), type(self._a)()
        return power(self, exponent, self._with(one, zero, zero, one, ONE, True))

    def normalized(self):
        """This matrix with mu taken into its entries, or None when scale_sq
        is not a square in Q(tau)."""
        if self._scale_sq == ONE:
            return self
        root = self._scale_sq.sqrt()
        if root is None:
            return None
        return self._with(self._a * root, self._b * root, self._c * root,
                          self._d * root, ONE, self._member)

    def __eq__(self, other: object) -> bool:
        """mu A = nu B exactly when A = r B for a real r > 0 with
        r^2 mu^2 = nu^2; r is read off one nonzero entry of B."""
        if type(other) is not type(self):
            return NotImplemented
        lhs = (self._a, self._b, self._c, self._d)
        rhs = (other._a, other._b, other._c, other._d)
        pivot = next((i for i, entry in enumerate(rhs) if not entry.is_zero()), None)
        if pivot is None:
            return all(entry.is_zero() for entry in lhs)
        x, y = lhs[pivot], rhs[pivot]
        r = (x * y.conjugate()).re / (y * y.conjugate()).re
        return (r.sign() > 0 and r * r * self._scale_sq == other._scale_sq
                and all(u == v * r for u, v in zip(lhs, rhs)))

    def __str__(self) -> str:
        head = "" if self._scale_sq == ONE else f"sqrt({self._scale_sq}) * "
        return f"{head}[[{self._a}, {self._b}], [{self._c}, {self._d}]]"

    __repr__ = __str__


class SpinMatrix4(_SpinMatrix):
    """2x2 quaternionic matrix A with A* J A = J (J = diag(1,-1)), possibly
    carrying an implicit positive scalar factor mu with mu^2 = scale_sq."""

    __slots__ = ()

    @property
    def scale_sq(self) -> GoldenNumber:
        return self._scale_sq

    @classmethod
    def diagonal(cls, p: Quaternion, q: Quaternion) -> SpinMatrix4:
        return cls(p, Quaternion(), Quaternion(), q)

    def real(self) -> list[list[tuple[float, float, float, float]]]:
        mu = self._scale_sq.real() ** 0.5
        return [[tuple(mu * f for f in q.real()) for q in row]
                for row in ((self._a, self._b), (self._c, self._d))]


class SpinMatrix2(_SpinMatrix):
    """2x2 complex matrix [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1:
    the matrices of SpinMatrix4 whose entries lie in the complex slice."""

    __slots__ = ()

    def __init__(self, a: GoldenComplex, b: GoldenComplex,
                 c: GoldenComplex | None = None, d: GoldenComplex | None = None,
                 validate: bool = True) -> None:
        a, b = GoldenComplex.coerce(a), GoldenComplex.coerce(b)
        c = GoldenComplex.coerce(c) if c is not None else b.conjugate()
        d = GoldenComplex.coerce(d) if d is not None else a.conjugate()
        if validate and (c != b.conjugate() or d != a.conjugate()):
            raise InvalidElementError(
                "matrix is not of the form [[a, b], [conj(b), conj(a)]]")
        super().__init__(a, b, c, d, validate=validate)

    @classmethod
    def diagonal(cls, u: GoldenComplex) -> SpinMatrix2:
        return cls(u, GoldenComplex())


class BallPoint2:
    """Point of the open unit disc in the complex plane."""

    __slots__ = ("_z",)

    def __init__(self, z: BallPoint2 | GoldenComplex) -> None:
        z = z.z if isinstance(z, BallPoint2) else GoldenComplex.coerce(z)
        if (ONE - z.norm()).sign() <= 0:
            raise DomainError("point lies outside the open unit disc")
        self._z = z

    @property
    def z(self) -> GoldenComplex:
        return self._z

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BallPoint2):
            return NotImplemented
        return self._z == other._z

    def __str__(self) -> str:
        return f"disc point {self._z}"

    __repr__ = __str__


def _hyperboloid_form(x):
    """[x1^2 + ... + x(n-1)^2 - xn^2] for the n coordinates x."""
    return [sum(v * v for v in x[:-1]) - x[-1] * x[-1]]


class _HyperboloidPoint:
    """Point (x1,...,xn) with x1^2+...+x(n-1)^2-xn^2 = -1 and xn >= 1, n the
    subclass's size."""

    __slots__ = ("_coords",)

    _SIZE = 0

    def __init__(self, coords) -> None:
        self._coords = tuple(_scalar(v) for v in coords)
        if len(self._coords) != self._SIZE:
            raise DomainError(f"expected {self._SIZE} coordinates")
        denominator, *coords = _integer_form(self._coords)
        ones, *rest = _quadratic(_hyperboloid_form, *coords)
        if ones != [-denominator * denominator] or any(map(any, rest)):
            raise DomainError("point does not lie on the unit hyperboloid")
        if (self._coords[-1] - ONE).sign() < 0:
            raise DomainError("point does not lie on the future sheet")

    @property
    def coords(self):
        return self._coords

    def __getitem__(self, index: int):
        return self._coords[index]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(a == b for a, b in zip(self._coords, other._coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self._coords) + ")"

    __repr__ = __str__


class HyperboloidPoint(_HyperboloidPoint):
    """Point (x1,...,x5) with x1^2+...+x4^2-x5^2 = -1 and x5 >= 1."""

    __slots__ = ()

    _SIZE = 5


class HyperboloidPoint2(_HyperboloidPoint):
    """Point (x1, x2, x3) with x1^2+x2^2-x3^2 = -1 and x3 >= 1."""

    __slots__ = ()

    _SIZE = 3


APEX = HyperboloidPoint((0, 0, 0, 0, 1))
APEX2 = HyperboloidPoint2((0, 0, 1))


def _eta4_rows(a, b, c, d):
    """The 5x5 image, before the scale factor, of the quaternion matrix
    whose entries have coordinates a, b, c, d, written out entry by entry as
    bilinear forms; the coordinates may come from any commutative ring,
    floats included."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c0, c1, c2, c3 = c
    d0, d1, d2, d3 = d
    return (
        (b0 * c0 + b1 * c1 + b2 * c2 + b3 * c3 + a0 * d0 + a1 * d1 + a2 * d2 + a3 * d3,
         b1 * c0 - b0 * c1 - b3 * c2 + b2 * c3 - a1 * d0 + a0 * d1 + a3 * d2 - a2 * d3,
         b2 * c0 + b3 * c1 - b0 * c2 - b1 * c3 - a2 * d0 - a3 * d1 + a0 * d2 + a1 * d3,
         b3 * c0 - b2 * c1 + b1 * c2 - b0 * c3 - a3 * d0 + a2 * d1 - a1 * d2 + a0 * d3,
         2 * (b0 * d0 + b1 * d1 + b2 * d2 + b3 * d3)),
        (b1 * c0 - b0 * c1 + b3 * c2 - b2 * c3 + a1 * d0 - a0 * d1 + a3 * d2 - a2 * d3,
         -(b0 * c0) - b1 * c1 + b2 * c2 + b3 * c3 + a0 * d0 + a1 * d1 - a2 * d2 - a3 * d3,
         b3 * c0 - b2 * c1 - b1 * c2 + b0 * c3 - a3 * d0 + a2 * d1 + a1 * d2 - a0 * d3,
         -(b2 * c0) - b3 * c1 - b0 * c2 - b1 * c3 + a2 * d0 + a3 * d1 + a0 * d2 + a1 * d3,
         2 * (b1 * d0 - b0 * d1 + b3 * d2 - b2 * d3)),
        (b2 * c0 - b3 * c1 - b0 * c2 + b1 * c3 + a2 * d0 - a3 * d1 - a0 * d2 + a1 * d3,
         -(b3 * c0) - b2 * c1 - b1 * c2 - b0 * c3 + a3 * d0 + a2 * d1 + a1 * d2 + a0 * d3,
         -(b0 * c0) + b1 * c1 - b2 * c2 + b3 * c3 + a0 * d0 - a1 * d1 + a2 * d2 - a3 * d3,
         b1 * c0 + b0 * c1 - b3 * c2 - b2 * c3 - a1 * d0 - a0 * d1 + a3 * d2 + a2 * d3,
         2 * (b2 * d0 - b3 * d1 - b0 * d2 + b1 * d3)),
        (b3 * c0 + b2 * c1 - b1 * c2 - b0 * c3 + a3 * d0 + a2 * d1 - a1 * d2 - a0 * d3,
         b2 * c0 - b3 * c1 + b0 * c2 - b1 * c3 - a2 * d0 + a3 * d1 - a0 * d2 + a1 * d3,
         -(b1 * c0) - b0 * c1 - b3 * c2 - b2 * c3 + a1 * d0 + a0 * d1 + a3 * d2 + a2 * d3,
         -(b0 * c0) + b1 * c1 + b2 * c2 - b3 * c3 + a0 * d0 - a1 * d1 - a2 * d2 + a3 * d3,
         2 * (b3 * d0 + b2 * d1 - b1 * d2 - b0 * d3)),
        (2 * (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3),
         2 * (-(a1 * b0) + a0 * b1 + a3 * b2 - a2 * b3),
         2 * (-(a2 * b0) - a3 * b1 + a0 * b2 + a1 * b3),
         2 * (-(a3 * b0) + a2 * b1 - a1 * b2 + a0 * b3),
         a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3),
    )


def _eta4_form(x):
    """_eta4_rows on the 16 coordinates of a, b, c, d in order, as one flat
    list of the 25 entries in row order."""
    return [v for row in _eta4_rows(x[0:4], x[4:8], x[8:12], x[12:16]) for v in row]


def eta4(A: SpinMatrix4) -> LorentzMatrix5:
    """Image of A under the double cover onto the 4-dimensional hyperbolic
    isometries. The bilinear forms and the scale factor run on integer
    coordinates, and the exact entries are built once at the end:
    QuadExtNumbers when a coordinate of A is one, GoldenNumbers otherwise."""
    if not A.is_member():
        raise InvalidElementError("matrix does not satisfy A* J A = J")
    scalars = [*A.a.coords, *A.b.coords, *A.c.coords, *A.d.coords]
    denominator, *coords = _integer_form(scalars)
    parts = _quadratic(_eta4_form, *coords)
    denominator *= denominator
    if A.scale_sq != ONE:
        scale, (s0,), (s1,), _, _ = _integer_form([A.scale_sq])
        parts = [*_golden_times((s0, s1), *parts[:2]),
                 *_golden_times((s0, s1), *parts[2:])]
        denominator *= scale
    kappa = any(isinstance(v, QuadExtNumber) for v in scalars)
    return LorentzMatrix5(_exact(denominator, parts, [kappa] * 25, 5))


def _complex_slice(rows):
    """Rows and columns x1, x2, x5 of a 5x5 image of a matrix with entries
    in the complex slice; its x3 and x4 rows and columns are the identity."""
    return tuple(tuple(rows[i][j] for j in (0, 1, 4)) for i in (0, 1, 4))


def verify_lift(A: SpinMatrix4, M: LorentzMatrix5) -> bool:
    if not (isinstance(A, SpinMatrix4) and isinstance(M, LorentzMatrix5)):
        raise TypeError("verify_lift takes a SpinMatrix4 and a LorentzMatrix5")
    return eta4(A) == M


def act_ball2(A: SpinMatrix2, point: BallPoint2 | GoldenComplex) -> BallPoint2:
    """The Moebius action (a z + b) / (c z + d) of A on the disc."""
    z = BallPoint2(point).z
    denominator = A.c * z + A.d
    if denominator.is_zero():
        raise DomainError("ball action is undefined at this point")
    return BallPoint2((A.a * z + A.b) * denominator.inverse())


def zeta2(point: BallPoint2 | GoldenComplex) -> HyperboloidPoint2:
    """The disc point z on the hyperboloid: (2 Re z, 2 Im z, 1 + |z|^2) / (1 - |z|^2)."""
    z = BallPoint2(point).z
    n = z.norm()
    inv = (ONE - n).inverse()
    return HyperboloidPoint2((2 * z.re * inv, 2 * z.im * inv, (ONE + n) * inv))
