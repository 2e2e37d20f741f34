"""The benchmark's own exact arithmetic, kept apart from the program so that
its checks do not reuse the code they check.

Q(tau) elements are pairs (a, b) of Fractions meaning a + b*tau, with
tau^2 = tau + 1; Z[tau] elements are pairs of ints; complex numbers over
Q(tau) are pairs (re, im) of Q(tau) pairs; quaternions are 4-tuples of Q(tau)
pairs (w, x, y, z)."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

TAU_FLOAT = (1 + 5 ** 0.5) / 2

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
TAU = (Fraction(0), Fraction(1))
TAU_INV = (Fraction(-1), Fraction(1))  # 1/tau = tau - 1
HALF = (Fraction(1, 2), Fraction(0))


def g(a, b=0):
    return (Fraction(a), Fraction(b))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


def inv(x):
    # (a + b tau)(a + b - b tau) = a^2 + ab - b^2
    a, b = x
    norm = a * a + a * b - b * b
    if norm == 0:
        raise ZeroDivisionError("zero in Q(tau)")
    return ((a + b) / norm, -b / norm)


def div(x, y):
    return mul(x, inv(y))


def power(x, k):
    result = ONE
    base = x if k >= 0 else inv(x)
    for _ in range(abs(k)):
        result = mul(result, base)
    return result


def to_float(x):
    return float(x[0]) + float(x[1]) * TAU_FLOAT


def to_json(x):
    return {"a": [x[0].numerator, x[0].denominator],
            "b": [x[1].numerator, x[1].denominator]}


def from_json(obj):
    """Q(tau) pair from the program's scalar JSON {"a": [n, d], "b": [n, d]}."""
    return (Fraction(*obj["a"]), Fraction(*obj["b"]))


# Z[tau] in integer pairs.

def zmul(x, y):
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


def zadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


# Q(tau, i) in (re, im) pairs of Q(tau) pairs.

def cconj(x):
    return (x[0], neg(x[1]))


# Quaternions over Q(tau).

def qmul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (sub(sub(sub(mul(w1, w2), mul(x1, x2)), mul(y1, y2)), mul(z1, z2)),
            sub(add(add(mul(w1, x2), mul(x1, w2)), mul(y1, z2)), mul(z1, y2)),
            add(add(sub(mul(w1, y2), mul(x1, z2)), mul(y1, w2)), mul(z1, x2)),
            add(sub(add(mul(w1, z2), mul(x1, y2)), mul(y1, x2)), mul(z1, w2)))


def qconj(p):
    return (p[0], neg(p[1]), neg(p[2]), neg(p[3]))


def qnorm(p):
    total = ZERO
    for a in p:
        total = add(total, mul(a, a))
    return total


Q_ONE = (ONE, ZERO, ZERO, ZERO)


def binary_icosahedral():
    """The 120 unit icosians: the 24 Hurwitz units and the even permutations
    of (+-tau, +-1, +-1/tau, 0) / 2."""
    elements = set()
    for i in range(4):
        for sign in (1, -1):
            unit = [ZERO] * 4
            unit[i] = g(sign)
            elements.add(tuple(unit))
    for signs in product((1, -1), repeat=4):
        elements.add(tuple(g(Fraction(s, 2)) for s in signs))
    base = (mul(TAU, HALF), HALF, mul(TAU_INV, HALF), ZERO)
    for perm in permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if perm[i] > perm[j])
        if inversions % 2:
            continue
        for signs in product((1, -1), repeat=3):
            coords = [(s * c[0], s * c[1]) for s, c in zip(signs, base[:3])]
            coords.append(ZERO)
            elements.add(tuple(coords[perm[i]] for i in range(4)))
    if len(elements) != 120 or any(qnorm(q) != ONE for q in elements):
        raise AssertionError("2I enumeration is wrong")
    return sorted(elements)


# The order-10 generators of 2I that the Davis rotation lifts put on the
# diagonal: (tau, 1, +-1/tau, 0) / 2.
G1 = (mul(TAU, HALF), HALF, mul(TAU_INV, HALF), ZERO)
G2 = (mul(TAU, HALF), HALF, neg(mul(TAU_INV, HALF)), ZERO)
