"""The binary icosahedral group 2I as unit icosian quaternions: enumeration,
conjugacy classes, exact character table, and the distinguished outer
automorphism, with an integer core that does all group work on the indices
of the 120 elements."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import itemgetter

from .exactfield import GoldenNumber, ONE, ZERO, TAU, power
from .quatmat import Quaternion, QUAT_ONE


class MembershipError(ValueError):
    """Quaternion is not an element of the binary icosahedral group."""


_HALF = Fraction(1, 2)

G1 = Quaternion(TAU * _HALF, _HALF, (TAU - 1) * _HALF, 0)
G2 = Quaternion(TAU * _HALF, _HALF, (1 - TAU) * _HALF, 0)

CLASS_LABELS = ("1", "2", "3", "4", "5A", "5B", "6", "10A", "10B")

CLASS_RE = {
    "1": ONE,
    "2": -ONE,
    "3": GoldenNumber(-_HALF),
    "4": ZERO,
    "5A": (TAU - 1) * _HALF,
    "5B": -TAU * _HALF,
    "6": GoldenNumber(_HALF),
    "10A": TAU * _HALF,
    "10B": (1 - TAU) * _HALF,
}

CLASS_SIZES = {"1": 1, "2": 1, "3": 20, "4": 30, "5A": 12, "5B": 12,
               "6": 20, "10A": 12, "10B": 12}

CLASS_ORDERS = {"1": 1, "2": 2, "3": 3, "4": 4, "5A": 5, "5B": 5,
                "6": 6, "10A": 10, "10B": 10}

REP_LABELS = ("1", "2", "2'", "3", "3'", "4", "4'", "5", "6")

REP_DIMS = {"1": 1, "2": 2, "2'": 2, "3": 3, "3'": 3, "4": 4, "4'": 4,
            "5": 5, "6": 6}


def element_key(q: Quaternion) -> tuple:
    return tuple((c.a.numerator, c.a.denominator, c.b.numerator, c.b.denominator)
                 for c in q.coords)


def _is_even_permutation(perm: tuple[int, ...]) -> bool:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return inversions % 2 == 0


@lru_cache(maxsize=None)
def _icosians() -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[Quaternion, ...]]:
    """The 120 unit icosians as four doubled coordinates (2a, 2b) each, and as
    Quaternions built once from them, in element_key order: (+-2, 0) on one
    axis, (+-1, 0) on all four, and the even permutations of (0, 0), (1, 0),
    (0, 1), (-1, 1), i.e. of (0, 1, tau, tau-1)/2, with free signs."""
    doubled = {tuple((sign, 0) if slot == axis else (0, 0) for slot in range(4))
               for axis in range(4) for sign in (2, -2)}
    doubled.update(product(((1, 0), (-1, 0)), repeat=4))
    values = ((0, 0), (1, 0), (0, 1), (-1, 1))
    for perm in filter(_is_even_permutation, permutations(range(4))):
        for signs in product((1, -1), repeat=4):
            doubled.add(tuple((s * values[v][0], s * values[v][1])
                              for s, v in zip(signs, perm)))
    halves = {c: GoldenNumber(Fraction(c[0], 2), Fraction(c[1], 2))
              for c in {c for x in doubled for c in x}}
    ordered = sorted(((x, Quaternion(*map(halves.get, x))) for x in doubled),
                     key=lambda pair: element_key(pair[1]))
    if len(ordered) != 120:
        raise RuntimeError(f"enumeration produced {len(ordered)} elements")
    return tuple(zip(*ordered))


def enumerate_2I() -> tuple[Quaternion, ...]:
    """All 120 unit icosians, in element_key order (see _icosians)."""
    return _icosians()[1]


def golden_pairing(weights, xs, ys) -> tuple[int, int]:
    """Sum of w * x * y over the weights w and the elements x = a + b*tau,
    y = c + d*tau of Z[tau], each given as the integer pair (a, b); tau^2 =
    tau + 1. Every exact relation on integer pairs goes through this sum."""
    total_a = total_b = 0
    for w, (a, b), (c, d) in zip(weights, xs, ys):
        bd = b * d
        total_a += w * (a * c + bd)
        total_b += w * (a * d + b * c + bd)
    return (total_a, total_b)


def golden_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + b*tau)(c + d*tau) on integer pairs."""
    return golden_pairing((1,), (x,), (y,))


# coordinate k of x*y is the pairing of x with y reordered, under the signs
# of row k of the Hamilton product
_HAMILTON = tuple((signs, itemgetter(*order)) for signs, order in (
    ((1, -1, -1, -1), (0, 1, 2, 3)), ((1, 1, 1, -1), (1, 0, 3, 2)),
    ((1, -1, 1, 1), (2, 3, 0, 1)), ((1, 1, -1, 1), (3, 2, 1, 0))))


def _icosian_product(x: tuple, y: tuple) -> tuple:
    """Hamilton product of two icosians, each given as four doubled
    coordinates (2a, 2b); every halving must be exact."""
    coords = []
    for signs, reorder in _HAMILTON:
        a, b = golden_pairing(signs, x, reorder(y))
        if a & 1 or b & 1:
            raise RuntimeError("icosian product left Z[tau]/2")
        coords.append((a >> 1, b >> 1))
    return tuple(coords)


@dataclass(frozen=True)
class IcosianTables:
    """2I on the indices of enumerate_2I(): the doubled integer coordinates
    of each element, the index of 1, the Cayley table, inverse, negation,
    class label, and the automorphism alpha and its inverse."""

    index: dict[Quaternion, int]
    coords: tuple[tuple[tuple[int, int], ...], ...]
    one: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    neg: tuple[int, ...]
    label: tuple[str, ...]
    alpha: tuple[int, ...]
    alpha_inv: tuple[int, ...]


def _compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation b -> s[t[b]]."""
    return tuple(s[x] for x in t)


@lru_cache(maxsize=None)
def tables() -> IcosianTables:
    """All group work on 2I, built from the doubled integer coordinates.
    Only the rows of the two generators are icosian products: row(g*a) is
    row(g) composed with row(a), because g*a*b = g*(a*b), and alpha(g*a) is
    alpha(g)*alpha(a), both filled in by one breadth-first walk from 1."""
    ints, elements = _icosians()
    index = {q: i for i, q in enumerate(elements)}
    position = {x: i for i, x in enumerate(ints)}
    inv = tuple(position[(x[0], *((-a, -b) for a, b in x[1:]))] for x in ints)
    neg = tuple(position[tuple((-a, -b) for a, b in x)] for x in ints)
    re_to_label = {(int(2 * re.a), int(2 * re.b)): label for label, re in CLASS_RE.items()}
    label = tuple(re_to_label[x[0]] for x in ints)

    one, identity = index[QUAT_ONE], tuple(range(120))
    steps = []
    for generator, exponent in ((G1, 3), (G2, 7)):
        g = ints[index[generator]]
        row = tuple(position[_icosian_product(g, y)] for y in ints)
        steps.append((row, power(row, exponent, identity, _compose)))
    rows = {one: identity}
    alpha = {one: one}
    frontier = [one]
    while frontier:
        next_frontier = []
        for current in frontier:
            for row, image_row in steps:
                successor = row[current]
                if successor not in rows:
                    rows[successor] = _compose(row, rows[current])
                    alpha[successor] = image_row[alpha[current]]
                    next_frontier.append(successor)
        frontier = next_frontier
    if len(rows) != 120 or any(len(set(r)) != 120 for r in rows.values()):
        raise RuntimeError("Cayley table rows are not 120 permutations of 2I")
    if len(set(alpha.values())) != 120:
        raise RuntimeError("automorphism table is not a bijection of 2I")
    alpha_inv = {image: source for source, image in alpha.items()}
    return IcosianTables(
        index=index, coords=ints, one=one, mul=tuple(rows[i] for i in range(120)),
        inv=inv, neg=neg, label=label, alpha=tuple(alpha[i] for i in range(120)),
        alpha_inv=tuple(alpha_inv[i] for i in range(120)))


def _index_of(q: Quaternion) -> int:
    i = tables().index.get(q)
    if i is None:
        raise MembershipError(f"not an element of the binary icosahedral group: {q}")
    return i


def class_of(q: Quaternion) -> str:
    return tables().label[_index_of(q)]


@lru_cache(maxsize=None)
def class_elements(label: str) -> tuple[Quaternion, ...]:
    if label not in CLASS_LABELS:
        raise MembershipError(f"unknown conjugacy class: {label}")
    labels = tables().label
    return tuple(q for i, q in enumerate(enumerate_2I()) if labels[i] == label)


def class_representative(label: str) -> Quaternion:
    overrides = {"10A": G1, "5A": G1 * G1}
    if label in overrides:
        return overrides[label]
    return class_elements(label)[0]


# chi(rep, class) = a + b*tau as the integer pair (a, b); one row per
# irreducible, columns in CLASS_LABELS order.
CHAR_TABLE: dict[str, tuple[tuple[int, int], ...]] = {
    "1":  ((1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0), (1, 0)),
    "2":  ((2, 0), (-2, 0), (-1, 0), (0, 0), (-1, 1), (0, -1), (1, 0), (0, 1), (1, -1)),
    "2'": ((2, 0), (-2, 0), (-1, 0), (0, 0), (0, -1), (-1, 1), (1, 0), (1, -1), (0, 1)),
    "3":  ((3, 0), (3, 0), (0, 0), (-1, 0), (1, -1), (0, 1), (0, 0), (0, 1), (1, -1)),
    "3'": ((3, 0), (3, 0), (0, 0), (-1, 0), (0, 1), (1, -1), (0, 0), (1, -1), (0, 1)),
    "4":  ((4, 0), (4, 0), (1, 0), (0, 0), (-1, 0), (-1, 0), (1, 0), (-1, 0), (-1, 0)),
    "4'": ((4, 0), (-4, 0), (1, 0), (0, 0), (-1, 0), (-1, 0), (-1, 0), (1, 0), (1, 0)),
    "5":  ((5, 0), (5, 0), (-1, 0), (1, 0), (0, 0), (0, 0), (-1, 0), (0, 0), (0, 0)),
    "6":  ((6, 0), (-6, 0), (0, 0), (0, 0), (1, 0), (1, 0), (0, 0), (-1, 0), (-1, 0)),
}


def char_2I(rep_label: str, class_label: str) -> GoldenNumber:
    """Exact character value of the named irreducible representation of 2I."""
    if rep_label not in CHAR_TABLE:
        raise KeyError(f"unknown irreducible representation: {rep_label}")
    if class_label not in CLASS_LABELS:
        raise MembershipError(f"unknown conjugacy class: {class_label}")
    return GoldenNumber(*CHAR_TABLE[rep_label][CLASS_LABELS.index(class_label)])


def alpha(q: Quaternion) -> Quaternion:
    """The outer automorphism of 2I determined by g1 -> g1^3, g2 -> g2^7."""
    return enumerate_2I()[tables().alpha[_index_of(q)]]
