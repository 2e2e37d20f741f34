"""The order-28800 group built from two commuting copies of the binary
icosahedral group extended by a swap-twist involution, together with its 54
conjugacy classes, the minus-pairing, and power maps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .exactfield import power
from .quatmat import Quaternion, QUAT_ONE
from . import icosa


@dataclass(frozen=True)
class GhatElement:
    """Element (p, q, eps): eps = 0 acts as (p, q), eps = 1 composes with the
    swap-twist involution."""

    p: Quaternion
    q: Quaternion
    eps: int

    def __post_init__(self) -> None:
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")

    def __mul__(self, other: GhatElement) -> GhatElement:
        if not isinstance(other, GhatElement):
            return NotImplemented
        if self.eps == 0:
            return GhatElement(self.p * other.p, self.q * other.q, other.eps)
        return GhatElement(self.p * icosa.alpha_inverse(other.q),
                           self.q * icosa.alpha(other.p),
                           1 ^ other.eps)

    def inverse(self) -> GhatElement:
        if self.eps == 0:
            return GhatElement(self.p.conjugate(), self.q.conjugate(), 0)
        return GhatElement(icosa.alpha_inverse(self.q).conjugate(),
                           icosa.alpha(self.p).conjugate(), 1)

    def __pow__(self, exponent: int) -> GhatElement:
        return power(self, exponent, IDENTITY)

    def order(self) -> int:
        element = self
        for n in range(1, 121):
            if element == IDENTITY:
                return n
            element = element * self
        raise RuntimeError("element order exceeds the group bound")

    def __str__(self) -> str:
        return f"({self.p}, {self.q}, {self.eps})"


IDENTITY = GhatElement(QUAT_ONE, QUAT_ONE, 0)
S_INVOLUTION = GhatElement(QUAT_ONE, QUAT_ONE, 1)
SIGMA_STAR = GhatElement(QUAT_ONE, -QUAT_ONE, 1)
MINUS_ONE = GhatElement(-QUAT_ONE, -QUAT_ONE, 0)


_STAR_SWAP = {"5A": "5B", "5B": "5A", "10A": "10B", "10B": "10A"}


def star_label(label: str) -> str:
    return _STAR_SWAP.get(label, label)


def _label_key(label: str) -> tuple[int, str]:
    if label[-1] in "AB":
        return (int(label[:-1]), label[-1])
    return (int(label), "")


@lru_cache(maxsize=None)
def _pair_name(x: str, y: str) -> str:
    partner = (star_label(y), star_label(x))
    if (x, y) == partner:
        return f"{x}×{y}"
    first, second = sorted(((x, y), partner),
                           key=lambda pair: (_label_key(pair[0]), _label_key(pair[1])))
    return f"{first[0]}×{first[1]}+{second[0]}×{second[1]}"


def _coset_name(label: str) -> str:
    return f"[1×{label}]"


def normalize_class_name(name: str) -> str:
    """Canonical form of a class name, independent of the order in which a
    merged pair was written."""
    text = name.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1]
        left, _, label = inner.partition("×")
        if left != "1" or label not in icosa.CLASS_LABELS:
            raise KeyError(f"not a class name: {name!r}")
        return _coset_name(label)
    parts = text.split("+")
    pairs = []
    for part in parts:
        x, sep, y = part.partition("×")
        if not sep or x not in icosa.CLASS_LABELS or y not in icosa.CLASS_LABELS:
            raise KeyError(f"not a class name: {name!r}")
        pairs.append((x, y))
    if len(pairs) == 1:
        return _pair_name(*pairs[0])
    if len(pairs) == 2 and pairs[1] == (star_label(pairs[0][1]), star_label(pairs[0][0])):
        return _pair_name(*pairs[0])
    raise KeyError(f"not a class name: {name!r}")


# (p, q, 1) squares to (x, q*alpha(p), 0) with x = p*alpha^-1(q), and it is
# conjugate to (1, w, 1) with alpha^-1(w) conjugate to x; [1×l] holds (1, w, 1)
# when -w lies in class l, so the coset class is [1×m(label(x))] with
# m(l) = star(label(-x)).
_COSET_LABEL = {"1": "2", "2": "1", "3": "6", "6": "3", "4": "4",
                "5A": "10A", "5B": "10B", "10A": "5A", "10B": "5B"}


class _Engine:
    """The group on integer triples (p, q, eps), p and q indices into
    icosa.enumerate_2I(), with closed-form class names and orders."""

    def __init__(self) -> None:
        tables = icosa.tables()
        self.elements = icosa.enumerate_2I()
        self.index = tables.index
        self.mul = tables.mul
        self.neg = tables.neg
        self.alpha = tables.alpha
        self.alpha_inv = tables.alpha_inv
        self.label = tables.label
        self.identity = (self.index[QUAT_ONE], self.index[QUAT_ONE], 0)
        one = self.identity[0]
        g1, g2 = self.index[icosa.G1], self.index[icosa.G2]
        self.generator_triples = ((g1, one, 0), (g2, one, 0), (one, g1, 0),
                                  (one, g2, 0), (one, one, 1))

    def mul_triple(self, a: tuple[int, int, int], b: tuple[int, int, int]):
        p1, q1, e1 = a
        p2, q2, e2 = b
        if e1 == 0:
            return (self.mul[p1][p2], self.mul[q1][q2], e2)
        return (self.mul[p1][self.alpha_inv[q2]],
                self.mul[q1][self.alpha[p2]], 1 ^ e2)

    def class_name(self, triple: tuple[int, int, int]) -> str:
        p, q, e = triple
        if e == 0:
            return _pair_name(self.label[p], self.label[q])
        return _coset_name(_COSET_LABEL[self.label[self.mul[p][self.alpha_inv[q]]]])

    def order(self, triple: tuple[int, int, int]) -> int:
        p, q, e = triple
        if e == 0:
            return lcm(icosa.CLASS_ORDERS[self.label[p]], icosa.CLASS_ORDERS[self.label[q]])
        return 2 * icosa.CLASS_ORDERS[self.label[self.mul[p][self.alpha_inv[q]]]]

    def to_element(self, triple: tuple[int, int, int]) -> GhatElement:
        p, q, e = triple
        return GhatElement(self.elements[p], self.elements[q], e)

    def triple(self, element: GhatElement) -> tuple[int, int, int]:
        p = self.index.get(element.p)
        q = self.index.get(element.q)
        if p is None or q is None:
            raise icosa.MembershipError(
                "element components are not unit icosians")
        return (p, q, element.eps)


@lru_cache(maxsize=None)
def _engine() -> _Engine:
    return _Engine()


@dataclass(frozen=True)
class GhatClass:
    """Conjugacy class: canonical name, its member of smallest index triple,
    element order and size."""

    name: str
    representative: GhatElement
    order: int
    size: int
    is_coset: bool

    def __str__(self) -> str:
        return f"{self.name} (order {self.order}, size {self.size})"


@lru_cache(maxsize=None)
def conjugacy_classes() -> tuple[GhatClass, ...]:
    """All 54 conjugacy classes in canonical order
    (subgroup first, then by element order, class size, name)."""
    eng = _engine()
    first: dict[str, tuple[int, int, int]] = {}
    sizes: dict[str, int] = {}
    for p in range(120):
        for q in range(120):
            for e in (0, 1):
                name = eng.class_name((p, q, e))
                first.setdefault(name, (p, q, e))
                sizes[name] = sizes.get(name, 0) + 1
    classes = [GhatClass(name=name, representative=eng.to_element(triple),
                         order=eng.order(triple), size=sizes[name],
                         is_coset=name.startswith("["))
               for name, triple in first.items()]
    classes.sort(key=lambda c: (c.is_coset, c.order, c.size, c.name))
    return tuple(classes)


@lru_cache(maxsize=None)
def _classes_by_name() -> dict[str, GhatClass]:
    return {cls.name: cls for cls in conjugacy_classes()}


def _class_of_triple(triple: tuple[int, int, int]) -> GhatClass:
    return _classes_by_name()[_engine().class_name(triple)]


def class_of_element(element: GhatElement) -> GhatClass:
    return _class_of_triple(_engine().triple(element))


def class_name(element: GhatElement) -> str:
    return class_of_element(element).name


def class_by_name(name: str) -> GhatClass:
    cls = _classes_by_name().get(normalize_class_name(name))
    if cls is None:
        raise KeyError(f"no such conjugacy class: {name!r}")
    return cls


def minus_class(cls: GhatClass) -> GhatClass:
    """Class of (-1, -1, 0) times the class."""
    eng = _engine()
    p, q, e = eng.triple(cls.representative)
    return _class_of_triple((eng.neg[p], eng.neg[q], e))


def power_map(cls: GhatClass, exponent: int) -> GhatClass:
    eng = _engine()
    return _class_of_triple(power(eng.triple(cls.representative), exponent % cls.order,
                                  eng.identity, eng.mul_triple))


def group_order() -> int:
    return sum(cls.size for cls in conjugacy_classes())


def center() -> tuple[GhatElement, ...]:
    return tuple(cls.representative for cls in conjugacy_classes() if cls.size == 1)
