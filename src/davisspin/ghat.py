"""The order-28800 group built from two commuting copies of the binary
icosahedral group extended by a swap-twist involution, together with its 54
conjugacy classes, the minus-pairing, and power maps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


class _Engine:
    """Integer-indexed multiplication machinery for the full group."""

    def __init__(self) -> None:
        elements = icosa.enumerate_2I()
        index = {q: i for i, q in enumerate(elements)}
        n = len(elements)
        self.elements = elements
        self.index = index
        self.identity = index[QUAT_ONE]
        self.mul = [[index[x * y] for y in elements] for x in elements]
        self.inv = [index[x.conjugate()] for x in elements]
        self.neg = [index[-x] for x in elements]
        self.alpha = [index[icosa.alpha(x)] for x in elements]
        self.alpha_inv = [index[icosa.alpha_inverse(x)] for x in elements]
        self.label = [icosa.class_of(x) for x in elements]
        self.generator_triples = (
            (index[icosa.G1], self.identity, 0),
            (index[icosa.G2], self.identity, 0),
            (self.identity, index[icosa.G1], 0),
            (self.identity, index[icosa.G2], 0),
            (self.identity, self.identity, 1),
        )

    def mul_triple(self, a: tuple[int, int, int], b: tuple[int, int, int]):
        p1, q1, e1 = a
        p2, q2, e2 = b
        if e1 == 0:
            return (self.mul[p1][p2], self.mul[q1][q2], e2)
        return (self.mul[p1][self.alpha_inv[q2]],
                self.mul[q1][self.alpha[p2]], 1 ^ e2)

    def inv_triple(self, a: tuple[int, int, int]):
        p, q, e = a
        if e == 0:
            return (self.inv[p], self.inv[q], 0)
        return (self.inv[self.alpha_inv[q]], self.inv[self.alpha[p]], 1)

    def encode(self, triple: tuple[int, int, int]) -> int:
        p, q, e = triple
        return (p * 120 + q) * 2 + e

    def decode(self, code: int) -> tuple[int, int, int]:
        e = code & 1
        pq = code >> 1
        return (pq // 120, pq % 120, e)

    def to_element(self, code: int) -> GhatElement:
        p, q, e = self.decode(code)
        return GhatElement(self.elements[p], self.elements[q], e)

    def from_element(self, element: GhatElement) -> int:
        p = self.index.get(element.p)
        q = self.index.get(element.q)
        if p is None or q is None:
            raise icosa.MembershipError(
                "element components are not unit icosians")
        return self.encode((p, q, element.eps))


@lru_cache(maxsize=None)
def _engine() -> _Engine:
    return _Engine()


@dataclass(frozen=True)
class GhatClass:
    """Conjugacy class: canonical name, a representative, all member codes."""

    name: str
    representative: GhatElement
    order: int
    size: int
    is_coset: bool
    member_codes: frozenset[int]

    @property
    def members(self) -> tuple[GhatElement, ...]:
        eng = _engine()
        return tuple(eng.to_element(code) for code in sorted(self.member_codes))

    def __str__(self) -> str:
        return f"{self.name} (order {self.order}, size {self.size})"


def _class_name_of_orbit(eng: _Engine, codes: frozenset[int]) -> str:
    sample = eng.decode(next(iter(codes)))
    if sample[2] == 0:
        return _pair_name(eng.label[sample[0]], eng.label[sample[1]])
    for code in codes:
        p, q, e = eng.decode(code)
        if p == eng.identity:
            return _coset_name(eng.label[eng.neg[q]])
    raise RuntimeError("coset class contains no element with trivial first slot")


@lru_cache(maxsize=None)
def conjugacy_classes() -> tuple[GhatClass, ...]:
    """All 54 conjugacy classes in canonical order
    (subgroup first, then by element order, class size, name)."""
    eng = _engine()
    generators = [(t, eng.inv_triple(t)) for t in eng.generator_triples]
    seen = bytearray(120 * 120 * 2)
    classes = []
    for p in range(120):
        for q in range(120):
            for e in (0, 1):
                seed = (p * 120 + q) * 2 + e
                if seen[seed]:
                    continue
                orbit = {seed}
                frontier = [(p, q, e)]
                seen[seed] = 1
                while frontier:
                    current = frontier.pop()
                    for gen, gen_inv in generators:
                        conjugate = eng.mul_triple(gen, eng.mul_triple(current, gen_inv))
                        code = eng.encode(conjugate)
                        if not seen[code]:
                            seen[code] = 1
                            orbit.add(code)
                            frontier.append(conjugate)
                codes = frozenset(orbit)
                name = _class_name_of_orbit(eng, codes)
                representative = eng.to_element(min(codes))
                classes.append(GhatClass(
                    name=name,
                    representative=representative,
                    order=representative.order(),
                    size=len(codes),
                    is_coset=name.startswith("["),
                    member_codes=codes))
    classes.sort(key=lambda c: (c.is_coset, c.order, c.size, c.name))
    return tuple(classes)


@lru_cache(maxsize=None)
def _code_to_class() -> dict[int, GhatClass]:
    lookup = {}
    for cls in conjugacy_classes():
        for code in cls.member_codes:
            lookup[code] = cls
    return lookup


def class_of_element(element: GhatElement) -> GhatClass:
    return _code_to_class()[_engine().from_element(element)]


def class_name(element: GhatElement) -> str:
    return class_of_element(element).name


@lru_cache(maxsize=None)
def class_by_name(name: str) -> GhatClass:
    canonical = normalize_class_name(name)
    for cls in conjugacy_classes():
        if cls.name == canonical:
            return cls
    raise KeyError(f"no such conjugacy class: {name!r}")


def minus_class(cls: GhatClass) -> GhatClass:
    """Class of (-1, -1, 0) times the class."""
    return class_of_element(MINUS_ONE * cls.representative)


def power_map(cls: GhatClass, exponent: int) -> GhatClass:
    return class_of_element(cls.representative ** exponent)


def coset_witness(cls: GhatClass) -> GhatElement:
    """Member of a coset class of the form (1, w, 1)."""
    if not cls.is_coset:
        raise ValueError(f"{cls.name} is a subgroup class")
    eng = _engine()
    for code in sorted(cls.member_codes):
        if code // 2 // 120 == eng.identity:
            return eng.to_element(code)
    raise RuntimeError("coset class has no member with trivial first factor")


def group_order() -> int:
    return sum(cls.size for cls in conjugacy_classes())


def center() -> tuple[GhatElement, ...]:
    eng = _engine()
    central = []
    for cls in conjugacy_classes():
        if cls.size != 1:
            continue
        triple = eng.decode(next(iter(cls.member_codes)))
        if all(eng.mul_triple(triple, g) == eng.mul_triple(g, triple)
               for g in eng.generator_triples):
            central.append(eng.to_element(eng.encode(triple)))
    return tuple(central)
