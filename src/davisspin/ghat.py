"""The order-28800 group built from two commuting copies of the binary
icosahedral group extended by a swap-twist involution, together with its 54
conjugacy classes, the minus-pairing, and power maps. An element is the index
triple (p, q, eps) into icosa.enumerate_2I(): eps = 0 acts as (p, q), eps = 1
composes with the swap-twist involution."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm

from .exactfield import power
from . import icosa


Triple = tuple[int, int, int]


def mul_triple(a: Triple, b: Triple) -> Triple:
    """Product of two index triples: (p1, q1, 0)(p2, q2, e) = (p1 p2, q1 q2, e)
    and (p1, q1, 1)(p2, q2, e) = (p1 alpha^-1(q2), q1 alpha(p2), 1 - e)."""
    tables = icosa.tables()
    p1, q1, e1 = a
    p2, q2, e2 = b
    if e1 == 0:
        return (tables.mul[p1][p2], tables.mul[q1][q2], e2)
    return (tables.mul[p1][tables.alpha_inv[q2]],
            tables.mul[q1][tables.alpha[p2]], 1 ^ e2)


def inverse_triple(triple: Triple) -> Triple:
    tables = icosa.tables()
    p, q, e = triple
    if e == 0:
        return (tables.inv[p], tables.inv[q], 0)
    return (tables.inv[tables.alpha_inv[q]], tables.inv[tables.alpha[p]], 1)


def coset_slot(triple: Triple) -> str:
    """The 2I class of p alpha^-1(q), the first slot of the square of the
    coset element (p, q, 1); it fixes the element's class and order."""
    tables = icosa.tables()
    p, q, _ = triple
    return tables.label[tables.mul[p][tables.alpha_inv[q]]]


def triple_order(triple: Triple) -> int:
    p, q, e = triple
    if e == 0:
        label = icosa.tables().label
        return lcm(icosa.CLASS_ORDERS[label[p]], icosa.CLASS_ORDERS[label[q]])
    return 2 * icosa.CLASS_ORDERS[coset_slot(triple)]


def power_triple(triple: Triple, exponent: int) -> Triple:
    one = icosa.tables().one
    return power(triple, exponent % triple_order(triple), (one, one, 0), mul_triple)


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


@lru_cache(maxsize=None)
def _class_spellings() -> dict[str, str]:
    """Every accepted spelling of a class name with its canonical form: x×y
    and x×y+y*×x* for each pair of 2I labels, and the coset names."""
    spellings = {_coset_name(label): _coset_name(label) for label in icosa.CLASS_LABELS}
    for x, y in product(icosa.CLASS_LABELS, repeat=2):
        for spelling in (f"{x}×{y}", f"{x}×{y}+{star_label(y)}×{star_label(x)}"):
            spellings[spelling] = _pair_name(x, y)
    return spellings


def normalize_class_name(name: str) -> str:
    """Canonical form of a class name, independent of the order in which a
    merged pair was written."""
    canonical = _class_spellings().get(name.strip()) if isinstance(name, str) else None
    if canonical is None:
        raise KeyError(f"not a class name: {name!r}")
    return canonical


# (p, q, 1) squares to (x, q*alpha(p), 0) with x = p*alpha^-1(q), and it is
# conjugate to (1, w, 1) with alpha^-1(w) conjugate to x; [1×l] holds (1, w, 1)
# when -w lies in class l, so the coset class is [1×m(label(x))] with
# m(l) = star(label(-x)).
_COSET_LABEL = {"1": "2", "2": "1", "3": "6", "6": "3", "4": "4",
                "5A": "10A", "5B": "10B", "10A": "5A", "10B": "5B"}


def triple_class_name(triple: Triple) -> str:
    p, q, e = triple
    if e == 0:
        label = icosa.tables().label
        return _pair_name(label[p], label[q])
    return _coset_name(_COSET_LABEL[coset_slot(triple)])


@dataclass(frozen=True)
class GhatClass:
    """Conjugacy class: canonical name, its member of smallest index triple,
    element order and size."""

    name: str
    triple: Triple
    order: int
    size: int
    is_coset: bool

    @property
    def slots(self) -> tuple[str, ...]:
        """The 2I classes its smallest member reads: (label(p), label(q)) for
        (p, q, 0); the coset slot (label(p alpha^-1(q)),) for (p, q, 1)."""
        p, q, e = self.triple
        if e:
            return (coset_slot(self.triple),)
        label = icosa.tables().label
        return (label[p], label[q])

    def __str__(self) -> str:
        return f"{self.name} (order {self.order}, size {self.size})"


@lru_cache(maxsize=None)
def conjugacy_classes() -> tuple[GhatClass, ...]:
    """All 54 conjugacy classes in canonical order
    (subgroup first, then by element order, class size, name). The 2I
    classes x, y hold |x| |y| triples (p, q, 0); each p alpha^-1(q) runs once
    over 2I as q does, so every coset class meets the triples (0, q, 1)."""
    label = icosa.tables().label
    first_index = {l: label.index(l) for l in icosa.CLASS_LABELS}
    first: dict[str, Triple] = {}
    sizes: Counter[str] = Counter()
    for x in icosa.CLASS_LABELS:
        for y in icosa.CLASS_LABELS:
            name = _pair_name(x, y)
            triple = (first_index[x], first_index[y], 0)
            first[name] = min(first.get(name, triple), triple)
            sizes[name] += icosa.CLASS_SIZES[x] * icosa.CLASS_SIZES[y]
    for q in range(120):
        triple = (0, q, 1)
        name = triple_class_name(triple)
        first.setdefault(name, triple)
        sizes[name] += 120
    classes = [GhatClass(name=name, triple=triple, order=triple_order(triple),
                         size=sizes[name], is_coset=name.startswith("["))
               for name, triple in first.items()]
    classes.sort(key=lambda c: (c.is_coset, c.order, c.size, c.name))
    return tuple(classes)


@lru_cache(maxsize=None)
def _classes_by_name() -> dict[str, GhatClass]:
    return {cls.name: cls for cls in conjugacy_classes()}


def _class_of_triple(triple: Triple) -> GhatClass:
    return _classes_by_name()[triple_class_name(triple)]


def class_by_name(name: str) -> GhatClass:
    cls = _classes_by_name().get(normalize_class_name(name))
    if cls is None:
        raise KeyError(f"no such conjugacy class: {name!r}")
    return cls


def minus_class(cls: GhatClass) -> GhatClass:
    """Class of (-1, -1, 0) times the class."""
    neg = icosa.tables().neg
    p, q, e = cls.triple
    return _class_of_triple((neg[p], neg[q], e))


def power_map(cls: GhatClass, exponent: int) -> GhatClass:
    return _class_of_triple(power_triple(cls.triple, exponent))


def group_order() -> int:
    return sum(cls.size for cls in conjugacy_classes())

