"""Exact representation theory: the nine irreducibles of the binary
icosahedral group built from symmetric powers, Galois twists and tensor
products of the defining 2-dimensional representation, and the 54-row
character table of the full symmetry group via induction from the index-2
subgroup and extension of twist-invariant characters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import mul

from .exactfield import GoldenComplex, GoldenNumber, ZERO
from .quatmat import Quaternion
from . import ghat, icosa

Matrix = tuple[tuple[GoldenComplex, ...], ...]


class FieldObstructionError(ValueError):
    """A character of 2I is not real, or Galois conjugation does not permute
    the rows of the character table."""


_GC_ZERO = GoldenComplex(0, 0)
_GC_ONE = GoldenComplex(1, 0)


def _mat_trace(a: Matrix) -> GoldenComplex:
    return sum((a[i][i] for i in range(len(a))), start=_GC_ZERO)


def _mat_galois(a: Matrix) -> Matrix:
    return tuple(tuple(v.galois() for v in row) for row in a)


def _mat_kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    return tuple(tuple(a[i // nb][j // nb] * b[i % nb][j % nb]
                       for j in range(na * nb)) for i in range(na * nb))


def _mat_sym_power(m: Matrix, k: int) -> Matrix:
    (a, b), (c, d) = m
    powers_a, powers_b, powers_c, powers_d = (
        list(accumulate(repeat(x, k), mul, initial=_GC_ONE)) for x in (a, b, c, d))
    rows = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            total = _GC_ZERO
            for r in range(min(i, k - j) + 1):
                s = i - r
                if s > j:
                    continue
                coefficient = comb(k - j, r) * comb(j, s)
                term = (powers_a[k - j - r] * powers_c[r]
                        * powers_b[j - s] * powers_d[s])
                total = total + term * GoldenNumber(coefficient)
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def psi1(q: Quaternion) -> Matrix:
    """Defining 2-dimensional image of a quaternion w + xi + yj + zk as
    [[w + xi, y + zi], [-(y - zi), w - xi]]."""
    w, x, y, z = q.coords
    a = GoldenComplex(w, x)
    b = GoldenComplex(y, z)
    return ((a, b), (-b.conjugate(), a.conjugate()))


REP_STAR = {"1": "1", "2": "2'", "2'": "2", "3": "3'", "3'": "3",
            "4": "4", "4'": "4'", "5": "5", "6": "6"}


def rep_image(label: str, q: Quaternion) -> Matrix:
    """Exact matrix image of a unit icosian under the named irreducible."""
    if label == "1":
        return ((_GC_ONE,),)
    base = psi1(q)
    if label == "2":
        return base
    if label == "2'":
        return _mat_galois(base)
    if label == "3":
        return _mat_sym_power(base, 2)
    if label == "3'":
        return _mat_galois(_mat_sym_power(base, 2))
    if label == "4":
        return _mat_kron(base, _mat_galois(base))
    if label == "4'":
        return _mat_sym_power(base, 3)
    if label == "5":
        return _mat_sym_power(base, 4)
    if label == "6":
        return _mat_sym_power(base, 5)
    raise KeyError(f"unknown irreducible representation: {label}")


@dataclass(frozen=True)
class MatrixRep:
    """A named irreducible of 2I; its image of q is rep_image(label, q)."""

    label: str

    def image(self, q: Quaternion) -> Matrix:
        return rep_image(self.label, q)


def rep_of_2I(label: str) -> MatrixRep:
    if label not in icosa.REP_LABELS:
        raise KeyError(f"unknown irreducible representation: {label}")
    return MatrixRep(label)


@dataclass(frozen=True)
class CharLabel:
    """Structured label: a 2I irreducible, an induced pair, or an extension."""

    kind: str  # "irreducible" | "induced" | "extended"
    pair: tuple[str, ...]
    sign: int | None = None

    def render(self) -> str:
        if self.kind == "irreducible":
            return self.pair[0]
        l1, l2 = self.pair
        if self.kind == "induced":
            return f"({l1}⊗{l2})⊕({REP_STAR[l2]}⊗{REP_STAR[l1]})"
        if self.sign == 1:
            return f"{l1}⊗{l2}"
        return f"-({l1}⊗{l2})"

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Character:
    """Exact class function on a fixed ordered list of conjugacy classes."""

    label: CharLabel
    group_tag: str
    class_names: tuple[str, ...]
    values: tuple[GoldenNumber, ...]

    @property
    def dimension(self) -> GoldenNumber:
        return self.value_at("1" if self.group_tag == "2I" else "1×1")

    def value_at(self, class_name: str) -> GoldenNumber:
        return self.values[self.class_names.index(class_name)]

    @property
    def spinorial(self) -> bool:
        return self.value_at("2" if self.group_tag == "2I" else "2×2") == -self.dimension


def character_of(rep: MatrixRep) -> Character:
    """Character of rep from the traces of its exact matrix images."""
    values = []
    for label in icosa.CLASS_LABELS:
        trace = _mat_trace(rep.image(icosa.class_representative(label)))
        if not trace.im.is_zero():
            raise FieldObstructionError(
                f"character of {rep.label} is not real at class {label}")
        values.append(trace.re)
    return Character(CharLabel("irreducible", (rep.label,)), "2I",
                     icosa.CLASS_LABELS, tuple(values))


def _ghat_class_names() -> tuple[str, ...]:
    return tuple(cls.name for cls in ghat.conjugacy_classes())


@lru_cache(maxsize=None)
def _class_slots() -> tuple[tuple[int, ...], ...]:
    """The 2I class columns of each class's slots."""
    column = {l: i for i, l in enumerate(icosa.CLASS_LABELS)}
    return tuple(tuple(column[l] for l in cls.slots) for cls in ghat.conjugacy_classes())


def _induced_row(l1: str, l2: str) -> tuple[tuple[int, int], ...]:
    chi1, chi2 = icosa.CHAR_TABLE[l1], icosa.CHAR_TABLE[l2]
    twist1, twist2 = icosa.CHAR_TABLE[REP_STAR[l2]], icosa.CHAR_TABLE[REP_STAR[l1]]
    row = []
    for slots in _class_slots():
        if len(slots) == 1:
            row.append((0, 0))
            continue
        x, y = slots
        row.append(icosa.golden_pairing((1, 1), (chi1[x], twist1[x]),
                                        (chi2[y], twist2[y])))
    return tuple(row)


def _extended_row(l1: str, l2: str, sign: int) -> tuple[tuple[int, int], ...]:
    """The "+" extension of the twist-invariant l1 (x) l2 takes chi_l1 at the
    first slot p alpha^-1(q) of g^2 at a coset element g = (p, q, 1), by
    tr((A (x) B) o swap) = tr(AB); the "-" extension is its negation."""
    chi1, chi2 = icosa.CHAR_TABLE[l1], icosa.CHAR_TABLE[l2]
    return tuple(icosa.golden_mul(chi1[slots[0]], chi2[slots[1]]) if len(slots) == 2
                 else icosa.golden_mul((sign, 0), chi1[slots[0]])
                 for slots in _class_slots())


@lru_cache(maxsize=None)
def _golden(pair: tuple[int, int]) -> GoldenNumber:
    return GoldenNumber(*pair)


@lru_cache(maxsize=None)
def _integer_table() -> tuple[tuple[CharLabel, tuple[tuple[int, int], ...]], ...]:
    """Label and values a + b*tau, as integer pairs, of all 54 irreducible
    characters of the full group, in chartable order."""
    labels = icosa.REP_LABELS
    star = [labels.index(REP_STAR[l]) for l in labels]
    rows = []
    for i, l1 in enumerate(labels):
        for j, l2 in enumerate(labels):
            twist = (star[j], star[i])
            if twist == (i, j):
                rows.extend((CharLabel("extended", (l1, l2), sign),
                             _extended_row(l1, l2, sign)) for sign in (1, -1))
            elif (i, j) < twist:
                rows.append((CharLabel("induced", (l1, l2)), _induced_row(l1, l2)))
    identity = _ghat_class_names().index("1×1")
    rows.sort(key=lambda row: (row[1][identity][0], str(row[0])))
    return tuple(rows)


@lru_cache(maxsize=None)
def chartable_ghat() -> tuple[Character, ...]:
    """All 54 irreducible characters of the full group."""
    names = _ghat_class_names()
    return tuple(Character(label, "Ghat", names, tuple(map(_golden, row)))
                 for label, row in _integer_table())


def inner_product(values1: tuple[GoldenNumber, ...],
                  values2: tuple[GoldenNumber, ...]) -> GoldenNumber:
    """Exact inner product of two real class functions over the full group.
    Every character of the full group is real, so no value is conjugated,
    and a complex value raises TypeError. Each function needs one value per
    class, or ValueError is raised."""
    classes = ghat.conjugacy_classes()
    if len(values1) != len(classes) or len(values2) != len(classes):
        raise ValueError(f"a class function needs {len(classes)} values, got "
                         f"{len(values1)} and {len(values2)}")
    total = ZERO
    for cls, v1, v2 in zip(classes, values1, values2):
        total = total + GoldenNumber.coerce(v1) * GoldenNumber.coerce(v2) * cls.size
    return total / ghat.group_order()


def decompose(values: tuple[GoldenNumber, ...]) -> tuple[GoldenNumber, ...]:
    """Multiplicity of each irreducible character, in chartable order."""
    return tuple(inner_product(values, char.values) for char in chartable_ghat())


def orthogonality_checks() -> dict[str, bool]:
    """Exhaustive exact row and column orthogonality of the character table:
    the size-weighted pairing of rows i and j is |G| if i = j, else 0, and
    the pairing of columns k and l is |G|/|k| if k = l, else 0."""
    rows = [row for _, row in _integer_table()]
    columns = list(zip(*rows))
    sizes = [cls.size for cls in ghat.conjugacy_classes()]
    order, count = sum(sizes), len(rows)
    pairing = icosa.golden_pairing
    return {
        "rows": all(pairing(sizes, rows[i], rows[j]) == (order if i == j else 0, 0)
                    for i in range(count) for j in range(i, count)),
        "columns": all(pairing(repeat(1), columns[k], columns[l])
                       == (order // sizes[k] if k == l else 0, 0)
                       for k in range(count) for l in range(k, count)),
    }


def galois_permutation() -> tuple[int, ...]:
    """Entrywise Galois conjugation permutes the rows of the character table;
    returns the induced index permutation (an involution)."""
    table = _integer_table()
    by_values = {row: i for i, (_, row) in enumerate(table)}
    permutation = []
    for label, row in table:
        image = tuple((a + b, -b) for a, b in row)
        if image not in by_values:
            raise FieldObstructionError(
                f"Galois image of {label.render()} is not a table row")
        permutation.append(by_values[image])
    for i, j in enumerate(permutation):
        if permutation[j] != i:
            raise FieldObstructionError("Galois permutation is not an involution")
    return tuple(permutation)
