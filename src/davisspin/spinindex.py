"""Spin numbers of isolated fixed points in dimensions 4 and 2, the recorded
fixed-point data of the Davis manifold's fully symmetric spin structure, the
resulting 54-class spin class function, and its decomposition into the two
signed 12-dimensional spinorial irreducibles."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .exactfield import GoldenComplex, GoldenNumber, QuadExtNumber
from .quatmat import (HyperboloidPoint, LorentzMatrix5, Quaternion, SpinMatrix2,
                      SpinMatrix4, _complex_slice, _eta4_rows)
from . import ghat, icosa, reptheory


class NonIsolatedError(ValueError):
    """The fixed point is not isolated (zero angular denominator)."""


class InconsistentInputError(ValueError):
    """The supplied point is not a fixed point of the supplied isometry."""


class NotApplicableError(ValueError):
    """The requested formula does not apply to this conjugacy class."""


class DataInconsistencyError(ValueError):
    """Bundled fixed-point data contradicts the computed group structure."""


@dataclass(frozen=True)
class SpinValue:
    """Exact spin defect of one fixed point: real in dimension 4, purely
    imaginary in dimension 2."""

    value: GoldenComplex

    def real(self) -> complex:
        return self.value.real()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class IsolatedFixedPoint4:
    """A hyperboloid point together with a spin matrix whose isometry fixes it."""

    x: HyperboloidPoint
    phat: SpinMatrix4


def nu_diag_4d(p: Quaternion, q: Quaternion) -> SpinValue:
    """Spin defect at the apex for the diagonal isometry pair (p, q):
    1 / (2(Re p - Re q))."""
    if not (p.is_unit() and q.is_unit()):
        raise InconsistentInputError("rotation entries must be unit quaternions")
    difference = p.re - q.re
    if difference.is_zero():
        raise NonIsolatedError("equal real parts: the fixed point is not isolated")
    value = 1 / (difference + difference)
    if isinstance(value, QuadExtNumber):
        try:
            value = value.golden_part()
        except ValueError as error:
            raise NotApplicableError(
                "spin value lands outside the golden field") from error
    return SpinValue(GoldenComplex.coerce(value))


def nu_isolated_4d(fp: IsolatedFixedPoint4) -> SpinValue:
    """Spin defect at an isolated fixed point: the diagonal formula at the
    apex, after the exact conjugation that carries the point to the apex."""
    matrix = fp.phat.normalized()
    if matrix is None:
        raise NotApplicableError(
            "exact spin formula needs matrix entries in the golden ring")
    return nu_diag_4d(*_apex_form(matrix, fp.x))


def nu_diag_2d(u: GoldenComplex) -> SpinValue:
    """Spin defect 1 / (2 Im(u) i) at the apex for the diagonal pair (u, u-bar)."""
    u = GoldenComplex.coerce(u)
    if u * u.conjugate() != GoldenComplex(1, 0):
        raise InconsistentInputError("rotation entry must be a unit complex number")
    if u.im.is_zero():
        raise NonIsolatedError("real rotation entry: the fixed point is not isolated")
    return SpinValue(GoldenComplex(GoldenNumber(0),
                                   -(u.im + u.im).inverse()))


def nu_isolated_2d(phat: SpinMatrix2, x3: GoldenNumber | int | Fraction) -> SpinValue:
    """Spin defect x3 / (2 Im(Phat11) i) at an isolated fixed point of height
    x3. A boost to height x3 conjugates diag(u, conj u), |u| = 1, to a matrix
    with Re(Phat11) = Re u and Im(Phat11) = x3 Im u, so the point is fixed
    only if x3 > 0 and x3^2 (1 - Re(Phat11)^2) = Im(Phat11)^2."""
    x3 = GoldenNumber.coerce(x3)
    real, imaginary = phat.a.re, phat.a.im
    if imaginary.is_zero():
        raise NonIsolatedError("real upper-left entry: fixed point not isolated")
    if x3.sign() <= 0 or x3 * x3 * (1 - real * real) != imaginary * imaginary:
        raise InconsistentInputError("the point is not fixed by the isometry")
    return SpinValue(GoldenComplex(GoldenNumber(0),
                                   -(x3 * (imaginary + imaginary).inverse())))


# A rotation angle whose eigenvalue lies this close to 1 counts as vanishing.
ISOLATION_TOL = 1e-6


def _eigen_denominator(rows):
    """Product of 2 - 2 cos(theta) = |1 - e^(i theta)|^2 over the rotation
    angles of the float Lorentz matrix rows, which fix the last axis; raises if
    one degenerates. The cosines of the rotation block R solve c1 + c2 = tr R / 2
    and c1^2 + c2^2 = (tr R^2 + 4) / 4, or c = tr R / 2 for a 2x2 block."""
    block = [row[:-1] for row in rows[:-1]]
    cos_sum = sum(block[i][i] for i in range(len(block))) / 2
    if len(block) == 2:
        cosines = (cos_sum,)
    else:
        cos_squares = sum(block[i][j] * block[j][i]
                          for i in range(4) for j in range(4)) / 4 + 1
        spread = max(0.0, 2 * cos_squares - cos_sum * cos_sum) ** 0.5
        cosines = ((cos_sum + spread) / 2, (cos_sum - spread) / 2)
    product = 1.0
    for cosine in cosines:
        gap = 2 - 2 * cosine
        if gap < ISOLATION_TOL ** 2:
            raise NonIsolatedError("a rotation angle vanishes: fixed point not isolated")
        product *= gap
    return product


def _apex_form(phat, x):
    """Diagonal of phat conjugated exactly to the apex: B^-1 phat B with
    B = [[1, w], [conj w, 1]], w = (x1, ..., x(n-1)) / (1 + xn) in phat's entry
    type, which carries the apex to x. On the hyperboloid 1 - |w|^2 = 2 / (1 + xn),
    so the inverse of B is B.inverse() times (1 + xn) / 2, with no square root.
    The implicit factor sqrt(scale_sq) of phat is not applied."""
    *space, time = x
    lift = time + 1
    entry = type(phat.a)
    w = entry(*(coordinate / lift for coordinate in space))
    boost = type(phat)(entry(1), w, w.conjugate(), entry(1), validate=False)
    conjugated = boost.inverse() * phat * boost
    if not (conjugated.b.is_zero() and conjugated.c.is_zero()):
        raise InconsistentInputError("the point is not fixed by the isometry")
    half_lift = lift * Fraction(1, 2)
    return conjugated.a * half_lift, conjugated.d * half_lift


def nu_numeric_oracle(phat: SpinMatrix4, x: HyperboloidPoint) -> float:
    """Floating-point spin defect: conjugate phat exactly to the matrix that
    fixes the apex, then, in floats, read the half-spin trace difference and
    divide by the angular defect product of its float Lorentz image."""
    top, bottom = _apex_form(phat, x)
    mu = phat.scale_sq.real() ** 0.5
    top, bottom = (tuple(mu * c.real() for c in q.coords) for q in (top, bottom))
    zero = (0.0,) * 4
    rows = _eta4_rows(top, zero, zero, bottom)
    return 2 * (top[0] - bottom[0]) / _eigen_denominator(rows)


def nu_numeric_oracle_2d(phat: SpinMatrix2, x) -> complex:
    """Two-dimensional analogue; returns a purely imaginary complex number.
    The rotation angle is that of the dimension-4 image restricted to the
    complex slice."""
    top, bottom = _apex_form(phat, x)
    numerator = (top.conjugate() - top).real()
    top, bottom = ((z.re.real(), z.im.real(), 0.0, 0.0) for z in (top, bottom))
    zero = (0.0,) * 4
    rows = _complex_slice(_eta4_rows(top, zero, zero, bottom))
    return numerator / _eigen_denominator(rows)


PROVENANCE_TAGS = ("computed-lemma82", "forced-zero-lemma71",
                   "forced-zero-lemma72", "recorded-paper-data")


@dataclass(frozen=True)
class DavisSpinRow:
    """One conjugacy class with its fixed-point count and spin number."""

    name: str
    order: int
    size: int
    fp_count: int | None  # None encodes an infinite fixed-point set
    spin: GoldenNumber
    provenance: str
    minus: str
    recorded: bool = True

    def fp_label(self) -> str:
        return "inf" if self.fp_count is None else str(self.fp_count)


def _data_path():
    override = os.environ.get("SPININDEX_DATA")
    if override:
        return Path(override)
    return resources.files("davisspin").joinpath("data/davis_table6.json")


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def davis_table() -> tuple[DavisSpinRow, ...]:
    """The recorded per-class fixed-point rows, in recorded order, each checked
    against the computed class structure by the rule of its provenance."""
    path = _data_path()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise DataInconsistencyError(f"cannot read spin data: {error}") from error
    except ValueError as error:
        raise DataInconsistencyError(f"malformed spin data: {error}") from error
    return _parsed_table(str(path), text)


@lru_cache(maxsize=8)
def _parsed_table(path: str, text: str) -> tuple[DavisSpinRow, ...]:
    """davis_table() of one file content; a bad text raises on every call."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as error:
        raise DataInconsistencyError(f"malformed spin data: {error}") from error
    if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
        raise DataInconsistencyError(
            f"spin data {path} is not a JSON object with a list of rows")
    rows: dict[str, DavisSpinRow] = {}
    for record in payload["rows"]:
        try:
            name = ghat.normalize_class_name(record["name"])
            fp_field = record["fp_count"]
            fp_count = None if fp_field == "inf" else _json_int(fp_field, "fp_count")
            spin_a, spin_b = record["spin"]
            row = DavisSpinRow(
                name=name,
                order=_json_int(record["ord"], "ord"),
                size=_json_int(record["size"], "size"),
                fp_count=fp_count,
                spin=GoldenNumber(_json_int(spin_a, "spin"), _json_int(spin_b, "spin")),
                provenance=str(record["provenance"]),
                minus=ghat.normalize_class_name(record["minus"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataInconsistencyError(
                f"bad spin data row {record!r}: {error}") from error
        if row.provenance not in PROVENANCE_TAGS:
            raise DataInconsistencyError(
                f"unknown provenance {row.provenance!r} for {row.name}")
        if fp_count is not None and fp_count < 0:
            raise DataInconsistencyError(f"negative fixed-point count for {row.name}")
        if row.name in rows:
            raise DataInconsistencyError(f"duplicate spin data row {row.name}")
        cls = ghat.class_by_name(row.name)
        if cls.order != row.order or cls.size != row.size:
            raise DataInconsistencyError(
                f"{row.name}: recorded order/size {row.order}/{row.size} "
                f"differ from computed {cls.order}/{cls.size}")
        if ghat.minus_class(cls).name != row.minus:
            raise DataInconsistencyError(
                f"{row.name}: recorded minus class {row.minus} differs from "
                f"computed {ghat.minus_class(cls).name}")
        self_paired = row.minus == row.name
        if self_paired and not row.spin.is_zero():
            raise DataInconsistencyError(
                f"{row.name}: self-paired class must have spin 0")
        if row.provenance.startswith("forced-zero") and not row.spin.is_zero():
            raise DataInconsistencyError(
                f"{row.name}: {row.provenance} row must have spin 0")
        if row.provenance == "computed-lemma82":
            if "+" not in row.name:
                raise DataInconsistencyError(
                    f"{row.name}: two-fixed-point provenance needs a merged name")
            if _pair_formula(cls) != row.spin:
                raise DataInconsistencyError(
                    f"{row.name}: recorded spin {row.spin} differs from the "
                    "two-fixed-point formula value")
        for broken, rule in (
                (self_paired != (row.provenance == "forced-zero-lemma71"),
                 "a row is forced-zero-lemma71 exactly when it is self-paired"),
                (row.provenance == "computed-lemma82" and fp_count != 2,
                 "a computed-lemma82 row has fp_count 2"),
                (row.provenance == "forced-zero-lemma72" and fp_count is not None,
                 "a forced-zero-lemma72 row has fp_count inf"),
                ("+" in row.name and not self_paired and fp_count == 2
                 and row.provenance != "computed-lemma82",
                 "a merged, non-self-paired row with fp_count 2 is computed-lemma82")):
            if broken:
                raise DataInconsistencyError(f"{row.name}: {rule}")
        rows[row.name] = row
    if len(rows) != 34:
        raise DataInconsistencyError(
            f"expected 34 recorded rows, found {len(rows)}")
    return tuple(rows.values())


@lru_cache(maxsize=None)
def _pair_formula(cls: ghat.GhatClass) -> GoldenNumber:
    """Sum of the apex defects 1/(2(Re x - Re y)) of the two pairs (x, y) and
    (star y, star x) of a merged class, read from its slots."""
    x, y = cls.slots
    total = GoldenNumber(0)
    for left, right in ((x, y), (ghat.star_label(y), ghat.star_label(x))):
        difference = icosa.CLASS_RE[left] - icosa.CLASS_RE[right]
        if difference.is_zero():
            raise DataInconsistencyError(
                f"{cls.name}: classes {left} and {right} share a real part")
        total = total + (difference + difference).inverse()
    return total


def spin_number_two_fp(name: str) -> SpinValue:
    """Spin number of a subgroup-type class fixing exactly two points:
    the sum of the two apex defects read off the class's slots."""
    cls = ghat.class_by_name(name)
    if cls.is_coset:
        raise NotApplicableError(
            f"{cls.name} acts with coset type; the two-point formula "
            "needs a rotation pair")
    row = {r.name: r for r in davis_table()}.get(cls.name)
    if row is None:
        raise NotApplicableError(f"no fixed-point data recorded for {cls.name}")
    if row.fp_count != 2:
        raise NotApplicableError(
            f"{cls.name} fixes {row.fp_label()} points, not 2")
    if "+" not in cls.name:
        raise NotApplicableError(
            f"{cls.name} is not a merged twist-pair class")
    return SpinValue(GoldenComplex.coerce(_pair_formula(cls)))


def davis_spin_character() -> tuple[tuple[DavisSpinRow, ...],
                                    tuple[GoldenNumber, ...]]:
    """All 54 classes in canonical order with spin numbers and provenance:
    recorded rows verbatim, minus classes by antisymmetry."""
    by_name = {row.name: row for row in davis_table()}
    rows = []
    values = []
    for cls in ghat.conjugacy_classes():
        row = by_name.get(cls.name)
        if row is None:
            partner = by_name.get(ghat.minus_class(cls).name)
            if partner is None:
                raise DataInconsistencyError(
                    f"no recorded data for {cls.name} or its minus class")
            row = DavisSpinRow(name=cls.name, order=cls.order, size=cls.size,
                               fp_count=partner.fp_count, spin=-partner.spin,
                               provenance=partner.provenance,
                               minus=partner.name, recorded=False)
        rows.append(row)
        values.append(row.spin)
    return tuple(rows), tuple(values)


@dataclass(frozen=True)
class IndexDecomposition:
    """The spin class function as a difference of two irreducibles, plus the
    parity consequence for any consistent harmonic spinor dimension."""

    multiplicities: tuple[int, ...]
    plus: reptheory.Character
    minus: reptheory.Character
    harmonic_minimum: int
    harmonic_step: int


def decompose_davis_index() -> IndexDecomposition:
    """Each multiplicity is one integer row pairing; every spin is in Z[tau]."""
    _, values = davis_spin_character()
    chars = reptheory.chartable_ghat()
    spins = tuple((int(value.a), int(value.b)) for value in values)
    sizes = [cls.size for cls in ghat.conjugacy_classes()]
    order = ghat.group_order()
    multiplicities = []
    for label, row in reptheory._integer_table():
        a, b = icosa.golden_pairing(sizes, spins, row)
        if b or a % order:
            value = GoldenNumber(Fraction(a, order), Fraction(b, order))
            raise DataInconsistencyError(
                f"non-integral multiplicity {value} of {label.render()} "
                "in the index decomposition")
        multiplicities.append(a // order)
    positives = [chars[i] for i, m in enumerate(multiplicities) if m == 1]
    negatives = [chars[i] for i, m in enumerate(multiplicities) if m == -1]
    others = [m for m in multiplicities if m not in (0, 1, -1)]
    if len(positives) != 1 or len(negatives) != 1 or others:
        raise DataInconsistencyError(
            "index decomposition is not a difference of two irreducibles")
    plus, minus = positives[0], negatives[0]
    for character in (plus, minus):
        if character.dimension != GoldenNumber(12) or not character.spinorial:
            raise DataInconsistencyError(
                f"{character.label.render()} should be 12-dimensional spinorial")
    return IndexDecomposition(
        multiplicities=tuple(multiplicities), plus=plus, minus=minus,
        harmonic_minimum=int((plus.dimension + minus.dimension).a),
        harmonic_step=8)


def _kappa_poly(base_a=0, base_b=0, ext_a=0, ext_b=0) -> QuadExtNumber:
    return QuadExtNumber(GoldenNumber(base_a, base_b), GoldenNumber(ext_a, ext_b))


@lru_cache(maxsize=None)
def davis_sigma_data() -> tuple[LorentzMatrix5, SpinMatrix4]:
    """The exceptional involution of the Davis manifold's symmetry group and
    its order-4 spin lift, both exact over the golden field extended by
    kappa = sqrt(1 + 3*tau); built and validated once, on first use."""
    g = GoldenNumber
    quarter = Fraction(1, 4)
    sigma = LorentzMatrix5((
        (g(-4, -7), g(-1, -3), g(0), g(-1, -1), _kappa_poly(ext_a=2, ext_b=3)),
        (g(-1, -3), g(-1, -1), g(0), g(0), _kappa_poly(ext_a=1, ext_b=1)),
        (g(0), g(0), g(1), g(0), g(0)),
        (g(-1, -1), g(0), g(0), g(0), _kappa_poly(ext_a=1)),
        (_kappa_poly(ext_a=-2, ext_b=-3), _kappa_poly(ext_a=-1, ext_b=-1),
         g(0), _kappa_poly(ext_a=-1), g(5, 8)),
    ))
    sigma_hat = SpinMatrix4(
        Quaternion(g(0), _kappa_poly(ext_a=1, ext_b=1), _kappa_poly(ext_a=1),
                   _kappa_poly(ext_b=-1)),
        Quaternion(g(0, 1), g(-1, -3), g(0), g(1, 2)),
        Quaternion(g(0, 1), g(1, 3), g(0), g(-1, -2)),
        Quaternion(g(0), _kappa_poly(ext_a=-1, ext_b=-1), _kappa_poly(ext_a=1),
                   _kappa_poly(ext_b=1)),
        scale_sq=g(-quarter, quarter))
    return sigma, sigma_hat


@lru_cache(maxsize=None)
def davis_rotation_lifts() -> MappingProxyType[str, tuple[SpinMatrix4, LorentzMatrix5]]:
    """The four order-10 twist generators of the symmetry group: spin lifts
    paired with their explicit Lorentz images, as a read-only mapping built
    and validated once, on first use."""
    g = GoldenNumber

    def halves(*pairs):
        return tuple(g(Fraction(a, 2), Fraction(b, 2)) for a, b in pairs)

    def lorentz(rows):
        return LorentzMatrix5(tuple(halves(*row) for row in rows))

    alpha1 = lorentz((
        ((0, 1), (-1, 0), (1, -1), (0, 0), (0, 0)),
        ((1, 0), (0, 1), (0, 0), (-1, 1), (0, 0)),
        ((-1, 1), (0, 0), (0, 1), (-1, 0), (0, 0)),
        ((0, 0), (1, -1), (1, 0), (0, 1), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0), (2, 0)),
    ))
    alpha2 = lorentz((
        ((0, 1), (-1, 0), (-1, 1), (0, 0), (0, 0)),
        ((1, 0), (0, 1), (0, 0), (1, -1), (0, 0)),
        ((1, -1), (0, 0), (0, 1), (-1, 0), (0, 0)),
        ((0, 0), (-1, 1), (1, 0), (0, 1), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0), (2, 0)),
    ))
    beta1 = lorentz((
        ((0, 1), (1, 0), (-1, 1), (0, 0), (0, 0)),
        ((-1, 0), (0, 1), (0, 0), (-1, 1), (0, 0)),
        ((1, -1), (0, 0), (0, 1), (-1, 0), (0, 0)),
        ((0, 0), (1, -1), (1, 0), (0, 1), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0), (2, 0)),
    ))
    beta2 = lorentz((
        ((0, 1), (1, 0), (1, -1), (0, 0), (0, 0)),
        ((-1, 0), (0, 1), (0, 0), (1, -1), (0, 0)),
        ((-1, 1), (0, 0), (0, 1), (-1, 0), (0, 0)),
        ((0, 0), (-1, 1), (1, 0), (0, 1), (0, 0)),
        ((0, 0), (0, 0), (0, 0), (0, 0), (2, 0)),
    ))
    one = Quaternion(g(1))
    return MappingProxyType({
        "alpha1": (SpinMatrix4.diagonal(icosa.G1, one), alpha1),
        "alpha2": (SpinMatrix4.diagonal(icosa.G2, one), alpha2),
        "beta1": (SpinMatrix4.diagonal(one, icosa.G1), beta1),
        "beta2": (SpinMatrix4.diagonal(one, icosa.G2), beta2),
    })
