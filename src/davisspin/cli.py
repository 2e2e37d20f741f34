"""Command-line front end: exact table emission, single spin-value
evaluation, and the full verification suite with a machine-readable report."""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from functools import lru_cache

from .exactfield import GoldenComplex, GoldenNumber, QuadExtNumber, json_entry, json_object
from .quatmat import (APEX, HyperboloidPoint, HyperboloidPoint2, Quaternion,
                      SpinMatrix2, SpinMatrix4, eta4)
from . import ghat, icosa, reptheory, spinindex

# how far the numeric oracle may sit from the exact nu before spin-nu fails
ORACLE_TOLERANCE = 1e-9


def _csv_block(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _pretty_block(header, rows) -> str:
    table = [tuple(str(cell) for cell in row) for row in [header, *rows]]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in table]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def _records(header, rows) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _render(args, payload, tables, pretty: str | None = None) -> int:
    """Writes payload as JSON, or the (header, rows) tables as CSV or pretty
    blocks one blank line apart, unless the command gives its own pretty text."""
    if args.format == "json":
        text = json.dumps(payload, ensure_ascii=False, indent=1) + "\n"
    elif args.format == "csv":
        text = "\n".join(_csv_block(*table) for table in tables)
    elif pretty is None:
        text = "\n".join(_pretty_block(*table) for table in tables)
    else:
        text = pretty
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_icosa_table(args) -> int:
    class_header = ("class", "order", "size", "re")
    class_rows = [(label, icosa.CLASS_ORDERS[label], icosa.CLASS_SIZES[label],
                   str(icosa.CLASS_RE[label])) for label in icosa.CLASS_LABELS]
    char_rows = [(rep, *(str(icosa.char_2I(rep, label))
                         for label in icosa.CLASS_LABELS))
                 for rep in icosa.REP_LABELS]
    return _render(args, {
        "classes": _records(class_header, class_rows),
        "characters": [{"label": row[0], "values": dict(zip(icosa.CLASS_LABELS, row[1:]))}
                       for row in char_rows],
    }, [(class_header, class_rows), (("character", *icosa.CLASS_LABELS), char_rows)])


def _cmd_ghat_classes(args) -> int:
    header = ("class", "order", "size", "minus")
    rows = [(cls.name, cls.order, cls.size, ghat.minus_class(cls).name)
            for cls in ghat.conjugacy_classes()]
    return _render(args, _records(header, rows), [(header, rows)])


def _cmd_ghat_chartable(args) -> int:
    if args.check:
        checks = reptheory.orthogonality_checks()
        if not all(checks.values()):
            sys.stderr.write(f"orthogonality failure: {checks}\n")
            return 1
    chars = reptheory.chartable_ghat()
    class_names = [cls.name for cls in ghat.conjugacy_classes()]
    rows = [(char.label.render(), *(str(value) for value in char.values)) for char in chars]
    pretty = "".join(
        f"{label} (dim {int(char.dimension.a)}, spinorial {char.spinorial})\n  "
        + ", ".join(f"{name}: {value}" for name, value in zip(class_names, values)) + "\n"
        for char, (label, *values) in zip(chars, rows))
    return _render(args, {
        "classes": class_names,
        "characters": [{"label": label, "dimension": int(char.dimension.a),
                        "spinorial": char.spinorial, "values": values}
                       for char, (label, *values) in zip(chars, rows)],
    }, [(("character", *class_names), rows)], pretty)


def _cmd_spin_davis(args) -> int:
    header = ("class", "order", "size", "fp_count", "spin", "provenance", "minus")
    rows = [(row.name, row.order, row.size, row.fp_label(), str(row.spin),
             row.provenance, row.minus) for row in spinindex.davis_table()]
    return _render(args, _records(header, rows), [(header, rows)])


def _cmd_spin_decompose(args) -> int:
    decomposition = spinindex.decompose_davis_index()
    chars = reptheory.chartable_ghat()
    header = ("character", "dimension", "multiplicity")
    rows = [(char.label.render(), int(char.dimension.a), multiplicity)
            for char, multiplicity in zip(chars, decomposition.multiplicities)]
    plus, minus = decomposition.plus.label.render(), decomposition.minus.label.render()
    return _render(args, {
        "plus": plus,
        "minus": minus,
        "harmonic_minimum": decomposition.harmonic_minimum,
        "harmonic_step": decomposition.harmonic_step,
        "multiplicities": _records(header, rows),
    }, [(header, rows)],
        f"+ {plus}, - {minus}; dim H = {decomposition.harmonic_minimum} "
        f"+ {decomposition.harmonic_step}k\n\n" + _pretty_block(header, rows))


def _parse_scalar(payload, kappa: bool = True):
    """A golden scalar, or, where kappa is allowed, a kappa-form one."""
    if isinstance(payload, dict) and "base" in payload:
        if not kappa:
            raise ValueError('expected a golden scalar {"a": [n, d], "b": [n, d]}, '
                             "got a kappa-form scalar")
        return QuadExtNumber.from_json(payload)
    return GoldenNumber.from_json(payload)


def _parse_scalars(payload: list, where: str, kappa: bool = True) -> list:
    return [json_entry(_parse_scalar, payload, index, where, kappa)
            for index in range(len(payload))]


def _parse_quaternion(phat, key: str) -> Quaternion:
    where = f'--phat "{key}"'
    payload = phat[key]
    if not isinstance(payload, list) or len(payload) != 4:
        raise ValueError(f"{where}: quaternion must be a list of four scalars")
    return Quaternion(*_parse_scalars(payload, where))


def _cmd_spin_nu(args) -> int:
    try:
        phat_payload = json.loads(args.phat)
        x_payload = json.loads(args.x)
    except (ValueError, RecursionError) as error:
        sys.stderr.write(f"malformed JSON argument: {error}\n")
        return 2
    try:
        kind, keys = ("quaternion", "abcd") if args.dim == 4 else ("complex", "ab")
        json_object(phat_payload, tuple(keys), f"a --phat object with {kind} entries "
                    + ", ".join(f'"{key}"' for key in keys))
        size = 5 if args.dim == 4 else 3
        if not isinstance(x_payload, list) or len(x_payload) != size:
            got = (f"a list of {len(x_payload)}" if isinstance(x_payload, list)
                   else type(x_payload).__name__)
            raise ValueError(f"expected a --x list of {size} scalars, got {got}")
        if args.dim == 4:
            matrix = SpinMatrix4(
                *(_parse_quaternion(phat_payload, key) for key in keys),
                scale_sq=json_entry(_parse_scalar, phat_payload, "scale_sq",
                                    "--phat", False)
                if "scale_sq" in phat_payload else 1)
            point = HyperboloidPoint(_parse_scalars(x_payload, "--x"))
            exact = spinindex.nu_isolated_4d(
                spinindex.IsolatedFixedPoint4(point, matrix))
            oracle = float(spinindex.nu_numeric_oracle(matrix, point))
            numeric = exact.real().real
        else:
            if "scale_sq" in phat_payload:
                raise ValueError('--phat "scale_sq": a --dim 2 matrix takes no scale factor')
            matrix = SpinMatrix2(*(json_entry(GoldenComplex.from_json, phat_payload,
                                              key, "--phat") for key in keys))
            point = HyperboloidPoint2(_parse_scalars(x_payload, "--x", kappa=False))
            exact = spinindex.nu_isolated_2d(matrix, point[2])
            oracle = complex(spinindex.nu_numeric_oracle_2d(matrix, point))
            numeric = exact.real()
    except OverflowError as error:
        sys.stderr.write(f"the numeric oracle cannot represent this input: {error}\n")
        return 1
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
        if isinstance(error, (spinindex.NonIsolatedError,
                              spinindex.InconsistentInputError,
                              spinindex.NotApplicableError)):
            sys.stderr.write(f"{error}\n")
            return 1
        sys.stderr.write(f"bad --phat/--x payload: {error}\n")
        return 2
    agreement = float(abs(numeric - oracle))
    if not agreement <= ORACLE_TOLERANCE:
        sys.stderr.write(f"numeric oracle disagrees with the exact nu = {exact.value}: "
                         f"oracle {oracle!r}, gap {agreement!r}\n")
        return 1
    return _render(args, {"nu": str(exact.value), "nu_json": exact.value.to_json(),
                          "oracle": repr(oracle), "agreement": repr(agreement)},
                   [(("nu", "oracle", "agreement"),
                     [(str(exact.value), repr(oracle), repr(agreement))])],
                   f"nu = {exact.value}\noracle = {oracle!r}\nagreement = {agreement!r}\n")


def _verify_checks():
    def expect(seen, wanted, what: str, *args) -> None:
        if seen != wanted:
            raise AssertionError(f"{what.format(*args)} = {seen}, expected {wanted}")

    def exactfield_defining_relation():
        tau = GoldenNumber(0, 1)
        sqrt5 = GoldenNumber(-1, 2)
        expect(tau * tau, tau + GoldenNumber(1), "tau^2")
        expect(sqrt5 * sqrt5, GoldenNumber(5), "sqrt5^2")
        expect(tau.galois(), GoldenNumber(1) - tau, "galois(tau)")
        return "tau^2 = tau + 1, sqrt5^2 = 5, galois(tau) = 1 - tau"

    def icosa_enumeration():
        elements = icosa.enumerate_2I()
        expect(len(elements), 120, "number of unit icosians")
        expect(len(set(elements)), 120, "number of distinct unit icosians")
        sizes = {label: len(icosa.class_elements(label))
                 for label in icosa.CLASS_LABELS}
        expect(sizes, icosa.CLASS_SIZES, "class sizes")
        return "120 unit icosians in 9 classes with recorded sizes"

    def icosa_character_orthogonality():
        sizes = [icosa.CLASS_SIZES[label] for label in icosa.CLASS_LABELS]
        for r1, row1 in icosa.CHAR_TABLE.items():
            for r2, row2 in icosa.CHAR_TABLE.items():
                expect(icosa.golden_pairing(sizes, row1, row2),
                       (120 if r1 == r2 else 0, 0), "<{}, {}>", r1, r2)
        return "all 81 row inner products exact"

    def icosa_alpha_automorphism():
        elements, tables = icosa.enumerate_2I(), icosa.tables()
        coords, mul, alpha = tables.coords, tables.mul, tables.alpha
        # mul is the Cayley table: row 1 is the identity, the generator rows
        # are icosian products, row(g*a) = row(g) o row(a), and the generators
        # reach all of 2I, so by induction on word length every row is left
        # multiplication
        expect(mul[tables.one], tuple(range(120)), "Cayley table row of 1")
        position = {x: i for i, x in enumerate(coords)}
        generators = (tables.index[icosa.G1], tables.index[icosa.G2])
        for g in generators:
            for a in range(120):
                product = icosa._icosian_product(coords[g], coords[a])
                expect(mul[g][a], position.get(product), "Cayley table row of g1 or g2 "
                       "at {} times {}", elements[g], elements[a])
        for g in generators:
            row_g = mul[g]
            for a in range(120):
                row_ga, row_a = mul[row_g[a]], mul[a]
                for b in range(120):
                    expect(row_ga[b], row_g[row_a[b]], "Cayley table composition at ({} "
                           "times {}) times {}", elements[g], elements[a], elements[b])
        reached = frontier = {tables.one}
        while frontier:
            frontier = {mul[g][x] for x in frontier for g in generators} - reached
            reached = reached | frontier
        expect(len(reached), 120, "number of icosians reached from 1 by g1 and g2")
        expect(len(set(alpha)), 120, "number of distinct alpha values")
        for x in range(120):
            row, image_row = mul[x], mul[alpha[x]]
            for y in range(120):
                expect(alpha[row[y]], image_row[alpha[y]],
                       "alpha of {} times {}", elements[x], elements[y])
        for pair in random.Random("icosa-alpha-automorphism").sample(
                range(120 * 120), 10):
            x, y = elements[pair // 120], elements[pair % 120]
            expect(icosa.alpha(x * y), icosa.alpha(x) * icosa.alpha(y),
                   "alpha of {} times {}", x, y)
        q = icosa.G1
        for _ in range(4):
            q = icosa.alpha(q)
        expect(q, icosa.G1, "alpha^4(g1)")
        return ("alpha bijective, multiplicative on all 14400 pairs "
                "(10 also as quaternions), order 4")

    def ghat_class_structure():
        expect(ghat.group_order(), 28800, "group order")
        classes = ghat.conjugacy_classes()
        expect(len(classes), 54, "number of classes")
        expect(sum(cls.size for cls in classes), 28800, "sum of class sizes")
        expect(sum(1 for cls in classes if ghat.minus_class(cls) is cls), 14,
               "number of self-minus-paired classes")
        return "order 28800, 54 classes, 14 self-minus-paired"

    def chartable_orthogonality():
        checks = reptheory.orthogonality_checks()
        expect(checks, {"rows": True, "columns": True}, "orthogonality")
        return "row and column orthogonality exact over 54 characters"

    def chartable_spinorial_partition():
        chars = reptheory.chartable_ghat()
        spinorial = [int(c.dimension.a) for c in chars if c.spinorial]
        expect(sorted(spinorial), [4, 4, 8, 12, 12, 12, 12, 12, 16, 16, 20, 20, 24,
                                   24, 32, 36, 36, 40, 48, 60], "spinorial dimensions")
        expect(sum(int(c.dimension.a) ** 2 for c in chars), 28800,
               "sum of squared dimensions")
        return "20 spinorial characters with the recorded dimension multiset"

    def chartable_galois_symmetry():
        permutation = reptheory.galois_permutation()
        moved = sum(1 for i, j in enumerate(permutation) if i != j)
        return f"Galois conjugation is a row involution moving {moved} rows"

    def eta_homomorphism():
        lifts = spinindex.davis_rotation_lifts()
        for name, (lift, image) in sorted(lifts.items()):
            expect(eta4(lift), image, "eta4({})", name)
        # from here on each recorded image stands for eta4 of its lift
        generators = list(lifts.values())
        sigma, sigma_hat = spinindex.davis_sigma_data()
        expect(eta4(sigma_hat), sigma, "eta4(sigma-hat)")
        rng = random.Random("eta-homomorphism")
        for _ in range(20):
            a, _ = generators[rng.randrange(4)]
            b, b_image = generators[rng.randrange(4)]
            word_a = a * generators[rng.randrange(4)][0]
            word_image = eta4(word_a)
            expect(eta4(word_a * b), word_image * b_image, "eta4 of {} * {}", word_a, b)
            expect(eta4(-word_a), word_image, "eta4 of -({})", word_a)
        # the sampled words are diagonal; sigma-hat makes them non-diagonal
        lift, image = lifts["alpha1"]
        expect(eta4(sigma_hat * lift), sigma * image, "eta4 of sigma-hat * alpha1")
        expect(eta4(lift * sigma_hat), image * sigma, "eta4 of alpha1 * sigma-hat")
        return "eta4 multiplicative on sampled words; recorded images match"

    def sigma_involution():
        sigma, sigma_hat = spinindex.davis_sigma_data()
        identity = SpinMatrix4.diagonal(Quaternion(GoldenNumber(1)),
                                        Quaternion(GoldenNumber(1)))
        expect(sigma_hat * sigma_hat, -identity, "sigma-hat^2")
        expect(sigma * sigma, sigma.identity(), "sigma^2")
        expect(sigma[4][4], GoldenNumber(5, 8), "sigma entry (5, 5)")
        return "sigma-hat has order 4 over the involution sigma; entry (5,5) = 5+8t"

    def spin_antisymmetry():
        rows, _ = spinindex.davis_spin_character()
        by_name = {row.name: row for row in rows}
        for row in rows:
            partner = by_name[ghat.minus_class(ghat.class_by_name(row.name)).name]
            expect(partner.spin, -row.spin, "spin at {}", partner.name)
        return "spin value at each minus class is the negation, all 54 classes"

    def spin_two_fixed_points():
        checked = 0
        for row in spinindex.davis_table():
            if row.fp_count == 2 and "+" in row.name:
                value = spinindex.spin_number_two_fp(row.name)
                expect(value.value, GoldenComplex.coerce(row.spin), "spin of {}", row.name)
                checked += 1
        expect(checked, 14, "number of recorded 2-FP pair rows")
        return "two-point formula reproduces all 14 recorded 2-FP pair rows"

    def spin_norm():
        _, values = spinindex.davis_spin_character()
        expect(reptheory.inner_product(values, values), GoldenNumber(2), "<spin, spin>")
        return "<spin, spin> = 2"

    def index_decomposition():
        decomposition = spinindex.decompose_davis_index()
        expect(decomposition.plus.label.render(), "(2'⊗3')⊕(3⊗2)", "index plus part")
        expect(decomposition.minus.label.render(), "(2⊗3)⊕(3'⊗2')", "index minus part")
        expect(decomposition.harmonic_minimum, 24, "harmonic minimum")
        expect(decomposition.harmonic_step, 8, "harmonic step")
        return "index = +(2'(x)3')(+)(3(x)2) - (2(x)3)(+)(3'(x)2'); dim H = 24 + 8k"

    def oracle_agreement():
        generators = list(spinindex.davis_rotation_lifts().values())
        probes = [(icosa.class_representative("5A"), icosa.class_representative("6")),
                  (Quaternion(GoldenNumber(1)), Quaternion(GoldenNumber(-1))),
                  (icosa.class_representative("10A"), icosa.class_representative("3"))]
        rng = random.Random("oracle-agreement")
        worst = 0.0
        for p, q in probes:
            base = SpinMatrix4.diagonal(p, q)
            exact = spinindex.nu_diag_4d(p, q).real().real
            for _ in range(3):
                # eta-homomorphism checks the recorded images against eta4
                first, first_image = generators[rng.randrange(4)]
                second, second_image = generators[rng.randrange(4)]
                h = first * second
                x = first_image.apply(second_image.apply(APEX))
                oracle = spinindex.nu_numeric_oracle(h * base * h.inverse(), x)
                worst = max(worst, abs(exact - oracle))
        if not worst < ORACLE_TOLERANCE:
            raise AssertionError(f"worst gap {worst!r}")
        return f"9 conjugated probes agree with exact values; worst gap {worst:.2e}"

    return [
        ("chartable-galois-symmetry", chartable_galois_symmetry),
        ("chartable-orthogonality", chartable_orthogonality),
        ("chartable-spinorial-partition", chartable_spinorial_partition),
        ("eta-homomorphism", eta_homomorphism),
        ("exactfield-defining-relation", exactfield_defining_relation),
        ("ghat-class-structure", ghat_class_structure),
        ("icosa-alpha-automorphism", icosa_alpha_automorphism),
        ("icosa-character-orthogonality", icosa_character_orthogonality),
        ("icosa-enumeration", icosa_enumeration),
        ("index-decomposition", index_decomposition),
        ("oracle-agreement", oracle_agreement),
        ("sigma-involution", sigma_involution),
        ("spin-antisymmetry", spin_antisymmetry),
        ("spin-norm", spin_norm),
        ("spin-two-fixed-points", spin_two_fixed_points),
    ]


def _cmd_verify(args) -> int:
    rows = []
    for name, check in sorted(_verify_checks()):
        try:
            rows.append((name, "pass", check()))
        except Exception as error:  # noqa: BLE001 - report every failure kind
            rows.append((name, "fail", f"{type(error).__name__}: {error}"))
    header = ("check", "status", "detail")
    _render(args, _records(header, rows), [(header, rows)])
    return 1 if any(status == "fail" for _, status, _ in rows) else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, without the usage block;
    the subcommand parsers are made of this class too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="davisspin",
        description="Exact spin numbers and character theory of the "
                    "symmetry group of the Davis hyperbolic 4-manifold.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, check_flag=False, nu_flags=False,
            default_format="pretty"):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--format", choices=("csv", "json", "pretty"),
                         default=default_format)
        sub.add_argument("--output", default=None,
                         help="write to this path instead of stdout")
        if check_flag:
            sub.add_argument("--check", action="store_true",
                             help="fail (exit 1) if an internal consistency "
                                  "relation is violated")
        if nu_flags:
            sub.add_argument("--dim", type=int, choices=(4, 2), default=4)
            sub.add_argument("--phat", required=True,
                             help="JSON object of exact matrix entries")
            sub.add_argument("--x", required=True,
                             help="JSON list of exact point coordinates")
        sub.set_defaults(handler=handler)
        return sub

    add("icosa-table", _cmd_icosa_table,
        "exact class data and character table of the binary icosahedral group")
    add("ghat-classes", _cmd_ghat_classes,
        "the 54 conjugacy classes with orders, sizes, and minus classes")
    add("ghat-chartable", _cmd_ghat_chartable,
        "the full 54x54 exact character table", check_flag=True)
    add("spin-davis", _cmd_spin_davis,
        "recorded fixed-point and spin-number table of the Davis manifold")
    add("spin-decompose", _cmd_spin_decompose,
        "decompose the spin class function into signed irreducibles")
    add("spin-nu", _cmd_spin_nu,
        "evaluate one spin defect at an isolated fixed point", nu_flags=True)
    add("verify", _cmd_verify,
        "run the full invariant suite and emit its report", default_format="json")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["spin-nu"]:
        # "--x -1e+16" would make argparse take the payload for an option
        for i in range(len(argv) - 2, 0, -1):
            if argv[i] in ("--phat", "--x"):
                argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as error:
        sys.stderr.write(f"i/o failure: {error}\n")
        return 2
    except spinindex.DataInconsistencyError as error:
        sys.stderr.write(f"data inconsistency: {error}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
