"""Exact spin-defect formulas, the numeric diagonalization oracle, the
recorded fixed-point table, and the index decomposition it determines."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from davisspin.exactfield import GoldenComplex, GoldenNumber, TAU, SQRT5
from davisspin.quatmat import (APEX, APEX2, Quaternion, QUAT_ONE, SpinMatrix2,
                               SpinMatrix4, LorentzMatrix5, act_ball2, eta4,
                               verify_lift, zeta2)
from davisspin import ghat, icosa, reptheory, spinindex
from davisspin.spinindex import (DataInconsistencyError, InconsistentInputError,
                                 IsolatedFixedPoint4, NonIsolatedError,
                                 NotApplicableError, davis_rotation_lifts,
                                 davis_sigma_data, davis_spin_character,
                                 davis_table, decompose_davis_index,
                                 nu_diag_2d, nu_diag_4d, nu_isolated_2d,
                                 nu_isolated_4d, nu_numeric_oracle,
                                 nu_numeric_oracle_2d, spin_number_two_fp)


def rep_of(label: str) -> Quaternion:
    return icosa.class_representative(label)


def lift_words(count: int, seed: int) -> list[SpinMatrix4]:
    rng = random.Random(seed)
    generators = [lift for lift, _ in davis_rotation_lifts().values()]
    words = []
    for _ in range(count):
        word = generators[rng.randrange(4)]
        for _ in range(rng.randrange(3)):
            word = word * generators[rng.randrange(4)]
        words.append(word)
    return words


def test_nu_diag_4d_examples():
    assert nu_diag_4d(QUAT_ONE, -QUAT_ONE).value == GoldenComplex.coerce(
        Fraction(1, 4))
    assert nu_diag_4d(QUAT_ONE, rep_of("5A")).value == GoldenComplex.coerce(
        (2 + TAU) * Fraction(1, 5))
    assert nu_diag_4d(rep_of("3"), rep_of("5B")).value == GoldenComplex.coerce(TAU)


def test_nu_diag_4d_error_cases():
    with pytest.raises(NonIsolatedError):
        nu_diag_4d(QUAT_ONE, QUAT_ONE)
    with pytest.raises(NonIsolatedError):
        nu_diag_4d(rep_of("5A"), rep_of("5A"))
    with pytest.raises(InconsistentInputError):
        nu_diag_4d(Quaternion(2), QUAT_ONE)


def test_nu_isolated_4d_at_apex():
    matrix = SpinMatrix4.diagonal(rep_of("5A"), rep_of("5B"))
    value = nu_isolated_4d(IsolatedFixedPoint4(APEX, matrix))
    assert value.value == GoldenComplex.coerce((2 * TAU - 1) * Fraction(1, 5))
    assert value.value == nu_diag_4d(rep_of("5A"), rep_of("5B")).value


def test_nu_isolated_4d_conjugation_invariance():
    base_pairs = [("5A", "5B"), ("3", "10B"), ("1", "2"), ("10A", "6")]
    # the Davis sigma-hat carries the apex to a point with kappa coordinates
    _, sigma_hat = davis_sigma_data()
    words = lift_words(15, seed=21) + [sigma_hat]
    for p_label, q_label in base_pairs:
        p, q = rep_of(p_label), rep_of(q_label)
        expected = nu_diag_4d(p, q).value
        diagonal = SpinMatrix4.diagonal(p, q)
        for word in words:
            moved = word * diagonal * word.inverse()
            fixed_point = eta4(word).apply(APEX)
            value = nu_isolated_4d(IsolatedFixedPoint4(fixed_point, moved))
            assert value.value == expected, (p_label, q_label)


def test_nu_isolated_4d_error_cases():
    matrix = SpinMatrix4.diagonal(rep_of("5A"), rep_of("5B"))
    off_apex = eta4(lift_words(1, seed=3)[0]).apply(APEX)
    if off_apex != APEX:
        with pytest.raises(InconsistentInputError):
            nu_isolated_4d(IsolatedFixedPoint4(off_apex, matrix))
    _, sigma_hat = davis_sigma_data()
    with pytest.raises(NotApplicableError):
        nu_isolated_4d(IsolatedFixedPoint4(APEX, sigma_hat))
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    with pytest.raises(NonIsolatedError):
        nu_isolated_4d(IsolatedFixedPoint4(APEX, identity))


def test_nu_diag_2d_examples():
    i = GoldenComplex(0, 1)
    assert nu_diag_2d(i).value == GoldenComplex(GoldenNumber(0),
                                                GoldenNumber(-Fraction(1, 2)))
    assert nu_diag_2d(-i).value == GoldenComplex(GoldenNumber(0),
                                                 GoldenNumber(Fraction(1, 2)))
    with pytest.raises(NonIsolatedError):
        nu_diag_2d(GoldenComplex(1, 0))
    with pytest.raises(InconsistentInputError):
        nu_diag_2d(GoldenComplex(2, 0))


def test_nu_isolated_2d_matches_diagonal_case():
    u = GoldenComplex(Fraction(3, 5), Fraction(4, 5))
    assert nu_isolated_2d(SpinMatrix2.diagonal(u), 1).value == nu_diag_2d(u).value
    # the boost [[sqrt5/2, 1/2], [1/2, sqrt5/2]] carries the apex to height 3/2
    half = Fraction(1, 2)
    boost = SpinMatrix2(GoldenComplex(SQRT5 * half), GoldenComplex(half))
    assert zeta2(act_ball2(boost, GoldenComplex(0, 0)))[2] == Fraction(3, 2)
    moved = boost * SpinMatrix2.diagonal(u) * boost.inverse()
    assert nu_isolated_2d(moved, Fraction(3, 2)).value == nu_diag_2d(u).value
    # diag(u) fixes only the apex, and the moved matrix only height 3/2
    for matrix, x3 in ((SpinMatrix2.diagonal(u), GoldenNumber(2)),
                       (SpinMatrix2.diagonal(u), 7), (SpinMatrix2.diagonal(u), 0),
                       (SpinMatrix2.diagonal(u), -3), (moved, 1)):
        with pytest.raises(InconsistentInputError):
            nu_isolated_2d(matrix, x3)
    with pytest.raises(NonIsolatedError):
        nu_isolated_2d(SpinMatrix2.diagonal(GoldenComplex(1, 0)), 1)


def test_numeric_oracle_matches_exact_on_diagonals():
    pairs = [("1", "2"), ("1", "5A"), ("3", "5B"), ("5A", "5B"), ("10A", "3"),
             ("6", "10B"), ("4", "2"), ("5B", "10A")]
    for p_label, q_label in pairs:
        p, q = rep_of(p_label), rep_of(q_label)
        exact = nu_diag_4d(p, q).real().real
        oracle = nu_numeric_oracle(SpinMatrix4.diagonal(p, q), APEX)
        assert abs(exact - oracle) < 1e-9, (p_label, q_label)


def test_numeric_oracle_matches_exact_on_conjugates():
    words = lift_words(12, seed=31)
    p, q = rep_of("5A"), rep_of("10B")
    exact = nu_diag_4d(p, q).real().real
    diagonal = SpinMatrix4.diagonal(p, q)
    # the Davis sigma-hat carries the apex to a point with kappa coordinates
    _, sigma_hat = davis_sigma_data()
    for word in words + [sigma_hat]:
        moved = word * diagonal * word.inverse()
        fixed_point = eta4(word).apply(APEX)
        oracle = nu_numeric_oracle(moved, fixed_point)
        assert abs(exact - oracle) < 1e-9


def test_numeric_oracle_error_cases():
    rotation = SpinMatrix4.diagonal(Quaternion(0, 1), Quaternion(0, 1))
    with pytest.raises(NonIsolatedError):
        nu_diag_4d(Quaternion(0, 1), Quaternion(0, 1))
    with pytest.raises(NonIsolatedError):
        nu_numeric_oracle(rotation, APEX)
    # diag(p, p) fixes the real axis: its angles are 0 and twice that of p
    with pytest.raises(NonIsolatedError):
        nu_numeric_oracle(SpinMatrix4.diagonal(rep_of("5A"), rep_of("5A")), APEX)
    with pytest.raises(NonIsolatedError):
        nu_numeric_oracle_2d(SpinMatrix2.diagonal(GoldenComplex(-1, 0)), APEX2)
    matrix = SpinMatrix4.diagonal(rep_of("5A"), rep_of("5B"))
    moved_point = eta4(lift_words(1, seed=33)[0]).apply(APEX)
    if moved_point != APEX:
        with pytest.raises(InconsistentInputError):
            nu_numeric_oracle(matrix, moved_point)


def test_numeric_oracle_2d():
    u = GoldenComplex(Fraction(3, 5), Fraction(4, 5))
    exact = nu_diag_2d(u).real()
    oracle = nu_numeric_oracle_2d(SpinMatrix2.diagonal(u), APEX2)
    assert abs(exact - oracle) < 1e-9
    boost = SpinMatrix2(GoldenComplex(SQRT5 * Fraction(1, 2), GoldenNumber(0)),
                        GoldenComplex(GoldenNumber(Fraction(1, 2)), GoldenNumber(0)))
    conjugated = boost * SpinMatrix2.diagonal(u) * boost.inverse()
    fixed = zeta2(act_ball2(boost, GoldenComplex(0, 0)).z)
    oracle_moved = nu_numeric_oracle_2d(conjugated, fixed)
    assert abs(exact - oracle_moved) < 1e-9


def test_davis_table_loads_and_spot_rows():
    rows = {row.name: row for row in davis_table()}
    assert len(rows) == 34
    golden_row = rows["1×5A+5B×1"]
    assert golden_row.spin == GoldenNumber(-5, 10)
    assert golden_row.spin == 5 * SQRT5
    assert golden_row.provenance == "recorded-paper-data"
    assert golden_row.fp_count == 26
    coset_row = rows["[1×4]"]
    assert coset_row.spin.is_zero()
    assert coset_row.provenance == "forced-zero-lemma71"
    assert coset_row.fp_count == 2
    composite = rows["5A×10B+10A×5B"]
    assert composite.spin == -2 * SQRT5
    assert composite.fp_count == 12


def test_two_fixed_point_formula_on_all_recorded_pairs():
    checked = []
    for row in davis_table():
        if row.fp_count == 2 and "+" in row.name:
            value = spin_number_two_fp(row.name)
            assert value.value == GoldenComplex.coerce(row.spin), row.name
            checked.append(row.name)
    assert len(checked) == 14
    above_line = [name for name in checked
                  if not davis_table_row(name).minus == name]
    assert len(above_line) == 12


def davis_table_row(name: str) -> spinindex.DavisSpinRow:
    return {row.name: row for row in davis_table()}[name]


def test_two_fixed_point_spot_values():
    assert spin_number_two_fp("1×3+3×1").value == GoldenComplex(0, 0)
    assert spin_number_two_fp("1×10A+10B×1").value == GoldenComplex.coerce(
        GoldenNumber(-1, 2))
    assert spin_number_two_fp("1×10A+10B×1").value == GoldenComplex.coerce(SQRT5)
    assert spin_number_two_fp("5A×10A+10B×5B").value == GoldenComplex(0, 0)
    assert spin_number_two_fp("5B×10B+10A×5A").value == GoldenComplex(0, 0)


def test_two_fixed_point_not_applicable():
    with pytest.raises(NotApplicableError):
        spin_number_two_fp("3×3")
    with pytest.raises(NotApplicableError):
        spin_number_two_fp("[1×4]")
    with pytest.raises(NotApplicableError):
        spin_number_two_fp("1×2+2×1")
    with pytest.raises(NotApplicableError):
        spin_number_two_fp("5A×5B")
    with pytest.raises(KeyError):
        spin_number_two_fp("9×9")


def test_ridge_contribution_consistency():
    recorded = davis_table_row("1×5A+5B×1").spin
    apex_pair = spinindex._pair_formula(ghat.class_by_name("1×5A+5B×1"))
    assert apex_pair == SQRT5 * Fraction(1, 5)
    assert recorded - apex_pair == SQRT5 * Fraction(24, 5)


def test_spin_character_antisymmetry_and_norm():
    rows, values = davis_spin_character()
    assert len(rows) == 54
    by_name = {row.name: row for row in rows}
    classes = {cls.name: cls for cls in ghat.conjugacy_classes()}
    for row in rows:
        partner_name = ghat.minus_class(classes[row.name]).name
        assert by_name[partner_name].spin == -row.spin
    derived = [row for row in rows if not row.recorded]
    assert len(derived) == 20
    assert reptheory.inner_product(values, values) == GoldenNumber(2)
    assert by_name["1×1"].spin.is_zero()


def test_index_decomposition():
    decomposition = decompose_davis_index()
    assert decomposition.plus.label.render() == "(2'⊗3')⊕(3⊗2)"
    assert decomposition.minus.label.render() == "(2⊗3)⊕(3'⊗2')"
    assert decomposition.plus.dimension == GoldenNumber(12)
    assert decomposition.minus.dimension == GoldenNumber(12)
    assert decomposition.plus.spinorial and decomposition.minus.spinorial
    assert decomposition.harmonic_minimum == 24
    assert decomposition.harmonic_step == 8
    nonzero = [(i, m) for i, m in enumerate(decomposition.multiplicities) if m]
    assert sorted(m for _, m in nonzero) == [-1, 1]
    chars = reptheory.chartable_ghat()
    sixty = next(i for i, c in enumerate(chars)
                 if c.label.render() == "(5⊗6)⊕(6⊗5)")
    assert decomposition.multiplicities[sixty] == 0


def assert_decomposition_routes_agree():
    """The integer row pairings of decompose_davis_index give the same
    multiplicities as reptheory.decompose on the spin values, read as ints."""
    _, values = davis_spin_character()
    exact = reptheory.decompose(values)
    assert all(m.b == 0 and m.a.denominator == 1 for m in exact)
    assert decompose_davis_index().multiplicities == tuple(int(m.a) for m in exact)


def test_index_decomposition_matches_the_rational_route():
    assert_decomposition_routes_agree()


def test_sigma_data():
    sigma, sigma_hat = davis_sigma_data()
    identity = SpinMatrix4.diagonal(QUAT_ONE, QUAT_ONE)
    assert sigma_hat * sigma_hat == -identity
    assert eta4(sigma_hat) == sigma
    assert verify_lift(sigma_hat, sigma)
    assert sigma * sigma == LorentzMatrix5.identity()
    assert sigma[4][4] == GoldenNumber(5, 8)
    assert sigma_hat.scale_sq == (TAU - 1) * Fraction(1, 4)


def test_rotation_lifts():
    lifts = davis_rotation_lifts()
    assert set(lifts) == {"alpha1", "alpha2", "beta1", "beta2"}
    for name, (lift, image) in lifts.items():
        assert eta4(lift) == image, name
        assert verify_lift(lift, image)
    alpha1, _ = lifts["alpha1"]
    assert alpha1.a == icosa.G1
    assert alpha1.d == QUAT_ONE
    beta2, _ = lifts["beta2"]
    assert beta2.a == QUAT_ONE
    assert beta2.d == icosa.G2


def test_davis_data_is_built_once_and_read_only():
    lifts, sigma_data = davis_rotation_lifts(), davis_sigma_data()
    assert davis_rotation_lifts() is lifts and davis_sigma_data() is sigma_data
    with pytest.raises(TypeError):
        lifts["alpha1"] = lifts["beta1"]
    with pytest.raises(TypeError):
        del lifts["beta2"]
    with pytest.raises(TypeError):
        sigma_data[0] = LorentzMatrix5.identity()
    assert list(davis_rotation_lifts()) == ["alpha1", "alpha2", "beta1", "beta2"]


def test_davis_data_is_not_built_at_import():
    code = ("import davisspin.cli, davisspin.spinindex as s; "
            "print(s.davis_rotation_lifts.cache_info().currsize, "
            "s.davis_sigma_data.cache_info().currsize)")
    src = str(Path(spinindex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0 and result.stdout == "0 0\n", result.stderr


def write_rows(tmp_path, mutate):
    payload = json.loads(
        (spinindex._data_path()).read_text())
    mutate(payload)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_data_override_roundtrip(tmp_path, monkeypatch):
    path = write_rows(tmp_path, lambda payload: None)
    monkeypatch.setenv("SPININDEX_DATA", path)
    rows = davis_table()
    assert len(rows) == 34
    decomposition = decompose_davis_index()
    assert decomposition.harmonic_minimum == 24
    assert_decomposition_routes_agree()


def test_data_table_is_parsed_once_per_content(tmp_path, monkeypatch):
    """davis_table() reads the file on every call and parses each content
    once: a rewrite is seen at once, and a bad file raises on every call."""
    path = write_rows(tmp_path, lambda payload: None)
    original = Path(path).read_text(encoding="utf-8")
    monkeypatch.setenv("SPININDEX_DATA", path)
    first = davis_table()
    assert davis_table() is first

    def bump(payload):
        for record in payload["rows"]:
            if record["name"] == "1×5A+5B×1":
                record["spin"][0] += 1
    recorded = {row.name: row.spin for row in first}["1×5A+5B×1"]
    write_rows(tmp_path, bump)
    assert {row.name: row.spin for row in davis_table()}["1×5A+5B×1"] == recorded + 1
    Path(path).write_text(original, encoding="utf-8")
    assert davis_table() is first
    Path(path).write_text("{not json", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(DataInconsistencyError, match="^malformed spin data"):
            davis_table()


def test_data_corruption_detected(tmp_path, monkeypatch):
    corrupt = tmp_path / "broken.json"
    corrupt.write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("SPININDEX_DATA", str(corrupt))
    with pytest.raises(DataInconsistencyError):
        davis_table()
    monkeypatch.setenv("SPININDEX_DATA", str(tmp_path / "missing.json"))
    with pytest.raises(DataInconsistencyError):
        davis_table()


def test_data_wrong_size_detected(tmp_path, monkeypatch):
    def chop(payload):
        payload["rows"] = payload["rows"][:-1]
    monkeypatch.setenv("SPININDEX_DATA", write_rows(tmp_path, chop))
    with pytest.raises(DataInconsistencyError):
        davis_table()


def test_data_bad_provenance_detected(tmp_path, monkeypatch):
    def poison(payload):
        payload["rows"][0]["provenance"] = "guesswork"
    monkeypatch.setenv("SPININDEX_DATA", write_rows(tmp_path, poison))
    with pytest.raises(DataInconsistencyError):
        davis_table()


def test_data_wrong_class_size_detected(tmp_path, monkeypatch):
    def resize(payload):
        payload["rows"][3]["size"] += 1
    monkeypatch.setenv("SPININDEX_DATA", write_rows(tmp_path, resize))
    with pytest.raises(DataInconsistencyError):
        davis_spin_character()


def test_data_corrupted_spin_breaks_integrality(tmp_path, monkeypatch):
    """A spin moved by a + b*tau. In the first non-integral pairing, (1, 0) and
    (0, 1) leave a tau part and a rational part that the group order does not
    divide, (1, 1) only the latter and (0, 600) only a tau part, -1 + tau.
    Each reports the value that decompose gives."""
    for step in ((1, 0), (0, 1), (1, 1), (0, 600)):
        def bump(payload):
            for record in payload["rows"]:
                if record["name"] == "1×5A+5B×1":
                    record["spin"] = [record["spin"][0] + step[0],
                                      record["spin"][1] + step[1]]
        monkeypatch.delenv("SPININDEX_DATA", raising=False)
        monkeypatch.setenv("SPININDEX_DATA", write_rows(tmp_path, bump))
        with pytest.raises(DataInconsistencyError, match=r"^non-integral multiplicity "
                           r".* of \(1⊗2'\)⊕\(2⊗1\) in ") as raised:
            decompose_davis_index()
        exact = reptheory.decompose(davis_spin_character()[1])
        value = next(m for m in exact if m.b != 0 or m.a.denominator != 1)
        assert (value.b == 0) == (step == (1, 1)), step
        assert str(raised.value).startswith(f"non-integral multiplicity {value} of ")


def test_data_formula_mismatch_detected(tmp_path, monkeypatch):
    def skew(payload):
        for record in payload["rows"]:
            if record["name"] == "1×10A+10B×1":
                record["spin"] = [record["spin"][0] + 5, record["spin"][1]]
    monkeypatch.setenv("SPININDEX_DATA", write_rows(tmp_path, skew))
    with pytest.raises(DataInconsistencyError):
        davis_spin_character()
