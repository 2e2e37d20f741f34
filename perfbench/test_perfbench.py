"""Tests of the benchmark's own code: every output check accepts a true
output and rejects corrupted ones, and the benchmark's arithmetic and inputs
agree with the program's definitions. Run from the checkout root:

  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import golden as G  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from davisspin import cli, icosa, spinindex  # noqa: E402


def _spin_nu(nu_input):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = cli.main(list(nu_input.argv))
    return exit_code, buffer.getvalue()


@pytest.mark.parametrize("dim", [4, 2])
def test_nu_check_rejects_corrupted_outputs(dim):
    nu_input = next(x for x in inputs.nu_stream(7, count=8)
                    if x.dim == dim and x.boost_k > 0)
    exit_code, stdout = _spin_nu(nu_input)
    checks.check_nu_output(nu_input, exit_code, stdout)

    payload = json.loads(stdout)
    part = "re" if dim == 4 else "im"
    shifted = json.loads(stdout)
    shifted["nu_json"][part]["a"] = [payload["nu_json"][part]["a"][0] + 1,
                                     payload["nu_json"][part]["a"][1]]
    off_oracle = dict(payload, oracle=repr(complex(payload["oracle"]) + 1e-7))
    swapped = json.loads(stdout)
    swapped["nu_json"]["re"], swapped["nu_json"]["im"] = (
        payload["nu_json"]["im"], payload["nu_json"]["re"])
    for corrupted in (shifted, off_oracle, swapped):
        with pytest.raises(checks.CheckError):
            checks.check_nu_output(nu_input, 0, json.dumps(corrupted))
    with pytest.raises(checks.CheckError):
        checks.check_nu_output(nu_input, 1, stdout)


def test_verify_check_rejects_failures():
    good = [{"check": "a", "status": "pass", "detail": ""},
            {"check": "b", "status": "pass", "detail": ""}]
    checks.check_verify_output(0, json.dumps(good))
    bad = [dict(good[0]), dict(good[1], status="fail")]
    for exit_code, report in ((0, bad), (1, good), (0, [])):
        with pytest.raises(checks.CheckError):
            checks.check_verify_output(exit_code, json.dumps(report))


def _table_2i():
    table = [[checks.ztau(icosa.char_2I(rep, label)) for label in icosa.CLASS_LABELS]
             for rep in icosa.REP_LABELS]
    sizes = [icosa.CLASS_SIZES[label] for label in icosa.CLASS_LABELS]
    return table, sizes


def test_character_table_check_rejects_corrupted_tables():
    table, sizes = _table_2i()
    checks.check_character_table(table, sizes, 0, 120)
    wrong_entry = [list(row) for row in table]
    wrong_entry[3][4] = (wrong_entry[3][4][0], wrong_entry[3][4][1] + 1)
    swapped_columns = [[row[0], row[1], row[3], row[2], *row[4:]] for row in table]
    wrong_sizes = [sizes[0] + 1, *sizes[1:]]
    for bad_table, bad_sizes in ((wrong_entry, sizes), (swapped_columns, sizes),
                                 (table, wrong_sizes)):
        with pytest.raises(checks.CheckError):
            checks.check_character_table(bad_table, bad_sizes, 0, 120)


def test_decomposition_check_rejects_corrupted_multiplicities():
    table, _ = _table_2i()
    two, one, three = (icosa.REP_LABELS.index(label) for label in ("2", "1", "3"))
    values = checks.tensor_values(table, two, two)  # 2 (x) 2 = 1 + 3
    good = [0] * len(table)
    good[one] = good[three] = 1
    checks.check_decomposition("tensor", table, 0, values, good)
    extra = list(good)
    extra[two] += 1
    negative = list(good)
    negative[two], negative[one] = -1, 1
    moved = list(good)
    moved[three], moved[icosa.REP_LABELS.index("3'")] = 0, 1
    for bad in (extra, moved, good[:-1]):
        with pytest.raises(checks.CheckError):
            checks.check_decomposition("tensor", table, 0, values, bad)
    with pytest.raises(checks.CheckError):
        checks.check_decomposition("tensor", table, 0, values, negative)


def test_adams_class_check_rejects_a_wrong_power_map():
    labels = icosa.CLASS_LABELS
    orders = [icosa.CLASS_ORDERS[label] for label in labels]
    for k in (2, 3, 5):
        powers = [labels.index(icosa.class_of(icosa.class_representative(label) ** k))
                  for label in labels]
        checks.check_adams_classes(orders, powers, k)
    powers = [labels.index(icosa.class_of(icosa.class_representative(label) ** 2))
              for label in labels]
    wrong = list(powers)
    wrong[labels.index("3")] = labels.index("2")
    with pytest.raises(checks.CheckError):
        checks.check_adams_classes(orders, wrong, 2)
    with pytest.raises(checks.CheckError):
        checks.check_adams_classes(orders, powers, 3)


def test_index_check_rejects_wrong_indices():
    labels = ["a", checks.INDEX_PLUS, checks.INDEX_MINUS, "b"]
    dims = [1, 12, 12, 4]
    args = ([0, 1, -1, 0], labels, dims, checks.INDEX_PLUS, checks.INDEX_MINUS, 24, 8)
    checks.check_index(*args)
    corruptions = [
        ([0, -1, 1, 0], *args[1:]),
        ([0, 1, -1, 2], *args[1:]),
        (*args[:3], checks.INDEX_MINUS, checks.INDEX_PLUS, 24, 8),
        (*args[:5], 28, 8),
        (args[0], args[1], [1, 12, 16, 4], *args[3:]),
    ]
    for bad in corruptions:
        with pytest.raises(checks.CheckError):
            checks.check_index(*bad)


def test_own_arithmetic_matches_the_programs_definitions():
    def as_pairs(q):
        return tuple(G.from_json(c.to_json()) for c in q.coords)

    assert set(G.binary_icosahedral()) == {as_pairs(q) for q in icosa.enumerate_2I()}
    assert (G.G1, G.G2) == (as_pairs(icosa.G1), as_pairs(icosa.G2))
    diagonals = {(as_pairs(lift.a), as_pairs(lift.d))
                 for lift, _ in spinindex.davis_rotation_lifts().values()}
    assert diagonals == {(G.G1, G.Q_ONE), (G.G2, G.Q_ONE),
                         (G.Q_ONE, G.G1), (G.Q_ONE, G.G2)}
    x = (Fraction(3, 7), Fraction(-2, 5))
    assert G.mul(x, G.inv(x)) == G.ONE
    assert G.mul(G.TAU, G.TAU) == G.add(G.TAU, G.ONE)


def test_inputs_are_seeded_and_shaped_as_documented():
    stream = inputs.nu_stream(3, count=40)
    assert [x.argv for x in stream] == [x.argv for x in inputs.nu_stream(3, count=40)]
    assert [x.argv for x in stream] != [x.argv for x in inputs.nu_stream(4, count=40)]
    assert [x.dim for x in stream].count(2) == 10
    assert all(0 <= x.boost_k <= inputs.MAX_BOOST for x in stream)
    for k in range(inputs.MAX_BOOST + 1):
        c, s = inputs.boost(k)
        assert G.sub(G.mul(c, c), G.mul(s, s)) == G.ONE
    queries = inputs.decompose_queries(3, count=6)
    assert [q.kind for q in queries] == ["tensor", "adams"] * 3
    assert all(q.j in inputs.ADAMS_EXPONENTS for q in queries if q.kind == "adams")

    # Only the drawn elements vary with the seed: every period of the stream
    # has the same mix of dimensions and boost heights, and the Adams
    # exponents come in turn.
    period = inputs.STREAM_PERIOD
    assert inputs.STREAM_POOL % period == 0

    def mixes(seed):
        stream = inputs.nu_stream(seed, count=2 * period)
        return [Counter((x.dim, x.boost_k) for x in stream[n:n + period])
                for n in (0, period)]

    first, second = mixes(3)
    assert first == second == mixes(4)[0]
    assert sorted({k for _, k in first}) == list(range(inputs.MAX_BOOST + 1))
    queries = inputs.decompose_queries(3, count=10)
    assert ([q.j for q in queries if q.kind == "adams"]
            == [q.j for q in inputs.decompose_queries(4, count=10) if q.kind == "adams"]
            == list(inputs.ADAMS_EXPONENTS))


def test_self_time_subtracts_child_spans():
    tracer = Tracer(True)
    with tracer.span("op", op=0):
        with tracer.span("child"):
            pass
    parent, child = tracer.spans
    assert child["parent"] == parent["id"] and child["op"] == 0
    summary = self_times(tracer.spans)
    assert summary["op"]["self_s"] == pytest.approx(
        (parent["end"] - parent["start"]) - (child["end"] - child["start"]))
    assert Tracer(False).span("op") is Tracer(False).span("other")


def test_op_p50_is_the_mean_of_round_medians():
    import workloads
    rounds = [[0.001, 0.002, 0.009], [0.004, 0.003, 0.005, 0.1], [0.007]]

    def run_round(round_index, phase, tracer):
        latencies = rounds[round_index % len(rounds)]
        phase.latencies.extend(latencies)
        phase.attempted += len(latencies) + 1  # one failed op per round
        phase.failed += 1
        time.sleep(0.002)

    phase, = workloads.measure(run_round, 0.005, [Tracer(False)])
    ran = [rounds[n % len(rounds)] for n in range(len(phase.round_p50s))]
    assert sum(map(len, ran)) == len(phase.latencies) and len(ran) >= 2
    assert phase.round_p50s == [statistics.median(r) for r in ran]

    class Workload:
        setup_samples = [1.0]
        rss_of = resource.RUSAGE_SELF

    metrics = workloads.end_to_end(Workload, phase)
    assert metrics["op_p50_ms"][0] == pytest.approx(
        1e3 * statistics.mean(statistics.median(r) for r in ran))
