"""Checks of the program's outputs that do not copy any recorded output:
each one tests a relation the answer must satisfy, in the benchmark's own
arithmetic. Every check raises CheckError on a wrong output; all of them run
outside the timed phase."""

from __future__ import annotations

import json
from math import gcd

import golden as G

ORACLE_TOLERANCE = 1e-9
INDEX_PLUS = "(2'⊗3')⊕(3⊗2)"
INDEX_MINUS = "(2⊗3)⊕(3'⊗2')"


class CheckError(AssertionError):
    """The program produced a wrong output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_nu_output(nu_input, exit_code: int, stdout: str) -> None:
    """spin-nu must exit 0 and give exactly 1/(2(Re p - Re q)) in dimension 4
    or -i/(2 Im u) in dimension 2 (conjugation must not change nu), with the
    numeric oracle within ORACLE_TOLERANCE of it."""
    require(exit_code == 0, f"spin-nu exited {exit_code}")
    payload = json.loads(stdout)
    nu = (G.from_json(payload["nu_json"]["re"]), G.from_json(payload["nu_json"]["im"]))
    expected = (nu_input.expected_re, nu_input.expected_im)
    require(nu == expected, f"nu is {payload['nu']}, expected {expected}")
    gap = abs(complex(payload["oracle"]) - nu_input.expected_float)
    require(gap <= ORACLE_TOLERANCE, f"oracle is {gap:.3e} from the exact nu")


def check_verify_output(exit_code: int, stdout: str) -> None:
    """verify must exit 0 and report at least one check, every one a pass."""
    require(exit_code == 0, f"verify exited {exit_code}")
    report = json.loads(stdout)
    require(isinstance(report, list) and report, "verify reported no checks")
    failed = [entry.get("check") for entry in report if entry.get("status") != "pass"]
    require(not failed, f"verify checks not passed: {failed}")


def ztau(value) -> tuple[int, int]:
    """A real algebraic integer a + b*tau of the program, read through its
    exact JSON form, as an integer pair."""
    payload = value.to_json()
    re = G.from_json(payload["re"]) if "re" in payload else G.from_json(payload)
    im = G.from_json(payload["im"]) if "re" in payload else G.ZERO
    require(im == G.ZERO, f"{value} is not real")
    require(re[0].denominator == 1 and re[1].denominator == 1,
             f"{value} is not an algebraic integer")
    return (int(re[0]), int(re[1]))


def integer(value) -> int:
    pair = ztau(value)
    require(pair[1] == 0, f"{value} is not an integer")
    return pair[0]


def check_character_table(table, sizes, identity: int, order: int) -> None:
    """Class sizes sum to the group order, the squared dimensions sum to it,
    and rows and columns are orthogonal, all in Z[tau] integer pairs. The
    characters are real, so no conjugation is needed."""
    count = len(table)
    require(len(sizes) == count and all(len(row) == count for row in table),
             "the character table is not square")
    require(sum(sizes) == order, f"class sizes sum to {sum(sizes)}, not {order}")
    dims = [row[identity] for row in table]
    require(all(d[1] == 0 for d in dims), "a dimension is not an integer")
    require(sum(d[0] * d[0] for d in dims) == order,
             f"squared dimensions sum to {sum(d[0] * d[0] for d in dims)}")
    for i in range(count):
        for j in range(i, count):
            total = (0, 0)
            for k in range(count):
                product = G.zmul(table[i][k], table[j][k])
                total = G.zadd(total, (sizes[k] * product[0], sizes[k] * product[1]))
            require(total == ((order if i == j else 0), 0),
                     f"rows {i} and {j} are not orthogonal")
    for k in range(count):
        for m in range(k, count):
            total = (0, 0)
            for row in table:
                total = G.zadd(total, G.zmul(row[k], row[m]))
            require(total == ((order // sizes[k] if k == m else 0), 0),
                     f"columns {k} and {m} are not orthogonal")


def check_index(multiplicities, labels, dims, plus: str, minus: str,
                harmonic_minimum: int, harmonic_step: int) -> None:
    """The index is rho+ - rho- with the paper's two 12-dimensional
    characters and dim H = 24 + 8k."""
    plus_at = [i for i, m in enumerate(multiplicities) if m == 1]
    minus_at = [i for i, m in enumerate(multiplicities) if m == -1]
    others = [m for m in multiplicities if m not in (-1, 0, 1)]
    require(len(plus_at) == 1 and len(minus_at) == 1 and not others,
             f"the index is not a difference of two irreducibles: {multiplicities}")
    require(labels[plus_at[0]] == plus == INDEX_PLUS,
             f"rho+ is {labels[plus_at[0]]} (reported {plus})")
    require(labels[minus_at[0]] == minus == INDEX_MINUS,
             f"rho- is {labels[minus_at[0]]} (reported {minus})")
    require(dims[plus_at[0]] == dims[minus_at[0]] == 12,
             "rho+ and rho- are not 12-dimensional")
    require((harmonic_minimum, harmonic_step) == (24, 8),
             f"dim H = {harmonic_minimum} + {harmonic_step}k, expected 24 + 8k")


def tensor_values(table, i: int, j: int):
    return [G.zmul(a, b) for a, b in zip(table[i], table[j])]


def check_adams_classes(orders, power_index, exponent: int) -> None:
    """g^k has order ord(g) / gcd(ord(g), k)."""
    for c, target in enumerate(power_index):
        want = orders[c] // gcd(orders[c], exponent)
        require(orders[target] == want,
                 f"class {c} to the power {exponent} has order {orders[target]}, "
                 f"expected {want}")


def check_decomposition(kind: str, table, identity: int, values, multiplicities) -> None:
    """Multiplicities are integers (already read by integer()), nonnegative
    for a tensor product, give the value at the identity as sum m_k dim_k,
    and rebuild the class function exactly."""
    count = len(table)
    require(len(multiplicities) == count, "wrong number of multiplicities")
    if kind == "tensor":
        require(all(m >= 0 for m in multiplicities),
                 f"negative multiplicity in a tensor product: {multiplicities}")
    degree = sum(m * table[k][identity][0] for k, m in enumerate(multiplicities))
    require((degree, 0) == values[identity],
             f"sum m_k dim_k = {degree}, class function at 1 is {values[identity]}")
    for c in range(count):
        total = (0, 0)
        for k, m in enumerate(multiplicities):
            if m:
                total = G.zadd(total, (m * table[k][c][0], m * table[k][c][1]))
        require(total == values[c], f"multiplicities do not rebuild class {c}")
