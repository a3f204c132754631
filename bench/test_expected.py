"""Tests of the benchmark's own answer table and checker.

    python3 -m pytest bench/test_expected.py

The literals in expected.py are cross-checked against counts computed here
without the program under test: bipartition counts from sympy, a
generating-function z-count for B_n, and brute force on small permutation
groups.  Faults are injected into the checker's input only.
"""

from __future__ import annotations

import json
import random

import pytest
from sympy import partition as npartitions

import expected
from run import tally


def bipartitions(n: int) -> int:
    return sum(npartitions(k) * npartitions(n - k) for k in range(n + 1))


def z_count_b_series(n: int) -> int:
    """[x^n] of prod over odd p of 1/((1-x^p)(1-x^2p)), over even p of 1/(1-x^p)^2.

    An odd part of multiplicity m contributes floor(m/2)+1 z-classes and an
    even part m+1, which are the coefficients of those two series.
    """
    coeffs = [1] + [0] * n
    for p in range(1, n + 1):
        steps = (p, 2 * p) if p % 2 else (p, p)
        for step in steps:
            for i in range(step, n + 1):
                coeffs[i] += coeffs[i - step]
    return coeffs[n]


def brute_force_counts(gens: list[tuple[int, ...]]) -> tuple[int, int]:
    """(conjugacy classes, z-classes) of a small permutation group, by exhaustion."""

    def mul(a, b):  # a after b
        return tuple(a[i] for i in b)

    def inv(a):
        out = [0] * len(a)
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    identity = tuple(range(len(gens[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        fresh = {mul(f, g) for f in frontier for g in gens} - elements
        elements |= fresh
        frontier = list(fresh)
    elements = sorted(elements)
    inverse = {e: inv(e) for e in elements}

    def conj(w, x):
        return mul(mul(w, x), inverse[w])

    classes, seen = [], set()
    for x in elements:
        if x not in seen:
            orbit = {conj(w, x) for w in elements}
            seen |= orbit
            classes.append(x)
    cents = [frozenset(h for h in elements if mul(h, x) == mul(x, h)) for x in classes]
    reps: list[frozenset] = []
    for c in cents:
        if not any(
            len(r) == len(c) and any(frozenset(conj(w, h) for h in r) == c for w in elements)
            for r in reps
        ):
            reps.append(c)
    return len(classes), len(reps)


def symmetric_gens(n: int) -> list[tuple[int, ...]]:
    gens = []
    for i in range(max(n - 1, 1)):
        g = list(range(n))
        if n > 1:
            g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))
    return gens


def signed_gens(n: int, type_d: bool) -> list[tuple[int, ...]]:
    """B_n or D_n on 2n points: i is +e_i, n + i is -e_i."""
    gens = []
    for i in range(n - 1):
        g = list(range(2 * n))
        g[i], g[i + 1], g[n + i], g[n + i + 1] = i + 1, i, n + i + 1, n + i
        gens.append(tuple(g))
    g = list(range(2 * n))
    if type_d:  # e_{n-1} <-> -e_n
        a, b = n - 2, n - 1
        g[a], g[b], g[n + a], g[n + b] = n + b, n + a, b, a
    else:  # e_n -> -e_n
        g[n - 1], g[2 * n - 1] = 2 * n - 1, n - 1
    gens.append(tuple(g))
    return gens


def dihedral_gens(m: int) -> list[tuple[int, ...]]:
    return [tuple((i + 1) % m for i in range(m)), tuple((m - i) % m for i in range(m))]


# --- the literal table ---------------------------------------------------------


@pytest.mark.parametrize("n", sorted(expected.TYPE_B))
def test_b_literals_match_bipartitions_and_series(n):
    assert expected.TYPE_B[n] == (bipartitions(n), z_count_b_series(n))


@pytest.mark.parametrize("n", sorted(expected.TYPE_D))
def test_d_class_counts_match_bipartition_formula(n):
    bp = bipartitions(n)
    classes = (bp + 3 * npartitions(n // 2)) // 2 if n % 2 == 0 else bp // 2
    assert expected.TYPE_D[n][0] == classes
    if n % 2:  # for odd n, D_n has as many z-classes as B_n
        assert expected.TYPE_D[n][1] == expected.TYPE_B[n][1]


@pytest.mark.parametrize("r", sorted(expected.TYPE_A))
def test_a_class_counts_are_partition_numbers(r):
    assert expected.TYPE_A[r][0] == npartitions(r + 1)


@pytest.mark.parametrize(
    "name, gens",
    [(f"A{r}", symmetric_gens(r + 1)) for r in range(1, 5)]
    + [(f"B{n}", signed_gens(n, False)) for n in range(1, 4)]
    + [(f"D{n}", signed_gens(n, True)) for n in range(2, 5)]
    + [(f"I2({m})", dihedral_gens(m)) for m in range(3, 13)],
)
def test_small_literals_match_brute_force(name, gens):
    assert expected.factor_counts(name) == brute_force_counts(gens)


def test_product_rule():
    assert expected.product_counts(["B3", "I2(7)"]) == (10 * 5, 5 * 3)
    assert expected.product_counts(["E8", "H4", "I2(12)"]) == (112 * 34 * 9, 65 * 15 * 4)


def test_phases_depend_only_on_the_seed():
    def argv(seed):
        return [op.argv for op in expected.build_phases("formula", random.Random(seed))[0]]

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


# --- the checker ---------------------------------------------------------------


def passing_outcome(op: expected.Op) -> dict:
    """The output a correct program gives for `op`, built from its expectation."""
    if op.kind == "reload":
        record = {"order": op.expect}
    elif op.argv[0] == "verify":
        rows = op.expect if "--all-small" in op.argv else [(op.argv[1], *op.expect)]
        results = [
            {
                "group": t,
                "conjugacy_class_count_formula": c,
                "conjugacy_class_count_oracle": c,
                "formula_count": z,
                "oracle_count": z,
                "status": "PASS",
            }
            for t, c, z in rows
        ]
        record = {"results": results} if "--all-small" in op.argv else results[0]
    else:
        c, z = op.expect
        record = {"conjugacy_class_count": c, "z_class_count": z}
        if op.argv[0] == "classes":
            record["z_classes"] = [["x"] * (c - z + 1)] + [["y"]] * (z - 1)
    return {"exit": 0, "error": None, "stdout": json.dumps(record), "stderr": ""}


ALL_OPS = [
    op
    for workload in expected.WORKLOADS
    for phase in expected.build_phases(workload, random.Random(0))
    for op in phase
]


def op_id(op):
    return " ".join(op.argv[:2])


@pytest.mark.parametrize("op", ALL_OPS, ids=op_id)
def test_checker_accepts_correct_output(op):
    assert expected.check(op, passing_outcome(op)) == "ok"


def _with_wrong_count(op, outcome):
    record = json.loads(outcome["stdout"])
    if op.kind == "reload":
        record["order"] += 1
    elif op.argv[0] == "verify":
        row = record["results"][-1] if "results" in record else record
        row["formula_count"] += 1
        row["oracle_count"] += 1
    else:
        record["z_class_count"] += 1
    return {**outcome, "stdout": json.dumps(record)}


@pytest.mark.parametrize("op", ALL_OPS, ids=op_id)
def test_checker_counts_wrong_answers_and_failures(op):
    good = passing_outcome(op)
    bad = [
        (_with_wrong_count(op, good), "wrong"),
        ({**good, "stdout": "not json"}, "wrong"),
        ({**good, "exit": 1}, "failed"),
        ({**good, "exit": None, "error": "Traceback ..."}, "failed"),
    ]
    outcomes = [good] + [o for o, _ in bad]
    failed, wrong, problems = tally([op] * len(outcomes), outcomes)
    assert (failed, wrong, len(problems)) == (2, 2, 4)
    for outcome, verdict in bad:
        assert expected.check(op, outcome) == verdict


def test_checker_counts_fail_status_as_failed():
    op = expected.build_phases("large", random.Random(0))[0][0]
    record = json.loads(passing_outcome(op)["stdout"])
    record["status"] = "FAIL"
    outcome = {"exit": 0, "error": None, "stdout": json.dumps(record), "stderr": ""}
    assert expected.check(op, outcome) == "failed"
