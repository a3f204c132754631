"""The benchmark's workloads, their expected answers, and the output checker.

Every expected answer is a literal below, or follows from literals by the
product rule: a direct product G x H has (classes of G) * (classes of H)
conjugacy classes and (z-classes of G) * (z-classes of H) z-classes.  Nothing
here imports or calls the program under test; `test_expected.py` cross-checks
the literals against independent counts.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass

WORKLOADS = ("exceptional", "classical", "formula", "large")

# (conjugacy classes, z-classes), from the paper's table
EXCEPTIONAL = {
    "H3": (10, 4),
    "F4": (25, 16),
    "H4": (34, 15),
    "E6": (25, 24),
    "E7": (60, 28),
    "E8": (112, 65),
}
REFLECTION_ORDER = {"H3": 120, "F4": 1152, "H4": 14400, "E6": 51840}

# A_r is S_{r+1}: p(r+1) classes; z-classes checked by exhaustion for r <= 7
TYPE_A = {
    1: (2, 1),
    2: (3, 3),
    3: (5, 5),
    4: (7, 6),
    5: (11, 10),
    6: (15, 14),
    7: (22, 20),
}

# B_n (= C_n): bipartition count and z-class count, pinned from the seed
TYPE_B = {
    1: (2, 1), 2: (5, 4), 3: (10, 5), 4: (20, 13), 5: (36, 17),
    6: (65, 37), 7: (110, 49), 8: (185, 94), 9: (300, 126), 10: (481, 222),
    11: (752, 298), 12: (1165, 495), 13: (1770, 663), 14: (2665, 1051),
    15: (3956, 1404), 16: (5822, 2145), 17: (8470, 2853), 18: (12230, 4233),
    19: (17490, 5602), 20: (24842, 8111), 21: (35002, 10680),
    22: (49010, 15148), 23: (68150, 19841), 24: (94235, 27655),
    25: (129512, 36032), 26: (177087, 49468), 27: (240840, 64122),
    28: (326015, 86876),
}  # fmt: skip

# D_n: conjugacy-class count and z-class count, pinned from the seed
TYPE_D = {
    2: (4, 1), 3: (5, 5), 4: (13, 10), 5: (18, 17), 6: (37, 20),
    7: (55, 49), 8: (100, 61), 9: (150, 126), 10: (251, 136),
    11: (376, 298), 12: (599, 329), 13: (885, 663), 14: (1355, 695),
    15: (1978, 1404), 16: (2944, 1484), 17: (4235, 2853), 18: (6160, 2960),
    19: (8745, 5602), 20: (12484, 5839), 21: (17501, 10680),
    22: (24589, 11056), 23: (34075, 19841), 24: (47233, 20613),
    25: (64756, 36032), 26: (88695, 37363), 27: (120420, 64122),
    28: (163210, 66692),
}  # fmt: skip


def dihedral(m: int) -> tuple[int, int]:
    """I2(m), of order 2m: (m + 3) / 2 or m / 2 + 3 classes; z-classes 4 iff 4 | m."""
    classes = (m + 3) // 2 if m % 2 else m // 2 + 3
    return classes, 4 if m % 4 == 0 else 3


def factor_counts(name: str) -> tuple[int, int]:
    """(classes, z-classes) of one irreducible factor written as the CLI prints it."""
    if name in EXCEPTIONAL:
        return EXCEPTIONAL[name]
    m = re.fullmatch(r"I2\((\d+)\)", name)
    if m:
        return dihedral(int(m.group(1)))
    family, rank = name[0], int(name[1:])
    table = {"A": TYPE_A, "B": TYPE_B, "C": TYPE_B, "D": TYPE_D}[family]
    return table[rank]


def product_counts(factors: list[str]) -> tuple[int, int]:
    counts = [factor_counts(f) for f in factors]
    return math.prod(c for c, _ in counts), math.prod(z for _, z in counts)


# verify --all-small sweeps these types, in this order
ALL_SMALL = (
    [f"B{n}" for n in range(1, 6)]
    + [f"D{n}" for n in range(2, 7)]
    + [f"I2({m})" for m in range(3, 17)]
    + [f"A{n}" for n in range(1, 6)]
)


@dataclass(frozen=True)
class Op:
    """One call of the program: CLI arguments (or a cache reload) and its answer.

    `expect` is (classes, z-classes) for a single type, a tuple of
    (type, classes, z-classes) rows for `verify --all-small`, or the group
    order for a reload.  "{cache}" in `argv` stands for the pass's cache dir.
    """

    kind: str  # "cli" or "reload"
    argv: tuple[str, ...]
    expect: object


def _cli(command: str, factors: list[str], *flags: str) -> Op:
    text = " x ".join(factors)
    return Op("cli", (command, text, *flags, "--format", "json"), product_counts(factors))


def build_phases(workload: str, rng: random.Random) -> list[list[Op]]:
    """Ops of one workload, in phases that run in turn; each pass reorders a phase.

    `rng` draws the formula workload's free factors.
    """
    if workload == "exceptional":
        # cold: closure plus cache write; then warm: the cache read path
        cold = [
            _cli("count", [t], "--method", "oracle", "--cache-dir", "{cache}")
            for t in REFLECTION_ORDER
        ]
        warm = [Op("reload", (t, "{cache}"), n) for t, n in REFLECTION_ORDER.items()]
        return [cold, warm]
    if workload == "classical":
        rows = tuple((t, *factor_counts(t)) for t in ALL_SMALL)
        return [[
            Op("cli", ("verify", "--all-small", "--format", "json"), rows),
            _cli("verify", ["B6"]),
            _cli("verify", ["A7"]),
            _cli("verify", ["B3", "I2(7)"]),
            _cli("verify", ["D4", "I2(8)"]),
            _cli("classes", ["D6"], "--method", "oracle"),
        ]]
    if workload == "formula":
        fixed = [_cli("count", [t]) for t in ("B20", "C22", "D23", "B24", "D24", "D26")]
        fixed += [_cli("classes", ["B12"]), _cli("classes", ["D12"])]
        drawn = [
            ["E8", "H4", f"I2({rng.randint(17, 400)})"],
            [f"B{rng.randint(2, 12)}", f"D{rng.randint(4, 12)}", f"I2({rng.randint(3, 400)})"],
            ["E6", "F4", "H3", f"I2({rng.randint(3, 400)})"],
            ["E7", f"C{rng.randint(2, 12)}", f"I2({rng.randint(100, 4000)})"],
        ]
        return [fixed + [_cli("count", f) for f in drawn]]
    if workload == "large":
        return [[_cli("verify", ["D7"], "--allow-large")]]
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Op, outcome: dict) -> str:
    """'ok', 'failed' (raised, non-zero exit, FAIL status) or 'wrong' (bad counts)."""
    if outcome.get("error") or outcome.get("exit") != 0:
        return "failed"
    try:
        record = json.loads(outcome["stdout"])
    except (KeyError, TypeError, ValueError):
        return "wrong"
    if op.kind == "reload":
        return "ok" if record.get("order") == op.expect else "wrong"
    command = op.argv[0]
    if command == "verify":
        rows = record.get("results", [record])
        if any(r.get("status") != "PASS" for r in rows):
            return "failed"
        got = [_verify_row(r) for r in rows]
        if "--all-small" in op.argv:
            return "ok" if got == [(t, c, z, c, z) for t, c, z in op.expect] else "wrong"
        c, z = op.expect
        return "ok" if got == [(op.argv[1].replace(" ", ""), c, z, c, z)] else "wrong"
    got = (record.get("conjugacy_class_count"), record.get("z_class_count"))
    if command == "classes":
        groups = record.get("z_classes", [])
        if (sum(len(g) for g in groups), len(groups)) != got:
            return "wrong"
    return "ok" if got == op.expect else "wrong"


def _verify_row(r: dict) -> tuple:
    return (
        r.get("group", "").replace(" ", ""),
        r.get("conjugacy_class_count_formula"),
        r.get("formula_count"),
        r.get("conjugacy_class_count_oracle"),
        r.get("oracle_count"),
    )
