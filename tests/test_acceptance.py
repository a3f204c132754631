"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product as iproduct

import pytest
from conftest import build

from zclass import oracle
from zclass.closed_form import (
    z_count_bc,
    z_count_d,
    z_count_dihedral,
)
from zclass.combinatorics import (
    delta_prime_set,
    delta_set,
    even_sum_tuple_count,
    signed_partitions_of,
    zeta,
)
from zclass.groups import direct_product
from zclass.reflection import build_reflection_group
from zclass.signed_perm import centralizer_order_bc
from zclass.verify import oracle_grouping_labels


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_formula_oracle_agreement_sweep():
    started = time.perf_counter()
    with criterion(1, "formula equals oracle for B1-B5, D2-D6, I2(3)-I2(16)"):
        for n in range(1, 6):
            table = build(f"B{n}")
            assert len(oracle.z_classes(table)) == z_count_bc(n), f"B{n}"
        for n in range(2, 7):
            table = build(f"D{n}")
            assert len(oracle.z_classes(table)) == z_count_d(n), f"D{n}"
        for m in range(3, 17):
            table = build(f"I2({m})")
            assert len(oracle.z_classes(table)) == z_count_dihedral(m), f"I2({m})"
        elapsed = time.perf_counter() - started
        assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 120s"


def test_criterion_2_rank_two_and_three_class_tables():
    with criterion(2, "C2wrS2 / C2wrS3 class counts and centralizer sizes"):
        for n, expected_sizes in (
            (2, [8, 4, 8, 4, 4]),
            (3, [48, 16, 16, 48, 8, 8, 8, 8, 6, 6]),
        ):
            labels = [str(sp) for sp in signed_partitions_of(n)]
            by_formula = {
                str(sp): centralizer_order_bc(sp) for sp in signed_partitions_of(n)
            }
            assert [by_formula[lbl] for lbl in labels] == expected_sizes
            table = build(f"B{n}")
            classes = oracle.conjugacy_classes(table)
            assert len(classes) == len(expected_sizes)
            by_oracle = {
                table.label(c.rep): oracle.centralizer(table, c.rep).order
                for c in classes
            }
            assert by_oracle == by_formula


def test_criterion_3_restricted_partition_spot_values():
    with criterion(3, "zeta/delta/delta' spot values"):
        assert zeta(8) == 2
        assert len(delta_set(2)) == 0
        assert len(delta_set(4)) == 1
        assert len(delta_prime_set(2)) == 2
        assert len(delta_prime_set(4)) == 4
        for n in range(1, 16, 2):
            assert len(delta_prime_set(n)) == 0


def test_criterion_4_even_sum_tuple_count_property():
    with criterion(4, "even-sum tuple count equals brute force on 200 random inputs"):
        rng = random.Random(424242)
        checked = 0
        while checked < 200:
            d = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
            if math.prod(d) > 100_000:
                continue
            brute = sum(
                1 for t in iproduct(*[range(x) for x in d]) if sum(t) % 2 == 0
            )
            assert even_sum_tuple_count(d) == brute, d
            checked += 1


@pytest.mark.parametrize(
    "name,classes,z,budget",
    [
        ("H3", 10, 4, 1.0),
        ("F4", 25, 16, 30.0),
        ("H4", 34, 15, 120.0),
        ("E6", 25, 24, 600.0),
    ],
)
def test_criterion_5_exceptional_table_reproduction(name, classes, z, budget):
    with criterion(5, f"{name} -> ({classes} classes, {z} z-classes) within {budget}s"):
        started = time.perf_counter()
        table = build_reflection_group(name)
        groups = oracle.z_classes(table)
        elapsed = time.perf_counter() - started
        assert sum(len(g) for g in groups) == classes
        assert len(groups) == z
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_5_e7_reproduction():
    with criterion(5, "E7 -> (60 classes, 28 z-classes) within 120s"):
        started = time.perf_counter()
        table = build_reflection_group("E7")
        groups = oracle.z_classes(table)
        elapsed = time.perf_counter() - started
        assert sum(len(g) for g in groups) == 60
        assert len(groups) == 28
        assert elapsed < 120, f"E7 took {elapsed:.1f}s, budget 120s"


def test_criterion_6_dn_split_class_merging():
    with criterion(6, "split-pair separation/merging and absorption in D4/D6"):
        d4_groups = {frozenset(g) for g in oracle_grouping_labels(build("D4"))}
        # in D4 no part = 2 mod 4 has odd multiplicity: both split pairs stay apart
        assert {"4+"} in d4_groups and {"4-"} in d4_groups
        assert {"2~2+"} in d4_groups and {"2~2-"} in d4_groups
        # no absorption shape exists at rank 4: the 1^2 2 group stays by itself
        assert {"2 1~2", "2 1b~2"} in d4_groups

        d6_groups = {frozenset(g) for g in oracle_grouping_labels(build("D6"))}
        # part 6 = 2 mod 4 with multiplicity one: the halves merge
        assert {"6+", "6-"} in d6_groups
        assert {"2~3+", "2~3-"} in d6_groups
        # split 2^1 4^1 joins 1^2 4 and 1b^2 4 in one z-class
        assert {"4 1~2", "4 1b~2", "4 2+", "4 2-"} in d6_groups


def test_criterion_7_direct_product_rule():
    with criterion(7, "z-count multiplies over direct products (10 random pairs)"):
        rng = random.Random(77)
        pool = ["I2(3)", "I2(4)", "I2(5)", "I2(6)", "A2", "A3", "B2", "D3"]
        checked = 0
        while checked < 10:
            g1 = build(rng.choice(pool))
            g2 = build(rng.choice(pool))
            if g1.order * g2.order > 2000:
                continue
            prod = direct_product(g1, g2)
            assert len(oracle.z_classes(prod)) == len(oracle.z_classes(g1)) * len(
                oracle.z_classes(g2)
            )
            checked += 1


def test_criterion_8_deterministic_verify_sweep():
    with criterion(8, "verify --all-small --format json is byte-identical twice"):
        cmd = [
            sys.executable,
            "-m",
            "zclass.cli",
            "verify",
            "--all-small",
            "--format",
            "json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        record = json.loads(first.stdout)
        assert record["all_match"] is True
