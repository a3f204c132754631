"""Signed-permutation model: arithmetic, cycle types, centralizers, z-grouping.

Brute-force checks enumerate C2 wr S_n directly with itertools, independently
of the numpy oracle.  The z-groupings are also checked against a reference
that groups one `Partition`, `SignedPartition` or `SignedClassLabel` object
per class by its z-key.
"""

import math
import random
from itertools import permutations, product

import pytest

from zclass.closed_form import (
    conjugacy_count_bc,
    conjugacy_count_d,
    partition_count,
    z_count_a,
    z_count_bc,
    z_count_d,
)
from zclass.combinatorics import (
    Partition,
    SignedPartition,
    partitions_of,
    signed_partitions_of,
)
from zclass.signed_perm import (
    SignedClassLabel,
    SignedPermutation,
    centralizer_order_bc,
    class_representative,
    dn_conjugacy_classes,
    signed_cycle_type,
    z_classes_a,
    z_classes_bc,
    z_classes_dn,
)


def all_elements(n):
    return [
        SignedPermutation(signs, perm)
        for perm in permutations(range(n))
        for signs in product((1, -1), repeat=n)
    ]


def dn_coxeter_generators(n):
    """s_i swaps i and i+1; the last swaps n-2 and n-1 and negates both."""
    gens = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        gens.append(SignedPermutation((1,) * n, tuple(perm)))
    signs = (1,) * (n - 2) + (-1, -1)
    gens.append(SignedPermutation(signs, gens[n - 2].perm))
    return gens


def closure(gens, start, act=lambda g, y: g * y):
    """Everything reached from `start` by repeatedly applying act(g, .) over gens."""
    seen, frontier = {start}, [start]
    while frontier:
        fresh = {act(g, y) for y in frontier for g in gens} - seen
        seen |= fresh
        frontier = list(fresh)
    return seen


def random_element(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    return SignedPermutation(signs, tuple(perm))


class TestArithmetic:
    def test_transposition_squares_to_identity(self):
        a = SignedPermutation((1, 1), (1, 0))
        assert a * a == SignedPermutation.identity(2)

    def test_signed_transposition_squares_to_central_flip(self):
        a = SignedPermutation((1, -1), (1, 0))
        assert a * a == SignedPermutation((-1, -1), (0, 1))

    def test_inverse_law_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 8)
            a = random_element(rng, n)
            assert a * a.inverse() == SignedPermutation.identity(n)
            assert a.inverse() * a == SignedPermutation.identity(n)

    def test_associativity_random(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(1, 6)
            a, b, c = (random_element(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SignedPermutation.identity(2) * SignedPermutation.identity(3)

    def test_membership_in_d_n(self):
        assert SignedPermutation((1, -1, -1), (0, 1, 2)).in_d_n()
        assert not SignedPermutation((1, -1, 1), (0, 1, 2)).in_d_n()


class TestSignedCycleType:
    def test_worked_example(self):
        # [1,-1,-1,1,1,-1; (145)(26)] in 1-based notation
        a = SignedPermutation((1, -1, -1, 1, 1, -1), (3, 5, 2, 4, 0, 1))
        assert str(signed_cycle_type(a)) == "3 2 1b"

    def test_identity_all_plus(self):
        assert str(signed_cycle_type(SignedPermutation.identity(3))) == "1~3"

    def test_full_negative_cycle_parity(self):
        for n in range(2, 9):
            perm = tuple((i + 1) % n for i in range(n))
            a = SignedPermutation((-1,) * n, perm)
            expected = f"{n}" if n % 2 == 0 else f"{n}b"
            assert str(signed_cycle_type(a)) == expected

    def test_conjugation_invariance(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(1, 6)
            a, g = random_element(rng, n), random_element(rng, n)
            conj = g * a * g.inverse()
            assert signed_cycle_type(conj) == signed_cycle_type(a)

    def test_class_count_by_exhaustion(self):
        for n in range(1, 6):
            types = {signed_cycle_type(a) for a in all_elements(n)}
            assert len(types) == len(signed_partitions_of(n)) == conjugacy_count_bc(n)


class TestClassRepresentative:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for sp in signed_partitions_of(n):
            rep = class_representative(sp)
            assert signed_cycle_type(rep) == sp

    def test_negative_even_part_pattern(self):
        rep = class_representative(SignedPartition(((2, 0, 1),)))
        assert rep.signs == (-1, 1)
        assert rep.perm == (1, 0)

    def test_negative_odd_part_all_minus(self):
        rep = class_representative(SignedPartition(((3, 0, 1),)))
        assert rep.signs == (-1, -1, -1)
        assert rep.perm == (1, 2, 0)

    def test_positive_cycles_before_negative(self):
        rep = class_representative(SignedPartition(((1, 1, 1),)))
        assert rep.signs == (1, -1)
        assert rep.perm == (0, 1)


class TestCentralizerOrder:
    # centralizer sizes of C2 wr S2: 8, 4, 8, 4, 4 in enumeration order
    def test_rank_two_table(self):
        got = [centralizer_order_bc(sp) for sp in signed_partitions_of(2)]
        assert got == [8, 4, 8, 4, 4]

    # C2 wr S3 table: 48, 16, 16, 48, 8, 8, 8, 8, 6, 6
    def test_rank_three_table(self):
        got = [centralizer_order_bc(sp) for sp in signed_partitions_of(3)]
        assert got == [48, 16, 16, 48, 8, 8, 8, 8, 6, 6]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_size_times_centralizer_is_group_order(self, n):
        elements = all_elements(n)
        group_order = (2**n) * math.factorial(n)
        assert len(elements) == group_order
        for sp in signed_partitions_of(n):
            rep = class_representative(sp)
            orbit = {g * rep * g.inverse() for g in elements}
            assert centralizer_order_bc(sp) * len(orbit) == group_order

    def test_exhaustive_centralizer_for_rank_three(self):
        elements = all_elements(3)
        for sp in signed_partitions_of(3):
            rep = class_representative(sp)
            count = sum(1 for g in elements if g * rep == rep * g)
            assert count == centralizer_order_bc(sp)


def _bc_z_key(sp):
    # odd parts: the multiplicity pair is unordered; even parts: exact match
    key = []
    for p, s, t in sp.entries:
        if p % 2 == 1:
            key.append((p, max(s, t), min(s, t)))
        else:
            key.append((p, s, t))
    return tuple(key)


def _split_pair_merges(sp):
    # the two halves of a split class are z-conjugate iff some part = 2 mod 4
    # occurs with odd multiplicity
    return any(p % 4 == 2 and s % 2 == 1 for p, s, _ in sp.entries)


def _absorbs_split_pair(sp):
    """For a split class of type 2^1 m_2^{x_2}...: the non-split type
    1^2 m_2^{x_2}... whose z-group absorbs both halves, else None."""
    if not any(p == 2 and s == 1 for p, s, _ in sp.entries):
        return None
    rest = tuple((p, s, t) for p, s, t in sp.entries if p != 2)
    return SignedPartition(rest + ((1, 2, 0),))


def reference_z_classes_a(n):
    groups = {}
    for lam in reversed(partitions_of(n)):
        key = lam
        if lam.multiplicity(1) == 2 and lam.multiplicity(2) == 0:
            key = Partition(lam.entries[:-1] + ((2, 1),))
        groups.setdefault(key, []).append(lam)
    return list(groups.values())


def reference_z_classes_bc(n):
    groups = {}
    for sp in signed_partitions_of(n):
        groups.setdefault(_bc_z_key(sp), []).append(sp)
    return list(groups.values())


def reference_z_classes_dn(n):
    groups = {}
    for label in dn_conjugacy_classes(n):
        sp = label.signed_partition
        if label.split_half is None:
            key = _bc_z_key(sp)
        elif (target := _absorbs_split_pair(sp)) is not None:
            key = _bc_z_key(target)
        elif _split_pair_merges(sp):
            key = sp
        else:
            key = label
        groups.setdefault(key, []).append(label)
    return list(groups.values())


def labels(groups):
    return [[str(member) for member in g] for g in groups]


class TestGroupingsMatchReference:
    """Same groups, same members, same order as the object-based reference."""

    @pytest.mark.parametrize("n", range(2, 32))
    def test_a(self, n):
        assert z_classes_a(n) == labels(reference_z_classes_a(n))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bc(self, n):
        assert z_classes_bc(n) == labels(reference_z_classes_bc(n))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_dn(self, n):
        assert z_classes_dn(n) == labels(reference_z_classes_dn(n))

    @pytest.mark.parametrize("listing", [z_classes_a, z_classes_bc])
    def test_rank_zero_is_refused(self, listing):
        with pytest.raises(ValueError):
            listing(0)

    def test_dn_needs_rank_two(self):
        with pytest.raises(ValueError):
            z_classes_dn(1)


class TestZClassesA:
    def test_rank_six(self):
        assert z_classes_a(6) == [
            ["1~6"], ["2 1~4"], ["2~2 1~2"], ["2~3"], ["3 1~3"], ["3 2 1"],
            ["3~2"], ["4 1~2", "4 2"], ["5 1"], ["6"],
        ]  # fmt: skip

    @pytest.mark.parametrize("n", range(1, 31))
    def test_group_count_matches_formula(self, n):
        groups = z_classes_a(n)
        assert len(groups) == z_count_a(n)
        assert sum(len(g) for g in groups) == partition_count(n)
        members = sorted(lam for g in groups for lam in g)
        assert members == sorted(str(lam) for lam in partitions_of(n))


class TestZClassesBC:
    def test_rank_one(self):
        assert z_classes_bc(1) == [["1", "1b"]]

    def test_rank_two(self):
        assert z_classes_bc(2) == [["1~2", "1b~2"], ["1 1b"], ["2"], ["2b"]]

    def test_rank_three_structure(self):
        groups = [set(g) for g in z_classes_bc(3)]
        assert {"3", "3b"} in groups
        assert {"2 1", "2 1b"} in groups
        assert {"2b 1", "2b 1b"} in groups
        assert len(groups) == 5

    @pytest.mark.parametrize("n", range(1, 13))
    def test_group_count_matches_formula(self, n):
        groups = z_classes_bc(n)
        assert len(groups) == z_count_bc(n)
        assert sum(len(g) for g in groups) == conjugacy_count_bc(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_groups_partition_all_classes(self, n):
        members = [sp for g in z_classes_bc(n) for sp in g]
        assert sorted(members) == sorted(map(str, signed_partitions_of(n)))


class TestDnClasses:
    def test_rank_two_labels(self):
        got = [str(lbl) for lbl in dn_conjugacy_classes(2)]
        assert got == ["1~2", "1b~2", "2+", "2-"]

    def test_rank_three_labels(self):
        got = [str(lbl) for lbl in dn_conjugacy_classes(3)]
        assert got == ["1~3", "1 1b~2", "2 1", "2b 1b", "3"]

    def test_split_pair_for_rank_four(self):
        labels = [str(lbl) for lbl in dn_conjugacy_classes(4)]
        assert "4+" in labels and "4-" in labels
        assert "2~2+" in labels and "2~2-" in labels

    @pytest.mark.parametrize("n", range(2, 7))
    def test_count_matches_exhaustive_conjugacy(self, n):
        elements = [a for a in all_elements(n) if a.in_d_n()]
        gens = dn_coxeter_generators(n)
        # the generators close to exactly D_n, so their conjugates grow whole classes
        assert closure(gens, SignedPermutation.identity(n)) == set(elements)
        seen = set()
        count = 0
        for a in elements:
            if a in seen:
                continue
            seen |= closure(gens, a, lambda g, y: g * y * g.inverse())
            count += 1
        assert count == len(dn_conjugacy_classes(n)) == conjugacy_count_d(n)

    def test_split_half_requires_all_even_positive(self):
        with pytest.raises(ValueError):
            SignedClassLabel(SignedPartition(((2, 0, 1),)), "+")
        with pytest.raises(ValueError):
            SignedClassLabel(SignedPartition(((2, 1, 0),)), "?")


class TestZClassesDn:
    def test_rank_four_grouping(self):
        groups = [set(g) for g in z_classes_dn(4)]
        assert len(groups) == 10
        assert {"4+"} in groups and {"4-"} in groups
        assert {"2~2+"} in groups and {"2~2-"} in groups
        assert {"1~4", "1b~4"} in groups

    def test_rank_six_split_six_merges(self):
        groups = [set(g) for g in z_classes_dn(6)]
        assert {"6+", "6-"} in groups
        assert {"2~3+", "2~3-"} in groups

    def test_rank_six_split_absorbed_into_nonsplit(self):
        groups = [set(g) for g in z_classes_dn(6)]
        assert {"4 1~2", "4 1b~2", "4 2+", "4 2-"} in groups

    def test_rank_two_single_class(self):
        groups = [set(g) for g in z_classes_dn(2)]
        assert groups == [{"1~2", "1b~2", "2+", "2-"}]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_group_count_matches_formula(self, n):
        groups = z_classes_dn(n)
        assert len(groups) == z_count_d(n)
        assert sum(len(g) for g in groups) == conjugacy_count_d(n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_groups_partition_all_classes(self, n):
        members = [lbl for g in z_classes_dn(n) for lbl in g]
        assert sorted(members) == sorted(map(str, dn_conjugacy_classes(n)))
