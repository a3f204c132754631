"""Partition machinery against independent brute-force enumerations."""

import math
import random
from itertools import product

import pytest

from zclass.closed_form import (
    conjugacy_count_bc,
    partition_count,
    z_count_bc,
    z_count_d,
)
from zclass.combinatorics import (
    Partition,
    SignedPartition,
    delta_prime_set,
    delta_set,
    eta_series,
    even_sum_tuple_count,
    partition_runs,
    partitions_of,
    signed_partitions_of,
    zeta,
)


def naive_partitions(n):
    """Independent enumeration: ascending-parts recursion, order-free."""
    out = set()

    def rec(remaining, minimum, acc):
        if remaining == 0:
            out.add(tuple(sorted(acc, reverse=True)))
            return
        for p in range(minimum, remaining + 1):
            rec(remaining - p, p, acc + [p])

    rec(n, 1, [])
    return out


def product_series(factors, n):
    """Coefficients of q^0..q^n in the product of 1/(1 - q^step)^power, one
    factor at a time: the reference the eta quotients are checked against.

    `factors` yields (step, power) pairs with step >= 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1] + [0] * n
    for step, power in factors:
        for _ in range(power):
            for k in range(step, n + 1):
                coeffs[k] += coeffs[k - step]
    return coeffs


def part_series(n, odd, even):
    """q^0..q^n of a product with one set of factors per part size p <= n.

    `odd` and `even` list (scale, power) pairs: part size p contributes
    1/(1 - q^(scale*p))^power for each pair of its parity.
    """
    factors = (
        (p * scale, power)
        for p in range(1, n + 1)
        for scale, power in (odd if p % 2 else even)
    )
    return product_series(factors, n)


def z_count_d_by_products(n):
    """z_count_d(2..n) from the paper's per-part factors, term by term."""
    all_z = part_series(n, ((1, 1), (2, 1)), ((1, 2),))
    prime_z = part_series(n, ((2, 2),), ((1, 2),))
    prime_odd_z = part_series(n, ((4, 1),), ((2, 1),))
    prime_half = part_series(n // 2, ((2, 1),), ((1, 1),))
    zetas = product_series(((p, 1) for p in range(4, n + 1, 2)), n)

    def count(k):
        if k % 2:
            return all_z[k]
        prime_ceil = (prime_z[k] + prime_odd_z[k]) // 2
        return all_z[k] - prime_z[k] + prime_ceil - zetas[k - 2] + prime_half[k // 2]

    return [count(k) for k in range(2, n + 1)]


def eta_form(powers, odd, even):
    """An eta quotient and the product of its per-part factors, q^0..q^300."""
    return lambda: (eta_series(300, powers), part_series(300, odd, even))


# each series of the closed forms, up to q^300 (p(n) and zeta up to q^400),
# against the product form
SERIES_FORMS = {
    "partition_count": lambda: (
        [partition_count(n) for n in range(401)],
        product_series(((k, 1) for k in range(1, 401)), 400),
    ),
    "zeta": lambda: (
        [zeta(n) for n in range(401)],
        product_series(((p, 1) for p in range(4, 401, 2)), 400),
    ),
    "conjugacy_count_bc": lambda: (
        [conjugacy_count_bc(n) for n in range(301)],
        part_series(300, ((1, 2),), ((1, 2),)),
    ),
    "z_count_bc": lambda: (
        [z_count_bc(n) for n in range(1, 301)],
        part_series(300, ((1, 1), (2, 1)), ((1, 2),))[1:],
    ),
    "z_count_d z-sum": eta_form(((4, 2), (2, -4)), ((2, 2),), ((1, 2),)),
    "z_count_d odd-z count": eta_form(((8, 1), (4, -2)), ((4, 1),), ((2, 1),)),
    "z_count_d half": eta_form(((4, 1), (2, -2)), ((2, 1),), ((1, 1),)),
    "z_count_d": lambda: (
        [z_count_d(n) for n in range(2, 301)],
        z_count_d_by_products(300),
    ),
}


class TestPartition:
    def test_empty_partition_for_zero(self):
        assert partitions_of(0) == [Partition(())]
        assert partitions_of(0)[0].n == 0

    def test_two(self):
        assert [p.parts() for p in partitions_of(2)] == [(2,), (1, 1)]

    def test_count_of_five_matches_brute_force(self):
        assert len(naive_partitions(5)) == 7
        assert len(partitions_of(5)) == 7

    @pytest.mark.parametrize("n", range(0, 16))
    def test_matches_naive_enumeration(self, n):
        assert {p.parts() for p in partitions_of(n)} == naive_partitions(n)
        assert len({p.parts() for p in partitions_of(n)}) == len(partitions_of(n))

    def test_reverse_lexicographic_order(self):
        for n in range(2, 12):
            seqs = [p.parts() for p in partitions_of(n)]
            assert seqs == sorted(seqs, reverse=True)

    def test_runs_of_four(self):
        assert partition_runs(4) == [
            ((4, 1),), ((3, 1), (1, 1)), ((2, 2),), ((2, 1), (1, 2)), ((1, 4),),
        ]  # fmt: skip
        assert partition_runs(0) == [()]

    @pytest.mark.parametrize("n", range(0, 16))
    def test_runs_are_the_partitions_entries(self, n):
        assert partition_runs(n) == [
            Partition.from_parts(seq).entries
            for seq in sorted(naive_partitions(n), reverse=True)
        ]

    def test_sum_invariant(self):
        for p in partitions_of(9):
            assert p.n == 9
            assert sum(p.parts()) == 9

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Partition(((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            Partition(((1, 2), (2, 1)))
        with pytest.raises(ValueError):
            Partition(((3, 0),))

    def test_notation(self):
        assert str(Partition.from_parts([3, 1, 1])) == "3 1~2"
        assert str(Partition(())) == "(empty)"


class TestSignedPartition:
    def test_five_signed_partitions_of_two(self):
        got = [str(sp) for sp in signed_partitions_of(2)]
        assert got == ["1~2", "1 1b", "1b~2", "2", "2b"]

    def test_one(self):
        assert [str(sp) for sp in signed_partitions_of(1)] == ["1", "1b"]

    def test_three_has_ten(self):
        assert len(signed_partitions_of(3)) == 10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sign_distribution_count(self, n):
        # each underlying partition carries prod (multiplicity + 1) signings
        by_partition = {}
        for sp in signed_partitions_of(n):
            by_partition.setdefault(sp.underlying_partition, []).append(sp)
        assert set(by_partition) == set(partitions_of(n))
        for lam, sps in by_partition.items():
            expected = math.prod(m + 1 for _, m in lam.entries)
            assert len(sps) == expected
            assert len(set(sps)) == expected

    def test_round_trip_and_sum(self):
        for sp in signed_partitions_of(7):
            assert sp.n == 7
            assert sp.underlying_partition.n == 7

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SignedPartition(((2, 0, 0),))
        with pytest.raises(ValueError):
            SignedPartition(((1, 1, 0), (2, 1, 0)))


class TestRestrictedCounts:
    def test_product_series_small_products(self):
        assert product_series([(1, 1)], 4) == [1, 1, 1, 1, 1]
        assert product_series([(1, 2)], 3) == [1, 2, 3, 4]
        assert product_series([(2, 1), (3, 1), (9, 1)], 6) == [1, 0, 1, 1, 1, 1, 2]
        assert product_series([], 0) == [1]
        with pytest.raises(ValueError):
            product_series([(1, 1)], -1)

    def test_eta_series_small_quotients(self):
        assert eta_series(0, ((1, -1),)) == [1]
        assert eta_series(7, ((1, -1),)) == [1, 1, 2, 3, 5, 7, 11, 15]
        assert [len(partitions_of(n)) for n in range(13)] == eta_series(12, ((1, -1),))
        assert eta_series(7, ((1, 1),)) == [1, -1, -1, 0, 0, 1, 0, 1]
        assert eta_series(6, ((2, 1),)) == [1, 0, -1, 0, -1, 0, 0]
        assert eta_series(5, ((1, 1), (1, -1))) == [1, 0, 0, 0, 0, 0]
        assert eta_series(3, ()) == [1, 0, 0, 0]

    def test_eta_series_rejects_negative_n(self):
        with pytest.raises(ValueError):
            eta_series(-1, ((1, -1),))

    @pytest.mark.parametrize("form", SERIES_FORMS)
    def test_series_equals_the_product_form(self, form):
        got, expected = SERIES_FORMS[form]()
        assert got == expected

    def test_zeta_paper_value(self):
        assert zeta(8) == 2  # 4+4 and 8

    def test_zeta_small(self):
        assert zeta(2) == 0
        assert zeta(0) == 1

    def test_zeta_twelve(self):
        # brute force: all-even parts >= 4
        expected = sum(
            1
            for parts in naive_partitions(12)
            if all(p % 2 == 0 and p >= 4 for p in parts)
        )
        assert expected == 4  # 12, 8+4, 6+6, 4+4+4
        assert zeta(12) == expected

    @pytest.mark.parametrize("n", range(0, 41))
    def test_zeta_matches_brute_force(self, n):
        expected = sum(
            1
            for p in partitions_of(n)
            if all(part % 2 == 0 and part >= 4 for part, _ in p.entries)
        )
        assert zeta(n) == expected

    def test_zeta_odd_is_zero(self):
        assert all(zeta(n) == 0 for n in range(1, 40, 2))

    def test_delta_spot_values(self):
        assert delta_set(2) == []
        assert [p.parts() for p in delta_set(4)] == [(3, 1)]
        assert len(delta_set(5)) == 7

    def test_delta_prime_spot_values(self):
        assert len(delta_prime_set(2)) == 2
        got = {p.parts() for p in delta_prime_set(4)}
        assert got == {(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
        assert delta_prime_set(3) == []

    @pytest.mark.parametrize("n", range(1, 31))
    def test_delta_complement(self, n):
        assert len(delta_set(n)) + len(delta_prime_set(n)) == len(partitions_of(n))

    @pytest.mark.parametrize("n", range(1, 31, 2))
    def test_odd_n_degenerate(self, n):
        assert delta_prime_set(n) == []
        assert delta_set(n) == partitions_of(n)


class TestEvenSumTupleCount:
    def test_single_even(self):
        assert even_sum_tuple_count([2]) == 1

    def test_single_odd(self):
        assert even_sum_tuple_count([3]) == 2

    def test_pair(self):
        brute = sum(
            1 for t in product(range(3), range(3)) if sum(t) % 2 == 0
        )
        assert brute == 5
        assert even_sum_tuple_count([3, 3]) == 5

    def test_matches_brute_force_randomized(self):
        rng = random.Random(20240809)
        for _ in range(200):
            d = []
            while math.prod(d) * 4 <= 100_000 and rng.random() < 0.8:
                d.append(rng.randint(1, 9))
            if not d:
                d = [rng.randint(1, 9)]
            brute = sum(
                1 for t in product(*[range(x) for x in d]) if sum(t) % 2 == 0
            )
            assert even_sum_tuple_count(d) == brute

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            even_sum_tuple_count([])
        with pytest.raises(ValueError):
            even_sum_tuple_count([2, 0])
