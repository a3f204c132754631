"""Type parsing and the closed-form counts (frozen oracle values in comments)."""

import subprocess
import sys

import pytest
from sympy import partition as npartitions

from zclass.closed_form import (
    EXCEPTIONAL_TABLE,
    CoxeterType,
    IrreducibleType,
    conjugacy_count_bc,
    conjugacy_count_d,
    parse_coxeter_type,
    partition_count,
    z_count,
    z_count_a,
    z_count_bc,
    z_count_d,
    z_count_dihedral,
    z_count_exceptional,
)
from zclass.combinatorics import (
    delta_prime_set,
    delta_set,
    partitions_of,
    signed_partitions_of,
    zeta,
)
from zclass.errors import CoxeterParseError, CoxeterRankError, UnsupportedGroupError
from zclass.families import FAMILIES, METHODS
from zclass.verify import build_group


def paper_z(lam):
    """The paper's summand: floor(m/2)+1 per odd part, m+1 per even part."""
    prod = 1
    for p, m in lam.entries:
        prod *= (m // 2 + 1) if p % 2 else (m + 1)
    return prod


def bipartitions(n):
    return sum(npartitions(k) * npartitions(n - k) for k in range(n + 1))


class TestParser:
    def test_single(self):
        t = parse_coxeter_type("B3")
        assert t.factors == (IrreducibleType("B", 3),)
        assert str(t) == "B3"

    def test_product(self):
        t = parse_coxeter_type("B3 x I2(7)")
        assert t.factors == (IrreducibleType("B", 3), IrreducibleType("I2", 7))

    def test_whitespace_and_case_insensitive(self):
        assert str(parse_coxeter_type("b3xi2( 7 )")) == "B3 x I2(7)"
        assert str(parse_coxeter_type("  e6 X h4 ")) == "E6 x H4"

    def test_rank_errors(self):
        with pytest.raises(CoxeterRankError):
            parse_coxeter_type("D1")
        with pytest.raises(CoxeterRankError):
            parse_coxeter_type("I2(2)")
        with pytest.raises(CoxeterRankError):
            parse_coxeter_type("A0")

    def test_parse_errors_carry_position(self):
        with pytest.raises(CoxeterParseError) as exc:
            parse_coxeter_type("B3 * D4")
        assert exc.value.position == 3
        with pytest.raises(CoxeterParseError):
            parse_coxeter_type("")
        with pytest.raises(CoxeterParseError):
            parse_coxeter_type("E5")
        with pytest.raises(CoxeterParseError):
            parse_coxeter_type("B3 x")
        with pytest.raises(CoxeterParseError):
            parse_coxeter_type("I2 7")

    def test_b_and_c_both_accepted(self):
        assert z_count(parse_coxeter_type("B4")).total == z_count(
            parse_coxeter_type("C4")
        ).total

    def test_group_orders(self):
        assert parse_coxeter_type("B3").group_order() == 48
        assert parse_coxeter_type("D4").group_order() == 192
        assert parse_coxeter_type("I2(8)").group_order() == 16
        assert parse_coxeter_type("A3 x A1").group_order() == 48

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_registry_entry(self, name):
        """A family's text round-trips, its count method is known, and its
        order is its enumerated table's at each of its first eight ranks
        whose order is at most 1e5."""
        family = FAMILIES[name]
        assert family.method in METHODS
        low = family.min_rank
        for rank in [None] if low is None else range(low, low + 8):
            t = CoxeterType((IrreducibleType(name, rank),))
            assert parse_coxeter_type(str(t)) == t
            assert parse_coxeter_type(str(t).lower()) == t
            if t.group_order() <= 100_000:
                assert build_group(t).order == t.group_order()


class TestCountA:
    def test_series_equals_partition_numbers(self):
        """The series coefficient against sympy's partition numbers."""

        def p(k):
            return npartitions(k) if k >= 0 else 0

        for n in range(1, 301):
            expected = p(n) - p(n - 2) + p(n - 3) + p(n - 4) - p(n - 5)
            assert z_count_a(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            z_count_a(0)


class TestCountBC:
    # n=2..5 frozen from the exhaustive oracle run on C2 wr S_n
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 4), (3, 5), (4, 13), (5, 17)]
    )
    def test_small_values(self, n, expected):
        assert z_count_bc(n) == expected

    @pytest.mark.parametrize("n", range(1, 26))
    def test_bounded_by_signed_partition_count(self, n):
        assert z_count_bc(n) <= len(signed_partitions_of(n))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_series_equals_partition_sum(self, n):
        assert z_count_bc(n) == sum(paper_z(lam) for lam in partitions_of(n))

    @pytest.mark.parametrize("n", range(1, 61))
    def test_class_count_is_bipartition_count(self, n):
        assert conjugacy_count_bc(n) == bipartitions(n)
        assert partition_count(n) == npartitions(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            z_count_bc(0)


class TestCountD:
    # D2 ~ C2 x C2 (one z-class); D4 frozen from the oracle run
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 5), (4, 10), (6, 20)])
    def test_small_values(self, n, expected):
        assert z_count_d(n) == expected

    @pytest.mark.parametrize("n", range(3, 26, 2))
    def test_odd_rank_equals_bc(self, n):
        assert z_count_d(n) == z_count_bc(n)

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_series_equals_paper_sum(self, n):
        expected = sum(paper_z(lam) for lam in delta_set(n))
        expected += sum((paper_z(lam) + 1) // 2 for lam in delta_prime_set(n))
        expected += len(delta_prime_set(n // 2)) - zeta(n - 2)
        assert z_count_d(n) == expected

    @pytest.mark.parametrize("n", range(2, 61))
    def test_class_count_from_bipartitions(self, n):
        if n % 2:
            expected = bipartitions(n) // 2
        else:
            expected = (bipartitions(n) + 3 * npartitions(n // 2)) // 2
        assert conjugacy_count_d(n) == expected

    def test_rejects_rank_below_two(self):
        with pytest.raises(ValueError):
            z_count_d(1)


def test_class_counts_increase_with_rank():
    # `classes` refuses a listing by the first rank over the cap, relying on this
    bc = [conjugacy_count_bc(n) for n in range(1, 61)]
    d = [conjugacy_count_d(n) for n in range(2, 61)]
    assert all(a < b for a, b in zip(bc, bc[1:]))
    assert all(a < b for a, b in zip(d, d[1:]))


class TestDihedral:
    @pytest.mark.parametrize(
        "m,expected",
        [(3, 3), (4, 4), (5, 3), (6, 3), (7, 3), (8, 4), (10, 3), (12, 4), (16, 4)],
    )
    def test_values(self, m, expected):
        assert z_count_dihedral(m) == expected

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            z_count_dihedral(2)


class TestExceptional:
    @pytest.mark.parametrize(
        "family,expected",
        [("F4", 16), ("E6", 24), ("E7", 28), ("E8", 65), ("H3", 4), ("H4", 15)],
    )
    def test_z_counts(self, family, expected):
        assert z_count_exceptional(family) == expected

    def test_conjugacy_metadata(self):
        assert {f: cc for f, (cc, _) in EXCEPTIONAL_TABLE.items()} == {
            "F4": 25,
            "E6": 25,
            "E7": 60,
            "E8": 112,
            "H3": 10,
            "H4": 34,
        }


class TestImportIndependence:
    """The formula route loads no group machinery, and the CLI no root systems
    or decimal arithmetic, until a command needs them."""

    @pytest.mark.parametrize(
        "module,absent",
        [
            (
                "zclass.closed_form",
                ["numpy", "zclass.groups", "zclass.oracle", "zclass.reflection"],
            ),
            ("zclass.cli", ["zclass.reflection", "decimal"]),
        ],
    )
    def test_import_loads_nothing_heavy(self, module, absent):
        script = f"import sys, {module}\nprint(set({absent}) & set(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "set()\n"

    def test_product_count_loads_no_group_machinery(self):
        """Every family counts by formula or table, with no group built."""
        script = (
            "import sys\n"
            "from zclass.closed_form import parse_coxeter_type, z_count\n"
            "r = z_count(parse_coxeter_type('A8 x B4 x I2(7) x E8'))\n"
            "print(r.total, r.method)\n"
            "print({'numpy', 'zclass.groups', 'zclass.oracle'} & set(sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{28 * 13 * 3 * 65} table\nset()\n"


class TestProductDispatch:
    def test_b3_times_i2_8(self):
        result = z_count(parse_coxeter_type("B3 x I2(8)"))
        assert result.total == 20
        assert [f.z_count for f in result.per_factor] == [5, 4]
        assert result.method == "formula"

    def test_h3_table(self):
        result = z_count(parse_coxeter_type("H3"))
        assert result.total == 4
        assert result.method == "table"

    def test_a1_by_formula(self):
        result = z_count(parse_coxeter_type("A1"))
        assert result.total == 1
        assert result.method == "formula"

    def test_total_multiplies(self):
        for text in ("B2 x D4", "I2(5) x A2", "H3 x B2"):
            result = z_count(parse_coxeter_type(text))
            total = 1
            for f in result.per_factor:
                assert f.z_count == z_count(CoxeterType((f.factor,))).total
                total *= f.z_count
            assert result.total == total

    def test_all_small_rank_pairs_multiply(self):
        pool = [
            "A2", "A4", "B3", "B6", "D4", "D5", "I2(5)", "I2(8)",
            "F4", "H3", "H4", "E6",
        ]
        singles = {text: z_count(parse_coxeter_type(text)).total for text in pool}
        for t1 in pool:
            for t2 in pool:
                combined = z_count(parse_coxeter_type(f"{t1} x {t2}")).total
                assert combined == singles[t1] * singles[t2]

    def test_a_counts_past_the_order_cap_up_to_the_rank_cap(self):
        # S9 has order 362880, over the default order cap, which counts ignore
        assert z_count(parse_coxeter_type("A8")).total == 28
        with pytest.raises(UnsupportedGroupError, match="A/B/C/D ranks up to 5000"):
            z_count(parse_coxeter_type("A5001"))
