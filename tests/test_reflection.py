"""Root systems, exact Q(sqrt 5) arithmetic, and the generated reflection groups."""

import random
from fractions import Fraction

import numpy as np
import pytest

from zclass import oracle
from zclass.errors import OrderCapExceeded, UnsupportedGroupError
from zclass.reflection import (
    GOLDEN,
    ONE,
    ZERO,
    QuadraticNumber,
    build_reflection_group,
    build_root_system,
    generate_group,
)

CRYSTALLOGRAPHIC = ("F4", "E6", "E7")


class TestQuadraticNumber:
    def test_golden_ratio_identity(self):
        assert GOLDEN * GOLDEN == GOLDEN + 1

    def test_field_operations_random(self):
        rng = random.Random(15)

        def rand():
            return QuadraticNumber(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )

        for _ in range(300):
            x, y = rand(), rand()
            assert x + y == y + x
            assert x - y == -(y - x)
            assert x * y == y * x
            if y:
                assert (x / y) * y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_int_coercion(self):
        assert ONE + 1 == QuadraticNumber(Fraction(2))
        assert 2 * GOLDEN == QuadraticNumber(Fraction(1), Fraction(1))

    def test_rationality(self):
        assert ONE.is_rational()
        assert not GOLDEN.is_rational()


class TestRootSystems:
    @pytest.mark.parametrize(
        "name,count", [("H3", 30), ("F4", 48), ("E6", 72), ("H4", 120), ("E7", 126)]
    )
    def test_root_counts(self, name, count):
        assert len(build_root_system(name).roots) == count

    @pytest.mark.parametrize("name", CRYSTALLOGRAPHIC)
    def test_crystallographic_roots_are_rational(self, name):
        rs = build_root_system(name)
        for root in rs.roots:
            assert all(c.is_rational() for c in root)

    @pytest.mark.parametrize("name", ["H3", "F4", "E6", "H4"])
    def test_simple_reflections_are_involutions(self, name):
        rs = build_root_system(name)
        n = len(rs.roots)
        for table in rs.reflection_tables:
            assert sorted(table) == list(range(n))
            for i, img in enumerate(table):
                assert table[img] == i

    @pytest.mark.parametrize("name", ["H3", "F4", "E6"])
    def test_reflection_fixes_exactly_orthogonal_roots(self, name):
        rs = build_root_system(name)
        for j, table in enumerate(rs.reflection_tables):
            alpha = rs.roots[j]
            for i, root in enumerate(rs.roots):
                fixed = table[i] == i
                orthogonal = not rs.inner(root, alpha)
                assert fixed == orthogonal

    def test_roots_closed_under_negation(self):
        rs = build_root_system("H3")
        roots = set(rs.roots)
        for r in rs.roots:
            assert tuple(-c for c in r) in roots

    def test_e8_rejected_by_policy(self):
        with pytest.raises(UnsupportedGroupError):
            build_root_system("E8")

    def test_classical_types_rejected(self):
        for name in ("A3", "B4", "D5"):
            with pytest.raises(UnsupportedGroupError):
                build_root_system(name)


class TestGeneratedGroups:
    @pytest.mark.parametrize(
        "name,order", [("H3", 120), ("F4", 1152), ("H4", 14400)]
    )
    def test_group_orders(self, name, order):
        assert build_reflection_group(name).order == order

    def test_order_cap(self):
        rs = build_root_system("H4")
        with pytest.raises(OrderCapExceeded):
            generate_group(rs, order_cap=10_000)

    def test_e7_needs_large_cap(self):
        rs = build_root_system("E7")
        with pytest.raises(OrderCapExceeded):
            generate_group(rs, order_cap=100_000)

    @pytest.mark.parametrize("name,classes", [("H3", 10), ("F4", 25)])
    def test_conjugacy_class_counts(self, name, classes):
        table = build_reflection_group(name)
        assert len(oracle.conjugacy_classes(table)) == classes

    def test_group_axioms(self):
        build_reflection_group("H3").validate()

    def test_cache_round_trip(self, tmp_path):
        first = build_reflection_group("H3", cache_dir=tmp_path)
        cached = build_reflection_group("H3", cache_dir=tmp_path)
        assert (first.perms == cached.perms).all()
        assert first.gen_rows == cached.gen_rows
        assert len(list(tmp_path.iterdir())) == 1

    @pytest.mark.parametrize("corruption", ["duplicate_rows", "permuted_rows"])
    def test_corrupted_cache_is_recomputed(self, tmp_path, corruption):
        fresh = build_reflection_group("H3", cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        perms = fresh.perms.copy()
        gen_rows = np.array(fresh.gen_rows)
        if corruption == "duplicate_rows":
            spare = next(
                r for r in range(1, fresh.order) if r - 1 not in fresh.gen_rows
            )
            perms[spare - 1] = perms[spare]
        else:
            order = np.random.default_rng(3).permutation(fresh.order)
            perms = perms[order]
            gen_rows = np.argsort(order)[gen_rows]
        assert np.array_equal(perms[gen_rows], fresh.perms[list(fresh.gen_rows)])
        np.savez_compressed(path, perms=perms, gen_rows=gen_rows)

        table = build_reflection_group("H3", cache_dir=tmp_path)
        assert np.array_equal(table.perms, fresh.perms)
        assert table.gen_rows == fresh.gen_rows
        assert len(oracle.conjugacy_classes(table)) == 10
        assert oracle.z_class_count(table) == 4
        with np.load(path) as data:
            assert np.array_equal(data["perms"], fresh.perms)

    def test_cache_with_wrong_generator_rows_is_recomputed(self, tmp_path):
        fresh = build_reflection_group("H3", cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        gen_rows = np.array(fresh.gen_rows)[::-1]
        np.savez_compressed(path, perms=fresh.perms, gen_rows=gen_rows)
        table = build_reflection_group("H3", cache_dir=tmp_path)
        assert table.gen_rows == fresh.gen_rows
