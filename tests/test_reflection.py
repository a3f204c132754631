"""Root systems, exact Z[phi] arithmetic, and the generated reflection groups."""

import hashlib
import random

import pytest
import sympy
from conftest import validate

from zclass import oracle
from zclass.errors import OrderCapExceeded, UnsupportedGroupError
from zclass.families import parse_coxeter_type
from zclass.reflection import build_reflection_group, build_root_system, zphi_mul
from zclass.verify import build_group

CRYSTALLOGRAPHIC = ("F4", "E6", "E7")
PHI = (0, 1)

# sha256 of repr(reflection_tables) as built with Fraction arithmetic in Q(sqrt 5):
# the integer Z[phi] closure must find the same roots in the same order
TABLE_SHA256 = {
    "H3": "b0a52f0eecab8a0186343b5335786090eaadfc6539e7808b083abdc6c4e3d336",
    "F4": "c4292a2e6aba3ec0b247479cffe62a3760cdab08d137271ba5a377155b0b142a",
    "H4": "717efc7f353d1e9c3fc3533c3d14387065084baf5692cccba793aa942ee11e59",
    "E6": "9b7f7c8bade918cadf5e3c35c2aa4632ac3e80f36f586ceaf24a4064654521fc",
    "E7": "14258d0458c24b11111ab84da300ac45240b00b9a0fd273afa0994dd185d3382",
}


def as_sympy(x):
    a, b = x
    return a + b * (1 + sympy.sqrt(5)) / 2


class TestQuadraticNumber:
    """Z[phi] elements as int pairs (a, b) = a + b*phi."""

    def test_golden_ratio_identity(self):
        assert zphi_mul(PHI, PHI) == (1, 1)  # phi^2 = 1 + phi

    def test_field_operations_random(self):
        rng = random.Random(15)
        for _ in range(200):
            x = (rng.randint(-50, 50), rng.randint(-50, 50))
            y = (rng.randint(-50, 50), rng.randint(-50, 50))
            product = zphi_mul(x, y)
            assert product == zphi_mul(y, x)
            assert sympy.expand(as_sympy(product) - as_sympy(x) * as_sympy(y)) == 0

    def test_rationality(self):
        assert zphi_mul((3, 0), (-7, 0)) == (-21, 0)
        assert zphi_mul(PHI, (1, -1)) == (-1, 0)  # phi * (1 - phi) = -1


class TestRootSystems:
    @pytest.mark.parametrize(
        "name,count", [("H3", 30), ("F4", 48), ("E6", 72), ("H4", 120), ("E7", 126)]
    )
    def test_root_counts(self, name, count):
        assert len(build_root_system(name).roots) == count

    @pytest.mark.parametrize("name", list(TABLE_SHA256))
    def test_reflection_tables_are_pinned(self, name):
        tables = build_root_system(name).reflection_tables
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == TABLE_SHA256[name]

    @pytest.mark.parametrize("name", CRYSTALLOGRAPHIC)
    def test_crystallographic_roots_are_rational(self, name):
        rs = build_root_system(name)
        for root in rs.roots:
            assert all(b == 0 for _, b in root)

    @pytest.mark.parametrize("name", ["H3", "H4"])
    def test_h_roots_need_phi(self, name):
        assert any(b for root in build_root_system(name).roots for _, b in root)

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
                orthogonal = rs.inner(root, alpha) == (0, 0)
                assert fixed == orthogonal

    def test_roots_closed_under_negation(self):
        rs = build_root_system("H3")
        roots = set(rs.roots)
        for r in rs.roots:
            assert tuple((-a, -b) for a, b in r) in roots

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
        with pytest.raises(OrderCapExceeded):
            build_group(parse_coxeter_type("H4"), order_cap=10_000)

    def test_e7_needs_large_cap(self):
        with pytest.raises(OrderCapExceeded, match="raise it with --allow-large"):
            build_group(parse_coxeter_type("E7"))

    @pytest.mark.parametrize("name,classes", [("H3", 10), ("F4", 25)])
    def test_conjugacy_class_counts(self, name, classes):
        table = build_reflection_group(name)
        assert len(oracle.conjugacy_classes(table)) == classes

    def test_group_axioms(self):
        validate(build_reflection_group("H3"))

    def test_cache_dir_is_ignored(self, tmp_path):
        (tmp_path / "zclass-group-H3-junk.npz").write_bytes(b"not a table")
        fresh = build_reflection_group("H3")
        table = build_reflection_group("H3", cache_dir=tmp_path)
        assert (table.perms == fresh.perms).all()
        assert table.gen_rows == fresh.gen_rows
        assert [p.name for p in tmp_path.iterdir()] == ["zclass-group-H3-junk.npz"]
