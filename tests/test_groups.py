"""Group builders and the GroupTable encoding contract."""

import copy
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from conftest import (
    PROPERTY_SETTINGS,
    assert_valid_permutation_table,
    elements,
    invert,
    multiply,
    signed_perm_to_row,
    validate,
)

from zclass.errors import OrderCapExceeded, UnsupportedGroupError
from zclass import groups, oracle, reflection
from zclass.families import parse_coxeter_type
from zclass.groups import (
    build_d,
    build_dihedral,
    build_symmetric,
    build_wreath_bc,
    direct_product,
    group_from_generators,
    row_to_signed_perm,
    sift,
    stabilizer_chain,
)
from zclass.reflection import build_root_system
from zclass.signed_perm import SignedPermutation
from zclass.verify import build_group


FAMILY_GENERATORS = {
    name: table.perms[list(table.gen_rows)]
    for name, table in (
        ("S6", build_symmetric(6)), ("B4", build_wreath_bc(4)), ("D4", build_d(4))
    )
}


@st.composite
def generator_sets(draw):
    """A random subset of the generators of S6, B4 or D4, or random
    permutations of degree 8 or less, as uint8 rows."""
    source = draw(st.sampled_from([*FAMILY_GENERATORS, "random"]))
    if source == "random":
        degree = draw(st.integers(1, 8))
        gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    else:
        family = FAMILY_GENERATORS[source]
        degree = family.shape[1]
        gens = [g.tolist() for g in family if draw(st.booleans())]
    return np.array(gens, dtype=np.uint8).reshape(-1, degree)


def orbit_product(levels) -> int:
    return math.prod(level.transversal.shape[0] for level in levels)


def random_signed_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    return SignedPermutation(signs, tuple(perm))


class TestBuilders:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_orders(self, n, order):
        assert build_symmetric(n).order == order

    @pytest.mark.parametrize("n", range(1, 6))
    def test_wreath_orders(self, n):
        assert build_wreath_bc(n).order == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_d_orders(self, n):
        assert build_d(n).order == 2 ** (n - 1) * math.factorial(n)

    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_dihedral_orders(self, m):
        assert build_dihedral(m).order == 2 * m

    def test_d_elements_have_positive_sign_product(self):
        table = build_d(3)
        for row in table.perms:
            assert row_to_signed_perm(row).in_d_n()

    def test_wreath_cap(self):
        with pytest.raises(OrderCapExceeded):
            build_wreath_bc(8)

    def test_axioms_validate(self):
        for table in (build_wreath_bc(3), build_d(3), build_dihedral(5),
                      build_symmetric(4)):
            validate(table)
            assert_valid_permutation_table(table)

    def test_probabilistic_validation_path(self):
        validate(build_wreath_bc(5))  # order 3840 exhaustive
        validate(build_d(6))  # order 23040 probabilistic

    @pytest.mark.parametrize(
        "build,n",
        [
            (build_wreath_bc, 100),
            (build_d, 100),
            (build_symmetric, 80),
            (build_symmetric, 10**6),
            (build_wreath_bc, 10**6),
            (build_d, 10**6),
        ],
    )
    def test_huge_orders_refused_before_any_chain(self, monkeypatch, build, n):
        def no_chain(gens):
            raise AssertionError("stabilizer chain built past the cap")

        monkeypatch.setattr(groups, "stabilizer_chain", no_chain)
        started = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="no order cap serves it"):
            build(n)
        assert time.perf_counter() - started < 1

    def test_raw_generators_refused_by_their_order_before_any_chain(
        self, monkeypatch
    ):
        # Schreier-Sims on B100's generators alone would run for minutes
        def no_chain(gens):
            raise AssertionError("stabilizer chain built past the cap")

        monkeypatch.setattr(groups, "stabilizer_chain", no_chain)
        started = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="B100 has order of 189 digits"):
            group_from_generators(
                groups._bc_generators(100),
                name="B100",
                degree=200,
                order=2**100 * math.factorial(100),
            )
        assert time.perf_counter() - started < 1


class TestSignedPermEncoding:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            w = random_signed_perm(rng, n)
            assert row_to_signed_perm(signed_perm_to_row(w)) == w

    def test_encoding_is_homomorphism(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 6)
            v, w = random_signed_perm(rng, n), random_signed_perm(rng, n)
            rv, rw = signed_perm_to_row(v), signed_perm_to_row(w)
            assert np.array_equal(signed_perm_to_row(v * w), rv[rw])

    def test_every_wreath_element_decodes(self):
        table = build_wreath_bc(3)
        decoded = {row_to_signed_perm(row) for row in table.perms}
        assert len(decoded) == table.order


class TestGroupTableContract:
    def test_multiply_invert_encodings(self):
        table = build_dihedral(6)
        rows = elements(table)
        assert len(set(rows)) == table.order
        e = tuple(range(table.degree))
        assert rows[table.identity_row] == e
        for a in rows:
            assert multiply(a, invert(a)) == e
            assert multiply(e, a) == a
            assert invert(a) in rows

    def test_rows_sorted_and_stable(self):
        t1 = build_wreath_bc(3)
        t2 = build_wreath_bc(3)
        assert np.array_equal(t1.perms, t2.perms)
        rows = elements(t1)
        assert rows == sorted(rows)

    def test_row_index_round_trip(self):
        table = build_d(4)
        idx = table.row_index(table.perms)
        assert np.array_equal(idx, np.arange(table.order))

    def test_element_orders_divide_group_order(self):
        table = build_wreath_bc(4)
        orders = table.element_orders()
        assert orders[table.identity_row] == 1
        for k in np.unique(orders):
            assert table.order % int(k) == 0

    def test_non_member_rows_refused(self):
        table = build_d(4)
        key_miss = np.array([0, 4, 2, 3, 1, 5, 6, 7], dtype=np.uint8)
        key_hit = np.array([4, 1, 2, 3, 0, 5, 6, 7], dtype=np.uint8)  # in B4 only
        for row in (key_miss, key_hit):
            with pytest.raises(LookupError):
                table.row_index(row[None, :])
            assert not (table.perms == row).all(axis=1).any()

    def test_membership_checked_under_optimize(self):
        # under python -O assertions vanish; row_index must still refuse
        script = (
            "import numpy as np\n"
            "from zclass.groups import build_d\n"
            "table = build_d(4)\n"
            "print(__debug__)\n"
            "for row in ([0, 4, 2, 3, 1, 5, 6, 7], [4, 1, 2, 3, 0, 5, 6, 7]):\n"
            "    try:\n"
            "        table.row_index(np.array([row], dtype=np.uint8))\n"
            "        print('accepted')\n"
            "    except LookupError:\n"
            "        print('refused')\n"
            "print(table.row_index(table.perms[:3]).tolist())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "refused", "refused", "[0, 1, 2]"]

    def test_rejects_non_permutation_generator(self):
        with pytest.raises(ValueError):
            group_from_generators(
                [np.array([0, 0, 1], dtype=np.uint8)], name="bad", degree=3, order=2
            )


MAP_GROUPS = {
    text: (lambda text=text: build_group(parse_coxeter_type(text)))
    for text in ["B3", "D4", "H3", " x ".join(["A1"] * 8), "I2(8)", "B2 x I2(5)"]
}
MAP_GROUPS["S1"] = lambda: build_symmetric(1)


def with_last_key_moved(table, delta: int):
    """A copy of `table` whose last key is moved by `delta`; the last row is
    a conjugate of some row, and no lookup finds it any more."""
    moved = copy.copy(table)
    moved.keys = table.keys.copy()
    moved.keys[-1] += delta
    return moved


class TestConjugationMaps:
    # I2(8) and B2 x I2(5) have a rotation generator, which is no involution;
    # S1 has no generator and an empty base
    @pytest.mark.parametrize("text", list(MAP_GROUPS))
    def test_maps_match_full_row_products(self, text):
        table = MAP_GROUPS[text]()
        group = elements(table)
        index = {e: i for i, e in enumerate(group)}
        maps = table.conjugation_maps()
        assert maps.dtype == np.int32
        assert maps.shape == (len(table.gen_rows), table.order)
        for s, t in enumerate(table.gen_rows):
            t_row, t_inv = group[t], invert(group[t])
            expected = [index[multiply(multiply(t_row, e), t_inv)] for e in group]
            assert maps[s].tolist() == expected
            assert sorted(maps[s].tolist()) == list(range(table.order))
        assert table.conjugation_maps() is maps

    @pytest.mark.parametrize("text", list(MAP_GROUPS))
    def test_lookups_agree_with_the_maps(self, text):
        table = MAP_GROUPS[text]()
        rows = np.random.default_rng(1).permutation(table.order).astype(np.int32)
        assert table.base_index(table.perms[rows][:, table.base]).tolist() == (
            rows.tolist()
        )
        for s, t in enumerate(table.gen_rows):
            assert np.array_equal(
                table.conjugates(t, rows), table.conjugation_maps()[s, rows]
            )

    @pytest.mark.parametrize("delta", [1, -1])  # a key between, or past the table
    def test_missing_conjugate_raises(self, delta):
        table = build_d(4)
        with pytest.raises(LookupError):
            with_last_key_moved(table, delta).conjugation_maps()
        assert sorted(table.conjugation_maps()[0].tolist()) == list(range(192))

    def test_missing_conjugate_raises_under_optimize(self):
        script = (
            "import copy\n"
            "from zclass.groups import build_d\n"
            "table = build_d(4)\n"
            "print(__debug__)\n"
            "for delta in (1, -1):\n"
            "    moved = copy.copy(table)\n"
            "    moved.keys = table.keys.copy()\n"
            "    moved.keys[-1] += delta\n"
            "    try:\n"
            "        moved.conjugation_maps()\n"
            "        print('accepted')\n"
            "    except LookupError:\n"
            "        print('refused')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "refused", "refused"]


class TestStabilizerChain:
    def test_e6_orbit_lengths(self):
        gens = np.array(build_root_system("E6").reflection_tables, dtype=np.uint8)
        levels = stabilizer_chain(gens)
        assert [level.transversal.shape[0] for level in levels] == [72, 30, 4, 3, 2]

    @PROPERTY_SETTINGS
    @given(gens=generator_sets())
    def test_orbit_product_equals_sympy_order(self, gens):
        degree = gens.shape[1]
        identity = Permutation(list(range(degree)))
        group = PermutationGroup([identity, *(Permutation(g.tolist()) for g in gens)])
        assert orbit_product(stabilizer_chain(gens)) == int(group.order())

    @pytest.mark.parametrize("text", ["B3", "D4", "H3", "B2 x I2(5)"])
    def test_sift_membership_matches_full_row_closure(self, text):
        # chains of a few random rows: sift, and the oracle's `_outside`,
        # accept exactly the rows of the group the rows close to
        table = MAP_GROUPS[text]()
        group = elements(table)
        rng = np.random.default_rng(7)
        for size in (1, 2, 3):
            rows = rng.choice(table.order, size=size, replace=False)
            gens = [group[r] for r in rows]
            closed, frontier = {tuple(range(table.degree)), *gens}, gens
            while frontier:
                fresh = {multiply(a, g) for a in frontier for g in gens} - closed
                closed |= fresh
                frontier = list(fresh)
            levels = stabilizer_chain(table.perms[rows])
            assert orbit_product(levels) == len(closed)
            inside = np.array([e in closed for e in group])
            residues, stop = sift(levels, table.perms)
            identity = np.arange(table.degree)
            sifted = (stop == len(levels)) & (residues == identity).all(axis=1)
            assert np.array_equal(sifted, inside)
            assert np.array_equal(oracle._outside(levels, table.perms), ~inside)

    def test_transversals_map_base_points_to_their_orbits(self):
        levels = stabilizer_chain(build_d(5).perms[list(build_d(5).gen_rows)])
        for d, level in enumerate(levels):
            orbit = level.transversal[:, level.point]
            assert np.array_equal(level.position[orbit], np.arange(orbit.size))
            for earlier in levels[:d]:
                assert np.all(level.transversal[:, earlier.point] == earlier.point)

    def test_order_cap_refuses_before_enumeration(self, monkeypatch):
        def enumerate_rows(levels, degree):
            raise AssertionError("rows enumerated past the cap")

        monkeypatch.setattr(groups, "_products", enumerate_rows)
        transpositions = []
        for i in range(11):
            g = np.arange(12, dtype=np.uint8)
            g[[i, i + 1]] = g[[i + 1, i]]
            transpositions.append(g)
        with pytest.raises(OrderCapExceeded, match="S12 has order 479001600 > cap"):
            group_from_generators(
                transpositions, name="S12", degree=12, order=math.factorial(12)
            )

    def test_order_cross_check_raises_under_optimize(self):
        script = (
            "import numpy as np\n"
            "from zclass.groups import group_from_generators\n"
            "m = np.arange(3)\n"
            "try:\n"
            "    group_from_generators(\n"
            "        [(m + 1) % 3, -m % 3], name='I2(3)', degree=3, order=7\n"
            "    )\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "I2(3): 6 elements, not 7\n"

    def test_trivial_group_has_no_base(self):
        table = build_symmetric(1)
        assert table.perms.tolist() == [[0]]
        assert table.base.size == 0 and table.keys.tolist() == [0]
        assert table.gen_rows == ()
        identity = group_from_generators([np.arange(3)], name="1", degree=3, order=1)
        assert identity.order == 1 and identity.gen_rows == (0,)


class TestDirectProduct:
    def test_orders_multiply(self):
        g = direct_product(build_dihedral(3), build_dihedral(4))
        assert g.order == (2 * 3) * (2 * 4)

    def test_cap_applies(self):
        with pytest.raises(OrderCapExceeded):
            build_group(parse_coxeter_type("B5 x B5"), order_cap=1000)

    def test_point_sets_over_256_refused(self):
        with pytest.raises(UnsupportedGroupError):
            build_dihedral(257)
        with pytest.raises(UnsupportedGroupError):
            direct_product(build_dihedral(200), build_dihedral(100))
        with pytest.raises(UnsupportedGroupError, match="acts on 259 points"):
            direct_product(build_dihedral(256), build_dihedral(3))
        with pytest.raises(UnsupportedGroupError):
            group_from_generators([np.arange(257)], name="big", degree=257, order=1)
        assert build_dihedral(256).degree == 256

    def test_component_labels(self):
        g = direct_product(build_symmetric(3), build_symmetric(2))
        labels = {g.label(r) for r in range(g.order)}
        assert labels == {
            "1~3 | 1~2", "1~3 | 2", "2 1 | 1~2", "2 1 | 2", "3 | 1~2", "3 | 2",
        }


class TestSingleCapCheck:
    """The order cap is checked once, at the type, before any table is built."""

    @pytest.mark.parametrize(
        "text", ["A4", "B3", "D4", "I2(7)", "H3", "B3 x I2(7)", "A2 x H3"]
    )
    def test_refused_exactly_over_the_cap(self, monkeypatch, text):
        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(groups, "group_from_generators", build)
        monkeypatch.setattr(reflection, "group_from_generators", build)
        t = parse_coxeter_type(text)
        order = t.group_order()
        for cap in (order - 1, order, order + 1):
            expected = OrderCapExceeded if order > cap else Built
            with pytest.raises(expected):
                build_group(t, order_cap=cap)
