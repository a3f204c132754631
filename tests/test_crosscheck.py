"""Base-indexed kernels against independent references on small groups.

Every group of the `verify --all-small` sweep plus a mixed product is checked
against definitions that do not use the table's base (full-row power loops,
full-row commutation and full-row closure), against sympy's Schreier-Sims
group orders, centralizers and conjugacy classes, and the center-test z-class
grouping against the pairwise conjugator search `subgroups_conjugate`.  The
certified probes that generate each centralizer are checked on full rows and
by sympy's group order, and the probe scan of `z_classes` against the
member-listed center `centralizer(...).center_rows`, whose generators come
from the member list, not from probes.  The reference kernels (`inverses`,
`element_orders` and the conjugator search) are also run over chunks of 7
rows on two threads.  The tables enumerated from stabilizer chains are also
compared as row sets, with E6, H4 and F4 added, against a closure that
deduplicates on a Python set of row bytes, and each row's index against the
number of its chain digits, sifted in Python.
"""

import numpy as np
import pytest
from conftest import (
    certified_probe_rows,
    chain_numbers,
    classes_of,
    elements,
    set_row_kernels,
)
from sympy.combinatorics import Permutation, PermutationGroup

from zclass import oracle
from zclass.closed_form import parse_coxeter_type
from zclass.groups import chain_order, extend
from zclass.verify import ALL_SMALL_SWEEP, build_group

TYPES = list(ALL_SMALL_SWEEP) + ["B3 x I2(5)"]
CHAIN_TYPES = TYPES + ["E6", "H4", "F4"]
# sympy's conjugacy_classes() is slow beyond order 5000, so D6 (23040) is left out
SYMPY_CLASS_TYPES = [
    t for t in TYPES if parse_coxeter_type(t).group_order() <= 5000
]


@pytest.fixture(scope="module", params=TYPES)
def table(request):
    return build_group(parse_coxeter_type(request.param))


def naive_orders(perms: np.ndarray) -> np.ndarray:
    """Element orders by composing whole rows until each power is the identity."""
    identity = np.arange(perms.shape[1], dtype=perms.dtype)
    orders = np.ones(perms.shape[0], dtype=np.int64)
    powers = perms.copy()
    active = ~(powers == identity).all(axis=1)
    while active.any():
        powers[active] = np.take_along_axis(powers[active], perms[active], axis=1)
        orders[active] += 1
        active &= ~(powers == identity).all(axis=1)
    return orders


def reference_centralizer(perms: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.flatnonzero((perms[:, x] == x[perms]).all(axis=1))


def full_row_closure(table, gens) -> list[int]:
    """Rows of the subgroup generated by `gens`, by composing whole rows."""
    closed = {table.identity_row}
    frontier = [table.identity_row]
    while frontier and gens:
        rows = table.perms[frontier]
        products = np.concatenate([rows[:, table.perms[g]] for g in gens])
        fresh = set(table.row_index(products).tolist()) - closed
        closed |= fresh
        frontier = sorted(fresh)
    return sorted(closed)


def set_closure(gens: np.ndarray) -> np.ndarray:
    """Sorted rows of the group generated by `gens`, closed over a set of row bytes."""
    degree = gens.shape[1]
    identity = bytes(range(degree))
    seen, frontier = {identity}, [identity]
    while frontier:
        rows = np.frombuffer(b"".join(frontier), dtype=np.uint8).reshape(-1, degree)
        products = np.concatenate([rows[:, g] for g in gens]).tobytes()
        frontier = []
        for lo in range(0, len(products), degree):
            row = products[lo : lo + degree]
            if row not in seen:
                seen.add(row)
                frontier.append(row)
    return np.frombuffer(b"".join(sorted(seen)), dtype=np.uint8).reshape(-1, degree)


def first_absorbing_grouping(table) -> list[list[int]]:
    """Class representatives grouped by the pairwise conjugator search."""
    groups, openers = [], []
    for cl in classes_of(table):
        cen = oracle.centralizer(table, cl.rep, table.order // cl.size)
        for grp, opener in zip(groups, openers):
            if oracle.subgroups_conjugate(table, opener, cen)[0]:
                grp.append(cl.rep)
                break
        else:
            groups.append([cl.rep])
            openers.append(cen)
    return groups


def sympy_group(table, rows) -> PermutationGroup:
    return PermutationGroup([Permutation(table.perms[r].tolist()) for r in rows])


def test_only_identity_fixes_base(table):
    fixes = (table.perms[:, table.base] == table.base).all(axis=1)
    assert np.flatnonzero(fixes).tolist() == [table.identity_row]


def test_rows_sorted_with_increasing_keys(table):
    # a row's key is its row number, the mixed-radix number of its chain
    # digits: the rows are the group's, each once, in key order, and so
    # sorted by their image of the first base point
    rows = elements(table)
    assert len(set(rows)) == table.order
    gens = table.perms[list(table.gen_rows)]
    assert np.array_equal(np.unique(table.perms, axis=0), set_closure(gens))
    assert np.array_equal(table.row_index(table.perms), np.arange(table.order))
    assert chain_numbers(table) == list(range(table.order))
    assert np.all(np.diff(table.perms[:, table.base[0]].astype(int)) >= 0)


def test_element_orders_match_power_loop(table):
    assert np.array_equal(table.element_orders(), naive_orders(table.perms))


def test_centralizers_match_full_row_definition(table):
    for cl in classes_of(table):
        cen = oracle.centralizer(table, cl.rep)
        expected = reference_centralizer(table.perms, table.perms[cl.rep])
        assert np.array_equal(cen.member_rows, expected)


def test_closure_order_matches_sympy(table):
    assert sympy_group(table, table.gen_rows).order() == table.order


def test_centralizers_match_sympy(table):
    group = sympy_group(table, table.gen_rows)
    for cl in classes_of(table):
        x = Permutation(table.perms[cl.rep].tolist())
        sym_cen = group.centralizer(PermutationGroup([x]))
        cen = oracle.centralizer(table, cl.rep)
        assert sym_cen.order() == cen.order
        if cen.order <= 500:
            rows = np.array([p.array_form for p in sym_cen.elements], dtype=np.uint8)
            assert sorted(table.row_index(rows).tolist()) == cen.member_rows.tolist()


def test_centralizers_of_random_rows_match_full_row_definition(table):
    rng = np.random.default_rng(0)
    for row in rng.choice(table.order, size=min(8, table.order), replace=False):
        cen = oracle.centralizer(table, int(row))
        expected = reference_centralizer(table.perms, table.perms[row])
        assert np.array_equal(cen.member_rows, expected)


def test_centralizer_generators_close_to_members(table):
    for cl in classes_of(table):
        cen = oracle.centralizer(table, cl.rep, table.order // cl.size)
        assert full_row_closure(table, cen.generator_rows) == cen.member_rows.tolist()


def test_certified_generators_commute_on_full_rows(table):
    for cl in classes_of(table):
        gens = certified_probe_rows(table, cl)
        rows, x = table.perms[gens], table.perms[cl.rep]
        assert (rows[:, x] == x[rows]).all()


def test_certified_generators_generate_the_centralizer_order(table):
    for cl in classes_of(table):
        gens = certified_probe_rows(table, cl)
        assert sympy_group(table, gens).order() == table.order // cl.size


def test_head_scan_matches_center_rows(table):
    # one set of probes per head, drawn lazily across the classes it is tested
    # against, as in z_classes
    classes = classes_of(table)
    for h in classes:
        probes = oracle._Probes(table, h.rep, table.order // h.size)
        center = oracle.centralizer(table, h.rep, table.order // h.size).center_rows
        for y in classes:
            if y.size == h.size:
                assert probes.meet(y.members) == np.isin(y.members, center).any()


def test_center_test_grouping_matches_conjugator_search(table):
    assert oracle.z_classes(table) == first_absorbing_grouping(table)


@pytest.mark.parametrize("text", ["B4", "B3 x I2(5)"])
def test_reference_kernels_across_chunk_boundaries(monkeypatch, text):
    # chunks of 7 rows on two threads, against the definitions and against
    # the pairwise search at the real chunk sizes
    def searches(table):
        classes = classes_of(table)
        cens = [
            oracle.centralizer(table, cl.rep, table.order // cl.size) for cl in classes
        ]
        return [oracle.subgroups_conjugate(table, h, k) for h in cens for k in cens]

    expected = searches(build_group(parse_coxeter_type(text)))
    set_row_kernels(monkeypatch, 2, 7)
    table = build_group(parse_coxeter_type(text))
    assert np.array_equal(table.inverses(), np.argsort(table.perms, axis=1))
    assert np.array_equal(table.element_orders(), naive_orders(table.perms))
    assert searches(table) == expected


@pytest.mark.parametrize("text", SYMPY_CLASS_TYPES)
def test_class_count_matches_sympy(text):
    table = build_group(parse_coxeter_type(text))
    group = sympy_group(table, table.gen_rows)
    assert len(group.conjugacy_classes()) == len(oracle.conjugacy_classes(table))


@pytest.mark.parametrize("text", CHAIN_TYPES)
def test_chain_enumeration_matches_set_closure(text):
    t = parse_coxeter_type(text)
    table = build_group(t)
    gens = table.perms[list(table.gen_rows)]
    perms = set_closure(gens)
    assert table.perms.shape == perms.shape
    assert np.array_equal(np.unique(table.perms, axis=0), perms)
    assert table.row_index(gens).tolist() == list(table.gen_rows)
    assert chain_order(extend([], gens)) == t.group_order()
    assert sympy_group(table, table.gen_rows).order() == t.group_order()
