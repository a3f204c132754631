"""Base-indexed kernels against independent references on small groups.

Every group of the `verify --all-small` sweep plus a mixed product is checked
against definitions that do not use the table's base (full-row power loops and
full-row commutation), and against sympy's Schreier-Sims group orders and
centralizers.
"""

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from zclass import oracle
from zclass.closed_form import parse_coxeter_type
from zclass.verify import ALL_SMALL_SWEEP, build_group

TYPES = list(ALL_SMALL_SWEEP) + ["B3 x I2(5)"]


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


def sympy_group(table, rows) -> PermutationGroup:
    return PermutationGroup([Permutation(table.perms[r].tolist()) for r in rows])


def test_only_identity_fixes_base(table):
    fixes = (table.perms[:, table.base] == table.base).all(axis=1)
    assert np.flatnonzero(fixes).tolist() == [table.identity_row]


def test_rows_sorted_with_increasing_keys(table):
    encodings = table.elements()
    assert encodings == sorted(set(encodings))
    assert np.all(np.diff(table.keys) > 0)
    assert np.array_equal(table.row_index(table.perms), np.arange(table.order))


def test_element_orders_match_power_loop(table):
    assert np.array_equal(table.element_orders(), naive_orders(table.perms))


def test_centralizers_match_full_row_definition(table):
    for cl in oracle.conjugacy_classes(table):
        cen = oracle.centralizer(table, cl.rep)
        expected = reference_centralizer(table.perms, table.perms[cl.rep])
        assert np.array_equal(cen.member_rows, expected)


def test_closure_order_matches_sympy(table):
    assert sympy_group(table, table.gen_rows).order() == table.order


def test_centralizers_match_sympy(table):
    group = sympy_group(table, table.gen_rows)
    for cl in oracle.conjugacy_classes(table):
        x = Permutation(table.perms[cl.rep].tolist())
        sym_cen = group.centralizer(PermutationGroup([x]))
        cen = oracle.centralizer(table, cl.rep)
        assert sym_cen.order() == cen.order
        if cen.order <= 500:
            members = sorted(
                table.index_of(bytes(p.array_form)) for p in sym_cen.elements
            )
            assert members == cen.member_rows.tolist()
