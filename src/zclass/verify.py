"""Formula-vs-oracle verification: build the group, count both ways, diff groupings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .closed_form import (
    CoxeterType,
    IrreducibleType,
    check_order,
    check_series_rank,
    conjugacy_count_bc,
    conjugacy_count_d,
    z_count,
)
from .errors import (
    DEFAULT_ORDER_CAP,
    MAX_LISTED_CLASSES,
    UnsupportedGroupError,
)
from .groups import (
    GroupTable,
    build_d,
    build_dihedral,
    build_symmetric,
    build_wreath_bc,
    direct_product,
    row_to_signed_perm,
    signed_perm_to_row,
)
from .oracle import ConjugacyClass
from .signed_perm import (
    class_representative,
    signed_cycle_type,
    z_classes_bc,
    z_classes_dn,
)


def build_factor_group(
    factor: IrreducibleType, order_cap: int = DEFAULT_ORDER_CAP
) -> GroupTable:
    fam, rank = factor.family, factor.rank
    if fam == "A":
        return build_symmetric(rank + 1, order_cap=order_cap)
    if fam in ("B", "C"):
        return build_wreath_bc(rank, order_cap=order_cap)
    if fam == "D":
        return build_d(rank, order_cap=order_cap)
    if fam == "I2":
        return build_dihedral(rank, order_cap=order_cap)
    from .reflection import build_reflection_group

    return build_reflection_group(fam, order_cap=order_cap)


def build_group(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The whole group of a product type, as one permutation group."""
    check_order(t.factors, str(t), order_cap)
    table = build_factor_group(t.factors[0], order_cap)
    for factor in t.factors[1:]:
        table = direct_product(table, build_factor_group(factor, order_cap), order_cap)
    return table


def dn_oracle_label(table: GroupTable, cl: ConjugacyClass) -> str:
    """Signed-partition label of a D_n oracle class, with +/- for split halves.

    The '+' half is the one containing the all-plus-signs representative.
    """
    sp = signed_cycle_type(row_to_signed_perm(table.perms[cl.rep]))
    if not sp.is_all_even_positive():
        return str(sp)
    row = signed_perm_to_row(class_representative(sp))
    rep_idx = int(table.row_index(row[None, :])[0])
    pos = np.searchsorted(cl.members, rep_idx)
    in_class = pos < cl.members.size and cl.members[pos] == rep_idx
    return str(sp) + ("+" if in_class else "-")


def oracle_grouping_labels(
    table: GroupTable, family: str, order_cap: int = DEFAULT_ORDER_CAP
) -> list[list[str]]:
    """Oracle z-classes rendered as conjugacy-class labels.

    B/C/D/A groups decode to signed-partition or cycle-type notation; anything
    else falls back to positional labels c<k>.
    """
    zgroups = oracle.z_classes(table, order_cap=order_cap)
    if family == "D":
        return [[dn_oracle_label(table, c) for c in grp] for grp in zgroups]
    if table.labeler is not None:
        return [[table.label(c.rep) for c in grp] for grp in zgroups]
    classes = [c for grp in zgroups for c in grp]
    position = {c.rep: i for i, c in enumerate(sorted(classes, key=lambda c: c.rep))}
    return [[f"c{position[c.rep]}" for c in grp] for grp in zgroups]


def structural_grouping_labels(factor: IrreducibleType) -> list[list[str]] | None:
    """Label grouping from the signed-partition structure theory (B/C/D only).

    A listing of more than MAX_LISTED_CLASSES classes is refused before any
    class is enumerated.
    """
    if factor.family not in ("B", "C", "D"):
        return None
    check_series_rank(factor)
    count = (conjugacy_count_d if factor.family == "D" else conjugacy_count_bc)(
        factor.rank
    )
    if count > MAX_LISTED_CLASSES:
        raise UnsupportedGroupError(
            f"{factor} has {count} conjugacy classes; a listing holds at most "
            f"{MAX_LISTED_CLASSES}"
        )
    if factor.family == "D":
        return [[str(lbl) for lbl in grp] for grp in z_classes_dn(factor.rank)]
    return [[str(sp) for sp in grp] for grp in z_classes_bc(factor.rank)]


def _as_partition(groups: list[list[str]]) -> set[frozenset[str]]:
    return {frozenset(grp) for grp in groups}


@dataclass(frozen=True)
class VerifyResult:
    group: str
    formula_count: int
    formula_method: str
    oracle_count: int
    conjugacy_formula: int
    conjugacy_oracle: int
    match: bool
    diff_lines: tuple[str, ...] = ()


def verify_type(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> VerifyResult:
    """Compare the closed-form/table count against the brute-force oracle.

    For a single B/C/D factor the full grouping is compared, not just the
    count, and a grouping diff is reported on mismatch.
    """
    result = z_count(t, order_cap=order_cap)
    table = build_group(t, order_cap=order_cap)
    diff: list[str] = []
    if len(t.factors) == 1 and t.factors[0].family in ("B", "C", "D"):
        factor = t.factors[0]
        structural = structural_grouping_labels(factor)
        oracular = oracle_grouping_labels(table, factor.family, order_cap)
        oracle_count = len(oracular)
        conj_oracle = sum(len(g) for g in oracular)
        if _as_partition(structural) != _as_partition(oracular):
            diff.append("structural grouping:")
            diff.extend(
                "  {" + ", ".join(grp) + "}" for grp in structural
            )
            diff.append("oracle grouping:")
            diff.extend("  {" + ", ".join(grp) + "}" for grp in oracular)
    else:
        zgroups = oracle.z_classes(table, order_cap=order_cap)
        oracle_count = len(zgroups)
        conj_oracle = sum(len(grp) for grp in zgroups)
    match = (
        result.total == oracle_count
        and result.conjugacy_total == conj_oracle
        and not diff
    )
    return VerifyResult(
        str(t),
        result.total,
        result.method,
        oracle_count,
        result.conjugacy_total,
        conj_oracle,
        match,
        tuple(diff),
    )


ALL_SMALL_SWEEP = (
    [f"B{n}" for n in range(1, 6)]
    + [f"D{n}" for n in range(2, 7)]
    + [f"I2({m})" for m in range(3, 17)]
    + [f"A{n}" for n in range(1, 6)]
)
