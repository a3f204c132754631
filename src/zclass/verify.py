"""Formula-vs-oracle verification: build the group, count both ways, diff groupings."""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .closed_form import check_order, check_series_rank, z_count
from .errors import DEFAULT_ORDER_CAP, MAX_LISTED_CLASSES, UnsupportedGroupError
from .families import FAMILIES, CoxeterType, IrreducibleType
from .groups import GroupTable, direct_product


def build_group(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The whole group of a product type, as one permutation group.

    Its order is checked against `order_cap` here, before any table is built;
    the builders refuse only past LARGE_ORDER_CAP.
    """
    check_order(t.factors, str(t), order_cap)
    tables = (FAMILIES[f.family].build(f.rank) for f in t.factors)
    table = next(tables)
    for factor_table in tables:
        table = direct_product(table, factor_table)
    return table


def oracle_grouping_labels(table: GroupTable) -> list[list[str]]:
    """Oracle z-classes rendered as conjugacy-class labels.

    Each class is named by the table's label of its representative row (a
    cycle type, a signed partition with its D_n half, or a product's factor
    labels joined by ' | '); a table without a labeler gives positional c<k>.
    """
    zgroups = oracle.z_classes(table)
    if table.labeler is not None:
        return [[table.label(c.rep) for c in grp] for grp in zgroups]
    classes = [c for grp in zgroups for c in grp]
    position = {c.rep: i for i, c in enumerate(sorted(classes, key=lambda c: c.rep))}
    return [[f"c{position[c.rep]}" for c in grp] for grp in zgroups]


def structural_grouping_labels(factor: IrreducibleType) -> list[list[str]] | None:
    """Label grouping from the family's structure theory, or None without one.

    A listing of more than MAX_LISTED_CLASSES classes is refused before any
    class is enumerated.  Class counts grow with the rank, so the ranks are
    walked up from the least: a rank past the first one over the cap is
    refused without evaluating its own count.
    """
    family = FAMILIES[factor.family]
    if family.structural is None:
        return None
    check_series_rank(factor)
    for rank in range(family.min_rank, factor.rank + 1):
        count = family.class_count(rank)
        if count <= MAX_LISTED_CLASSES:
            continue
        if rank == factor.rank:
            what = f"{count} conjugacy classes"
        else:
            first = IrreducibleType(factor.family, rank)
            what = f"more conjugacy classes than {first} ({count})"
        raise UnsupportedGroupError(
            f"{factor} has {what}; a listing holds at most {MAX_LISTED_CLASSES}"
        )
    return [[str(label) for label in grp] for grp in family.structural(factor.rank)]


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

    For a single factor with a structural grouping the full grouping is
    compared, not just the count, and a grouping diff is reported on mismatch.
    """
    result = z_count(t)
    table = build_group(t, order_cap=order_cap)
    diff: list[str] = []
    single = t.factors[0] if len(t.factors) == 1 else None
    structural = structural_grouping_labels(single) if single is not None else None
    if structural is not None:
        oracular = oracle_grouping_labels(table)
        oracle_count = len(oracular)
        conj_oracle = sum(len(g) for g in oracular)
        if {frozenset(g) for g in structural} != {frozenset(g) for g in oracular}:
            diff.append("structural grouping:")
            diff.extend(
                "  {" + ", ".join(grp) + "}" for grp in structural
            )
            diff.append("oracle grouping:")
            diff.extend("  {" + ", ".join(grp) + "}" for grp in oracular)
    else:
        zgroups = oracle.z_classes(table)
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
