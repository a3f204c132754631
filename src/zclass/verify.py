"""Formula-vs-oracle verification: build the group, count both ways, diff groupings."""

from __future__ import annotations

from .closed_form import check_order, check_series_rank, z_count
from .errors import DEFAULT_ORDER_CAP, MAX_LISTED_CLASSES, UnsupportedGroupError
from .families import FAMILIES, CoxeterType, IrreducibleType

try:  # the oracle needs numpy; the formula route runs without it
    from . import oracle
    from .groups import GroupTable, product_table
except ModuleNotFoundError as exc:
    if exc.name != "numpy":
        raise
    oracle = None


def build_group(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The whole group of a type, named as typed: one table of the product of
    its factors, built from every factor's generators.

    Its order is checked against `order_cap` here, before any generator is
    made; no other code refuses a type's order.
    """
    if oracle is None:
        raise UnsupportedGroupError("the oracle needs numpy, which is not installed")
    order = check_order([f.order_parts() for f in t.factors], str(t), order_cap)
    parts = [FAMILIES[f.family].generators(f.rank) for f in t.factors]
    return product_table(parts, str(t), order)


def oracle_grouping_labels(table: GroupTable) -> list[list[str]]:
    """Oracle z-classes rendered as conjugacy-class labels.

    Each class is named by the table's label of its representative row (a
    cycle type, a signed partition with its D_n half, or a product's factor
    labels joined by ' | '); a table without a labeler gives positional c<k>,
    k the class's place in class order, that of the representatives' rows.
    """
    zgroups = oracle.z_classes(table)
    if table.labeler is not None:
        return [[table.label(rep) for rep in grp] for grp in zgroups]
    reps = [rep for grp in zgroups for rep in grp]
    reps.sort(key=lambda r: table.perms[r].tolist())
    position = {rep: i for i, rep in enumerate(reps)}
    return [[f"c{position[rep]}" for rep in grp] for grp in zgroups]


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
    return family.structural(factor.rank)


def verify_type(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> dict:
    """The verify record of `t`: its closed-form/table count against the oracle's.

    For a single factor with a structural grouping the full grouping is
    compared, not just the count, and a grouping diff is reported on mismatch.
    """
    result = z_count(t)
    table = build_group(t, order_cap=order_cap)
    single = t.factors[0] if len(t.factors) == 1 else None
    structural = structural_grouping_labels(single) if single is not None else None
    oracular = oracle_grouping_labels(table)
    oracle_count, conj_oracle = len(oracular), sum(len(g) for g in oracular)
    match = (result.total, result.conjugacy_total) == (oracle_count, conj_oracle)
    record = {
        "group": str(t),
        "formula_count": result.total,
        "formula_method": result.method,
        "oracle_count": oracle_count,
        "conjugacy_class_count_formula": result.conjugacy_total,
        "conjugacy_class_count_oracle": conj_oracle,
    }
    if structural is not None and (
        {frozenset(g) for g in structural} != {frozenset(g) for g in oracular}
    ):
        match = False
        record["diff"] = (
            ["structural grouping:"]
            + ["  {" + ", ".join(grp) + "}" for grp in structural]
            + ["oracle grouping:"]
            + ["  {" + ", ".join(grp) + "}" for grp in oracular]
        )
    record["status"] = "PASS" if match else "FAIL"
    return record


ALL_SMALL_SWEEP = (
    [f"B{n}" for n in range(1, 6)]
    + [f"D{n}" for n in range(2, 7)]
    + [f"I2({m})" for m in range(3, 17)]
    + [f"A{n}" for n in range(1, 6)]
)
