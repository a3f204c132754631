"""Coxeter types: one descriptor per family, the factors and products, and their text.

`FAMILIES` describes each family of irreducible finite Coxeter groups once:
the ranks it takes, its group order, how its counts are found (a formula or
a table), the generators and row labeler its group is built from, and how
structure theory groups its classes.
The other modules read these descriptors, not family names.
Slots import the module they call when called, so importing this module
loads neither numpy nor the oracle, and they look the function up on its
module, so a function rebound there is the one called.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable

from .errors import CoxeterParseError, CoxeterRankError

# Python refuses to read an integer of more than 4300 digits
MAX_NUMBER_DIGITS = 1000
# how a family counts z-classes; a product's method is the latest here of its factors'
METHODS = ("formula", "table")


def _module(name: str):
    return importlib.import_module(f".{name}", __package__)


@dataclass(frozen=True)
class Family:
    """One family.  Slots take the rank first: the n of A_n, the m of I2(m),
    or None.  The group order is p * 2**k * n! for (p, k, n) = order_parts.
    `method` says how `z_count` counts z-classes: 'formula' or 'table'.
    `generators` gives (degree, generator rows, row labeler or None), from
    which `verify.build_group` builds the table; `structural` lists the
    z-classes as groups of class labels from structure theory, which the
    labeler gives the oracle's class representatives."""

    min_rank: int | None  # None: the family takes no rank
    order_parts: Callable
    method: str
    class_count: Callable
    z_count: Callable
    generators: Callable
    notation: str = "{family}{rank}"  # str.format pattern over family and rank
    rank_name: str = "rank"
    series_capped: bool = False  # ranks over MAX_FORMULA_RANK are refused
    structural: Callable | None = None

    def group_order(self, rank: int | None) -> int:
        p, k, n = self.order_parts(rank)
        return (p << k) * math.factorial(n)


def _exceptional(name: str, order: int, classes: int, z_classes: int) -> Family:
    """A type counted from the paper's table and generated on its root system."""
    return Family(
        min_rank=None,
        order_parts=lambda _: (order, 0, 0),
        method="table",
        class_count=lambda _: classes,
        z_count=lambda _: z_classes,
        generators=lambda _: _module("reflection").reflection_generators(name),
        notation="{family}",
    )


_BC = Family(
    min_rank=1,
    order_parts=lambda n: (1, n, n),
    method="formula",
    class_count=lambda n: _module("closed_form").conjugacy_count_bc(n),
    z_count=lambda n: _module("closed_form").z_count_bc(n),
    generators=lambda n: _module("groups").bc_generators(n),
    series_capped=True,
    structural=lambda n: _module("signed_perm").z_classes_bc(n),
)

FAMILIES: dict[str, Family] = {
    "A": Family(
        min_rank=1,
        order_parts=lambda n: (1, 0, n + 1),
        method="formula",
        class_count=lambda n: _module("closed_form").partition_count(n + 1),
        z_count=lambda n: _module("closed_form").z_count_a(n + 1),
        generators=lambda n: _module("groups").symmetric_generators(n + 1),
        series_capped=True,
        structural=lambda n: _module("signed_perm").z_classes_a(n + 1),
    ),
    "B": _BC,
    "C": _BC,
    "D": Family(
        min_rank=2,
        order_parts=lambda n: (1, n - 1, n),
        method="formula",
        class_count=lambda n: _module("closed_form").conjugacy_count_d(n),
        z_count=lambda n: _module("closed_form").z_count_d(n),
        generators=lambda n: _module("groups").d_generators(n),
        series_capped=True,
        structural=lambda n: _module("signed_perm").z_classes_dn(n),
    ),
    "I2": Family(
        min_rank=3,
        order_parts=lambda m: (2 * m, 0, 0),
        method="formula",
        class_count=lambda m: _module("closed_form").conjugacy_count_dihedral(m),
        z_count=lambda m: _module("closed_form").z_count_dihedral(m),
        generators=lambda m: _module("groups").dihedral_generators(m),
        notation="I2({rank})",
        rank_name="label",
    ),
    # (name, group order, conjugacy classes, z-classes)
    "F4": _exceptional("F4", 1152, 25, 16),
    "E6": _exceptional("E6", 51840, 25, 24),
    "E7": _exceptional("E7", 2903040, 60, 28),
    "E8": _exceptional("E8", 696729600, 112, 65),
    "H3": _exceptional("H3", 120, 10, 4),
    "H4": _exceptional("H4", 14400, 34, 15),
}
_INITIALS = {name[0] for name in FAMILIES}


@dataclass(frozen=True)
class IrreducibleType:
    """One irreducible factor: a family name and its rank (None if it takes none)."""

    family: str
    rank: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CoxeterRankError(f"unknown family {self.family!r}")
        family, rank = FAMILIES[self.family], self.rank
        low = family.min_rank
        if low is None and rank is not None:
            raise CoxeterRankError(f"{self.family} takes no rank")
        if low is not None and rank is None:
            raise CoxeterRankError(f"{self.family} needs a rank")
        if low is not None and rank < low:
            raise CoxeterRankError(f"{self}: {family.rank_name} must be at least {low}")

    def __str__(self) -> str:
        return FAMILIES[self.family].notation.format(family=self.family, rank=self.rank)

    def order_parts(self) -> tuple[int, int, int]:
        """(p, k, n) with group order p * 2**k * n!."""
        return FAMILIES[self.family].order_parts(self.rank)

    def group_order(self) -> int:
        return FAMILIES[self.family].group_order(self.rank)


@dataclass(frozen=True)
class CoxeterType:
    """A finite Coxeter group: a product of irreducible factors."""

    factors: tuple[IrreducibleType, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a Coxeter type needs at least one factor")

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors)

    def group_order(self) -> int:
        return math.prod(f.group_order() for f in self.factors)


def parse_coxeter_type(text: str) -> CoxeterType:
    """Parse `factor ("x" factor)*`, case- and whitespace-insensitive.

    Factors: A<k>, B<k>, C<k>, D<k>, I2(<m>), F4, E6, E7, E8, H3, H4.
    """
    factors: list[IrreducibleType] = []
    i = 0
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_int(j: int) -> tuple[int, int]:
        start = j
        while j < n and text[j] in "0123456789":
            j += 1
        if j == start:
            raise CoxeterParseError("expected a number", start)
        if j - start > MAX_NUMBER_DIGITS:
            raise CoxeterParseError(f"number of over {MAX_NUMBER_DIGITS} digits", start)
        return int(text[start:j]), j

    i = skip_ws(i)
    if i == n:
        raise CoxeterParseError("empty Coxeter type", 0)
    while True:
        letter = text[i].upper()
        if letter == "I":
            pos = i
            if text[i + 1 : i + 2] != "2":
                raise CoxeterParseError("expected I2(<m>)", pos)
            j = skip_ws(i + 2)
            if text[j : j + 1] != "(":
                raise CoxeterParseError("expected '(' after I2", j)
            m, j = read_int(skip_ws(j + 1))
            j = skip_ws(j)
            if text[j : j + 1] != ")":
                raise CoxeterParseError("expected ')'", j)
            factors.append(IrreducibleType("I2", m))
            i = j + 1
        elif letter in _INITIALS:
            # a ranked family's letter and its rank, or a named type such as E6
            pos = i
            rank, i = read_int(i + 1)
            fam, r = (letter, rank) if letter in FAMILIES else (f"{letter}{rank}", None)
            if fam not in FAMILIES:
                raise CoxeterParseError(f"unknown type {fam}", pos)
            factors.append(IrreducibleType(fam, r))
        else:
            raise CoxeterParseError(f"unexpected character {text[i]!r}", i)
        i = skip_ws(i)
        if i == n:
            break
        if text[i].upper() != "X":
            raise CoxeterParseError(f"expected 'x' between factors, got {text[i]!r}", i)
        i = skip_ws(i + 1)
        if i == n:
            raise CoxeterParseError("trailing 'x' without a factor", i)
    return CoxeterType(tuple(factors))
