"""Coxeter type descriptors and closed-form z-class counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .combinatorics import product_series, zeta
from .errors import (
    DEFAULT_ORDER_CAP,
    MAX_FORMULA_RANK,
    CoxeterParseError,
    CoxeterRankError,
    UnsupportedGroupError,
    order_cap_exceeded,
)

# family -> (conjugacy class count, z-class count); computed externally once,
# exposed here as lookup data
EXCEPTIONAL_TABLE: dict[str, tuple[int, int]] = {
    "F4": (25, 16),
    "E6": (25, 24),
    "E7": (60, 28),
    "E8": (112, 65),
    "H3": (10, 4),
    "H4": (34, 15),
}

# Python refuses to read an integer of more than 4300 digits
MAX_NUMBER_DIGITS = 1000

_EXCEPTIONAL_ORDERS = {
    "F4": 1152,
    "E6": 51840,
    "E7": 2903040,
    "E8": 696729600,
    "H3": 120,
    "H4": 14400,
}


@dataclass(frozen=True)
class IrreducibleType:
    """One irreducible factor: A/B/C/D with a rank, I2 with an edge label, or a named type."""

    family: str
    rank: int | None = None

    def __post_init__(self):
        fam, rank = self.family, self.rank
        if fam in ("A", "B", "C", "D"):
            if rank is None:
                raise CoxeterRankError(f"{fam} needs a rank")
            low = 2 if fam == "D" else 1
            if rank < low:
                raise CoxeterRankError(f"{fam}{rank}: rank must be at least {low}")
        elif fam == "I2":
            if rank is None or rank < 3:
                raise CoxeterRankError(f"I2({rank}): label must be at least 3")
        elif fam in EXCEPTIONAL_TABLE:
            if rank is not None:
                raise CoxeterRankError(f"{fam} takes no rank")
        else:
            raise CoxeterRankError(f"unknown family {fam!r}")

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.rank})"
        if self.rank is None:
            return self.family
        return f"{self.family}{self.rank}"

    def order_parts(self) -> tuple[int, int, int]:
        """(p, k, n) with group order p * 2**k * n!."""
        fam, rank = self.family, self.rank
        if fam == "A":
            return 1, 0, rank + 1
        if fam in ("B", "C"):
            return 1, rank, rank
        if fam == "D":
            return 1, rank - 1, rank
        if fam == "I2":
            return 2 * rank, 0, 0
        return _EXCEPTIONAL_ORDERS[fam], 0, 0

    def group_order(self) -> int:
        p, k, n = self.order_parts()
        return (p << k) * math.factorial(n)


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
        if letter in ("A", "B", "C", "D", "E", "F", "H"):
            pos = i
            rank, i = read_int(i + 1)
            if letter in ("A", "B", "C", "D"):
                fam, r = letter, rank
            else:
                fam, r = f"{letter}{rank}", None
                if fam not in EXCEPTIONAL_TABLE:
                    raise CoxeterParseError(f"unknown type {fam}", pos)
            factors.append(IrreducibleType(fam, r))
        elif letter == "I":
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


_HALF_LN_2PI = "0.918938533204672741780329736405617639861397473637783412817"


def _ln_factorial(n: int):
    """ln n! as a Decimal, past n = 20 by Stirling's series (then within 1e-12)."""
    from decimal import Decimal

    if n <= 20:
        return Decimal(math.factorial(n)).ln()
    x = Decimal(n)
    return (
        (x + Decimal("0.5")) * x.ln()
        - x
        + Decimal(_HALF_LN_2PI)
        + 1 / (12 * x)
        - 1 / (360 * x**3)
        + 1 / (1260 * x**5)
    )


def check_order(factors: tuple[IrreducibleType, ...], what: str, cap: int) -> None:
    """Refuse the product of `factors` when its order passes `cap`.

    The terms of the order are multiplied only until they pass the cap, and an
    order of over 40 digits is named by a digit count from Stirling's series,
    so a giant rank is refused without forming its order.  A logarithm within
    1e-9 of an integer falls back to the exact order.
    """
    parts = [f.order_parts() for f in factors]
    product = 1  # 2**cap.bit_length() passes the cap, so no more 2s are needed
    for term in chain.from_iterable(
        chain((p,), repeat(2, min(k, cap.bit_length())), range(2, n + 1))
        for p, k, n in parts
    ):
        product *= term
        if product > cap:
            break
    else:
        return
    from decimal import Decimal, localcontext  # refusals only: it costs start-up RSS

    with localcontext() as ctx:
        ctx.prec = 50 + sum(max(k, n).bit_length() for _, k, n in parts) // 3
        ln2 = Decimal(2).ln()
        log10 = sum(
            Decimal(p).ln() + k * ln2 + _ln_factorial(n) for p, k, n in parts
        ) / Decimal(10).ln()
        if log10 > 40 and abs(log10 - round(log10)) > Decimal("1e-9"):
            raise order_cap_exceeded(what, None, cap, digits=int(log10) + 1)
    order = math.prod(f.group_order() for f in factors)
    raise order_cap_exceeded(what, order, cap)


def _part_series(n: int, odd, even) -> int:
    """q^n coefficient of a product with one set of factors per part size p <= n.

    `odd` and `even` list (scale, power) pairs: part size p contributes
    1/(1 - q^(scale*p))^power for each pair of its parity.
    """
    factors = (
        (p * scale, power)
        for p in range(1, n + 1)
        for scale, power in (odd if p % 2 else even)
    )
    return product_series(factors, n)[n]


def partition_count(n: int) -> int:
    """p(n): the conjugacy classes of S_n."""
    return _part_series(n, ((1, 1),), ((1, 1),))


def conjugacy_count_bc(n: int) -> int:
    """Signed partitions (bipartitions) of n: the conjugacy classes of C2 wr S_n."""
    return _part_series(n, ((1, 2),), ((1, 2),))


def conjugacy_count_d(n: int) -> int:
    """Conjugacy classes of D_n: (bp(n) + 3 p(n/2)) / 2 for even n, bp(n) / 2 for odd n.

    Half the signed partitions have an even bar count, up to the signed sum
    of (-1)^bars, which is p(n/2); each of the p(n/2) all-even positive
    classes splits in two.
    """
    if n % 2:
        return conjugacy_count_bc(n) // 2
    return (conjugacy_count_bc(n) + 3 * partition_count(n // 2)) // 2


def z_count_bc(n: int) -> int:
    """z-classes of the hyperoctahedral group C2 wr S_n.

    The paper's sum over partitions of n of prod (floor(m/2)+1) over odd parts
    of multiplicity m times prod (m+1) over even parts.  Per part size p
    those factors sum to 1/((1-q^p)(1-q^2p)) for odd p and 1/(1-q^p)^2 for
    even p; the count is the q^n coefficient of their product.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _part_series(n, ((1, 1), (2, 1)), ((1, 2),))


def z_count_d(n: int) -> int:
    """z-classes of D_n: same as C2 wr S_n for odd n, corrected sum for even n.

    For even n the paper sums z over Delta(n), ceil(z/2) over Delta'(n), then
    subtracts zeta(n-2) and adds |Delta'(n/2)|.  Delta'(n) (odd parts of even
    multiplicity) has a series per part size, so its z-sum and the number of
    its members with odd z are coefficients; the Delta sum is the rest of
    z_count_bc(n).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    all_z = z_count_bc(n)
    if n % 2:
        return all_z
    prime_z = _part_series(n, ((2, 2),), ((1, 2),))
    prime_odd_z = _part_series(n, ((4, 1),), ((2, 1),))
    prime_half = _part_series(n // 2, ((2, 1),), ((1, 1),))
    return all_z - prime_z + (prime_z + prime_odd_z) // 2 - zeta(n - 2) + prime_half


def z_count_dihedral(m: int) -> int:
    """z-classes of the dihedral group of order 2m: 3, or 4 when m is divisible by 4."""
    if m < 3:
        raise ValueError("m must be at least 3")
    return 4 if m % 4 == 0 else 3


def z_count_exceptional(family: str) -> int:
    """Table lookup for F4, E6, E7, E8, H3, H4."""
    if family not in EXCEPTIONAL_TABLE:
        raise ValueError(f"not an exceptional family: {family!r}")
    return EXCEPTIONAL_TABLE[family][1]


def conjugacy_count_dihedral(m: int) -> int:
    if m % 2:
        return (m + 3) // 2
    return m // 2 + 3


@dataclass(frozen=True)
class FactorCount:
    factor: IrreducibleType
    z_count: int
    conjugacy_count: int
    method: str  # 'formula' | 'table' | 'oracle'


@dataclass(frozen=True)
class ZCountResult:
    total: int
    per_factor: tuple[FactorCount, ...]
    method: str

    @property
    def conjugacy_total(self) -> int:
        return math.prod(f.conjugacy_count for f in self.per_factor)


def check_series_rank(factor: IrreducibleType) -> None:
    """Refuse a B/C/D rank over MAX_FORMULA_RANK before any series is evaluated."""
    if factor.family in ("B", "C", "D") and factor.rank > MAX_FORMULA_RANK:
        raise UnsupportedGroupError(
            f"{factor}: the formula route serves B/C/D ranks up to {MAX_FORMULA_RANK}"
        )


def _count_factor(factor: IrreducibleType, order_cap: int) -> FactorCount:
    fam, rank = factor.family, factor.rank
    check_series_rank(factor)
    if fam in ("B", "C"):
        return FactorCount(
            factor, z_count_bc(rank), conjugacy_count_bc(rank), "formula"
        )
    if fam == "D":
        return FactorCount(factor, z_count_d(rank), conjugacy_count_d(rank), "formula")
    if fam == "I2":
        return FactorCount(
            factor, z_count_dihedral(rank), conjugacy_count_dihedral(rank), "formula"
        )
    if fam in EXCEPTIONAL_TABLE:
        cc, zc = EXCEPTIONAL_TABLE[fam]
        return FactorCount(factor, zc, cc, "table")
    # type A has no closed form here; delegate to the brute-force oracle
    check_order((factor,), f"A{rank}, counted by the oracle,", order_cap)
    from . import oracle
    from .groups import build_symmetric

    g = build_symmetric(rank + 1, order_cap=order_cap)
    groups = oracle.z_classes(g, order_cap=order_cap)
    return FactorCount(factor, len(groups), partition_count(rank + 1), "oracle")


def z_count(t: CoxeterType, order_cap: int = DEFAULT_ORDER_CAP) -> ZCountResult:
    """z-class count of a product type: product of the per-factor counts."""
    per_factor = tuple(_count_factor(f, order_cap) for f in t.factors)
    methods = {f.method for f in per_factor}
    if "oracle" in methods:
        method = "oracle"
    elif "table" in methods:
        method = "table"
    else:
        method = "formula"
    total = math.prod(f.z_count for f in per_factor)
    return ZCountResult(total, per_factor, method)
