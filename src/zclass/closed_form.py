"""Closed-form z-class counts, and the product dispatch over the family registry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

from .combinatorics import partition_numbers, product_series, zeta
from .errors import MAX_FORMULA_RANK, UnsupportedGroupError, order_cap_exceeded
from .families import FAMILIES, METHODS, CoxeterType, IrreducibleType
from .families import parse_coxeter_type  # noqa: F401  (re-exported)

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


def check_order(parts: list[tuple[int, int, int]], what: str, cap: int) -> int:
    """The order of a product whose factors have the (p, k, n) order parts
    `parts` (order p * 2**k * n!), refused when it passes `cap`.

    The terms of the order are multiplied only until they pass the cap, and an
    order of over 40 digits is named by a digit count from Stirling's series,
    so a giant rank is refused without forming its order.  A logarithm within
    1e-9 of an integer falls back to the exact order.
    """
    product = 1  # 2**cap.bit_length() passes the cap, so no more 2s are needed
    for term in chain.from_iterable(
        chain((p,), repeat(2, min(k, cap.bit_length())), range(2, n + 1))
        for p, k, n in parts
    ):
        product *= term
        if product > cap:
            break
    else:
        return product
    from decimal import Decimal, localcontext  # refusals only: it costs start-up RSS

    with localcontext() as ctx:
        ctx.prec = 50 + sum(max(k, n).bit_length() for _, k, n in parts) // 3
        ln2 = Decimal(2).ln()
        log10 = sum(
            Decimal(p).ln() + k * ln2 + _ln_factorial(n) for p, k, n in parts
        ) / Decimal(10).ln()
        if log10 > 40 and abs(log10 - round(log10)) > Decimal("1e-9"):
            raise order_cap_exceeded(what, None, cap, digits=int(log10) + 1)
    order = math.prod((p << k) * math.factorial(n) for p, k, n in parts)
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
    return partition_numbers(n)[n]


def z_count_a(n: int) -> int:
    """z-classes of S_n: p(n) - p(n-2) + p(n-3) + p(n-4) - p(n-5), the q^n coefficient
    of P(q)(1 - q^2 + q^3 + q^4 - q^5).  Only lam+{1,1} and lam+{2} merge, for each
    lam of n-2 free of parts 1 and 2; P(q)(1-q)(1-q^2) counts those lam."""
    if n < 1:
        raise ValueError("n must be positive")
    p = partition_numbers(n)
    terms = ((0, 1), (2, -1), (3, 1), (4, 1), (5, -1))  # (power of q, sign)
    return sum(sign * p[n - k] for k, sign in terms if k <= n)


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
    """Table lookup for F4, E6, E7, E8, H3, H4, read from `FAMILIES`."""
    if family not in FAMILIES or FAMILIES[family].method != "table":
        raise ValueError(f"not an exceptional family: {family!r}")
    return FAMILIES[family].z_count(None)


def conjugacy_count_dihedral(m: int) -> int:
    if m % 2:
        return (m + 3) // 2
    return m // 2 + 3


@dataclass(frozen=True)
class FactorCount:
    factor: IrreducibleType
    z_count: int
    conjugacy_count: int
    method: str  # 'formula' | 'table'


@dataclass(frozen=True)
class ZCountResult:
    total: int
    per_factor: tuple[FactorCount, ...]
    method: str

    @property
    def conjugacy_total(self) -> int:
        return math.prod(f.conjugacy_count for f in self.per_factor)


def check_series_rank(factor: IrreducibleType) -> None:
    """Refuse a rank over MAX_FORMULA_RANK, in a family whose series it caps,
    before any series is evaluated."""
    if FAMILIES[factor.family].series_capped and factor.rank > MAX_FORMULA_RANK:
        capped = "/".join(n for n, f in FAMILIES.items() if f.series_capped)
        raise UnsupportedGroupError(
            f"{factor}: the formula route serves {capped} ranks up to "
            f"{MAX_FORMULA_RANK}"
        )


def _count_factor(factor: IrreducibleType) -> FactorCount:
    family = FAMILIES[factor.family]
    check_series_rank(factor)
    z = family.z_count(factor.rank)
    return FactorCount(factor, z, family.class_count(factor.rank), family.method)


def z_count(t: CoxeterType) -> ZCountResult:
    """z-class count of a product type: product of the per-factor counts."""
    per_factor = tuple(_count_factor(f) for f in t.factors)
    method = max((f.method for f in per_factor), key=METHODS.index)
    total = math.prod(f.z_count for f in per_factor)
    return ZCountResult(total, per_factor, method)
