"""Integer partitions, signed partitions, eta-quotient series and restricted counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product


def _notation(chunks: list[tuple[int, bool, int]]) -> str:
    # chunk = (part, barred, multiplicity); multiplicity suffix omitted when 1
    out = []
    for part, barred, mult in chunks:
        s = f"{part}b" if barred else str(part)
        if mult != 1:
            s += f"~{mult}"
        out.append(s)
    return " ".join(out)


@dataclass(frozen=True)
class Partition:
    """Partition of n, run-length encoded as (part, multiplicity) pairs.

    Parts are strictly decreasing and multiplicities positive, so equality of
    partitions is plain tuple equality.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        parts = [p for p, _ in self.entries]
        if any(p < 1 for p in parts) or any(m < 1 for _, m in self.entries):
            raise ValueError(f"invalid partition entries: {self.entries!r}")
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be strictly decreasing: {self.entries!r}")

    @classmethod
    def from_parts(cls, parts) -> Partition:
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return cls(tuple(sorted(counts.items(), reverse=True)))

    @property
    def n(self) -> int:
        return sum(p * m for p, m in self.entries)

    def parts(self) -> tuple[int, ...]:
        out: list[int] = []
        for p, m in self.entries:
            out.extend([p] * m)
        return tuple(out)

    def multiplicity(self, part: int) -> int:
        for p, m in self.entries:
            if p == part:
                return m
        return 0

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        return _notation([(p, False, m) for p, m in self.entries])


@dataclass(frozen=True)
class SignedPartition:
    """Partition of n whose parts each carry a sign.

    Stored as (part, positive_multiplicity, negative_multiplicity) with parts
    strictly decreasing and at least one copy of every listed part.
    """

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        parts = [p for p, _, _ in self.entries]
        if any(p < 1 for p in parts):
            raise ValueError(f"invalid parts: {self.entries!r}")
        if any(s < 0 or t < 0 or s + t < 1 for _, s, t in self.entries):
            raise ValueError(f"invalid multiplicities: {self.entries!r}")
        if any(a <= b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be strictly decreasing: {self.entries!r}")

    @property
    def n(self) -> int:
        return sum(p * (s + t) for p, s, t in self.entries)

    @property
    def underlying_partition(self) -> Partition:
        return Partition(tuple((p, s + t) for p, s, t in self.entries))

    @property
    def bar_count(self) -> int:
        return sum(t for _, _, t in self.entries)

    def is_all_even_positive(self) -> bool:
        return all(p % 2 == 0 and t == 0 for p, _, t in self.entries)

    def __str__(self) -> str:
        chunks: list[tuple[int, bool, int]] = []
        for p, s, t in self.entries:
            if s:
                chunks.append((p, False, s))
            if t:
                chunks.append((p, True, t))
        return _notation(chunks)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order of part sequences.

    partitions_of(0) is the single empty partition.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out: list[Partition] = []

    def descend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition.from_parts(prefix))
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            descend(remaining - p, p, prefix)
            prefix.pop()

    descend(n, n, [])
    return out


def signed_partitions_of(n: int) -> list[SignedPartition]:
    """All signed partitions of n, grouped by underlying partition.

    Underlying partitions run from 1^n up to n; within one partition the bar
    counts of larger parts vary more slowly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out: list[SignedPartition] = []
    for lam in reversed(partitions_of(n)):
        for bars in product(*[range(m + 1) for _, m in lam.entries]):
            out.append(
                SignedPartition(
                    tuple((p, m - t, t) for (p, m), t in zip(lam.entries, bars))
                )
            )
    return out


def eta_series(n: int, powers) -> list[int]:
    """Coefficients of q^0..q^n in the product of E(q^a)^e over the (a, e) pairs
    in `powers`, where E(q) = prod over k >= 1 of (1 - q^k).

    By Euler's pentagonal theorem E(q^a) is 1 plus the terms (-1)^k q^(a k(3k-1)/2)
    and (-1)^k q^(a k(3k+1)/2) for k >= 1, O(sqrt(n/a)) of them up to q^n.  So each
    unit of e multiplies by E(q^a) (top coefficient down) or divides by it (bottom
    up) in O(n^1.5) additions.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1] + [0] * n
    for a, e in powers:
        terms, k = [], 1  # (exponent, sign is +) past the 1 of E(q^a), ascending
        while (t := a * k * (3 * k - 1) // 2) <= n:
            terms += [(t, k % 2 == 0), (t + a * k, k % 2 == 0)]
            k += 1
        for _ in range(abs(e)):
            for m in range(n, 0, -1) if e > 0 else range(1, n + 1):
                total = 0
                for t, plus in terms:
                    if t > m:
                        break
                    if plus:
                        total += coeffs[m - t]
                    else:
                        total -= coeffs[m - t]
                coeffs[m] += total if e > 0 else -total
    return coeffs


def zeta(n: int) -> int:
    """Number of partitions of n with every part even and at least 4.

    One factor 1/(1 - q^p) per even p >= 4 makes (1 - q^2)/E(q^2), whose q^n
    coefficient this is.  zeta(0) = 1: the empty partition qualifies vacuously.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    series = eta_series(n, ((2, -1),))
    return series[n] - (series[n - 2] if n >= 2 else 0)


def delta_set(n: int) -> list[Partition]:
    """Partitions of n having at least one odd part with odd multiplicity."""
    if n < 1:
        raise ValueError("n must be positive")
    return [
        lam
        for lam in partitions_of(n)
        if any(p % 2 == 1 and m % 2 == 1 for p, m in lam.entries)
    ]


def delta_prime_set(n: int) -> list[Partition]:
    """Partitions of n in which every odd part has even multiplicity.

    Vacuously includes all-even partitions; empty for odd n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return [
        lam
        for lam in partitions_of(n)
        if all(m % 2 == 0 for p, m in lam.entries if p % 2 == 1)
    ]


def even_sum_tuple_count(d: list[int]) -> int:
    """Number of tuples (t_1..t_p) with 0 <= t_i <= d_i - 1 and even sum.

    Equals ceil(prod(d_i) / 2).
    """
    if not d:
        raise ValueError("d must be non-empty")
    if any(x < 1 for x in d):
        raise ValueError("every d_i must be positive")
    return (math.prod(d) + 1) // 2
