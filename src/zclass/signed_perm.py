"""Signed permutations: a concrete model of the hyperoctahedral group and its D_n subgroup."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import Partition, SignedPartition
from .combinatorics import partitions_of, signed_partitions_of


def _invert_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img] = i
    return tuple(inv)


@dataclass(frozen=True)
class SignedPermutation:
    """Element [a_1..a_n; sigma]: a vector of signs plus a permutation.

    `perm` is a 0-based image array (perm[i] is the image of i); `signs[i]` is
    the sign attached to position i.  The product follows the wreath rule:
    signs multiply after being permuted by the left factor, permutations
    compose right-to-left.
    """

    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.signs)
        if len(self.perm) != n:
            raise ValueError("signs and perm must have equal length")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError(f"signs must be +-1: {self.signs!r}")
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"perm is not a bijection on 0..{n - 1}: {self.perm!r}")

    @property
    def n(self) -> int:
        return len(self.signs)

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls((1,) * n, tuple(range(n)))

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        inv_self = _invert_perm(self.perm)
        signs = tuple(
            self.signs[i] * other.signs[inv_self[i]] for i in range(self.n)
        )
        perm = tuple(self.perm[other.perm[i]] for i in range(self.n))
        return SignedPermutation(signs, perm)

    def inverse(self) -> SignedPermutation:
        signs = tuple(self.signs[self.perm[i]] for i in range(self.n))
        return SignedPermutation(signs, _invert_perm(self.perm))

    def in_d_n(self) -> bool:
        return math.prod(self.signs) == 1

    def cycles(self) -> list[list[int]]:
        """Cycle decomposition of the permutation part, fixed points included."""
        seen = [False] * self.n
        out: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.perm[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.perm[j]
            out.append(cyc)
        return out


def signed_cycle_type(a: SignedPermutation) -> SignedPartition:
    """Signed partition of a: one part per cycle, barred iff its cycle product is -1."""
    counts: dict[int, list[int]] = {}
    for cyc in a.cycles():
        prod = math.prod(a.signs[i] for i in cyc)
        entry = counts.setdefault(len(cyc), [0, 0])
        entry[0 if prod == 1 else 1] += 1
    return SignedPartition(
        tuple((p, s, t) for p, (s, t) in sorted(counts.items(), reverse=True))
    )


def class_representative(sp: SignedPartition) -> SignedPermutation:
    """Canonical representative: consecutive cycle supports, positive cycles first.

    Positive cycles carry all-plus signs; negative odd cycles all-minus;
    negative even cycles a single -1 followed by +1s.  Always satisfies
    signed_cycle_type(result) == sp.
    """
    signs: list[int] = []
    perm: list[int] = []

    def add_cycle(k: int, cycle_signs: list[int]) -> None:
        base = len(perm)
        perm.extend(base + (i + 1) % k for i in range(k))
        signs.extend(cycle_signs)

    for part, pos, neg in sp.entries:
        for _ in range(pos):
            add_cycle(part, [1] * part)
        for _ in range(neg):
            if part % 2 == 1:
                add_cycle(part, [-1] * part)
            else:
                add_cycle(part, [-1] + [1] * (part - 1))
    return SignedPermutation(tuple(signs), tuple(perm))


def centralizer_order_bc(sp: SignedPartition) -> int:
    """Order of the centralizer in C2 wr S_n of the class labelled by sp.

    Each entry contributes (2p)^s s! (2p)^t t!: the centralizer is a direct
    product of wreath products, one per signed part.
    """
    order = 1
    for p, s, t in sp.entries:
        order *= (2 * p) ** s * math.factorial(s)
        order *= (2 * p) ** t * math.factorial(t)
    return order


def _bc_z_key(sp: SignedPartition) -> tuple:
    # odd parts: the multiplicity pair is unordered; even parts: exact match
    key = []
    for p, s, t in sp.entries:
        if p % 2 == 1:
            key.append((p, max(s, t), min(s, t)))
        else:
            key.append((p, s, t))
    return tuple(key)


def z_classes_bc(n: int) -> list[list[SignedPartition]]:
    """Partition of the signed partitions of n into z-classes of C2 wr S_n.

    Two classes are z-equivalent iff they share the underlying partition, the
    sign multiplicities of every odd part agree up to swapping, and those of
    every even part agree exactly.
    """
    groups: dict[tuple, list[SignedPartition]] = {}
    for sp in signed_partitions_of(n):
        groups.setdefault(_bc_z_key(sp), []).append(sp)
    return list(groups.values())


def z_classes_a(n: int) -> list[list[Partition]]:
    """Partition of the cycle types of S_n into z-classes of S_n.

    lam+{1,1} and lam+{2} are one z-class when lam has no part 1 or 2: on
    the same points both have the centralizer C(lam) x S_2.  Every other
    class stands alone.  Classes run from 1^n up to n.
    """
    groups: dict[Partition, list[Partition]] = {}
    for lam in reversed(partitions_of(n)):
        key = lam
        if lam.multiplicity(1) == 2 and lam.multiplicity(2) == 0:
            key = Partition(lam.entries[:-1] + ((2, 1),))
        groups.setdefault(key, []).append(lam)
    return list(groups.values())


@dataclass(frozen=True)
class SignedClassLabel:
    """Conjugacy class of D_n: a signed partition, plus a half marker for split classes."""

    signed_partition: SignedPartition
    split_half: str | None = None  # '+' or '-', only for split classes

    def __post_init__(self):
        if self.split_half is not None:
            if self.split_half not in ("+", "-"):
                raise ValueError(f"bad split half: {self.split_half!r}")
            if not self.signed_partition.is_all_even_positive():
                raise ValueError(
                    f"only all-even positive classes split: {self.signed_partition}"
                )

    def __str__(self) -> str:
        return str(self.signed_partition) + (self.split_half or "")


def dn_class_label(w: SignedPermutation) -> SignedClassLabel:
    """Conjugacy class in D_n of an element w of D_n.

    Only an all-even positive type sp splits.  Its '+' half holds
    class_representative(sp), and w is in it exactly when a B_n conjugator
    from that representative to w lies in D_n; this does not depend on the
    conjugator, since the centralizer of a split class lies in D_n.  Scaling
    the points i_0, i_1, ... of each cycle by d_0 = 1, d_j = d_(j-1) *
    signs[i_j] conjugates w to the sign-free permutation of its cycles, which
    a sign-free permutation conjugates to the representative.  So w is in
    the '+' half exactly when the product of all the d_j is 1.
    """
    sp = signed_cycle_type(w)
    if not sp.is_all_even_positive():
        return SignedClassLabel(sp)
    parity = 1
    for cyc in w.cycles():
        d = 1
        for i in cyc[1:]:
            d *= w.signs[i]
            parity *= d
    return SignedClassLabel(sp, "+" if parity == 1 else "-")


def dn_conjugacy_classes(n: int) -> list[SignedClassLabel]:
    """Conjugacy classes of D_n: even-bar signed partitions, split ones twice."""
    if n < 2:
        raise ValueError("n must be at least 2")
    labels: list[SignedClassLabel] = []
    for sp in signed_partitions_of(n):
        if sp.bar_count % 2:
            continue
        if sp.is_all_even_positive():
            labels.append(SignedClassLabel(sp, "+"))
            labels.append(SignedClassLabel(sp, "-"))
        else:
            labels.append(SignedClassLabel(sp))
    return labels


def _split_pair_merges(sp: SignedPartition) -> bool:
    # the two halves of a split class are z-conjugate iff some part = 2 mod 4
    # occurs with odd multiplicity
    return any(p % 4 == 2 and s % 2 == 1 for p, s, _ in sp.entries)


def _absorbs_split_pair(sp: SignedPartition) -> SignedPartition | None:
    """For a split class of type 2^1 m_2^{x_2}...: the non-split type it merges with.

    Returns the signed partition 1^2 m_2^{x_2}... whose z-group absorbs both
    split halves, or None when the shape does not match.  The remaining parts
    are automatically >= 4 (even and distinct from the unique part 2).
    """
    if not any(p == 2 and s == 1 for p, s, _ in sp.entries):
        return None
    rest = tuple((p, s, t) for p, s, t in sp.entries if p != 2)
    return SignedPartition(rest + ((1, 2, 0),))


def z_classes_dn(n: int) -> list[list[SignedClassLabel]]:
    """Partition of the D_n conjugacy classes into z-classes of D_n.

    Non-split classes group by z-equivalence in C2 wr S_n; the split pair of
    type 2^1 m_2^{x_2}... (all m_i >= 4) joins the group of 1^2 m... / 1b^2 m...;
    any other split pair merges with itself iff some part = 2 mod 4 has odd
    multiplicity.  Groups come in the order of their first class.
    """
    groups: dict[object, list[SignedClassLabel]] = {}
    for label in dn_conjugacy_classes(n):
        sp = label.signed_partition
        if label.split_half is None:
            key = _bc_z_key(sp)
        elif (target := _absorbs_split_pair(sp)) is not None:
            key = _bc_z_key(target)
        elif _split_pair_merges(sp):
            key = sp
        else:
            key = label
        groups.setdefault(key, []).append(label)
    return list(groups.values())
