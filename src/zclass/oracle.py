"""Brute-force z-class engine for any enumerated finite group.

Mirrors the classic computer-algebra recipe: list conjugacy classes, find the
centralizer of each representative, and group classes whose centralizers are
conjugate subgroups, scanning existing groups in order and absorbing into the
first match.  Everything is deterministic: classes are ordered by their least
row and witnesses are the smallest-index conjugators.

Classes.  `conjugacy_classes` labels every row with itself, then repeats
rounds of label[r] = min(label[r], label[s r s^-1]) for each generator s and
label[r] = label[label[r]] until a round changes nothing.  A label always
names a row of the same class and never grows, so the least row m of a class
keeps label m, and a round that keeps the label sum changed none.  Then
label[r] <= label[s r s^-1] for every generator s, and as s has finite
order, the labels along r, s r s^-1, s^2 r s^-2, ... are equal.  Conjugation
by the generators reaches the whole class, so every row is labelled m.

Probes.  A member w of C(x) maps each x-cycle onto an x-cycle of the same
length, so w(b), b the first base point, lies in an x-cycle as long as b's.
Rows are sorted by w(b) (see `zclass.groups`), so such rows form contiguous
blocks, found by one searchsorted on that column; `centralizer` lists C(x)
exactly by testing only them.  A probe of x is a member of C(x) found in a
spread sample of those n rows (a stride near n/phi), sized to hold about
`_FIRST_PROBES` probes, then twice as many each round.  The probes are
certified once the product of the orbit lengths of their complete
stabilizer chain, |<probes>|, equals |C(x)| = |G|/|class|: <probes> lies in
C(x), so they generate C(x).  The chain takes the whole first sample; a
later probe that sifts through it adds nothing and is dropped, and the
others are taken one at a time, each at least doubling the order.  Rows
running out below |C(x)|, an order past it, or a probe that does not commute
with x raises, also under `python -O`.  A central x takes G's generators.

Center test.  For |C(x)| = |C(y)|, C(x) and C(y) are conjugate exactly when
the center Z(C(x)) meets the class of y.  If w C(y) w^-1 = C(x), then
w y w^-1 is central in C(x).  Conversely, if z = u y u^-1 lies in Z(C(x)),
then C(x) lies in C(z) = u C(y) u^-1, and the two orders are equal.  An
element commuting with all of C(x) commutes with x, so Z(C(x)) = C_G(C(x)).
`z_classes` keeps the members of a class y that commute with every probe of
the first class h of each earlier group with |h| = |y|.  As the probes lie
in C(h), C_G(probes) contains Z(C(h)): if none survives, the answer is
exactly no.  A survivor counts only once the probes are certified, as then
C_G(probes) = Z(C(h)); until then h draws more.  Only a head that a later
class of its size from another sure component reaches draws probes.
`subgroups_conjugate` and its fingerprint remain as general tools.

Sure joins.  If C(x) lies in C(y) and the classes of x and y have the same
size, then |C(x)| = |C(y)|, so C(x) = C(y).  C(x) lies in C(x^p), and in C(xc)
for c central, which holds x = (xc)c^-1.  So `z_classes` first joins into sure
components all central classes (C = G), each other rep x with the class of
x^p, for p a prime dividing ord(x) (read off x's cycle lengths), when that
class has x's size, and x with the class of xc for c in a generating set of
Z(G).  A row's class is found among the classes of its size.  Only the first
class of a component meets the center test; the others join its group.

Every equation between elements is decided on the table's base (see
`zclass.groups`): w commutes with x when w(x(b)) == x(w(b)) at each base point
b, and a product or conjugate is looked up by its base images alone, so no
full product row is formed on the hot paths.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .groups import ChainLevel, GroupTable, sift, stabilizer_chain

log = logging.getLogger(__name__)

_CHUNK = 1 << 16
_FIRST_PROBES = 4  # probes the first sample of a head is sized to hold


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class: its least row and its sorted member rows."""

    rep: int  # the least row of the class
    members: np.ndarray = field(repr=False)  # sorted row indices, int32

    @property
    def size(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class SubgroupHandle:
    """Subgroup as sorted member rows and a generating list, as `centralizer`
    returns it; `z_classes` uses neither.

    The center (the members commuting with every generator) and the
    fingerprint (order, element-order histogram, center order) are computed on
    first use.  The fingerprint is invariant under conjugation, so unequal
    fingerprints reject conjugacy outright.
    """

    group: GroupTable = field(repr=False)
    member_rows: np.ndarray = field(repr=False)
    generator_rows: tuple[int, ...]

    @property
    def order(self) -> int:
        return int(self.member_rows.size)

    @cached_property
    def center_rows(self) -> np.ndarray:
        """Members commuting with every generator."""
        return _commuting(self.group, self.member_rows, self.generator_rows)

    @cached_property
    def fingerprint(self) -> tuple:
        orders = self.group.element_orders()[self.member_rows]
        histogram = tuple(np.bincount(orders).tolist())
        return (self.order, histogram, int(self.center_rows.size))


def conjugacy_classes(g: GroupTable) -> list[ConjugacyClass]:
    """Orbit partition under conjugation, ordered by minimal representative:
    min-label propagation over the conjugation maps (see the module docstring)."""
    label = np.arange(g.order, dtype=np.int32)
    total = g.order * (g.order - 1) // 2
    while True:
        for m in g.conjugation_maps():
            np.minimum(label, label[m], out=label)
        label = label[label]
        last, total = total, int(label.sum(dtype=np.int64))
        if total == last:
            break
    reps = np.flatnonzero(label == np.arange(g.order))
    sizes = np.bincount(label)[reps]
    if sizes.sum() != g.order or np.any(g.order % sizes):
        raise AssertionError("conjugacy classes break the class equation")
    members = np.argsort(label, kind="stable").astype(np.int32)
    parts = np.split(members, np.cumsum(sizes)[:-1])
    return [ConjugacyClass(int(r), part) for r, part in zip(reps, parts)]


def _commuting(g: GroupTable, rows: np.ndarray, xs: Iterable[int]) -> np.ndarray:
    """Those of `rows` whose elements w satisfy w x = x w for every x at the
    rows `xs`, tested at the base; stops once none is left."""
    perms = g.perms
    for xr in xs:
        x = perms[xr]
        for b in g.base:
            rows = rows[perms[rows, x[b]] == x[perms[rows, b]]]
        if not rows.size:
            break
    return rows


def _cycle_lengths(perms: np.ndarray) -> np.ndarray:
    """cycle[r, p]: the length of the cycle of the r-th of `perms` through p,
    counted by the least point of each cycle, found by pointer doubling."""
    n, degree = perms.shape
    least, jump = np.broadcast_to(np.arange(degree), perms.shape), perms
    for _ in range((degree - 1).bit_length()):  # least of p, ..., x^(2^k - 1)(p)
        least = np.minimum(least, np.take_along_axis(least, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)
    flat = least + degree * np.arange(n)[:, None]
    return np.bincount(flat.ravel(), minlength=n * degree)[flat]


def _power(perms: np.ndarray, e: int) -> np.ndarray:
    """Each of `perms` raised to e >= 1, by repeated squaring."""
    out = None
    while e:
        if e & 1:
            out = perms if out is None else np.take_along_axis(perms, out, axis=1)
        perms, e = np.take_along_axis(perms, perms, axis=1), e >> 1
    return out


def _center_generators(g: GroupTable, central: np.ndarray) -> list[int]:
    """The rows of Z(G), given sorted as `central`, that lie outside the
    subgroup generated by the earlier ones."""
    keys, spanned, kept = g.keys[central], central == g.identity_row, []
    for i, c in enumerate(central.tolist()):
        if spanned[i]:
            continue
        kept.append(c)
        coset = np.flatnonzero(spanned)
        while True:  # the cosets S c, S c^2, ... of the span S, until S again
            images = g.perms[central[coset]][:, g.perms[c][g.base]]
            coset = np.searchsorted(keys, g.base_keys(images))
            if spanned[coset[0]]:
                break
            spanned[coset] = True
    return kept


def _sure_components(g: GroupTable, classes: list[ConjugacyClass]) -> list[int]:
    """The first class of each class's sure component (see the module docstring)."""
    sizes = np.array([cl.size for cl in classes])
    reps = np.array([cl.rep for cl in classes])
    central, moving = np.flatnonzero(sizes == 1), np.flatnonzero(sizes > 1)
    xs = g.perms[reps[moving]]
    cycle = _cycle_lengths(xs)
    orders = np.lcm.reduce(cycle, axis=1)
    src, images = [], []
    for p in range(2, int(cycle.max(initial=1)) + 1):  # x^p for primes p | ord(x)
        has = orders % p == 0
        if has.any() and all(p % q for q in range(2, math.isqrt(p) + 1)):
            src.append(moving[has])
            images.append(_power(xs[has], p)[:, g.base])
    for c in _center_generators(g, reps[central]) if moving.size else ():
        src.append(moving)
        images.append(xs[:, g.perms[c][g.base]])  # x c
    src = np.concatenate([moving[:0], *src])
    rows = g.base_index(np.concatenate([xs[:0, g.base], *images]))
    dst = np.full(src.size, -1)
    for s in set(sizes[moving].tolist()):  # each row's class among those of its size
        ask = np.flatnonzero(sizes[src] == s)
        query = rows[ask]
        for j in np.flatnonzero(sizes == s):
            members = classes[j].members
            at = members.take(np.searchsorted(members, query), mode="clip")
            dst[ask[at == query]] = j
    a, b = src[dst >= 0], dst[dst >= 0]
    root = np.arange(len(classes))
    root[central] = 0  # the identity's class
    while True:  # min-label rounds, as in `conjugacy_classes`
        low, new = np.minimum(root[a], root[b]), root.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, root):
            return root.tolist()
        root = new


def _candidate_blocks(g: GroupTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows w with w(b) in an x-cycle as long as b's, b the first base
    point, as blocks: (first row of each, running total of their lengths)."""
    points = np.arange(g.degree)
    b = g.base[0] if g.base.size else 0  # a trivial group has no base
    cycle = _cycle_lengths(g.perms[x : x + 1])[0]
    # rows are sorted by w(b): first[p] is the first row with w(b) >= p
    first = np.append(np.searchsorted(g.perms[:, b], points.astype(np.uint8)), g.order)
    same = np.flatnonzero(cycle == cycle[b])
    return first[same], np.cumsum(np.append(0, first[same + 1] - first[same]))


def _rows_at(blocks: tuple[np.ndarray, np.ndarray], at: np.ndarray) -> np.ndarray:
    """The rows at positions `at` in the concatenated blocks."""
    starts, totals = blocks
    block = np.searchsorted(totals, at, side="right") - 1
    return starts[block] + (at - totals[block])


def _probes(g: GroupTable, x: int, rows: np.ndarray) -> np.ndarray:
    """Those of `rows` in C(x)."""
    return _commuting(g, rows, [x])


def _spreading_stride(n: int) -> int:
    """A step near n/phi and coprime to n: i * step % n visits every position once."""
    step = max(1, round(n * 0.6180339887))
    while math.gcd(step, n) != 1:
        step += 1
    return step


def _outside(levels: list[ChainLevel], perms: np.ndarray) -> np.ndarray:
    """Mask of the rows of `perms` that do not sift to the identity through
    the complete chain `levels`, that is, lie outside the group it describes."""
    return (sift(levels, perms)[0] != np.arange(perms.shape[1])).any(axis=1)


class _Probes:
    """Probes of C(x), |C(x)| = `order`, drawn until certified (see the
    module docstring): `rows` are those the stabilizer chain `chain` was
    built of, and `pending` those of the last sample outside its group."""

    def __init__(self, g: GroupTable, x: int, order: int):
        self.g, self.x, self.order = g, x, order
        self.certified = order == g.order
        self.rows = np.array(g.gen_rows if self.certified else (), dtype=np.intp)
        self.chain: list[ChainLevel] = []
        self.pending = self.rows[:0]
        if not self.certified:
            self.blocks = _candidate_blocks(g, x)
            self.drawn, self.wanted = 0, _FIRST_PROBES

    def draw(self) -> np.ndarray:
        """The probes of the next, twice as large sample outside the chain's group."""
        g, n = self.g, int(self.blocks[1][-1])
        if self.drawn >= n:
            raise AssertionError("probes ran out below |G|/|class|")
        stop = min(n, self.drawn + math.ceil(self.wanted * n / self.order))
        at = np.arange(self.drawn, stop) * _spreading_stride(n) % n
        new = _probes(g, self.x, _rows_at(self.blocks, at))
        self.drawn, self.wanted = stop, 2 * self.wanted
        self.pending = new[_outside(self.chain, g.perms[new])]
        return self.pending

    def certify(self) -> bool:
        """Whether the probes generate a group of order |C(x)|, by their
        complete stabilizer chain; takes the whole first sample, then one
        pending probe at a time."""
        perms = self.g.perms
        while not self.certified and self.pending.size:
            take = 1 if self.rows.size else self.pending.size
            self.rows = np.concatenate([self.rows, self.pending[:take]])
            self.chain = stabilizer_chain(perms[self.rows])
            reached = math.prod(level.transversal.shape[0] for level in self.chain)
            if reached > self.order:
                raise AssertionError("probe closure passed |G|/|class|")
            if reached == self.order:
                if _commuting(self.g, self.rows, [self.x]).size != self.rows.size:
                    raise AssertionError("a probe does not centralize")
                self.certified = True
            rest = self.pending[take:]
            self.pending = rest[_outside(self.chain, perms[rest])]
        return self.certified

    def meet(self, rows: np.ndarray) -> bool:
        """Whether some of `rows` lies in Z(C(x)); draws probes until it is sure."""
        rows = _commuting(self.g, rows, [*self.rows, *self.pending])
        while rows.size and not self.certify():
            rows = _commuting(self.g, rows, self.draw())
        return bool(rows.size)


def centralizer(
    g: GroupTable, row: int, cl: ConjugacyClass | None = None
) -> SubgroupHandle:
    """All elements commuting with the element at `row`, listed from the rows
    that may, and generated by its certified probes.  The class `cl` of `row`
    fixes |C(x)| = |G|/|class|, which the listing must match."""
    if cl is not None and cl.rep != row:
        raise ValueError(f"class of row {cl.rep}, not {row}")
    blocks = _candidate_blocks(g, row)
    members = _commuting(g, _rows_at(blocks, np.arange(blocks[1][-1])), [row])
    order = members.size if cl is None else g.order // cl.size
    if members.size != order:
        raise AssertionError("centralizer scan missed |G|/|class|")
    probes = _Probes(g, row, order)
    while not probes.certify():
        probes.draw()
    return SubgroupHandle(g, members, tuple(probes.rows.tolist()))


def subgroups_conjugate(
    g: GroupTable, h: SubgroupHandle, k: SubgroupHandle
) -> tuple[bool, int | None]:
    """Search for w with w h w^-1 = k; returns (found, witness row).

    Fingerprint mismatch rejects immediately.  Otherwise candidates w are
    filtered generator by generator (w g w^-1 must land in k), and the first
    survivor is confirmed by conjugating h's full member set.
    """
    if h.fingerprint != k.fingerprint:
        return False, None
    if np.array_equal(h.member_rows, k.member_rows):
        return True, g.identity_row
    k_keys = g.keys[k.member_rows]
    inverses = g.inverses()
    candidates = np.arange(g.order)
    for gr in h.generator_rows:
        if not candidates.size:
            break
        gen_arr = g.perms[gr]
        keep_parts = []
        for lo in range(0, candidates.size, _CHUNK):
            cand = candidates[lo : lo + _CHUNK]
            images = g.perms[cand[:, None], gen_arr[inverses[cand[:, None], g.base]]]
            query = g.base_keys(images)
            inside = np.searchsorted(k_keys, query)
            inside[inside == k_keys.size] = 0
            keep_parts.append(cand[k_keys[inside] == query])
        candidates = np.concatenate(keep_parts)
    if not candidates.size:
        return False, None
    witness = int(candidates[0])
    conj_members = np.sort(g.conjugates(witness, h.member_rows))
    if not np.array_equal(conj_members, k.member_rows):
        raise AssertionError("generator images matched but member sets differ")
    return True, witness


def z_classes(g: GroupTable) -> list[list[ConjugacyClass]]:
    """Group conjugacy classes whose centralizers are conjugate in g.

    A class whose sure component (see the module docstring) holds an earlier
    class joins that class's group.  Otherwise the first existing group with
    a conjugate centralizer absorbs it, decided by the center test on the
    probes of that group's first class, or the class opens a new group.
    """
    classes = conjugacy_classes(g)
    root = _sure_components(g, classes)
    groups: list[list[int]] = []
    group_of: list[int] = []
    probes: dict[int, _Probes] = {}
    for ci, cl in enumerate(classes):
        gi = group_of[root[ci]] if root[ci] < ci else len(groups)
        for k, grp in enumerate(groups if root[ci] == ci else ()):
            head = grp[0]
            if classes[head].size != cl.size:
                continue
            if head not in probes:
                probes[head] = _Probes(g, classes[head].rep, g.order // cl.size)
            if probes[head].meet(cl.members):
                gi = k
                break
        if gi == len(groups):
            groups.append([])
        groups[gi].append(ci)
        group_of.append(gi)
    for ci, cl in enumerate(classes):
        p = probes.get(ci)
        log.debug(
            "class %d/%d: size %d, centralizer order %d, %s%s",
            ci + 1,
            len(classes),
            cl.size,
            g.order // cl.size,
            f"{p.rows.size} generators" if p and p.certified else "no certificate",
            f", sure join with class {root[ci] + 1}" if root[ci] < ci else "",
        )
    log.debug(
        "%d classes, %d sure components, %d heads probed, %d heads certified",
        len(classes),
        sum(r == ci for ci, r in enumerate(root)),
        len(probes),
        sum(p.certified for p in probes.values()),
    )
    return [[classes[ci] for ci in grp] for grp in groups]
