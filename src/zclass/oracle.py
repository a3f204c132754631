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
certified once a stabilizer chain of them, told |C(x)| = |G|/|class|,
reaches that order: the product of its orbit lengths never exceeds
|<probes>|, and <probes> lies in C(x), so they generate C(x).  The chain
takes the whole first sample; while it falls short it is complete, so a
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
class of its size reaches draws probes.  `subgroups_conjugate` and its
fingerprint remain as general tools.

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

from .groups import ChainLevel, GroupTable, stabilizer_chain

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


def _candidate_blocks(g: GroupTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows w with w(b) in an x-cycle as long as b's, b the first base
    point, as blocks: (first row of each, running total of their lengths)."""
    perm, points = g.perms[x], np.arange(g.degree)
    b = g.base[0] if g.base.size else 0  # a trivial group has no base
    cycle, power, k = np.zeros(g.degree, dtype=np.intp), perm, 1
    while not cycle.all():  # the length of the x-cycle through each point
        cycle[(power == points) & (cycle == 0)] = k
        power, k = perm[power], k + 1
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
    residues, inside = perms, np.ones(perms.shape[0], dtype=bool)
    for level in levels:
        j = level.position[residues[:, level.point]]
        inside &= j >= 0
        residues = np.take_along_axis(level.inverse[j], residues, axis=1)
    return ~inside | (residues != np.arange(perms.shape[1])).any(axis=1)


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
        """Whether a stabilizer chain of the probes, told |C(x)|, reaches it;
        takes the whole first sample, then one pending probe at a time."""
        perms = self.g.perms
        while not self.certified and self.pending.size:
            take = 1 if self.rows.size else self.pending.size
            self.rows = np.concatenate([self.rows, self.pending[:take]])
            self.chain = stabilizer_chain(perms[self.rows], self.order)
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

    The first existing group with a conjugate centralizer absorbs each class;
    otherwise the class opens a new group.  Conjugacy with a group's first
    class is decided by the center test on that class's probes (see the
    module docstring).
    """
    classes = conjugacy_classes(g)
    groups: list[list[int]] = []
    probes: dict[int, _Probes] = {}
    for ci, cl in enumerate(classes):
        for grp in groups:
            head = grp[0]
            if classes[head].size != cl.size:
                continue
            if head not in probes:
                probes[head] = _Probes(g, classes[head].rep, g.order // cl.size)
            if probes[head].meet(cl.members):
                grp.append(ci)
                break
        else:
            groups.append([ci])
    for ci, cl in enumerate(classes):
        p = probes.get(ci)
        log.debug(
            "class %d/%d: size %d, centralizer order %d, %s",
            ci + 1,
            len(classes),
            cl.size,
            g.order // cl.size,
            f"{p.rows.size} generators" if p and p.certified else "no certificate",
        )
    return [[classes[ci] for ci in grp] for grp in groups]
