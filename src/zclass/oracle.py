"""Brute-force z-class engine for any enumerated finite group.

Mirrors the classic computer-algebra recipe: list conjugacy classes, find the
centralizer of each representative, and group classes whose centralizers are
conjugate subgroups, scanning existing groups in order and absorbing into the
first match.  Everything is deterministic: classes are ordered by their reps,
each its class's lexicographically least member row, and witnesses are the
smallest-index conjugators.

Classes.  `_classes` labels every row with the least row of its orbit
under the conjugation maps r -> s r s^-1 of the table's generators s (any
generating set of G serves; a Coxeter group of rank 4 or more has three,
see `zclass.groups.coxeter_generators`; a central generator has no map), by
the min-label rounds of `zclass.groups.orbit_labels`, which carries their
proof.  Both the maps and the rounds run over chunks of rows on up to one
thread per allowed CPU and per four chunks; the labels, and so the classes,
are the same at any thread count, though the number of rounds may vary
between runs.  A class's rep is its lexicographically least member row, so
reps and class order do not depend on the table's row order, which depends
on the generators.  Every row fixes the points before b_1, the least point
the group moves, and rows are sorted by w(b_1), so the rep lies before the
first row past the w(b_1) of the class's first row; one lexsort of those
candidate rows of every class gives each class's rep, its first row in that
order, and the order of the reps, with no loop over classes.  The identity,
the least row of all, keeps its class first.  The members come from a
counting sort, with no sort of the whole table, in three sweeps over chunks
of rows: the first turns each row's label into the number of its class's
first row, in the narrowest unsigned dtype that holds them all; the second
renumbers them in the order of the reps and counts each chunk's class
numbers (chunks are cut for at least as many rows as there are classes, so
the counts never outgrow the rows by much); and in the third, each chunk's
stable argsort of them fills its slot of one int32 array, after the earlier
classes and the earlier chunks' rows of the same class.  So the members
come out in class order, each class's sorted, also when chunks run at once,
with no object per class.

Probes.  A member w of C(x) maps each x-cycle onto an x-cycle of the same
length, so w(b), b the first base point, lies in an x-cycle as long as b's.
Rows are sorted by w(b) (see `zclass.groups`), so such rows form contiguous
blocks, read off the first row of each image point, which the table finds
once (`GroupTable.image_starts`); `centralizer` lists C(x) exactly by
testing only them, and takes generators from that list by
`_generating_rows`.  A probe of x is a member of C(x) found in a
spread sample of those n rows (a stride near n/phi), sized to hold about
`_FIRST_PROBES` probes, then twice as many each round.  The probes are
certified once the product of the orbit lengths of their complete
stabilizer chain, |<probes>|, equals |C(x)| = |G|/|class|: <probes> lies in
C(x), so they generate C(x).  The chain is extended by each probe taken
(`zclass.groups.extend`), first by the whole first sample; a later probe
that sifts through it adds nothing and is dropped, and the others are taken
one at a time, each at least doubling the order.  Rows running out below
|C(x)|, an order past it, or a probe that does not commute with x raises,
also under `python -O`.

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

Sure joins.  If C(x) lies in C(y) and the classes of x and y have the same
size, then |C(x)| = |C(y)|, so C(x) = C(y).  C(x) lies in C(x^p), and in C(xc)
for c central, which holds x = (xc)c^-1.  So `z_classes` first joins into sure
components all central classes (C = G), each other rep x with the class of
x^p, for p a prime dividing ord(x) (read off x's cycle lengths), when that
class has x's size, and x with the class of xc for c in a generating set of
Z(G) (`_generating_rows`).  A row's class is read from the class pass's
own index of every row's class (`_classes`).  Only the first class of a
component meets the center test, in a loop over those first classes alone;
the others join its group.

Every equation between elements is decided on the table's base (see
`zclass.groups`): w commutes with x when w(x(b)) == x(w(b)) at each base point
b, and a product or conjugate is looked up by its base images alone, so no
full product row is formed on the hot paths.

References.  `centralizer` and `subgroups_conjugate` live here, in `src/`,
though only the tests call them.  They share these kernels:
`zclass.groups.cycle_lengths`, `GroupTable.base_index`, `_run_chunks`.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import groups
from .groups import ChainLevel, GroupTable, chain_order, cycle_lengths, extend, sift

log = logging.getLogger(__name__)

_FIRST_PROBES = 4  # probes the first sample of a head is sized to hold


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


def conjugacy_classes(g: GroupTable) -> list[tuple[int, np.ndarray]]:
    """Each class's rep, its lexicographically least member row, and its
    sorted member rows, the classes in order of their reps (see `_classes`)."""
    reps, ends, members, _ = _classes(g)
    return list(zip(reps.tolist(), np.split(members, ends[:-1])))


def _classes(g: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The orbit partition under conjugation, with the classes in order of
    their reps (see the module docstring), as `(reps, ends, members,
    number)`: the rep rows, the running total of the class sizes, the member
    rows, class i's at `members[ends[i - 1]:ends[i]]` and sorted, as one
    int32 array, and each row's class."""
    label = groups.orbit_labels(g.conjugation_maps(), g.order)
    # each class's first row, its label
    roots = np.flatnonzero(label == np.arange(g.order, dtype=np.int32)).astype(np.int32)
    number = np.zeros(g.order, dtype=np.min_scalar_type(roots.size - 1))
    number[roots] = np.arange(roots.size)
    chunk = max(groups._ROW_CHUNK, roots.size)

    def root_number(lo: int, hi: int) -> None:
        # the root number of each row, in place: a class's least row keeps
        # its own number, so reading it while other chunks write is safe
        part = number[label[lo:hi]]
        if np.any(roots[part] != label[lo:hi]):
            raise AssertionError("conjugacy classes break the class equation")
        number[lo:hi] = part

    groups._run_chunks(root_number, g.order, chunk)
    del label
    reps, position = _reps(g, roots, number)
    counts: dict[int, np.ndarray] = {}

    def count(lo: int, hi: int) -> None:  # the class number of each row, in place
        number[lo:hi] = position[number[lo:hi]]
        counts[lo] = np.bincount(number[lo:hi], minlength=roots.size)

    groups._run_chunks(count, g.order, chunk)
    starts = sorted(counts)
    chunks = np.array([counts[lo] for lo in starts])
    sizes = chunks.sum(axis=0)
    if np.any(g.order % sizes):
        raise AssertionError("conjugacy classes break the class equation")
    # where each chunk's first row of each class goes: after the rows of the
    # earlier classes and the earlier chunks' rows of that class
    ends = np.cumsum(sizes)
    before = np.cumsum(chunks, axis=0) - chunks + (ends - sizes)
    first = dict(zip(starts, before))
    members = np.empty(g.order, dtype=np.int32)

    def place(lo: int, hi: int) -> None:
        # a stable sort of the chunk by class number makes one run per class,
        # each written from its first slot on: the target position steps by
        # one within a run, and from each run's last slot to the next's first
        rows = np.argsort(number[lo:hi], kind="stable")
        rows += lo
        runs = np.flatnonzero(counts[lo])
        size, to = counts[lo][runs], first[lo][runs]
        step = np.ones(hi - lo, dtype=np.intp)
        step[np.cumsum(size) - size] = to - np.append(0, to[:-1] + size[:-1] - 1)
        members[np.cumsum(step, out=step)] = rows

    groups._run_chunks(place, g.order, chunk)
    return reps, ends, members, number


def _reps(
    g: GroupTable, roots: np.ndarray, number: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each class's rep, its lexicographically least member row, in the
    order of the reps, the identity's first, and each class's place in that
    order, from each class's first row `roots` and each row's class `number`
    in the order of `roots`: each rep is the first of its class's candidate
    rows, those before the first row past the w(b_1) of its first row, in
    their lexicographic order (see the module docstring)."""
    b = g.base[0] if g.base.size else 0  # a trivial group has no base
    past = g.image_starts()[g.perms[roots, b].astype(np.intp) + 1].astype(np.int32)
    rows = np.flatnonzero(np.arange(g.order, dtype=np.int32) < past[number])
    rows = rows[np.lexsort(g.perms[rows].T[::-1])]
    _, at = np.unique(number[rows], return_index=True)
    return rows[np.sort(at)], np.argsort(np.argsort(at)).astype(number.dtype)


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


def _power(perms: np.ndarray, e: int) -> np.ndarray:
    """Each of `perms` raised to e >= 1, by repeated squaring."""
    out = None
    while e:
        if e & 1:
            out = perms if out is None else np.take_along_axis(perms, out, axis=1)
        perms, e = np.take_along_axis(perms, perms, axis=1), e >> 1
    return out


def _generating_rows(g: GroupTable, rows: np.ndarray) -> list[int]:
    """Generators of the subgroup whose members are the sorted `rows`: each the
    first row outside the group the earlier ones generate (by `sift` through
    its chain, which each extends), until that group has them all."""
    chain, kept = [], []
    while chain_order(chain) < rows.size:
        rows = rows[_outside(chain, g.perms[rows])]
        kept.append(int(rows[0]))
        chain = extend(chain, g.perms[rows[:1]])
    return kept


def _sure_components(
    g: GroupTable, reps: np.ndarray, sizes: np.ndarray, number: np.ndarray
) -> np.ndarray:
    """The first class of each class's sure component (see the module
    docstring), from the classes' rep rows and sizes, each row's class read
    from `number`, as `_classes` gives them."""
    central, moving = np.flatnonzero(sizes == 1), np.flatnonzero(sizes > 1)
    xs = g.perms[reps[moving]]
    cycle = cycle_lengths(xs)
    orders = np.lcm.reduce(cycle, axis=1)
    src, images = [], []
    for p in range(2, int(cycle.max(initial=1)) + 1):  # x^p for primes p | ord(x)
        has = orders % p == 0
        if has.any() and all(p % q for q in range(2, math.isqrt(p) + 1)):
            src.append(moving[has])
            images.append(_power(xs[has], p)[:, g.base])
    for c in _generating_rows(g, reps[central]) if moving.size else ():
        src.append(moving)
        images.append(xs[:, g.perms[c][g.base]])  # x c
    src = np.concatenate([moving[:0], *src])
    rows = g.base_index(np.concatenate([xs[:0, g.base], *images]))
    dst = number[rows]
    same = sizes[dst] == sizes[src]
    a, b = src[same], dst[same]
    root = np.arange(reps.size)
    root[central] = 0  # the identity's class
    while True:  # min-label rounds over the joined pairs
        low, new = np.minimum(root[a], root[b]), root.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, root):
            return root
        root = new


def _candidate_blocks(g: GroupTable, x: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows w with w(b) in an x-cycle as long as b's, b the first base
    point, as blocks: (first row of each, running total of their lengths)."""
    b = g.base[0] if g.base.size else 0  # a trivial group has no base
    cycle = cycle_lengths(g.perms[x : x + 1])[0]
    first = g.image_starts()
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
    module docstring): `rows` are those the complete stabilizer chain `chain`
    was extended by, and `pending` those of the last sample outside its group."""

    def __init__(self, g: GroupTable, x: int, order: int):
        self.g, self.x, self.order = g, x, order
        self.certified = False
        self.rows = self.pending = np.array((), dtype=np.intp)
        self.chain: list[ChainLevel] = []
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
        complete stabilizer chain, extended by the whole first sample, then by
        one pending probe at a time."""
        perms = self.g.perms
        while not self.certified and self.pending.size:
            take = 1 if self.rows.size else self.pending.size
            self.rows = np.concatenate([self.rows, self.pending[:take]])
            self.chain = extend(self.chain, perms[self.pending[:take]])
            reached = chain_order(self.chain)
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


def centralizer(g: GroupTable, row: int, order: int | None = None) -> SubgroupHandle:
    """All elements commuting with the element at `row`, listed from the rows
    that may, with generators taken from that list by `_generating_rows`.  A
    given `order`, |C(x)| = |G|/|class|, is what the listing must match."""
    blocks = _candidate_blocks(g, row)
    members = _commuting(g, _rows_at(blocks, np.arange(blocks[1][-1])), [row])
    if order not in (None, members.size):
        raise AssertionError("centralizer scan missed |G|/|class|")
    return SubgroupHandle(g, members, tuple(_generating_rows(g, members)))


def subgroups_conjugate(
    g: GroupTable, h: SubgroupHandle, k: SubgroupHandle
) -> tuple[bool, int | None]:
    """Search for w with w h w^-1 = k; returns (found, witness row).

    Fingerprint mismatch rejects immediately.  Otherwise candidates w are
    filtered generator by generator (w g w^-1 must land in k), and the first
    survivor is confirmed by looking up the full rows of w h w^-1.
    """
    if h.fingerprint != k.fingerprint:
        return False, None
    if np.array_equal(h.member_rows, k.member_rows):
        return True, g.identity_row
    in_k = np.zeros(g.order, dtype=bool)
    in_k[k.member_rows] = True
    inverses = g.inverses()
    candidates = np.arange(g.order)
    for gr in h.generator_rows:
        x, keep = g.perms[gr], np.empty(candidates.size, dtype=bool)

        def lands_in_k(lo: int, hi: int) -> None:  # w x w^-1 at each base point
            w = candidates[lo:hi, None]
            keep[lo:hi] = in_k[g.base_index(g.perms[w, x[inverses[w, g.base]]])]

        groups._run_chunks(lands_in_k, candidates.size, groups._ROW_CHUNK)
        candidates = candidates[keep]
    if not candidates.size:
        return False, None
    witness = int(candidates[0])
    w, w_inv = g.perms[witness], inverses[witness]
    conj_members = np.sort(g.row_index(w[g.perms[h.member_rows][:, w_inv]]))
    if not np.array_equal(conj_members, k.member_rows):
        raise AssertionError("generator images matched but member sets differ")
    return True, witness


def z_classes(g: GroupTable) -> list[list[int]]:
    """Group conjugacy classes whose centralizers are conjugate in g, each
    class given by its rep row.

    A class whose sure component (see the module docstring) holds an earlier
    class joins that class's group.  Otherwise the first existing group with
    a conjugate centralizer absorbs it, decided by the center test on the
    probes of that group's first class, or the class opens a new group.
    """
    reps, ends, members, number = _classes(g)
    sizes = np.diff(ends, prepend=0)
    root = _sure_components(g, reps, sizes, number)
    del number
    firsts = np.flatnonzero(root == np.arange(reps.size))
    heads: list[int] = []  # the first class of each group
    group_of = np.empty(reps.size, dtype=np.intp)
    probes: dict[int, _Probes] = {}
    for ci in firsts.tolist():  # the other classes join their first's group
        size, gi = int(sizes[ci]), len(heads)
        for k, head in enumerate(heads):
            if sizes[head] != size:
                continue
            if head not in probes:
                probes[head] = _Probes(g, int(reps[head]), g.order // size)
            if probes[head].meet(members[ends[ci] - size : ends[ci]]):
                gi = k
                break
        if gi == len(heads):
            heads.append(ci)
        group_of[ci] = gi
    group_of = group_of[root]
    if log.isEnabledFor(logging.DEBUG):  # the arguments are formatted here
        for ci, (size, r) in enumerate(zip(sizes.tolist(), root.tolist())):
            p = probes.get(ci)
            log.debug(
                "class %d/%d: size %d, centralizer order %d, %s%s",
                ci + 1,
                reps.size,
                size,
                g.order // size,
                f"{p.rows.size} generators" if p and p.certified else "no certificate",
                f", sure join with class {r + 1}" if r < ci else "",
            )
        log.debug(
            "%d classes, %d sure components, %d heads probed, %d heads certified",
            reps.size,
            firsts.size,
            len(probes),
            sum(p.certified for p in probes.values()),
        )
    grouped = reps[np.argsort(group_of, kind="stable")]
    cuts = np.cumsum(np.bincount(group_of))[:-1]
    return [grp.tolist() for grp in np.split(grouped, cuts)]
