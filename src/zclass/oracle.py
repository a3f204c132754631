"""Brute-force z-class engine for any enumerated finite group.

Mirrors the classic computer-algebra recipe: list conjugacy classes, find the
centralizer of each representative, and group classes whose centralizers are
conjugate subgroups, scanning existing groups in order and absorbing into the
first match.  Everything is deterministic: classes are ordered by their least
row and witnesses are the smallest-index conjugators.

Schreier vector.  `conjugacy_classes` walks each class breadth-first from its
representative x with the generator conjugation maps r -> s r s^-1, and
records for every member y the member it was first reached from and the index
of that generator (int32 and int8 arrays over the rows).  Following these
steps up to x spells a short word t_y with t_y x t_y^-1 = y.

Centralizers.  By Schreier's lemma, C(x) is generated by t_z^-1 s t_y over
the edges y -> z = s y s^-1 of the orbit.  `_centralizer_generators` takes
the edges of members spread over the walk (a stride near |class|/phi), in
chunks that double, and keeps every distinct non-identity generator.  After
each chunk a stabilizer chain (`zclass.groups.stabilizer_chain`) of the
generators so far bounds the order of the subgroup they generate by the
product of its orbit lengths, without listing a member, and stops once that
reaches |G|/|class|: it never exceeds |<gens>|, and |<gens>| <= |C(x)| once
every kept generator commutes with x.  Running out of edges below that order,
passing it, or a generator that does not commute with x raises, also under
`python -O`.  Edges in breadth-first order give shorter words, but their
generators often span a proper subgroup until deep into the walk.  A
central x needs no chain: C(x) = G, generated by G's generators.
`centralizer` lists the members as the products of a chain of the
generators.

Center test.  For |C(x)| = |C(y)|, C(x) and C(y) are conjugate exactly when
the center Z(C(y)) meets the class of x.  If w C(x) w^-1 = C(y), then
w x w^-1 is central in C(y).  Conversely, if z = u x u^-1 lies in Z(C(y)),
then C(y) lies in C(z) = u C(x) u^-1, and the two orders are equal.  The
center needs no member list either: an element commuting with all of C(y)
commutes with y, so it lies in C(y), and Z(C(y)) = C_G(C(y)) is the set of
elements commuting with the generators of C(y).  The test is symmetric, so
`z_classes` tests the members of a class y against the certified generators
of the first class h of each earlier group with |h| = |y|, dropping those
that fail each one.  Only such heads need a certificate, and each is built
the first time a later class reaches it.  The conjugator search
`subgroups_conjugate` and its fingerprint remain as general tools.

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

from .groups import GroupTable, _products, stabilizer_chain

log = logging.getLogger(__name__)

_CHUNK = 1 << 16
_FIRST_EDGE_CHUNK = 4  # orbit members in the first chunk of edges


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class with the breadth-first walk that found it.

    `walk` lists the members in walk order from `rep`.  Member r was first
    reached as s p s^-1 from p = parent[r] with s = gen_rows[via[r]]; the root
    is its own parent, with via -1.  `parent` and `via` are indexed by row and
    shared by all classes of one walk.
    """

    rep: int  # the least row of the class
    members: np.ndarray = field(repr=False)  # sorted row indices
    walk: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    via: np.ndarray = field(repr=False)

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


def _walk(
    maps: np.ndarray, root: int, parent: np.ndarray, via: np.ndarray
) -> ConjugacyClass:
    """Breadth-first orbit of `root` under the conjugation maps.

    Rows with parent -1 are unvisited; the walk fills parent and via for the
    rows it reaches.  Each level is kept in row order.
    """
    parent[root] = root
    via[root] = -1
    level = np.array([root], dtype=np.int32)
    levels = [level]
    while level.size and maps.size:
        images = maps[:, level].ravel()  # generator-major
        fresh = np.flatnonzero(parent[images] < 0)
        rows, first = np.unique(images[fresh], return_index=True)
        source = fresh[first]
        parent[rows] = level[source % level.size]
        via[rows] = source // level.size
        level = rows
        levels.append(level)
    walk = np.concatenate(levels)
    return ConjugacyClass(root, np.sort(walk), walk, parent, via)


def _new_schreier_vector(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    parent = np.full(g.order, -1, dtype=np.int32)
    via = np.empty(g.order, dtype=np.min_scalar_type(-1 - len(g.gen_rows)))
    return parent, via


def conjugacy_classes(g: GroupTable) -> list[ConjugacyClass]:
    """Orbit partition under conjugation, ordered by minimal representative."""
    maps = g.conjugation_maps()
    parent, via = _new_schreier_vector(g)
    classes: list[ConjugacyClass] = []
    rep = 0
    while parent[rep] < 0:
        classes.append(_walk(maps, rep, parent, via))
        rep = int(parent.argmin())  # the least unvisited row, or a visited one
    assert sum(c.size for c in classes) == g.order
    return classes


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


def _steps_to_root(cl: ConjugacyClass, nodes: np.ndarray):
    """Yield (positions, generator indices), one step up the walk tree at a time.

    Each step moves every node of `nodes` not yet at the root to its parent,
    reporting the generator of the edge it left by.
    """
    w = nodes.copy()
    active = np.flatnonzero(cl.via[w] >= 0)
    while active.size:
        yield active, cl.via[w[active]]
        w[active] = cl.parent[w[active]]
        active = active[cl.via[w[active]] >= 0]


def _schreier_generators(
    g: GroupTable, cl: ConjugacyClass, ys: np.ndarray
) -> np.ndarray:
    """Rows of t_z^-1 s t_y for the edges y -> z = s y s^-1 leaving `ys`;
    a tree edge gives the identity."""
    maps = g.conjugation_maps()
    n_gens = maps.shape[0]
    gen_perms = g.perms[list(g.gen_rows)]
    source = np.repeat(np.arange(ys.size), n_gens)
    s = np.tile(np.arange(n_gens), ys.size)
    nodes = np.concatenate([ys, maps[s, ys[source]]])
    # t_w = s_w t_parent(w) ..., so multiply on the right going up the tree
    t = np.tile(np.arange(g.degree, dtype=np.uint8), (nodes.size, 1))
    for pos, step in _steps_to_root(cl, nodes):
        t[pos] = np.take_along_axis(t[pos], gen_perms[step], axis=1)
    t_y, t_z = t[: ys.size], t[ys.size :]
    images = gen_perms[s[:, None], t_y[:, g.base][source]]  # s t_y at the base
    return g.base_index(np.take_along_axis(np.argsort(t_z, axis=1), images, axis=1))


def _spreading_stride(n: int) -> int:
    """A step near n/phi and coprime to n: i * step % n visits every position once."""
    step = max(1, round(n * 0.6180339887))
    while math.gcd(step, n) != 1:
        step += 1
    return step


def _centralizer_generators(g: GroupTable, cl: ConjugacyClass) -> np.ndarray:
    """Rows of Schreier generators of C(x), x = cl.rep, certified by their order.

    Edges leave members spread over the walk, in chunks that double; after
    each chunk the distinct non-identity generators gathered so far get a
    stabilizer chain that stops at |G|/|class|.  Its orbit product is at most
    |<gens>|, and |<gens>| <= |C(x)| = |G|/|class| once every generator is
    checked to commute with x, so reaching that order certifies <gens> = C(x).
    """
    if cl.size == 1:  # x is central
        return np.array(g.gen_rows, dtype=np.intp)
    target = g.order // cl.size
    stride = _spreading_stride(cl.size)
    gens = np.empty(0, dtype=np.intp)
    chunk, lo, order = _FIRST_EDGE_CHUNK, 0, 1
    while order < target:
        if lo >= cl.size:
            raise AssertionError("Schreier generators ran out below |G|/|class|")
        positions = np.arange(lo, min(lo + chunk, cl.size)) * stride % cl.size
        candidates = _schreier_generators(g, cl, cl.walk[positions])
        lo, chunk = lo + chunk, 2 * chunk
        gens = np.union1d(gens, candidates[candidates != g.identity_row])
        chain = stabilizer_chain(g.perms[gens], target)
        order = math.prod(level.transversal.shape[0] for level in chain)
        if order > target:
            raise AssertionError("centralizer closure passed |G|/|class|")
    if _commuting(g, gens, [cl.rep]).size != gens.size:
        raise AssertionError("a Schreier generator does not centralize")
    return gens


def centralizer(
    g: GroupTable, row: int, cl: ConjugacyClass | None = None
) -> SubgroupHandle:
    """All elements commuting with the element at `row`, listed from the chain of
    its certified Schreier generators.

    `cl` is the class of `row` as walked from it by `conjugacy_classes`;
    without it, the orbit of `row` is walked here.
    """
    if cl is None:
        cl = _walk(g.conjugation_maps(), row, *_new_schreier_vector(g))
    elif cl.rep != row:
        raise ValueError(f"class walked from row {cl.rep}, not {row}")
    gens = _centralizer_generators(g, cl)
    members = g.row_index(_products(stabilizer_chain(g.perms[gens]), g.degree))
    return SubgroupHandle(g, np.sort(members), tuple(gens.tolist()))


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
    class is decided by the center test (see the module docstring), against
    that first class's certificate, built when a later class first reaches it.
    """
    classes = conjugacy_classes(g)
    groups: list[list[int]] = []
    certs: dict[int, np.ndarray] = {}
    for ci, cl in enumerate(classes):
        for grp in groups:
            head = grp[0]
            if classes[head].size != cl.size:
                continue
            if head not in certs:
                certs[head] = _centralizer_generators(g, classes[head])
            if _commuting(g, cl.members, certs[head]).size:
                grp.append(ci)
                break
        else:
            groups.append([ci])
    for ci, cl in enumerate(classes):
        gens = certs.get(ci)
        log.debug(
            "class %d/%d: size %d, centralizer order %d, %s",
            ci + 1,
            len(classes),
            cl.size,
            g.order // cl.size,
            "no certificate" if gens is None else f"{gens.size} generators",
        )
    return [[classes[ci] for ci in grp] for grp in groups]
