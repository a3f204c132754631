"""Brute-force z-class engine for any enumerated finite group.

Mirrors the classic computer-algebra recipe: list conjugacy classes, take the
centralizer of each representative, and group classes whose centralizers are
conjugate subgroups, scanning existing groups in order and absorbing into the
first match.  Everything is deterministic: classes are ordered by their
minimal canonical encoding and witnesses are the smallest-index conjugators.

Every equation between elements is decided on the table's base (see
`zclass.groups`): w commutes with x when w(x(b)) == x(w(b)) at each base point
b, and a conjugate w*e*w^-1 is looked up by its base images w(e(w^-1(b)))
alone, so no full product row is formed on the hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_ORDER_CAP, OrderCapExceeded
from .groups import GroupTable

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int  # row index of the minimal-encoding member
    members: np.ndarray = field(repr=False)  # sorted row indices

    @property
    def size(self) -> int:
        return int(self.members.size)


@dataclass(frozen=True)
class SubgroupHandle:
    """Subgroup as sorted member rows, a short generating list, and a fingerprint.

    The fingerprint (order, element-order histogram, center order) is invariant
    under conjugation, so unequal fingerprints reject conjugacy outright.
    """

    member_rows: np.ndarray = field(repr=False)
    generator_rows: tuple[int, ...]
    fingerprint: tuple

    @property
    def order(self) -> int:
        return int(self.member_rows.size)


def _conjugate_by_row(g: GroupTable, t: int, rows: np.ndarray) -> np.ndarray:
    """Indices of t * e * t^-1 for the given element rows, as int32."""
    t_arr = g.perms[t]
    columns = np.argsort(t_arr)[g.base]  # t^-1 of each base point
    out = np.empty(rows.size, dtype=np.int32)
    for lo in range(0, rows.size, _CHUNK):
        hi = min(lo + _CHUNK, rows.size)
        images = t_arr[g.perms[rows[lo:hi, None], columns]]
        out[lo:hi] = g.base_index(images)
    return out


def conjugacy_classes(
    g: GroupTable, order_cap: int = DEFAULT_ORDER_CAP
) -> list[ConjugacyClass]:
    """Orbit partition under conjugation, ordered by minimal representative."""
    if g.order > order_cap:
        raise OrderCapExceeded(
            f"{g.name} has order {g.order} > cap {order_cap}; raise it with --allow-large"
        )
    all_rows = np.arange(g.order, dtype=np.int64)
    conj_maps = [_conjugate_by_row(g, t, all_rows) for t in g.gen_rows]
    visited = np.zeros(g.order, dtype=bool)
    classes: list[ConjugacyClass] = []
    rep = 0
    while not visited[rep]:
        visited[rep] = True
        members = [np.array([rep])]
        frontier = members[0]
        while frontier.size and conj_maps:
            images = np.concatenate([m[frontier] for m in conj_maps])
            images = np.unique(images[~visited[images]])
            visited[images] = True
            members.append(images)
            frontier = images
        classes.append(ConjugacyClass(rep, np.sort(np.concatenate(members))))
        rep = int(visited.argmin())
    assert sum(c.size for c in classes) == g.order
    return classes


def _commuting(g: GroupTable, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Those of `rows` whose elements w satisfy w x = x w, tested at the base."""
    perms = g.perms
    for b in g.base:
        rows = rows[perms[rows, x[b]] == x[perms[rows, b]]]
    return rows


def centralizer(g: GroupTable, row: int) -> SubgroupHandle:
    """All elements commuting with the element at `row`."""
    members = _commuting(g, np.arange(g.order), g.perms[row])
    if members.size == g.order:
        gens = tuple(g.gen_rows)
    else:
        gens = _subgroup_generators(g, members)
    fp = _fingerprint(g, members, gens)
    return SubgroupHandle(members, gens, fp)


def _subgroup_generators(g: GroupTable, members: np.ndarray) -> tuple[int, ...]:
    """Greedy small generating list: add the least uncovered member, re-close."""
    gens: list[int] = []
    closed = np.zeros(g.order, dtype=bool)
    closed[g.identity_row] = True
    closed_rows = np.array([g.identity_row])
    for r in members.tolist():
        if closed[r]:
            continue
        gens.append(r)
        frontier = closed_rows
        while frontier.size:
            products = [
                g.base_index(g.perms[frontier[:, None], g.perms[gr][g.base]])
                for gr in gens
            ]
            fresh = np.concatenate(products)
            fresh = np.unique(fresh[~closed[fresh]])
            closed[fresh] = True
            frontier = fresh
        closed_rows = np.flatnonzero(closed)
    assert closed_rows.size == members.size
    return tuple(gens)


def _fingerprint(g: GroupTable, members: np.ndarray, gens: tuple[int, ...]) -> tuple:
    orders = g.element_orders()[members]
    histogram = tuple(np.bincount(orders).tolist())
    central = members
    for gr in gens:
        central = _commuting(g, central, g.perms[gr])
    return (int(members.size), histogram, int(central.size))


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
    inverse_base = g.inverse_base_images()
    candidates = np.arange(g.order)
    for gr in h.generator_rows:
        if not candidates.size:
            break
        gen_arr = g.perms[gr]
        keep_parts = []
        for lo in range(0, candidates.size, _CHUNK):
            cand = candidates[lo : lo + _CHUNK]
            images = g.perms[cand[:, None], gen_arr[inverse_base[cand]]]
            query = g.base_keys(images)
            inside = np.searchsorted(k_keys, query)
            inside[inside == k_keys.size] = 0
            keep_parts.append(cand[k_keys[inside] == query])
        candidates = np.concatenate(keep_parts)
    if not candidates.size:
        return False, None
    witness = int(candidates[0])
    conj_members = np.sort(_conjugate_by_row(g, witness, h.member_rows))
    if not np.array_equal(conj_members, k.member_rows):
        raise AssertionError("generator images matched but member sets differ")
    return True, witness


def z_classes(
    g: GroupTable, order_cap: int = DEFAULT_ORDER_CAP
) -> list[list[ConjugacyClass]]:
    """Group conjugacy classes whose centralizers are conjugate in g.

    The first existing group with a conjugate centralizer absorbs each class;
    otherwise the class opens a new group.
    """
    classes = conjugacy_classes(g, order_cap=order_cap)
    groups: list[list[int]] = []
    group_cens: list[SubgroupHandle] = []
    for ci, cl in enumerate(classes):
        cen = centralizer(g, cl.rep)
        assert cen.order * cl.size == g.order
        placed = False
        for gi, existing in enumerate(group_cens):
            ok, _ = subgroups_conjugate(g, existing, cen)
            if ok:
                groups[gi].append(ci)
                placed = True
                break
        if not placed:
            groups.append([ci])
            group_cens.append(cen)
    return [[classes[ci] for ci in grp] for grp in groups]


def z_class_count(g: GroupTable, order_cap: int = DEFAULT_ORDER_CAP) -> int:
    return len(z_classes(g, order_cap=order_cap))
