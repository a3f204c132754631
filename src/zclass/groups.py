"""Enumerated finite groups as permutation tables indexed by a base.

Every group the oracle consumes is realized concretely as permutations of a
small point set: symmetric groups on their letters, signed-permutation groups
on 2n signed points, dihedral groups on polygon vertices, reflection groups on
their root sets, and direct products on disjoint unions.  Elements are stored
as uint8 image arrays, so a point set holds at most 256 points; rows are kept
lexicographically sorted so the order never depends on generation order.

A group is enumerated from a complete stabilizer chain (`stabilizer_chain`,
a deterministic Schreier-Sims over the one membership test `sift`): every
element is exactly one product of one transversal element per level, so
nothing is hashed or deduplicated, and their count must be the stated order.

Each table carries a base: points b_1 < ... < b_k, each the smallest point
moved by the pointwise stabilizer of the points before it, until only the
identity fixes them all.  Two elements are then equal exactly when they agree
on the base, and two rows compare lexicographically as their base images do.
The mixed-radix integer key of the base images is therefore strictly
increasing down the table: a lookup is one int64 searchsorted of the query
keys in any order, and an equation between group elements (commutation,
conjugation) is checked at the base points alone.  The key of a conjugate
t e t^-1 is read off e at the points t^-1(b_i) through the code composed
with t, so no product row is formed.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .closed_form import check_order
from .combinatorics import Partition
from .errors import LARGE_ORDER_CAP, UnsupportedGroupError, order_cap_exceeded
from .families import FAMILIES
from .signed_perm import SignedPermutation, dn_class_label, signed_cycle_type

MAX_DEGREE = 256

_CHUNK = 1 << 17
_CONJUGATE_CHUNK = 1 << 16
_TAKE_CHUNK = 1 << 14


def _find_base(perms: np.ndarray) -> np.ndarray:
    """Greedy base of the table's group.

    Each base point is the least point moved by the pointwise stabilizer of the
    points before it.  The search stops when one element is left, and that
    element must be the identity.
    """
    order, degree = perms.shape
    stab = np.arange(order)
    base = []
    for p in range(degree):
        if stab.size <= 1:
            break
        fixed = perms[stab, p] == p
        if not fixed.all():
            base.append(p)
            stab = stab[fixed]
    if stab.size != 1 or np.any(perms[stab[0]] != np.arange(degree)):
        raise ValueError("table has no base: the identity is not alone in fixing it")
    return np.array(base, dtype=np.intp)


def _key_code(perms: np.ndarray, base: np.ndarray) -> np.ndarray:
    """code[i, p] = weight of base point i times the rank of p in its orbit.

    Weights are mixed-radix over the orbit sizes with the first base point most
    significant, so keys sort like the rows.  A point outside the orbit codes
    as the key bound, which no member key reaches.
    """
    degree = perms.shape[1]
    orbits = [
        np.flatnonzero(np.bincount(perms[:, b], minlength=degree)) for b in base
    ]
    bound = math.prod(o.size for o in orbits)
    if bound * (len(base) + 1) >= 2**63:
        raise UnsupportedGroupError("base keys of this group do not fit in 63 bits")
    code = np.full((len(base), degree), bound, dtype=np.int64)
    weight = bound
    for i, orbit in enumerate(orbits):
        weight //= orbit.size
        code[i, orbit] = np.arange(orbit.size, dtype=np.int64) * weight
    return code


def _keys(code: np.ndarray, images: np.ndarray) -> np.ndarray:
    keys = np.zeros(images.shape[0], dtype=np.int64)
    for i, column in enumerate(code):
        keys += column[images[:, i]]
    return keys


def _table_index(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base, key code and keys of a whole table, found from its rows."""
    base = _find_base(perms)
    code = _key_code(perms, base)
    return base, code, _keys(code, perms[:, base])


class GroupTable:
    """Enumerated permutation group on `degree` points.

    `perms` holds all elements as image arrays, rows sorted lexicographically;
    `keys` holds their strictly increasing base keys.  `gen_rows` index the
    generators; conjugation by each gives one row of `conjugation_maps`.
    """

    def __init__(
        self,
        perms: np.ndarray,
        gen_rows: tuple[int, ...],
        name: str,
        labeler: Callable[[np.ndarray], str] | None,
        index: tuple[np.ndarray, np.ndarray, np.ndarray],
    ):
        # index: the (base, key code, keys) the builder found
        self.perms = perms
        self.order, self.degree = perms.shape
        self.name = name
        self.gen_rows = gen_rows
        self.labeler = labeler
        self.base, self._code, self.keys = index
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError(f"{name}: table rows are not sorted and distinct")
        identity = np.arange(self.degree, dtype=np.uint8)[None, :]
        self.identity_row = int(self.row_index(identity)[0])
        self._inverses: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._conjugation_maps: np.ndarray | None = None

    def base_keys(self, images: np.ndarray) -> np.ndarray:
        """Keys of elements given by their base images, one (k,) row each."""
        return _keys(self._code, images)

    def _search(self, query: np.ndarray) -> np.ndarray:
        """Indices of the member keys `query`, in any order; a key with no
        member raises (an index past the table clips to the last key, which
        is less than the query)."""
        idx = np.searchsorted(self.keys, query)
        if np.any(self.keys.take(idx, mode="clip") != query):
            raise LookupError(f"element not in group table {self.name}")
        return idx

    def base_index(self, images: np.ndarray) -> np.ndarray:
        """Indices of members given by their base images, one (k,) row each;
        a key with no member raises."""
        return self._search(self.base_keys(images))

    def row_index(self, rows: np.ndarray) -> np.ndarray:
        """Indices of query rows in the table; a row that is not a member raises.

        The base key finds the candidate row and the full row confirms it.
        """
        rows = np.asarray(rows)
        idx = self.base_index(rows[:, self.base])
        if not np.array_equal(self.perms[idx], rows):
            raise LookupError(f"row not in group table {self.name}")
        return idx

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            inv = np.empty_like(self.perms)
            for lo in range(0, self.order, _CHUNK):
                hi = min(lo + _CHUNK, self.order)
                inv[lo:hi] = np.argsort(self.perms[lo:hi], axis=1).astype(np.uint8)
            self._inverses = inv
        return self._inverses

    def _conjugates(
        self, ts: Sequence[int], rows: np.ndarray | None = None
    ) -> np.ndarray:
        """out[s, j] is the index of t * e * t^-1 for t = ts[s] and e the j-th
        of `rows` (every row if None), as int32.

        t e t^-1 takes b_i to t(e(c_i)) for c_i = t^-1(b_i), so its key is the
        sum of code[i, t(e(c_i))]: one lookup per base point in the code
        composed with t, code[:, t].  Each chunk of rows is read once, at the
        union of the columns c_i of every t.
        """
        t_rows = self.perms[list(ts)]
        columns = np.argsort(t_rows, axis=1)[:, self.base]  # c_i of each t
        codes = self._code[:, t_rows]  # codes[:, s] is code[:, ts[s]]
        read, at = np.unique(columns, return_inverse=True)
        at = at.reshape(columns.shape)  # columns[s, i] is read[at[s, i]]
        n = self.order if rows is None else rows.size
        out = np.empty((len(ts), n), dtype=np.int32)
        for lo in range(0, n, _CONJUGATE_CHUNK):
            hi = min(lo + _CONJUGATE_CHUNK, n)
            select = slice(lo, hi) if rows is None else rows[lo:hi, None]
            block = self.perms[select, read]
            for s in range(len(ts)):
                out[s, lo:hi] = self._search(_keys(codes[:, s], block[:, at[s]]))
        return out

    def conjugates(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Indices of t * e * t^-1 for the elements at `rows`, as int32."""
        return self._conjugates([t], rows)[0]

    def conjugation_maps(self) -> np.ndarray:
        """maps[s, r] is the index of t * e_r * t^-1 for t = gen_rows[s], as int32.

        Computed once, into one preallocated array.
        """
        if self._conjugation_maps is None:
            self._conjugation_maps = self._conjugates(self.gen_rows)
        return self._conjugation_maps

    def element_orders(self) -> np.ndarray:
        """Order of each element: the first power that returns every base point."""
        if self._orders is None:
            orders = np.ones(self.order, dtype=np.int64)
            flat = self.perms.ravel()
            for lo in range(0, self.order, _CHUNK):
                rows = np.arange(lo, min(lo + _CHUNK, self.order))
                images = self.perms[rows[:, None], self.base]
                power = 1
                while rows.size:
                    moved = np.flatnonzero(np.any(images != self.base, axis=1))
                    rows, images = rows[moved], images[moved]
                    power += 1
                    orders[rows] = power
                    images = flat[(rows * self.degree)[:, None] + images]
            self._orders = orders
        return self._orders

    def label(self, row: int) -> str | None:
        return self.labeler(self.perms[row]) if self.labeler else None


class ChainLevel(NamedTuple):
    """A chain level: transversal[j] maps `point` to the j-th least point q of
    its orbit, position[q] = j (-1 off the orbit), inverse[j] = transversal[j]^-1.
    """

    point: int
    position: np.ndarray
    transversal: np.ndarray
    inverse: np.ndarray


def sift(levels: list[ChainLevel], perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of `perms` sifted through `levels` (r -> u_q^-1 r, q = r(point)):
    the residues, and per row the level whose orbit misses its image, where
    it keeps its residue (which moves that point), or len(levels).  A row
    lies in a complete chain's group exactly when its residue is the identity."""
    residues, stop = np.empty_like(perms), np.full(perms.shape[0], len(levels))
    live, res = np.arange(perms.shape[0]), perms  # rows still sifting, and theirs
    for e, level in enumerate(levels):
        j = level.position[res[:, level.point]]
        off = j < 0
        if off.any():
            residues[live[off]], stop[live[off]] = res[off], e
            live, res, j = live[~off], res[~off], j[~off]
        res = np.take_along_axis(level.inverse[j], res, axis=1)
    residues[live] = res
    return residues, stop


def stabilizer_chain(gens: np.ndarray) -> list[ChainLevel]:
    """A complete stabilizer chain of <gens>, by deterministic Schreier-Sims.

    The first base point is the least point moved.  Level d is the orbit of
    base point d under the strong generators fixing the earlier ones.  From
    the last level up, each Schreier generator u_{s(q)}^-1 s u_q of a level is
    sifted through the levels below; the first non-identity residue becomes a
    strong generator (and, if it fixes every base point, adds the least point
    it moves) and the work resumes where it stopped.  When all sift to the
    identity, each level's group is the stabilizer of its point in the one
    above, so the product of the orbit lengths is |<gens>|.
    """
    degree = gens.shape[1]
    identity = np.arange(degree, dtype=np.uint8)
    strong = gens[(gens != identity).any(axis=1)]

    def least_moved(g: np.ndarray) -> int:
        return int(np.argmax(g != identity))

    def fixing(d: int) -> np.ndarray:
        return strong[(strong[:, base[:d]] == base[:d]).all(axis=1)]

    def level(d: int) -> ChainLevel:
        found, queue, level_gens = {base[d]: identity}, [base[d]], fixing(d)
        images = level_gens.tolist()
        for p in queue:
            for s, image in zip(level_gens, images):
                if image[p] not in found:
                    found[image[p]] = s[found[p]]
                    queue.append(image[p])
        points = sorted(found)
        position = np.full(degree, -1, dtype=np.intp)
        position[points] = np.arange(len(points))
        transversal = np.array([found[p] for p in points])
        inverse = np.argsort(transversal, axis=1).astype(np.uint8)
        return ChainLevel(base[d], position, transversal, inverse)

    base = [min(map(least_moved, strong))] if strong.size else []
    for g in strong:
        if np.array_equal(g[base], base):
            base.append(least_moved(g))
    levels = [level(d) for d in range(len(base))]
    d = len(levels) - 1
    while d >= 0:
        moved = fixing(d)[:, levels[d].transversal].reshape(-1, degree)  # s u_q
        residues, stop = sift(levels[d:], moved)
        left = np.flatnonzero((residues != identity).any(axis=1))
        if not left.size:
            d -= 1
            continue
        h, stop = residues[left[0]], d + int(stop[left[0]])
        strong = np.vstack([strong, h])
        if stop == len(base):
            base.append(least_moved(h))
            levels.append(None)
        for e in range(d + 1, stop + 1):
            levels[e] = level(e)
        d = stop
    return levels


def _products(levels: list[ChainLevel], degree: int) -> np.ndarray:
    """Every product u_1 ... u_k of one transversal element per level, as rows;
    built from the last level up with one np.take per transversal element."""
    block = np.arange(degree, dtype=np.uint8)[None, :]
    for level in reversed(levels):
        n = block.shape[0]
        out = np.empty((level.transversal.shape[0] * n, degree), dtype=np.uint8)
        for lo in range(0, n, _TAKE_CHUNK):  # bounds the intp copy of the rows
            rows = block[lo : lo + _TAKE_CHUNK].astype(np.intp)
            for j, u in enumerate(level.transversal):
                np.take(u, rows, out=out[j * n + lo : j * n + lo + rows.shape[0]])
        block = out
    return block


def group_from_generators(
    gens: list[np.ndarray],
    *,
    name: str,
    degree: int,
    order: int,
    labeler: Callable[[np.ndarray], str] | None = None,
) -> GroupTable:
    """The table of the group generated by `gens`, of the `order` the caller
    knows: refused over LARGE_ORDER_CAP before any chain is built.

    Every element is exactly one product u_1 ... u_k of one element of each
    level's transversal, so the order is the product of the orbit lengths,
    which must equal `order` (a defect otherwise, raised also under -O), and
    the products are distinct: nothing is hashed or deduplicated.  b_1 is the
    least point the group moves and the first transversal is sorted by image
    point, so the rows come in blocks u_1 H, H the stabilizer of b_1, in order
    of u_1(b_1): sorting each block by key sorts the table, without a copy.
    Generators may come in any integer dtype; they are stored as uint8 once
    `degree` is known to fit.
    """
    if degree > MAX_DEGREE:
        raise UnsupportedGroupError(
            f"{name} acts on {degree} points; group tables hold at most "
            f"{MAX_DEGREE} points"
        )
    if order > LARGE_ORDER_CAP:
        raise order_cap_exceeded(name, order, LARGE_ORDER_CAP)
    gen_arrays = []
    for g in gens:
        arr = np.asarray(g)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise ValueError(f"generator is not a permutation of 0..{degree - 1}: {g}")
        gen_arrays.append(arr.astype(np.uint8))
    levels = stabilizer_chain(np.array(gen_arrays, dtype=np.uint8).reshape(-1, degree))
    found = math.prod(level.transversal.shape[0] for level in levels)
    if found != order:
        raise AssertionError(f"{name}: {found} elements, not {order}")
    perms = _products(levels, degree)
    index = _table_index(perms)
    keys, n = index[2], order // (levels[0].transversal.shape[0] if levels else 1)
    for lo in range(0, order, n):  # sort each block u_1 H by key
        by_key = np.argsort(keys[lo : lo + n])
        keys[lo : lo + n] = keys[lo : lo + n][by_key]
        perms[lo : lo + n] = perms[lo : lo + n][by_key]
    table = GroupTable(perms, (), name, labeler, index=index)
    if gen_arrays:
        table.gen_rows = tuple(int(r) for r in table.row_index(np.array(gen_arrays)))
    return table


def family_order(family: str, rank: int | None, name: str) -> int:
    """The order FAMILIES gives `family` at `rank`, refused over LARGE_ORDER_CAP,
    the most memory a table may take, before any chain is built or a giant
    order is formed."""
    return check_order([FAMILIES[family].order_parts(rank)], name, LARGE_ORDER_CAP)


# --- concrete families ----------------------------------------------------


def _cycle_type_label(row: np.ndarray) -> str:
    cycles = SignedPermutation((1,) * row.shape[0], tuple(row.tolist())).cycles()
    return str(Partition.from_parts(len(c) for c in cycles))


def build_symmetric(n: int) -> GroupTable:
    """S_n on n points, generated by adjacent transpositions."""
    if n < 1:
        raise ValueError("n must be positive")
    order = family_order("A", n - 1, f"S{n}")
    gens = []
    for i in range(n - 1):
        g = np.arange(n, dtype=np.uint8)
        g[[i, i + 1]] = g[[i + 1, i]]
        gens.append(g)
    return group_from_generators(
        gens, name=f"S{n}", degree=n, order=order, labeler=_cycle_type_label
    )


def row_to_signed_perm(row: np.ndarray) -> SignedPermutation:
    n = row.shape[0] // 2
    perm = [0] * n
    signs = [1] * n
    for i in range(n):
        img = int(row[i])
        perm[i] = img % n
        signs[img % n] = -1 if img >= n else 1
    return SignedPermutation(tuple(signs), tuple(perm))


def _signed_label(row: np.ndarray) -> str:
    return str(signed_cycle_type(row_to_signed_perm(row)))


def _dn_label(row: np.ndarray) -> str:
    return str(dn_class_label(row_to_signed_perm(row)))


def _bc_generators(n: int) -> list[np.ndarray]:
    gens = []
    for i in range(n - 1):
        swap = np.arange(2 * n, dtype=np.uint8)
        swap[[i, i + 1]] = swap[[i + 1, i]]
        swap[[n + i, n + i + 1]] = swap[[n + i + 1, n + i]]
        gens.append(swap)
    flip = np.arange(2 * n, dtype=np.uint8)
    flip[[n - 1, 2 * n - 1]] = flip[[2 * n - 1, n - 1]]
    gens.append(flip)
    return gens


def build_wreath_bc(n: int) -> GroupTable:
    """C2 wr S_n as signed permutations acting on 2n points."""
    if n < 1:
        raise ValueError("n must be positive")
    order = family_order("B", n, f"B{n}")
    gens = _bc_generators(n)
    return group_from_generators(
        gens, name=f"B{n}", degree=2 * n, order=order, labeler=_signed_label
    )


def build_d(n: int) -> GroupTable:
    """D_n: the index-2 subgroup of C2 wr S_n with positive sign product."""
    if n < 2:
        raise ValueError("n must be at least 2")
    order = family_order("D", n, f"D{n}")
    gens = _bc_generators(n)[:-1]
    flip_swap = np.arange(2 * n, dtype=np.uint8)
    flip_swap[n - 2] = 2 * n - 1
    flip_swap[n - 1] = 2 * n - 2
    flip_swap[2 * n - 2] = n - 1
    flip_swap[2 * n - 1] = n - 2
    gens.append(flip_swap)
    return group_from_generators(
        gens, name=f"D{n}", degree=2 * n, order=order, labeler=_dn_label
    )


def build_dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m on the vertices of an m-gon."""
    if m < 3:
        raise ValueError("m must be at least 3")
    order = family_order("I2", m, f"I2({m})")
    vertices = np.arange(m)
    rot, ref = (vertices + 1) % m, -vertices % m
    return group_from_generators([rot, ref], name=f"I2({m})", degree=m, order=order)


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """G1 x G2 acting on the disjoint union of the two point sets."""
    d1, d2 = g1.degree, g2.degree
    gens = []  # in a wide dtype: d1 + d2 may pass 256 before it is refused
    for r in g1.gen_rows:
        gens.append(np.concatenate([g1.perms[r], np.arange(d1, d1 + d2)]))
    for r in g2.gen_rows:
        gens.append(np.concatenate([np.arange(d1), g2.perms[r].astype(np.intp) + d1]))
    labeler = None
    if g1.labeler and g2.labeler:
        l1, l2 = g1.labeler, g2.labeler
        labeler = lambda row: f"{l1(row[:d1])} | {l2(row[d1:] - d1)}"
    name, order = f"{g1.name} x {g2.name}", g1.order * g2.order
    return group_from_generators(
        gens, name=name, degree=d1 + d2, order=order, labeler=labeler
    )
