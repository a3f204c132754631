"""Enumerated finite groups as permutation tables indexed by a base.

Every group the oracle consumes is realized concretely as permutations of a
small point set: symmetric groups on their letters, signed-permutation groups
on 2n signed points, dihedral groups on polygon vertices, reflection groups on
their root sets, and direct products on disjoint unions.  Elements are stored
as uint8 image arrays, so a point set holds at most 256 points; rows are kept
lexicographically sorted so the order never depends on generation order.

A group is enumerated from a complete stabilizer chain, `extend([], gens)`.
`extend` is the one Schreier-Sims step, over the one membership test `sift`:
it adds generators to a complete chain and makes it complete again, so the
oracle grows the chains of its probes and of the center as it takes them.
Every element is exactly one product of one transversal element per level,
so nothing is hashed or deduplicated, and their count must be the stated
order.

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

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import Partition
from .errors import LARGE_ORDER_CAP, UnsupportedGroupError, order_cap_exceeded
from .signed_perm import SignedPermutation, dn_class_label, signed_cycle_type

MAX_DEGREE = 256

_ROW_CHUNK = 1 << 16
_TAKE_CHUNK = 1 << 14
_CHUNKS_PER_THREAD = 4


def _workers() -> int:
    """The CPUs this process may run on: its affinity set, or where that is
    not exposed (macOS, Windows), every CPU."""
    import os  # loaded by the interpreter at start-up

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(fn: Callable[[int, int], None], n: int, chunk: int) -> None:
    """fn(lo, hi) for every chunk [lo, hi) of range(n), on up to `_workers()`
    threads, the caller's among them, and on no more threads than there are
    runs of `_CHUNKS_PER_THREAD` chunks of `chunk` rows.

    range(n) is cut into ceil(n / chunk) chunks, that count rounded up to a
    multiple of the thread count, the first n % count of them one row longer
    than the rest: no chunk holds more than `chunk` rows.  Thread t runs
    chunks t, t + threads, t + 2 threads, ... in order, an equal share whose
    rows differ from another's by at most one; so every thread walks the rows
    from the lowest, as the label rounds of `orbit_labels` want (a chunk is
    empty, and skipped, only when there are more chunks than rows).  numpy
    releases the interpreter lock in the gathers, minima, searches and sorts
    the row kernels are made of, so the shares run side by side.  Each
    thread holds the temporaries of one chunk at a time, so the cap keeps
    those of at most about 1/`_CHUNKS_PER_THREAD` of the rows live at once,
    on a host of any size; one thread, as for a table of at most that many
    chunks, runs every chunk in the caller.  Once one raises, no further
    chunk starts, and the first exception is raised here after every thread
    has ended.
    """
    import threading  # loaded with numpy

    count = -(-n // chunk)
    workers = max(1, min(_workers(), -(-count // _CHUNKS_PER_THREAD)))
    count += -count % workers  # equal shares
    size, longer = divmod(n, max(count, 1))
    edges = [i * size + min(i, longer) for i in range(count + 1)]
    chunks = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
    errors: list[BaseException] = []

    def work(t: int) -> None:
        for lo, hi in chunks[t::workers]:
            if errors:
                return
            try:
                fn(lo, hi)
            except BaseException as e:  # raised in the caller below
                errors.append(e)
                return

    threads = [threading.Thread(target=work, args=(t,)) for t in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


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


def orbit_labels(maps: np.ndarray, n: int) -> np.ndarray:
    """label[p] = the least point of p's orbit under the group that the
    permutations `maps` of 0..n-1 (one row each) generate, as int32.

    Every point starts labelled with itself.  Each round runs, for every
    chunk [lo, hi) of at most `_ROW_CHUNK` points (by `_run_chunks`, so equal
    shares of the chunks may run at once on several threads), label[lo:hi]
    = min(label[lo:hi], label[m[lo:hi]]) for each map m in turn, then
    label[lo:hi] = label[label[lo:hi]], all in place; rounds repeat until one
    leaves the label sum unchanged.  A read may see a label before or after
    another chunk lowers it (an int32 is read and written whole), but every
    value it can see names a point of the same orbit and is at most the point
    it labels, so labels never grow and always name a point of their orbit:
    the least point of an orbit keeps its own label.  A round that keeps the sum
    therefore changed no label, so every read in it, whichever thread wrote
    the value, saw the final labels.  Then label[p] <= label[m(p)] for every
    map m and point p, and as m has finite order, the labels along p, m(p),
    m(m(p)), ... are equal.  The maps reach the whole orbit, so all of it
    carries its least point.  The labels do not depend on the number of
    threads; the number of rounds may.
    """
    label = np.arange(n, dtype=np.int32)

    def lower(lo: int, hi: int) -> None:
        part = label[lo:hi]
        for m in maps:
            np.minimum(part, label[m[lo:hi]], out=part)
        part[:] = label[part]

    total = n * (n - 1) // 2
    while True:
        _run_chunks(lower, n, _ROW_CHUNK)
        last, total = total, int(label.sum(dtype=np.int64))
        if total == last:
            return label


def cycle_lengths(perms: np.ndarray) -> np.ndarray:
    """cycle[r, p]: the length of the cycle of the r-th of `perms` through p,
    counted by the least point of each cycle, found by pointer doubling."""
    n, degree = perms.shape
    least, jump = np.broadcast_to(np.arange(degree), perms.shape), perms
    for _ in range((degree - 1).bit_length()):  # least of p, ..., x^(2^k - 1)(p)
        least = np.minimum(least, np.take_along_axis(least, jump, axis=1))
        jump = np.take_along_axis(jump, jump, axis=1)
    flat = least + degree * np.arange(n)[:, None]
    return np.bincount(flat.ravel(), minlength=n * degree)[flat]


def _key_code(gens: np.ndarray, base: np.ndarray) -> np.ndarray:
    """code[i, p] = weight of base point i times the rank of p in its orbit
    under the group generated by `gens`, the orbits taken by `orbit_labels`.

    Weights are mixed-radix over the orbit sizes with the first base point most
    significant, so keys sort like the rows.  A point outside the orbit codes
    as the key bound, which no member key reaches.
    """
    label = orbit_labels(gens, gens.shape[1])
    orbits = [np.flatnonzero(label == label[b]) for b in base]
    bound = math.prod(o.size for o in orbits)
    if bound * (len(base) + 1) >= 2**63:
        raise UnsupportedGroupError("base keys of this group do not fit in 63 bits")
    code = np.full((len(base), gens.shape[1]), bound, dtype=np.int64)
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


class GroupTable:
    """Enumerated permutation group on `degree` points.

    `perms` holds all elements as image arrays, rows sorted lexicographically;
    `keys` holds their strictly increasing base keys.  `gen_rows` index the
    generators the table was built from (for a Coxeter group of rank 4 or
    more, the three of `coxeter_generators`); conjugation by each gives one
    row of `conjugation_maps`, which the table does not keep.
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
        self._starts: np.ndarray | None = None

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
        return self._search(_keys(self._code, images))

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
        """Each row's inverse, by argsort over `_TAKE_CHUNK` rows at a time."""
        if self._inverses is None:
            inv = np.empty_like(self.perms)

            def invert(lo: int, hi: int) -> None:
                inv[lo:hi] = np.argsort(self.perms[lo:hi], axis=1)

            _run_chunks(invert, self.order, _TAKE_CHUNK)
            self._inverses = inv
        return self._inverses

    def conjugation_maps(self) -> np.ndarray:
        """maps[s, r] is the index of t * e_r * t^-1 for t = gen_rows[s], as
        int32, computed anew on each call.

        t e t^-1 takes b_i to t(e(c_i)) for c_i = t^-1(b_i), so its key is the
        sum of code[i, t(e(c_i))]: one lookup per base point in the code
        composed with t, code[:, t].  Each chunk of at most `_ROW_CHUNK` rows
        is read once, at the union of the columns c_i of every t, and writes
        only its own columns of the maps, so the chunks run on `_run_chunks`'
        threads; a conjugate with no member raises LookupError in the caller.
        """
        t_rows = self.perms[list(self.gen_rows)]
        columns = np.argsort(t_rows, axis=1)[:, self.base]  # c_i of each t
        codes = self._code[:, t_rows]  # codes[:, s] is code[:, gen_rows[s]]
        read, at = np.unique(columns, return_inverse=True)
        at = at.reshape(columns.shape)  # columns[s, i] is read[at[s, i]]
        maps = np.empty((len(self.gen_rows), self.order), dtype=np.int32)

        def conjugate(lo: int, hi: int) -> None:
            block = self.perms[lo:hi, read]
            for s, m in enumerate(maps):
                m[lo:hi] = self._search(_keys(codes[:, s], block[:, at[s]]))

        _run_chunks(conjugate, self.order, _ROW_CHUNK)
        return maps

    def element_orders(self) -> np.ndarray:
        """Each element's order, the lcm of its cycle lengths, by `_TAKE_CHUNK` rows."""
        if self._orders is None:
            orders = np.empty(self.order, dtype=np.int64)

            def lcm(lo: int, hi: int) -> None:
                orders[lo:hi] = np.lcm.reduce(cycle_lengths(self.perms[lo:hi]), axis=1)

            _run_chunks(lcm, self.order, _TAKE_CHUNK)
            self._orders = orders
        return self._orders

    def image_starts(self) -> np.ndarray:
        """starts[p], p = 0, ..., degree: the first row w with w(b) >= p, b the
        first base point, or order; rows are sorted by w(b), so those with
        w(b) = p are rows starts[p] to starts[p + 1] - 1.  Found once per
        table, by one search of that column."""
        if self._starts is None:
            b = self.base[0] if self.base.size else 0  # a trivial group has no base
            points = np.arange(self.degree, dtype=np.uint8)
            first = np.searchsorted(self.perms[:, b], points)
            self._starts = np.append(first, self.order)
        return self._starts

    def label(self, row: int) -> str | None:
        return self.labeler(self.perms[row]) if self.labeler else None


class ChainLevel(NamedTuple):
    """A chain level: `gens` are its strong generators, which fix the earlier
    points; transversal[j] maps `point` to the j-th least point q of its orbit
    under them, position[q] = j (-1 off the orbit), inverse[j] = transversal[j]^-1.
    """

    point: int
    gens: np.ndarray
    position: np.ndarray
    transversal: np.ndarray
    inverse: np.ndarray


def _level(point: int, gens: np.ndarray) -> ChainLevel:
    """The level of `point` under `gens`, its orbit found breadth first."""
    degree, images = gens.shape[1], gens.tolist()
    found, queue = {point: np.arange(degree, dtype=np.uint8)}, [point]
    for p in queue:
        for s, image in zip(gens, images):
            if image[p] not in found:
                found[image[p]] = s[found[p]]
                queue.append(image[p])
    points = sorted(found)
    position = np.full(degree, -1, dtype=np.intp)
    position[points] = np.arange(len(points))
    transversal = np.array([found[p] for p in points])
    inverse = np.argsort(transversal, axis=1).astype(np.uint8)
    return ChainLevel(point, gens, position, transversal, inverse)


def chain_order(levels: list[ChainLevel]) -> int:
    """The order of a complete chain's group: the product of its orbit lengths."""
    return math.prod(level.transversal.shape[0] for level in levels)


def sift(levels: list[ChainLevel], perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of `perms` sifted through `levels` (r -> u_q^-1 r, q = r(point)):
    the residues, and per row the level whose orbit misses its image, where
    it keeps its residue (which moves that point), or len(levels).  A row
    lies in a complete chain's group exactly when its residue is the identity."""
    residues, stop = np.empty_like(perms), np.full(perms.shape[0], len(levels))
    live, res = np.arange(perms.shape[0]), perms  # rows still sifting, and theirs
    degree = perms.shape[1]
    for e, level in enumerate(levels):
        j = level.position[res[:, level.point]]
        off = j < 0
        if off.any():
            residues[live[off]], stop[live[off]] = res[off], e
            live, res, j = live[~off], res[~off], j[~off]
        res = level.inverse.reshape(-1)[j[:, None] * degree + res]  # u_q^-1 r
    residues[live] = res
    return residues, stop


def extend(levels: list[ChainLevel], gens: np.ndarray) -> list[ChainLevel]:
    """A complete chain of the group generated by the complete chain `levels`
    (`[]` for the trivial group) and the uint8 rows `gens`, by deterministic
    Schreier-Sims.

    `gens` join the first level's strong generators; on an empty chain its
    point is the least point they move.  The Schreier generators
    u_{s(q)}^-1 s u_q of a level, from the first on, are sifted through the
    levels below it.  The first non-identity residue joins the strong
    generators of the levels below, down to where it stopped (a new level at
    the least point it moves, if it fixes every base point), and the work
    resumes there; a level whose all sift to the identity passes on to the
    one above.  Then each level's group is the stabilizer of its point in the
    one above, so `chain_order` is the order.
    """
    levels, degree = list(levels), gens.shape[1]
    identity = np.arange(degree, dtype=np.uint8)

    def grow(e: int, new: np.ndarray) -> None:
        if e < len(levels):
            point, new = levels[e].point, np.vstack([levels[e].gens, new])
        else:
            point = int((new != identity).argmax(axis=1).min())
        levels[e : e + 1] = [_level(point, new)]

    gens = gens[(gens != identity).any(axis=1)]
    if not gens.size:
        return levels
    grow(0, gens)
    d = 0
    while d >= 0:
        moved = levels[d].gens[:, levels[d].transversal].reshape(-1, degree)  # s u_q
        residues, stop = sift(levels[d:], moved)
        left = np.flatnonzero((residues != identity).any(axis=1))
        if not left.size:
            d -= 1
            continue
        h, stop = residues[left[:1]], d + int(stop[left[0]])
        for e in range(d + 1, stop + 1):
            grow(e, h)
        d = stop
    return levels


def _products(levels: list[ChainLevel], degree: int) -> np.ndarray:
    """Every product u_1 ... u_k of one transversal element per level, as rows;
    built from the last level up with one np.take per transversal element,
    over chunks of at most `_TAKE_CHUNK` rows (which bound the intp copy)
    on `_run_chunks`' threads."""
    block = np.arange(degree, dtype=np.uint8)[None, :]
    for level in reversed(levels):
        n = block.shape[0]
        out = np.empty((level.transversal.shape[0] * n, degree), dtype=np.uint8)

        def take(lo: int, hi: int) -> None:
            rows = block[lo:hi].astype(np.intp)
            for j, u in enumerate(level.transversal):
                np.take(u, rows, out=out[j * n + lo : j * n + hi])

        _run_chunks(take, n, _TAKE_CHUNK)
        block = out
    return block


def _check_degree(name: str, degree: int) -> None:
    if degree > MAX_DEGREE:
        raise UnsupportedGroupError(
            f"{name} acts on {degree} points; group tables hold at most "
            f"{MAX_DEGREE} points"
        )


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
    The blocks are keyed and sorted on `_run_chunks`' threads, which walk the
    blocks, not the rows, so no chunk cuts a block.  Generators may come in
    any integer dtype; they are stored as uint8 once `degree` is known to fit.
    """
    _check_degree(name, degree)
    if order > LARGE_ORDER_CAP:
        raise order_cap_exceeded(name, order, LARGE_ORDER_CAP)
    for g in gens:
        arr = np.asarray(g)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise ValueError(f"generator is not a permutation of 0..{degree - 1}: {g}")
    generators = np.array(gens, dtype=np.uint8).reshape(-1, degree)
    levels = extend([], generators)
    found = chain_order(levels)
    if found != order:
        raise AssertionError(f"{name}: {found} elements, not {order}")
    perms = _products(levels, degree)
    base = _find_base(perms)
    code = _key_code(generators, base)
    keys, n = np.empty(order, dtype=np.int64), order // chain_order(levels[:1])

    def sort_blocks(lo: int, hi: int) -> None:  # the blocks u_1 H lo..hi-1 by key
        keys[lo * n : hi * n] = _keys(code, perms[lo * n : hi * n, base])
        for b in range(lo * n, hi * n, n):
            by_key = np.argsort(keys[b : b + n])
            keys[b : b + n] = keys[b : b + n][by_key]
            perms[b : b + n] = perms[b : b + n][by_key]

    _run_chunks(sort_blocks, order // n, max(1, _ROW_CHUNK // n))
    table = GroupTable(perms, (), name, labeler, index=(base, code, keys))
    table.gen_rows = tuple(int(r) for r in table.row_index(generators))
    return table


def coxeter_generators(reflections: list[np.ndarray]) -> list[np.ndarray]:
    """[c, s_1, s_n] for the simple reflections s_1, ..., s_n in list order,
    where c is their product (the Coxeter element), when that list is shorter,
    that is, for rank 4 or more; else the reflections themselves.

    Conjugation by any generating set has the classes as orbits, so three
    conjugation maps do the work of n.  The three generate every family at
    every rank a table is built for, while no pair (c, s_k) generates D4, D6
    or F4; `group_from_generators` proves it for each table by its order.
    """
    if len(reflections) <= 3:
        return reflections
    c = reflections[0]
    for s in reflections[1:]:
        c = s[c]
    return [c, reflections[0], reflections[-1]]


# --- concrete families ----------------------------------------------------

# (degree, generator rows, row labeler or None): a group as `product_table` takes it
Parts = tuple[int, list[np.ndarray], Callable[[np.ndarray], str] | None]


def _cycle_type_label(row: np.ndarray) -> str:
    cycles = SignedPermutation((1,) * row.shape[0], tuple(row.tolist())).cycles()
    return str(Partition.from_parts(len(c) for c in cycles))


def symmetric_generators(n: int) -> Parts:
    """S_n on n points, from the adjacent transpositions by
    `coxeter_generators`, labelled by cycle type."""
    gens = []
    for i in range(n - 1):
        g = np.arange(n, dtype=np.uint8)
        g[[i, i + 1]] = g[[i + 1, i]]
        gens.append(g)
    return n, coxeter_generators(gens), _cycle_type_label


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


def _bc_reflections(n: int) -> list[np.ndarray]:
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


def bc_generators(n: int) -> Parts:
    """C2 wr S_n as signed permutations of 2n points, from its simple
    reflections by `coxeter_generators`, labelled by signed cycle type."""
    return 2 * n, coxeter_generators(_bc_reflections(n)), _signed_label


def d_generators(n: int) -> Parts:
    """D_n, the signed permutations of 2n points with positive sign product,
    from its simple reflections by `coxeter_generators`, labelled by D_n class."""
    gens = _bc_reflections(n)[:-1]
    flip_swap = np.arange(2 * n, dtype=np.uint8)
    flip_swap[n - 2] = 2 * n - 1
    flip_swap[n - 1] = 2 * n - 2
    flip_swap[2 * n - 2] = n - 1
    flip_swap[2 * n - 1] = n - 2
    gens.append(flip_swap)
    return 2 * n, coxeter_generators(gens), _dn_label


def dihedral_generators(m: int) -> Parts:
    """The dihedral group of order 2m on the vertices of an m-gon, from its
    rotation and a reflection; no labeler."""
    vertices = np.arange(m)
    return m, [(vertices + 1) % m, -vertices % m], None


def product_table(parts: list[Parts], name: str, order: int) -> GroupTable:
    """The table of the product of the groups `parts` give, acting on the
    disjoint union of their point sets in order, built once from every part's
    generators, of the `order` the caller knows, and refused past MAX_DEGREE
    points before any row is lifted.  Its rows are labelled by the parts'
    labels joined by ' | ' when every part has a labeler, and by the labeler
    of a lone part."""
    ends = [0, *itertools.accumulate(degree for degree, _, _ in parts)]
    _check_degree(name, ends[-1])
    gens = []
    for (_, rows, _), lo, hi in zip(parts, ends, ends[1:]):
        for r in rows:
            g = np.arange(ends[-1], dtype=np.uint8)
            g[lo:hi] = np.asarray(r) + lo
            gens.append(g)
    labels, labeler = [label for _, _, label in parts], None
    if len(labels) == 1:  # a part's own rows need no slicing
        labeler = labels[0]
    elif all(labels):
        spans = list(zip(labels, ends, ends[1:]))
        labeler = lambda row: " | ".join(l(row[lo:hi] - lo) for l, lo, hi in spans)
    return group_from_generators(
        gens, name=name, degree=ends[-1], order=order, labeler=labeler
    )


def direct_product(*tables: GroupTable) -> GroupTable:
    """The product of `tables` by `product_table`, from their generator rows."""
    return product_table(
        [(t.degree, [t.perms[r] for r in t.gen_rows], t.labeler) for t in tables],
        " x ".join(t.name for t in tables),
        math.prod(t.order for t in tables),
    )
