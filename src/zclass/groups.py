"""Enumerated finite groups as permutation tables indexed by a base.

Every group the oracle consumes is realized concretely as permutations of a
small point set: symmetric groups on their letters, signed-permutation groups
on 2n signed points, dihedral groups on polygon vertices, reflection groups on
their root sets, and direct products on disjoint unions.  Elements are stored
as uint8 image arrays, so a point set holds at most 256 points; rows are kept
lexicographically sorted so the order never depends on generation order.

Each table carries a base: points b_1 < ... < b_k found greedily from the
table, each the smallest point moved by the pointwise stabilizer of the points
before it, until only the identity fixes them all.  Two elements are then
equal exactly when they agree on the base, and two rows compare
lexicographically as their base images do.  The mixed-radix integer key of the
base images is therefore strictly increasing down the table: a lookup is one
int64 searchsorted, and an equation between group elements (commutation,
conjugation) is checked at the base points alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .combinatorics import Partition
from .errors import DEFAULT_ORDER_CAP, OrderCapExceeded, UnsupportedGroupError
from .signed_perm import SignedPermutation, signed_cycle_type

MAX_DEGREE = 256

_CHUNK = 1 << 17
_CONJUGATE_CHUNK = 1 << 16


def _splitmix64(n: int) -> np.ndarray:
    """The first n outputs of the SplitMix64 generator seeded with 0."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Fixed odd multipliers of the closure's row hash; any hash hit is confirmed
# by comparing rows, so they only need to spread rows well.
_HASH_MULTIPLIERS = _splitmix64(MAX_DEGREE) | np.uint64(1)


def compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise composition: result[r] = a[r] after b[r], i.e. a[r][b[r][i]]."""
    return np.take_along_axis(a, b, axis=1)


def _check_degree(name: str, degree: int) -> None:
    if degree > MAX_DEGREE:
        raise UnsupportedGroupError(
            f"{name} acts on {degree} points; group tables hold at most "
            f"{MAX_DEGREE} points"
        )


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


class GroupTable:
    """Enumerated permutation group on `degree` points.

    `perms` holds all elements as image arrays, rows sorted lexicographically;
    `keys` holds their strictly increasing base keys.  Generator rows are
    retained so orbit algorithms can walk the Cayley graph.
    """

    def __init__(
        self,
        perms: np.ndarray,
        gen_rows: tuple[int, ...],
        name: str,
        labeler: Callable[[np.ndarray], str] | None = None,
    ):
        self.perms = perms
        self.order, self.degree = perms.shape
        self.name = name
        self.gen_rows = gen_rows
        self.labeler = labeler
        self.base = _find_base(perms)
        self._code = _key_code(perms, self.base)
        self.keys = _keys(self._code, perms[:, self.base])
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError(f"{name}: table rows are not sorted and distinct")
        self.identity_row = self.index_of(bytes(np.arange(self.degree, dtype=np.uint8)))
        self._inverses: np.ndarray | None = None
        self._inverse_base: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._conjugation_maps: np.ndarray | None = None

    # --- canonical-encoding surface -------------------------------------

    @property
    def identity(self) -> bytes:
        return self.encoding(self.identity_row)

    def encoding(self, row: int) -> bytes:
        return self.perms[row].tobytes()

    def elements(self) -> list[bytes]:
        return [self.perms[r].tobytes() for r in range(self.order)]

    def multiply(self, a: bytes, b: bytes) -> bytes:
        ra = np.frombuffer(a, dtype=np.uint8)
        rb = np.frombuffer(b, dtype=np.uint8)
        return ra[rb].tobytes()

    def invert(self, a: bytes) -> bytes:
        ra = np.frombuffer(a, dtype=np.uint8)
        return np.argsort(ra).astype(np.uint8).tobytes()

    def index_of(self, enc: bytes) -> int:
        row = np.frombuffer(enc, dtype=np.uint8)
        idx = self.row_index(row[None, :])
        return int(idx[0])

    def contains(self, enc: bytes) -> bool:
        row = np.frombuffer(enc, dtype=np.uint8)
        if row.shape[0] != self.degree or row.max(initial=0) >= self.degree:
            return False
        try:
            self.row_index(row[None, :])
        except LookupError:
            return False
        return True

    # --- bulk internals ---------------------------------------------------

    def base_keys(self, images: np.ndarray) -> np.ndarray:
        """Keys of elements given by their base images, one (k,) row each."""
        return _keys(self._code, images)

    def base_index(self, images: np.ndarray) -> np.ndarray:
        """Indices of members given by their base images, one (k,) row each.

        Queries are sorted before the search; a key with no member raises.
        """
        query = self.base_keys(images)
        order = np.argsort(query)
        idx = np.empty(query.size, dtype=np.intp)
        idx[order] = np.searchsorted(self.keys, query[order])
        if idx.size and (
            idx.max() >= self.order or np.any(self.keys[idx] != query)
        ):
            raise LookupError(f"element not in group table {self.name}")
        return idx

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

    def inverse_base_images(self) -> np.ndarray:
        """Row r holds the preimages of the base points under element r."""
        if self._inverse_base is None:
            out = np.empty((self.order, self.base.size), dtype=np.uint8)
            points = np.arange(self.degree, dtype=np.uint8)
            step = _CHUNK >> 3
            for lo in range(0, self.order, step):
                block = self.perms[lo : lo + step]
                inv = np.empty_like(block)
                np.put_along_axis(inv, block, np.broadcast_to(points, block.shape), 1)
                out[lo : lo + block.shape[0]] = inv[:, self.base]
            self._inverse_base = out
        return self._inverse_base

    def _conjugate_block(self, t: int, select) -> np.ndarray:
        """Indices of t * e * t^-1 for the elements e = perms[select]."""
        t_arr = self.perms[t]
        columns = np.argsort(t_arr)[self.base]  # t^-1 of each base point
        return self.base_index(t_arr[self.perms[select, columns]])

    def conjugates(self, t: int, rows: np.ndarray) -> np.ndarray:
        """Indices of t * e * t^-1 for the elements at `rows`, as int32."""
        out = np.empty(rows.size, dtype=np.int32)
        for lo in range(0, rows.size, _CONJUGATE_CHUNK):
            hi = min(lo + _CONJUGATE_CHUNK, rows.size)
            out[lo:hi] = self._conjugate_block(t, rows[lo:hi, None])
        return out

    def conjugation_maps(self) -> np.ndarray:
        """maps[s, r] is the index of t * e_r * t^-1 for t = gen_rows[s], as int32.

        Computed once, into one preallocated array.
        """
        if self._conjugation_maps is None:
            maps = np.empty((len(self.gen_rows), self.order), dtype=np.int32)
            for s, t in enumerate(self.gen_rows):
                for lo in range(0, self.order, _CONJUGATE_CHUNK):
                    hi = min(lo + _CONJUGATE_CHUNK, self.order)
                    maps[s, lo:hi] = self._conjugate_block(t, slice(lo, hi))
            self._conjugation_maps = maps
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

    def validate(self, rng: np.random.Generator | None = None) -> None:
        """Check the group axioms: exhaustively up to order 5000, else by probing."""
        identity = np.arange(self.degree, dtype=np.uint8)
        if not self.contains(identity.tobytes()):
            raise AssertionError("identity missing")
        if self.order <= 5000:
            for r in range(self.order):
                products = self.perms[r][self.perms]
                self.row_index(products)
            self.row_index(self.inverses())
        else:
            rng = rng or np.random.default_rng(0)
            a = rng.integers(0, self.order, size=10_000)
            b = rng.integers(0, self.order, size=10_000)
            self.row_index(compose_rows(self.perms[a], self.perms[b]))
            self.row_index(self.inverses()[a])


def _take_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """rows[idx] for uint8 rows, copying each row as one opaque item."""
    width = rows.shape[1]
    items = np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()
    return items[idx].view(np.uint8).reshape(-1, width)


def _confirm(a: np.ndarray, b: np.ndarray) -> None:
    """Rows whose hashes matched must be equal; otherwise refuse."""
    if not np.array_equal(a, b):
        raise AssertionError("row hash collision between distinct elements")


def group_from_generators(
    gens: list[np.ndarray],
    *,
    name: str,
    degree: int,
    order_cap: int = DEFAULT_ORDER_CAP,
    labeler: Callable[[np.ndarray], str] | None = None,
) -> GroupTable:
    """Breadth-first closure of the generators under right multiplication.

    The walk uses the generators closed under inverses, so the Cayley graph is
    undirected and a product of level L lies in level L-1, L or L+1: each new
    level is deduplicated against the two before it only.  Rows are matched by
    a 64-bit hash, each level kept in hash order, and every hit is confirmed
    by comparing the rows.
    """
    _check_degree(name, degree)
    gen_arrays = []
    for g in gens:
        arr = np.asarray(g, dtype=np.uint8)
        if arr.shape != (degree,) or sorted(arr.tolist()) != list(range(degree)):
            raise ValueError(f"generator is not a permutation of 0..{degree - 1}: {g}")
        gen_arrays.append(arr)
    walk = {}
    for g in gen_arrays:
        walk.setdefault(g.tobytes(), g)
        inv = np.argsort(g).astype(np.uint8)
        walk.setdefault(inv.tobytes(), inv)

    steps = list(walk.values())
    multipliers = _HASH_MULTIPLIERS[:degree]
    # hash(x) = x @ multipliers, and hash(x * steps[j]) = x @ step_hashes[:, j]
    step_hashes = np.array([multipliers[np.argsort(s)] for s in steps]).T
    identity = np.arange(degree, dtype=np.uint8)[None, :]
    levels = [identity]
    previous = (identity[:0], np.empty(0, dtype=np.uint64))
    current = (identity, identity @ multipliers)
    count = 1
    while steps and current[0].size:
        rows = current[0]
        columns = np.ascontiguousarray(rows.T)
        products = np.concatenate([columns[s] for s in steps], axis=1).T
        hashes = (rows @ step_hashes).T.ravel()
        by_hash = np.argsort(hashes)
        products, hashes = _take_rows(products, by_hash), hashes[by_hash]
        repeat = np.flatnonzero(hashes[1:] == hashes[:-1])
        _confirm(_take_rows(products, repeat + 1), _take_rows(products, repeat))
        fresh = np.ones(hashes.size, dtype=bool)
        fresh[repeat + 1] = False
        for known, known_hashes in (previous, current):
            if not known_hashes.size:
                continue
            pos = np.searchsorted(known_hashes, hashes)
            pos[pos == known_hashes.size] = 0
            seen = known_hashes[pos] == hashes
            _confirm(_take_rows(products, seen), _take_rows(known, pos[seen]))
            fresh &= ~seen
        previous, current = current, (_take_rows(products, fresh), hashes[fresh])
        count += current[0].shape[0]
        if count > order_cap:
            raise OrderCapExceeded(
                f"{name}: enumeration passed {count} elements, beyond the cap "
                f"{order_cap}; raise it with --allow-large"
            )
        levels.append(current[0])

    perms = np.concatenate(levels)
    base = _find_base(perms)
    perms = _take_rows(perms, np.argsort(_keys(_key_code(perms, base), perms[:, base])))
    table = GroupTable(perms, (), name, labeler)
    if gen_arrays:
        table.gen_rows = tuple(int(r) for r in table.row_index(np.array(gen_arrays)))
    return table


# --- concrete families ----------------------------------------------------


def _cycle_type_label(row: np.ndarray) -> str:
    n = row.shape[0]
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        k, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = int(row[j])
            k += 1
        lengths.append(k)
    return str(Partition.from_parts(lengths))


def build_symmetric(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """S_n on n points, generated by adjacent transpositions."""
    if n < 1:
        raise ValueError("n must be positive")
    if math.factorial(n) > order_cap:
        raise OrderCapExceeded(f"S{n} has order {math.factorial(n)} > cap {order_cap}")
    gens = []
    for i in range(n - 1):
        g = np.arange(n, dtype=np.uint8)
        g[[i, i + 1]] = g[[i + 1, i]]
        gens.append(g)
    table = group_from_generators(
        gens, name=f"S{n}", degree=n, order_cap=order_cap, labeler=_cycle_type_label
    )
    assert table.order == math.factorial(n)
    return table


def signed_perm_to_row(w: SignedPermutation) -> np.ndarray:
    """Faithful action on 2n signed points: point i is +e_i, point n+i is -e_i."""
    n = w.n
    row = np.empty(2 * n, dtype=np.uint8)
    for i in range(n):
        j = w.perm[i]
        if w.signs[j] == 1:
            row[i], row[n + i] = j, n + j
        else:
            row[i], row[n + i] = n + j, j
    return row


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


def build_wreath_bc(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """C2 wr S_n as signed permutations acting on 2n points."""
    if n < 1:
        raise ValueError("n must be positive")
    expected = 2**n * math.factorial(n)
    if expected > order_cap:
        raise OrderCapExceeded(f"B{n} has order {expected} > cap {order_cap}")
    gens = _bc_generators(n)
    if n == 1:
        gens = gens[-1:]
    table = group_from_generators(
        gens, name=f"B{n}", degree=2 * n, order_cap=order_cap, labeler=_signed_label
    )
    assert table.order == expected
    return table


def build_d(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """D_n: the index-2 subgroup of C2 wr S_n with positive sign product."""
    if n < 2:
        raise ValueError("n must be at least 2")
    expected = 2 ** (n - 1) * math.factorial(n)
    if expected > order_cap:
        raise OrderCapExceeded(f"D{n} has order {expected} > cap {order_cap}")
    gens = _bc_generators(n)[:-1]
    flip_swap = np.arange(2 * n, dtype=np.uint8)
    flip_swap[n - 2] = 2 * n - 1
    flip_swap[n - 1] = 2 * n - 2
    flip_swap[2 * n - 2] = n - 1
    flip_swap[2 * n - 1] = n - 2
    gens.append(flip_swap)
    table = group_from_generators(
        gens, name=f"D{n}", degree=2 * n, order_cap=order_cap, labeler=_signed_label
    )
    assert table.order == expected
    return table


def build_dihedral(m: int, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Dihedral group of order 2m on the vertices of an m-gon."""
    if m < 3:
        raise ValueError("m must be at least 3")
    if 2 * m > order_cap:
        raise OrderCapExceeded(f"I2({m}) has order {2 * m} > cap {order_cap}")
    _check_degree(f"I2({m})", m)
    rot = np.array([(i + 1) % m for i in range(m)], dtype=np.uint8)
    ref = np.array([(m - i) % m for i in range(m)], dtype=np.uint8)
    table = group_from_generators(
        [rot, ref], name=f"I2({m})", degree=m, order_cap=order_cap
    )
    assert table.order == 2 * m
    return table


def direct_product(
    g1: GroupTable, g2: GroupTable, order_cap: int = DEFAULT_ORDER_CAP
) -> GroupTable:
    """G1 x G2 acting on the disjoint union of the two point sets."""
    if g1.order * g2.order > order_cap:
        raise OrderCapExceeded(
            f"{g1.name} x {g2.name} has order {g1.order * g2.order} > cap {order_cap}"
        )
    d1, d2 = g1.degree, g2.degree
    _check_degree(f"{g1.name} x {g2.name}", d1 + d2)
    gens = []
    for r in g1.gen_rows:
        g = np.concatenate([g1.perms[r], np.arange(d2, dtype=np.uint8) + d1])
        gens.append(g)
    for r in g2.gen_rows:
        g = np.concatenate([np.arange(d1, dtype=np.uint8), g2.perms[r] + d1])
        gens.append(g)
    labeler = None
    if g1.labeler and g2.labeler:
        l1, l2 = g1.labeler, g2.labeler
        labeler = lambda row: f"{l1(row[:d1])} | {l2(row[d1:] - d1)}"
    table = group_from_generators(
        gens,
        name=f"{g1.name} x {g2.name}",
        degree=d1 + d2,
        order_cap=order_cap,
        labeler=labeler,
    )
    assert table.order == g1.order * g2.order
    return table
