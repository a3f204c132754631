"""Exceptional reflection groups built from root systems with exact arithmetic.

Roots live in simple-root coordinates: the reflection in simple root j sends a
coordinate vector v to v - (sum_i v_i * C[i][j]) * e_j, where C[i][j] =
2(a_i, a_j)/(a_j, a_j).  Crystallographic types (F4, E6, E7) keep integer
coordinates; H3 and H4 need the golden ratio, so coordinates are taken in
Q(sqrt 5).  Exact equality makes root deduplication and the closure test
unambiguous.

Simple-root data follows the standard conventions: Bourbaki numbering and
lengths for F4/E6/E7 (F4 with two long then two short roots), and for H3/H4 a
chain of unit roots whose first bond has order 5.
"""

from __future__ import annotations

import hashlib
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DEFAULT_ORDER_CAP, UnsupportedGroupError, order_cap_exceeded
from .groups import GroupTable, checked_order, group_from_generators

_CACHE_VERSION = 1
_CHUNK = 1 << 17

EXPECTED_ROOT_COUNT = {"H3": 30, "F4": 48, "E6": 72, "H4": 120, "E7": 126}
EXPECTED_GROUP_ORDER = {
    "H3": 120,
    "F4": 1152,
    "E6": 51840,
    "H4": 14400,
    "E7": 2903040,
}


@dataclass(frozen=True)
class QuadraticNumber:
    """a + b*sqrt(5) with rational coefficients; exact field arithmetic."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    @classmethod
    def of(cls, x) -> QuadraticNumber:
        if isinstance(x, QuadraticNumber):
            return x
        return cls(Fraction(x))

    def __add__(self, other) -> QuadraticNumber:
        o = QuadraticNumber.of(other)
        return QuadraticNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> QuadraticNumber:
        o = QuadraticNumber.of(other)
        return QuadraticNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> QuadraticNumber:
        return QuadraticNumber.of(other) - self

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.a, -self.b)

    def __mul__(self, other) -> QuadraticNumber:
        o = QuadraticNumber.of(other)
        return QuadraticNumber(
            self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadraticNumber:
        o = QuadraticNumber.of(other)
        norm = o.a * o.a - 5 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        conj = QuadraticNumber(o.a, -o.b)
        num = self * conj
        return QuadraticNumber(num.a / norm, num.b / norm)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt5)"


ZERO = QuadraticNumber()
ONE = QuadraticNumber(Fraction(1))
GOLDEN = QuadraticNumber(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2


def _chain_cartan(bonds: list[QuadraticNumber]) -> list[list[QuadraticNumber]]:
    n = len(bonds) + 1
    mat = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = QuadraticNumber(Fraction(2))
    for i, b in enumerate(bonds):
        mat[i][i + 1] = b
        mat[i + 1][i] = b
    return mat


def _e_series_cartan(n: int) -> list[list[QuadraticNumber]]:
    # Bourbaki numbering: chain 1-3-4-5-...-n with node 2 attached to node 4
    minus_one = QuadraticNumber(Fraction(-1))
    mat = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = QuadraticNumber(Fraction(2))
    edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    for i, j in edges:
        mat[i][j] = minus_one
        mat[j][i] = minus_one
    return mat


def _type_data(name: str):
    """Cartan-style matrix C[i][j] = 2(a_i,a_j)/(a_j,a_j) plus root norms."""
    minus_one = QuadraticNumber(Fraction(-1))
    two = Fraction(2)
    one = Fraction(1)
    if name == "F4":
        mat = [
            [QuadraticNumber(two), minus_one, ZERO, ZERO],
            [minus_one, QuadraticNumber(two), QuadraticNumber(Fraction(-2)), ZERO],
            [ZERO, minus_one, QuadraticNumber(two), minus_one],
            [ZERO, ZERO, minus_one, QuadraticNumber(two)],
        ]
        norms = [QuadraticNumber(two), QuadraticNumber(two), ONE, ONE]
        return mat, norms
    if name == "E6":
        return _e_series_cartan(6), [QuadraticNumber(two)] * 6
    if name == "E7":
        return _e_series_cartan(7), [QuadraticNumber(two)] * 7
    if name == "H3":
        return _chain_cartan([-GOLDEN, minus_one]), [ONE] * 3
    if name == "H4":
        return _chain_cartan([-GOLDEN, minus_one, minus_one]), [ONE] * 4
    if name == "E8":
        raise UnsupportedGroupError(
            "E8 is refused by policy: its group order (696729600) is far beyond "
            "brute-force verification; the z-class count is available by table"
        )
    raise UnsupportedGroupError(
        f"{name!r} is not built from a root system here; supported: "
        f"{sorted(EXPECTED_ROOT_COUNT)}"
    )


@dataclass(frozen=True)
class RootSystem:
    """Roots of one reflection group in simple-root coordinates, discovery order."""

    type_name: str
    rank: int
    cartan: tuple[tuple[QuadraticNumber, ...], ...]
    norms: tuple[QuadraticNumber, ...]
    roots: tuple[tuple[QuadraticNumber, ...], ...]
    reflection_tables: tuple[tuple[int, ...], ...]

    def inner(self, v, w) -> QuadraticNumber:
        # (a_i, a_j) = C[i][j] * (a_j, a_j) / 2
        total = ZERO
        for i in range(self.rank):
            if not v[i]:
                continue
            for j in range(self.rank):
                if not w[j]:
                    continue
                total = total + v[i] * w[j] * self.cartan[i][j] * self.norms[j] / 2
        return total


def _reflect(v: tuple, j: int, cartan) -> tuple:
    coef = ZERO
    for i, vi in enumerate(v):
        if vi:
            coef = coef + vi * cartan[i][j]
    if not coef:
        return v
    out = list(v)
    out[j] = out[j] - coef
    return tuple(out)


def build_root_system(name: str) -> RootSystem:
    """Saturate the simple roots under simple reflections; exact deduplication."""
    name = name.upper()
    cartan, norms = _type_data(name)
    rank = len(cartan)
    simple = [
        tuple(ONE if i == j else ZERO for j in range(rank)) for i in range(rank)
    ]
    index: dict[tuple, int] = {r: i for i, r in enumerate(simple)}
    roots: list[tuple] = list(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            for j in range(rank):
                w = _reflect(v, j, cartan)
                if w not in index:
                    index[w] = len(roots)
                    roots.append(w)
                    fresh.append(w)
        frontier = fresh
    expected = EXPECTED_ROOT_COUNT[name]
    if len(roots) != expected:
        raise AssertionError(
            f"{name}: closure found {len(roots)} roots, expected {expected}"
        )
    tables = tuple(
        tuple(index[_reflect(r, j, cartan)] for r in roots) for j in range(rank)
    )
    return RootSystem(
        name,
        rank,
        tuple(tuple(row) for row in cartan),
        tuple(norms),
        tuple(roots),
        tables,
    )


def _cache_path(cache_dir: Path, name: str) -> Path:
    key = hashlib.sha256(f"{name}-v{_CACHE_VERSION}".encode()).hexdigest()[:16]
    return cache_dir / f"zclass-group-{name}-{key}.npz"


def _rows_sorted(perms: np.ndarray) -> bool:
    """Whether the rows are strictly increasing in lexicographic order."""
    for lo in range(0, perms.shape[0] - 1, _CHUNK):
        b = perms[lo + 1 : lo + 1 + _CHUNK]
        a = perms[lo : lo + b.shape[0]]
        differ = a != b
        first = differ.argmax(axis=1)
        r = np.arange(b.shape[0])
        if not (differ[r, first].all() and (a[r, first] < b[r, first]).all()):
            return False
    return True


def _load_cached(path: Path, rs: RootSystem, expected: int) -> GroupTable | None:
    """The cached table of `rs`, or None when the file does not hold one.

    A file is accepted only if its rows are sorted with distinct base keys and
    its generator rows are the reflection tables.
    """
    try:
        with np.load(path) as data:
            perms, gen_rows = data["perms"], data["gen_rows"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    gens = np.array(rs.reflection_tables, dtype=np.uint8)
    if (
        perms.shape != (expected, len(rs.roots))
        or perms.dtype != np.uint8
        or gen_rows.shape != (rs.rank,)
        or not np.issubdtype(gen_rows.dtype, np.integer)
        or not np.all((0 <= gen_rows) & (gen_rows < expected))
        or not np.array_equal(perms[gen_rows], gens)
        or not _rows_sorted(perms)
    ):
        return None
    try:
        return GroupTable(perms, tuple(int(r) for r in gen_rows), rs.type_name)
    except (ValueError, UnsupportedGroupError):
        return None


def generate_group(
    rs: RootSystem,
    order_cap: int = DEFAULT_ORDER_CAP,
    cache_dir: str | Path | None = None,
) -> GroupTable:
    """The reflection group as permutations of the root list."""
    expected = EXPECTED_GROUP_ORDER[rs.type_name]
    if expected > order_cap:
        raise order_cap_exceeded(rs.type_name, expected, order_cap)
    if cache_dir is not None:
        path = _cache_path(Path(cache_dir), rs.type_name)
        if path.exists():
            table = _load_cached(path, rs, expected)
            if table is not None:
                return table
    gens = [np.array(t, dtype=np.uint8) for t in rs.reflection_tables]
    table = group_from_generators(
        gens, name=rs.type_name, degree=len(rs.roots), order_cap=order_cap
    )
    table = checked_order(table, expected)
    if cache_dir is not None:
        path = _cache_path(Path(cache_dir), rs.type_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, perms=table.perms, gen_rows=np.array(table.gen_rows, dtype=np.int64)
        )
    return table


def build_reflection_group(
    name: str,
    order_cap: int = DEFAULT_ORDER_CAP,
    cache_dir: str | Path | None = None,
) -> GroupTable:
    return generate_group(build_root_system(name), order_cap, cache_dir)
