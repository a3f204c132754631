"""Exceptional reflection groups built from root systems with exact arithmetic.

Roots live in simple-root coordinates: the reflection in simple root j sends a
coordinate vector v to v - (sum_i v_i * C[i][j]) * e_j, where C[i][j] =
2(a_i, a_j)/(a_j, a_j).  Every entry used (2, -1, -2, -phi) lies in the ring
Z[phi], phi = (1 + sqrt 5)/2 and phi^2 = phi + 1, so every coordinate does too:
it is stored as an int pair (a, b) = a + b*phi, and a reflection is integer
arithmetic.  Crystallographic types (F4, E6, E7) keep b = 0; H3 and H4 need
phi.  Exact equality makes root deduplication and the closure test
unambiguous.

Simple-root data follows the standard conventions: Bourbaki numbering and
lengths for F4/E6/E7 (F4 with two long then two short roots), and for H3/H4 a
chain of unit roots whose first bond has order 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnsupportedGroupError
from .families import FAMILIES
from .groups import GroupTable, Parts, coxeter_generators, product_table

Zphi = tuple[int, int]  # a + b*phi


def zphi_mul(x: Zphi, y: Zphi) -> Zphi:
    """(a + b phi)(c + d phi) = (ac + bd) + (ad + bc + bd) phi, as phi^2 = phi + 1."""
    (a, b), (c, d) = x, y
    return a * c + b * d, a * d + b * c + b * d


def _cartan(rank: int, bonds: dict[tuple[int, int], Zphi]) -> list[list[Zphi]]:
    """2 on the diagonal, C[i][j] = bonds[(i, j)] off it, 0 elsewhere."""
    mat = [[(2, 0) if i == j else (0, 0) for j in range(rank)] for i in range(rank)]
    for (i, j), entry in bonds.items():
        mat[i][j] = entry
    return mat


def _edges(*pairs: tuple[int, int]) -> dict[tuple[int, int], Zphi]:
    """C[i][j] = C[j][i] = -1 for each edge (i, j)."""
    return {e: (-1, 0) for i, j in pairs for e in ((i, j), (j, i))}


_CHAIN = [(i, i + 1) for i in range(7)]
_PHI_BOND = {(0, 1): (0, -1), (1, 0): (0, -1)}  # C[0][1] = C[1][0] = -phi

# name -> (Cartan-style matrix C[i][j] = 2(a_i,a_j)/(a_j,a_j), root norms, root
# count).  E: Bourbaki numbering, chain 1-3-4-5-...-n with node 2 attached to node 4
_ROOT_DATA = {
    "H3": (_cartan(3, _edges(*_CHAIN[:2]) | _PHI_BOND), [1] * 3, 30),
    "F4": (_cartan(4, _edges(*_CHAIN[:3]) | {(1, 2): (-2, 0)}), [2, 2, 1, 1], 48),
    "E6": (_cartan(6, _edges((0, 2), (1, 3), *_CHAIN[2:5])), [2] * 6, 72),
    "H4": (_cartan(4, _edges(*_CHAIN[:3]) | _PHI_BOND), [1] * 4, 120),
    "E7": (_cartan(7, _edges((0, 2), (1, 3), *_CHAIN[2:6])), [2] * 7, 126),
}


@dataclass(frozen=True)
class RootSystem:
    """Roots of one reflection group in simple-root coordinates, discovery order."""

    type_name: str
    rank: int
    cartan: tuple[tuple[Zphi, ...], ...]
    norms: tuple[int, ...]
    roots: tuple[tuple[Zphi, ...], ...]
    reflection_tables: tuple[tuple[int, ...], ...]

    def inner(self, v, w) -> Zphi:
        """Twice the inner product: 2(a_i, a_j) = C[i][j] * (a_j, a_j)."""
        a = b = 0
        for i in range(self.rank):
            for j in range(self.rank):
                x, y = zphi_mul(zphi_mul(v[i], w[j]), self.cartan[i][j])
                a, b = a + x * self.norms[j], b + y * self.norms[j]
        return a, b


def _reflect(v: tuple[Zphi, ...], j: int, column) -> tuple[Zphi, ...]:
    # column: the (i, C[i][j]) with C[i][j] != 0
    a = b = 0
    for i, entry in column:
        x, y = zphi_mul(v[i], entry)
        a, b = a + x, b + y
    if not (a or b):
        return v
    x, y = v[j]
    return v[:j] + ((x - a, y - b),) + v[j + 1 :]


def build_root_system(name: str) -> RootSystem:
    """Saturate the simple roots under simple reflections; exact deduplication."""
    name = name.upper()
    if name not in _ROOT_DATA:
        raise UnsupportedGroupError(
            f"{name!r} is not built from a root system here; supported: "
            f"{sorted(_ROOT_DATA)}"
        )
    cartan, norms, expected = _ROOT_DATA[name]
    rank = len(cartan)
    columns = [
        [(i, cartan[i][j]) for i in range(rank) if cartan[i][j] != (0, 0)]
        for j in range(rank)
    ]
    simple = [
        tuple((1, 0) if i == j else (0, 0) for j in range(rank)) for i in range(rank)
    ]
    index: dict[tuple, int] = {r: i for i, r in enumerate(simple)}
    roots: list[tuple] = list(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            for j in range(rank):
                w = _reflect(v, j, columns[j])
                if w not in index:
                    index[w] = len(roots)
                    roots.append(w)
                    fresh.append(w)
        frontier = fresh
    if len(roots) != expected:
        raise AssertionError(
            f"{name}: closure found {len(roots)} roots, expected {expected}"
        )
    tables = tuple(
        tuple(index[_reflect(r, j, columns[j])] for r in roots) for j in range(rank)
    )
    return RootSystem(
        name,
        rank,
        tuple(tuple(row) for row in cartan),
        tuple(norms),
        tuple(roots),
        tables,
    )


def _parts(rs: RootSystem) -> Parts:
    gens = [np.array(t, dtype=np.uint8) for t in rs.reflection_tables]
    return len(rs.roots), coxeter_generators(gens), None


def reflection_generators(name: str) -> Parts:
    """The reflection group `name` on its roots, from its simple reflections
    by `coxeter_generators`; no labeler."""
    return _parts(build_root_system(name))


def generate_group(rs: RootSystem) -> GroupTable:
    """The table of the reflection group of `rs`, by `product_table`."""
    order = FAMILIES[rs.type_name].group_order(None)
    return product_table([_parts(rs)], rs.type_name, order)


def build_reflection_group(
    name: str, cache_dir: str | Path | None = None
) -> GroupTable:
    """The group of `name`, rebuilt on every call.

    `cache_dir` is accepted and ignored: no table is stored on disk, because
    rebuilding is never slower than reading a stored table back.
    """
    return generate_group(build_root_system(name))
