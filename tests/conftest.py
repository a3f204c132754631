"""Shared helpers: reference group arithmetic over `table.perms`, independent of
the numpy engine, a tiny dict-based z-class oracle built on it, the row of a
signed permutation, the certified centralizer probes of a class, the
derandomized settings of the hypothesis property tests, and a switch for the
thread count and chunk size of the row kernels."""

import numpy as np
from hypothesis import HealthCheck, settings

from zclass import groups, oracle
from zclass.signed_perm import SignedPermutation

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def set_row_kernels(monkeypatch, workers: int, chunk: int | None = None) -> None:
    """Run the row kernels of `zclass.groups` on `workers` threads and, given
    `chunk`, in chunks of that many rows, so that small tables take the
    threaded multi-chunk path."""
    monkeypatch.setattr(groups, "_workers", lambda: workers)
    if chunk is not None:
        monkeypatch.setattr(groups, "_ROW_CHUNK", chunk)
        monkeypatch.setattr(groups, "_TAKE_CHUNK", chunk)


def elements(table) -> list[tuple[int, ...]]:
    """The table's elements as tuples of images, in row order."""
    return [tuple(row) for row in table.perms.tolist()]


def multiply(a: tuple, b: tuple) -> tuple:
    """a after b: the image of i is a[b[i]]."""
    return tuple(a[i] for i in b)


def invert(a: tuple) -> tuple:
    inverse = [0] * len(a)
    for i, image in enumerate(a):
        inverse[image] = i
    return tuple(inverse)


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


def compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise composition: result[r] = a[r] after b[r], i.e. a[r][b[r][i]]."""
    return np.take_along_axis(a, b, axis=1)


def validate(table, rng: np.random.Generator | None = None) -> None:
    """Check the group axioms: exhaustively up to order 5000, else by probing.

    `row_index` raises on a product or inverse that is not a member.
    """
    perms = table.perms
    identity = np.arange(table.degree, dtype=np.uint8)
    assert (perms == identity).all(axis=1).any(), "identity missing"
    if table.order <= 5000:
        for row in perms:
            table.row_index(row[perms])
        table.row_index(table.inverses())
    else:
        rng = rng or np.random.default_rng(0)
        a = rng.integers(0, table.order, size=10_000)
        b = rng.integers(0, table.order, size=10_000)
        table.row_index(compose_rows(perms[a], perms[b]))
        table.row_index(table.inverses()[a])


def naive_z_class_count(table) -> int:
    """Conjugacy classes and centralizer grouping by raw image-tuple arithmetic.

    Deliberately avoids the package's orbit/fingerprint machinery: everything
    runs on Python sets of image tuples via `multiply` and `invert` only.
    """
    group = elements(table)
    inverse = {e: invert(e) for e in group}

    def conjugate(w, x):
        return multiply(multiply(w, x), inverse[w])

    seen = set()
    classes = []
    for x in group:
        if x in seen:
            continue
        orbit = {conjugate(w, x) for w in group}
        seen |= orbit
        classes.append(min(orbit))

    centralizers = [
        frozenset(h for h in group if multiply(h, rep) == multiply(rep, h))
        for rep in classes
    ]
    groups = []
    for cen in centralizers:
        placed = False
        for existing in groups:
            if len(existing) != len(cen):
                continue
            if any(
                frozenset(conjugate(w, h) for h in existing) == cen
                for w in group
            ):
                placed = True
                break
        if not placed:
            groups.append(cen)
    return len(groups)


def assert_valid_permutation_table(table):
    perms = table.perms
    assert perms.dtype == np.uint8
    for row in perms:
        assert sorted(row.tolist()) == list(range(table.degree))


def certified_probe_rows(table, cl) -> list[int]:
    """The probes of C(x), x the representative of the class `cl`, drawn and
    certified as `oracle.z_classes` does for a head, until they generate C(x)."""
    probes = oracle._Probes(table, cl.rep, table.order // cl.size)
    while not probes.certify():
        probes.draw()
    return probes.rows.tolist()
