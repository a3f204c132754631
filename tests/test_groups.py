"""Group builders and the GroupTable encoding contract."""

import copy
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup
from conftest import (
    PROPERTY_SETTINGS,
    assert_valid_permutation_table,
    build,
    chain_numbers,
    elements,
    invert,
    multiply,
    set_row_kernels,
    signed_perm_to_row,
    validate,
)

from test_golden import TYPES as GOLDEN_TYPES
from zclass.errors import LARGE_ORDER_CAP, OrderCapExceeded, UnsupportedGroupError
from zclass import groups, oracle, reflection
from zclass.families import FAMILIES, parse_coxeter_type
from zclass.groups import (
    bc_generators,
    chain_order,
    direct_product,
    extend,
    group_from_generators,
    product_table,
    row_to_signed_perm,
    sift,
    symmetric_generators,
)
from zclass.reflection import build_root_system
from zclass.signed_perm import SignedPermutation
from zclass.verify import build_group


FAMILY_GENERATORS = {
    name: table.perms[list(table.gen_rows)]
    for name, table in (
        ("S6", build("A5")), ("B4", build("B4")), ("D4", build("D4"))
    )
}


@st.composite
def generator_sets(draw):
    """A random subset of the generators of S6, B4 or D4, or random
    permutations of degree 8 or less, as uint8 rows."""
    source = draw(st.sampled_from([*FAMILY_GENERATORS, "random"]))
    if source == "random":
        degree = draw(st.integers(1, 8))
        gens = draw(st.lists(st.permutations(range(degree)), max_size=4))
    else:
        family = FAMILY_GENERATORS[source]
        degree = family.shape[1]
        gens = [g.tolist() for g in family if draw(st.booleans())]
    return np.array(gens, dtype=np.uint8).reshape(-1, degree)


@st.composite
def split_generator_sets(draw):
    """A set drawn by `generator_sets`, split in two."""
    gens = draw(generator_sets())
    n = gens.shape[0]
    split = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return gens[split], gens[~split]


@functools.cache
def all_permutations(degree: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(degree))), dtype=np.uint8)


def random_signed_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    return SignedPermutation(signs, tuple(perm))


class TestBuilders:
    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_symmetric_orders(self, n, order):
        degree, gens, _ = symmetric_generators(n)
        gens = np.array(gens, dtype=np.uint8).reshape(-1, degree)
        assert chain_order(extend([], gens)) == order

    @pytest.mark.parametrize("n", range(1, 6))
    def test_wreath_orders(self, n):
        assert build(f"B{n}").order == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_d_orders(self, n):
        assert build(f"D{n}").order == 2 ** (n - 1) * math.factorial(n)

    @pytest.mark.parametrize("m", [3, 4, 6, 16])
    def test_dihedral_orders(self, m):
        assert build(f"I2({m})").order == 2 * m

    def test_d_elements_have_positive_sign_product(self):
        table = build("D3")
        for row in table.perms:
            assert row_to_signed_perm(row).in_d_n()

    def test_wreath_cap(self):
        with pytest.raises(OrderCapExceeded):
            build("B8")

    def test_axioms_validate(self):
        for table in (build("B3"), build("D3"), build("I2(5)"),
                      build("A3")):
            validate(table)
            assert_valid_permutation_table(table)

    def test_probabilistic_validation_path(self):
        validate(build("B5"))  # order 3840 exhaustive
        validate(build("D6"))  # order 23040 probabilistic

    @pytest.mark.parametrize(
        "text",
        ["B100", "D100", "A79", "A999999", "B1000000", "D1000000"],
        # the ids these cases have always been reported under
        ids=[
            "build_wreath_bc-100",
            "build_d-100",
            "build_symmetric-80",
            "build_symmetric-1000000",
            "build_wreath_bc-1000000",
            "build_d-1000000",
        ],
    )
    def test_huge_orders_refused_before_any_chain(self, monkeypatch, text):
        def no_chain(levels, gens):
            raise AssertionError("stabilizer chain built past the cap")

        monkeypatch.setattr(groups, "extend", no_chain)
        started = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="no order cap serves it"):
            build(text)
        assert time.perf_counter() - started < 1

    def test_raw_generators_refused_by_their_order_before_any_chain(
        self, monkeypatch
    ):
        # Schreier-Sims on B100's generators alone would run for minutes
        def no_chain(levels, gens):
            raise AssertionError("stabilizer chain built past the cap")

        monkeypatch.setattr(groups, "extend", no_chain)
        started = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="B100 has order of 189 digits"):
            group_from_generators(
                bc_generators(100)[1],
                name="B100",
                degree=200,
                order=2**100 * math.factorial(100),
            )
        assert time.perf_counter() - started < 1


class TestSignedPermEncoding:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 7)
            w = random_signed_perm(rng, n)
            assert row_to_signed_perm(signed_perm_to_row(w)) == w

    def test_encoding_is_homomorphism(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 6)
            v, w = random_signed_perm(rng, n), random_signed_perm(rng, n)
            rv, rw = signed_perm_to_row(v), signed_perm_to_row(w)
            assert np.array_equal(signed_perm_to_row(v * w), rv[rw])

    def test_every_wreath_element_decodes(self):
        table = build("B3")
        decoded = {row_to_signed_perm(row) for row in table.perms}
        assert len(decoded) == table.order


class TestGroupTableContract:
    def test_multiply_invert_encodings(self):
        table = build("I2(6)")
        rows = elements(table)
        assert len(set(rows)) == table.order
        e = tuple(range(table.degree))
        assert rows[table.identity_row] == e
        for a in rows:
            assert multiply(a, invert(a)) == e
            assert multiply(e, a) == a
            assert invert(a) in rows

    def test_rows_sorted_and_stable(self):
        # rows come in chain order, sorted by the number of their digits
        t1 = build("B3")
        t2 = build("B3")
        assert np.array_equal(t1.perms, t2.perms)
        assert chain_numbers(t1) == list(range(t1.order))

    @pytest.mark.parametrize("text", ["B3", "D4 x I2(8)", "H3"])
    def test_image_starts_bound_each_image_of_the_first_base_point(self, text):
        table = build(text)
        starts = table.image_starts()
        assert starts is table.image_starts()  # found once per table
        column = table.perms[:, table.base[0]]
        for p in range(table.degree):
            assert (column[starts[p] : starts[p + 1]] == p).all()
        assert starts[0] == 0 and starts[-1] == table.order

    def test_row_index_round_trip(self):
        table = build("D4")
        idx = table.row_index(table.perms)
        assert np.array_equal(idx, np.arange(table.order))

    def test_element_orders_divide_group_order(self):
        table = build("B4")
        orders = table.element_orders()
        assert orders[table.identity_row] == 1
        for k in np.unique(orders):
            assert table.order % int(k) == 0

    def test_non_member_rows_refused(self):
        table = build("D4")
        base_miss = np.array([0, 4, 2, 3, 1, 5, 6, 7], dtype=np.uint8)
        base_hit = np.array([4, 1, 2, 3, 0, 5, 6, 7], dtype=np.uint8)  # in B4 only
        for row in (base_miss, base_hit):
            with pytest.raises(LookupError):
                table.row_index(row[None, :])
            assert not (table.perms == row).all(axis=1).any()

    def test_base_images_of_non_members_refused(self):
        # images that repeat a point, and those of the transposition (1 4),
        # which sends e_0 and e_1 to e_0 and -e_0, sift to no row
        table = build("D4")
        assert table.base.tolist() == [0, 1, 2]
        swap = np.array([0, 4, 2, 3, 1, 5, 6, 7], dtype=np.uint8)
        repeated = np.zeros(table.base.size, dtype=np.uint8)
        for images in (repeated, swap[table.base]):
            with pytest.raises(LookupError):
                table.base_index(images[None, :])
            with pytest.raises(LookupError):  # also among member images
                table.base_index(np.vstack([table.perms[:5, table.base], images]))
        rows = table.perms[:, table.base]
        assert table.base_index(rows).tolist() == list(range(table.order))

    def test_membership_checked_under_optimize(self):
        # under python -O assertions vanish; row_index must still refuse
        script = (
            "import numpy as np\n"
            "from zclass.families import parse_coxeter_type\n"
            "from zclass.verify import build_group\n"
            "table = build_group(parse_coxeter_type('D4'))\n"
            "print(__debug__)\n"
            "for row in ([0, 4, 2, 3, 1, 5, 6, 7], [4, 1, 2, 3, 0, 5, 6, 7]):\n"
            "    try:\n"
            "        table.row_index(np.array([row], dtype=np.uint8))\n"
            "        print('accepted')\n"
            "    except LookupError:\n"
            "        print('refused')\n"
            "print(table.row_index(table.perms[:3]).tolist())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "refused", "refused", "[0, 1, 2]"]

    def test_rejects_non_permutation_generator(self):
        with pytest.raises(ValueError):
            group_from_generators(
                [np.array([0, 0, 1], dtype=np.uint8)], name="bad", degree=3, order=2
            )


MAP_GROUPS = {
    text: (lambda text=text: build(text))
    for text in ["B3", "D4", "H3", " x ".join(["A1"] * 8), "I2(8)", "B2 x I2(5)"]
}
MAP_GROUPS["S1"] = lambda: product_table([symmetric_generators(1)], "S1", 1)


def with_row_collapsed(table, row: int):
    """A copy of `table` whose row `row` maps every point to one point: the
    base images of its conjugates repeat a point, so no lookup finds them."""
    broken = copy.copy(table)
    broken.perms = table.perms.copy()
    broken.perms[row] = broken.perms[row, 0]
    return broken


def breadth_first_orbit_minima(maps: list[list[int]], n: int) -> list[int]:
    minima = []
    for p in range(n):
        orbit, queue = {p}, [p]
        for q in queue:
            for m in maps:
                if m[q] not in orbit:
                    orbit.add(m[q])
                    queue.append(m[q])
        minima.append(min(orbit))
    return minima


def check_random_orbit_labels():
    """`orbit_labels` against breadth-first orbit minima on random maps."""
    rng = random.Random(22)
    for n in range(1, 61):
        for k in range(5):
            maps = []
            for _ in range(k):  # a random permutation, or a cycle on few points
                if rng.random() < 0.5:
                    maps.append(rng.sample(range(n), n))
                    continue
                m, cycle = list(range(n)), rng.sample(range(n), min(n, 4))
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    m[a] = b
                maps.append(m)
            dtype = np.uint8 if n % 2 else np.int32  # point rows, or map rows
            rows = np.array(maps, dtype=dtype).reshape(k, n)
            label = groups.orbit_labels(rows, n)
            assert label.dtype == np.int32
            assert label.tolist() == breadth_first_orbit_minima(maps, n)


class TestOrbitLabels:
    def test_labels_are_breadth_first_orbit_minima(self):
        check_random_orbit_labels()

    # two and four threads (more than the CPUs of a small host) over chunks
    # of a few points
    @pytest.mark.parametrize("workers, chunk", [(2, 3), (4, 1)])
    def test_threaded_labels_are_breadth_first_orbit_minima(
        self, monkeypatch, workers, chunk
    ):
        set_row_kernels(monkeypatch, workers, chunk)
        check_random_orbit_labels()

    def test_shared_labels_under_fast_thread_switching(self, monkeypatch):
        table = build("I2(255)")  # the most propagation rounds seen
        maps = table.conjugation_maps()
        expected = groups.orbit_labels(maps, table.order)
        set_row_kernels(monkeypatch, 8, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(groups.orbit_labels(maps, table.order), expected)
        finally:
            sys.setswitchinterval(interval)


def test_cycle_lengths_and_powers_match_a_naive_walk():
    rng = random.Random(18)
    perms = np.array([rng.sample(range(40), 40) for _ in range(30)], dtype=np.uint8)
    cycle = groups.cycle_lengths(perms)
    for r, perm in enumerate(perms.tolist()):
        for p in range(40):
            q, length = perm[p], 1
            while q != p:
                q, length = perm[q], length + 1
            assert cycle[r, p] == length
        power = list(range(40))
        for e in range(1, 13):
            power = [perm[i] for i in power]
            assert oracle._power(perms[r : r + 1], e)[0].tolist() == power


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("n, chunk", [(0, 4), (1, 4), (4, 4), (100, 3), (100, 7)])
    def test_every_chunk_runs_once(self, monkeypatch, workers, n, chunk):
        set_row_kernels(monkeypatch, workers)
        seen, lock = [], threading.Lock()

        def record(lo, hi):
            with lock:
                seen.append((lo, hi))

        groups._run_chunks(record, n, chunk)
        # ceil(n / chunk) chunks, rounded up to a multiple of the threads run
        count = -(-n // chunk)
        count += -count % max(1, min(workers, -(-count // groups._CHUNKS_PER_THREAD)))
        size, longer = divmod(n, max(count, 1))
        edges = [i * size + min(i, longer) for i in range(count + 1)]
        assert sorted(seen) == list(zip(edges, edges[1:]))
        assert all(0 < hi - lo <= chunk for lo, hi in seen)

    @pytest.mark.parametrize("n", [35, 33])
    def test_two_threads_get_equal_shares(self, monkeypatch, n):
        # five chunks' worth of rows run as six, three on each thread
        set_row_kernels(monkeypatch, 2)
        shares, lock = {}, threading.Lock()

        def record(lo, hi):
            with lock:
                shares.setdefault(threading.get_ident(), []).append((lo, hi))

        groups._run_chunks(record, n, 7)
        rows = [r for share in shares.values() for c in share for r in range(*c)]
        assert sorted(rows) == list(range(n))
        assert [len(share) for share in shares.values()] == [3, 3]
        totals = [sum(hi - lo for lo, hi in share) for share in shares.values()]
        assert max(totals) - min(totals) <= 1

    def test_one_chunk_runs_in_the_caller(self, monkeypatch):
        set_row_kernels(monkeypatch, 4)
        ran_on = []
        groups._run_chunks(lambda *_: ran_on.append(threading.current_thread()), 5, 5)
        assert ran_on == [threading.current_thread()]

    def test_an_error_in_a_worker_thread_reaches_the_caller(self, monkeypatch):
        set_row_kernels(monkeypatch, 2)
        caller, raised = threading.current_thread(), threading.Event()
        before = threading.active_count()

        def fail_off_the_caller(lo, hi):
            if threading.current_thread() is caller:
                raised.wait(timeout=30)  # until the other thread has raised
                return
            raised.set()
            raise ValueError(f"chunk {lo}")

        with pytest.raises(ValueError, match="chunk"):
            groups._run_chunks(fail_off_the_caller, 40, 1)
        assert threading.active_count() == before

    def test_a_thread_takes_at_least_chunks_per_thread_chunks(self, monkeypatch):
        set_row_kernels(monkeypatch, 64)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        seen = []
        groups._run_chunks(lambda lo, hi: seen.append(lo), 40, 1)
        assert sorted(seen) == list(range(40))
        assert len(started) == 40 // groups._CHUNKS_PER_THREAD - 1  # and the caller

    def test_worker_count_is_the_affinity_set_or_every_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert groups._workers() == 3
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
        assert groups._workers() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert groups._workers() == 1
        table = build("D4")
        assert len(oracle.conjugacy_classes(table)) == 13


class TestConjugationMaps:
    # I2(8) and B2 x I2(5) have a rotation generator, which is no involution;
    # S1 has no generator and an empty base
    @pytest.mark.parametrize("text", list(MAP_GROUPS))
    def test_maps_match_full_row_products(self, text):
        table = MAP_GROUPS[text]()
        group = elements(table)
        index = {e: i for i, e in enumerate(group)}
        maps = table.conjugation_maps()
        assert maps.dtype == np.int32
        assert maps.shape == (len(table.gen_rows), table.order)
        for s, t in enumerate(table.gen_rows):
            t_row, t_inv = group[t], invert(group[t])
            expected = [index[multiply(multiply(t_row, e), t_inv)] for e in group]
            assert maps[s].tolist() == expected
            assert sorted(maps[s].tolist()) == list(range(table.order))

    @pytest.mark.parametrize("text", list(MAP_GROUPS))
    def test_lookups_agree_with_the_maps(self, text):
        table = MAP_GROUPS[text]()
        rows = np.random.default_rng(1).permutation(table.order).astype(np.int32)
        assert table.base_index(table.perms[rows][:, table.base]).tolist() == (
            rows.tolist()
        )
        maps = table.conjugation_maps()
        for s, t in enumerate(table.gen_rows):
            t_row = table.perms[t]
            conjugated = t_row[table.perms[rows][:, np.argsort(t_row)]]  # t e t^-1
            assert np.array_equal(table.row_index(conjugated), maps[s, rows])

    @pytest.mark.parametrize("row", [1, -1])  # in the first chunk, or the last
    def test_missing_conjugate_raises(self, row):
        table = build("D4")
        with pytest.raises(LookupError):
            with_row_collapsed(table, row).conjugation_maps()
        assert sorted(table.conjugation_maps()[0].tolist()) == list(range(192))

    @pytest.mark.parametrize("row", [1, -1])  # raised in the caller, or a worker
    def test_missing_conjugate_raises_from_threads(self, monkeypatch, row):
        table = build("D4")
        set_row_kernels(monkeypatch, 2, 16)  # 12 chunks on two threads
        before = threading.active_count()
        with pytest.raises(LookupError):
            with_row_collapsed(table, row).conjugation_maps()
        assert threading.active_count() == before
        assert sorted(table.conjugation_maps()[0].tolist()) == list(range(192))

    def test_missing_conjugate_raises_under_optimize(self):
        check_missing_conjugate_under_optimize(threaded=False)

    def test_missing_conjugate_raises_from_threads_under_optimize(self):
        check_missing_conjugate_under_optimize(threaded=True)


def check_missing_conjugate_under_optimize(threaded: bool):
    """Under python -O, a D4 table with a collapsed row (`with_row_collapsed`)
    refuses its conjugation maps, on one thread or over 12 chunks on two,
    and leaves no thread behind."""
    script = (
        "import copy, threading\n"
        "from zclass import groups\n"
        "from zclass.families import parse_coxeter_type\n"
        "from zclass.verify import build_group\n"
        "table = build_group(parse_coxeter_type('D4'))\n"
        f"if {threaded}:\n"
        "    groups._workers, groups._ROW_CHUNK = (lambda: 2), 16\n"
        "before = threading.active_count()\n"
        "print(__debug__)\n"
        "for row in (1, -1):\n"
        "    broken = copy.copy(table)\n"
        "    broken.perms = table.perms.copy()\n"
        "    broken.perms[row] = broken.perms[row, 0]\n"
        "    try:\n"
        "        broken.conjugation_maps()\n"
        "        print('accepted')\n"
        "    except LookupError:\n"
        "        print('refused')\n"
        "print(threading.active_count() == before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "refused", "refused", "True"]


class TestStabilizerChain:
    def test_e6_orbit_lengths(self):
        gens = np.array(build_root_system("E6").reflection_tables, dtype=np.uint8)
        levels = extend([], gens)
        assert [level.transversal.shape[0] for level in levels] == [72, 30, 4, 3, 2]

    @PROPERTY_SETTINGS
    @given(gens=generator_sets())
    def test_orbit_product_equals_sympy_order(self, gens):
        degree = gens.shape[1]
        identity = Permutation(list(range(degree)))
        group = PermutationGroup([identity, *(Permutation(g.tolist()) for g in gens)])
        assert chain_order(extend([], gens)) == int(group.order())

    @PROPERTY_SETTINGS
    @given(split=split_generator_sets())
    def test_extend_by_more_generators_matches_one_build(self, split):
        # the chain of A extended by B describes <A u B>, sifting every
        # permutation as the chain built from A u B at once does, and the
        # chain of A is left as it was
        a, b = split
        gens, degree = np.vstack([a, b]), a.shape[1]
        first = extend([], a)
        order = chain_order(first)
        levels = extend(first, b)
        assert chain_order(first) == order
        identity = Permutation(list(range(degree)))
        group = PermutationGroup([identity, *(Permutation(g.tolist()) for g in gens)])
        assert chain_order(levels) == int(group.order())
        rows = all_permutations(degree)

        def accepted(chain):
            return (sift(chain, rows)[0] == np.arange(degree)).all(axis=1)

        at_once = accepted(extend([], gens))
        assert at_once.sum() == int(group.order())
        assert np.array_equal(accepted(levels), at_once)

    @PROPERTY_SETTINGS
    @given(gens=generator_sets())
    def test_first_level_is_least_moved_point_sorted_by_image(self, gens):
        # the table's rows are then sorted by their image of the first base
        # point, which `image_starts` and the class reps rely on
        levels = extend([], gens)
        moved = np.flatnonzero((gens != np.arange(gens.shape[1])).any(axis=0))
        if not moved.size:
            assert levels == []
            return
        assert levels[0].point == moved[0]
        images = levels[0].transversal[:, levels[0].point]
        assert np.all(images[1:] > images[:-1])

    @pytest.mark.parametrize("text", ["B3", "D4", "H3", "B2 x I2(5)"])
    def test_sift_membership_matches_full_row_closure(self, text):
        # chains of a few random rows: sift, and the oracle's `_outside`,
        # accept exactly the rows of the group the rows close to
        table = MAP_GROUPS[text]()
        group = elements(table)
        rng = np.random.default_rng(7)
        for size in (1, 2, 3):
            rows = rng.choice(table.order, size=size, replace=False)
            gens = [group[r] for r in rows]
            closed, frontier = {tuple(range(table.degree)), *gens}, gens
            while frontier:
                fresh = {multiply(a, g) for a in frontier for g in gens} - closed
                closed |= fresh
                frontier = list(fresh)
            levels = extend([], table.perms[rows])
            assert chain_order(levels) == len(closed)
            inside = np.array([e in closed for e in group])
            residues, stop = sift(levels, table.perms)
            identity = np.arange(table.degree)
            sifted = (stop == len(levels)) & (residues == identity).all(axis=1)
            assert np.array_equal(sifted, inside)
            assert np.array_equal(oracle._outside(levels, table.perms), ~inside)

    def test_transversals_map_base_points_to_their_orbits(self):
        levels = extend([], build("D5").perms[list(build("D5").gen_rows)])
        for d, level in enumerate(levels):
            orbit = level.transversal[:, level.point]
            assert np.array_equal(level.position[orbit], np.arange(orbit.size))
            for earlier in levels[:d]:
                assert np.all(level.transversal[:, earlier.point] == earlier.point)

    def test_b7_build_sifts_few_rows(self, monkeypatch):
        # the sift work of B7's chain from [c, s_1, s_7], as measured: 28
        # calls over 464 rows (a restart that re-sifts each level whole from a
        # global strong generator list takes 36 over 1404)
        calls, real = [], groups.sift

        def counting(levels, perms):
            calls.append(perms.shape[0])
            return real(levels, perms)

        monkeypatch.setattr(groups, "sift", counting)
        assert build("B7").order == 645120
        assert len(calls) <= 28 and sum(calls) <= 464

    def test_order_cap_refuses_before_enumeration(self, monkeypatch):
        def enumerate_rows(levels, degree):
            raise AssertionError("rows enumerated past the cap")

        monkeypatch.setattr(groups, "_products", enumerate_rows)
        transpositions = []
        for i in range(11):
            g = np.arange(12, dtype=np.uint8)
            g[[i, i + 1]] = g[[i + 1, i]]
            transpositions.append(g)
        with pytest.raises(OrderCapExceeded, match="S12 has order 479001600 > cap"):
            group_from_generators(
                transpositions, name="S12", degree=12, order=math.factorial(12)
            )

    def test_order_cross_check_raises_under_optimize(self):
        script = (
            "import numpy as np\n"
            "from zclass.groups import group_from_generators\n"
            "m = np.arange(3)\n"
            "try:\n"
            "    group_from_generators(\n"
            "        [(m + 1) % 3, -m % 3], name='I2(3)', degree=3, order=7\n"
            "    )\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "I2(3): 6 elements, not 7\n"

    def test_trivial_group_has_no_base(self):
        table = product_table([symmetric_generators(1)], "S1", 1)
        assert table.perms.tolist() == [[0]]
        assert table.base.size == 0
        assert table.base_index(np.zeros((1, 0), dtype=np.uint8)).tolist() == [0]
        assert table.gen_rows == ()
        identity = group_from_generators([np.arange(3)], name="1", degree=3, order=1)
        assert identity.order == 1 and identity.gen_rows == (0,)


# every irreducible type a table is built for, at every rank
BUILDABLE = (
    [f"A{n}" for n in range(1, 10)]
    + [f"B{n}" for n in range(1, 8)]
    + [f"D{n}" for n in range(2, 8)]
    + ["E6", "E7", "F4", "H3", "H4"]
)


def builder_generators(monkeypatch, text):
    """The simple reflections the `generators` slot of `text` starts from and
    the generators it gives."""
    seen, coxeter_generators = {}, groups.coxeter_generators

    def record(reflections):
        seen["simple"] = np.array(reflections)
        return coxeter_generators(reflections)

    for module in (groups, reflection):
        monkeypatch.setattr(module, "coxeter_generators", record)
    factor = parse_coxeter_type(text).factors[0]
    _, gens, _ = FAMILIES[factor.family].generators(factor.rank)
    return seen["simple"], np.array(gens)


class TestCoxeterGenerators:
    @pytest.mark.parametrize("text", BUILDABLE)
    def test_builders_generate_their_group_from_at_most_three(
        self, monkeypatch, text
    ):
        simple, gens = builder_generators(monkeypatch, text)
        rank = int(text[1:])
        assert simple.shape[0] == rank
        assert gens.shape[0] == min(rank, 3)
        if rank > 3:
            c = simple[0]
            for s in simple[1:]:
                c = s[c]
            assert np.array_equal(gens, [c, simple[0], simple[-1]])
        order = parse_coxeter_type(text).group_order()
        assert chain_order(extend([], gens.astype(np.uint8))) == order

    @pytest.mark.parametrize("text", ["D4", "D6", "F4"])
    def test_no_pair_of_coxeter_element_and_reflection_generates(
        self, monkeypatch, text
    ):
        # the third generator is needed: (c, s_k) falls short for every k
        simple, gens = builder_generators(monkeypatch, text)
        order = parse_coxeter_type(text).group_order()
        for s in simple:
            pair = np.array([gens[0], s], dtype=np.uint8)
            assert chain_order(extend([], pair)) < order

    def test_pair_refused_by_its_order_under_optimize(self):
        script = (
            "import numpy as np\n"
            "from zclass.groups import coxeter_generators, group_from_generators\n"
            "from zclass.reflection import build_root_system\n"
            "tables = build_root_system('F4').reflection_tables\n"
            "simple = [np.array(t, dtype=np.uint8) for t in tables]\n"
            "pair = [coxeter_generators(simple)[0], simple[0]]\n"
            "try:\n"
            "    group_from_generators(pair, name='F4', degree=48, order=1152)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("F4: ")
        assert proc.stdout.endswith(" elements, not 1152\n")

    @pytest.mark.parametrize("text", ["A5", "D5", "E6", "H4"])
    def test_tables_keep_three_generators(self, text):
        table = build(text)
        assert len(table.gen_rows) == 3


class TestDirectProduct:
    def test_orders_multiply(self):
        g = direct_product(build("I2(3)"), build("I2(4)"))
        assert g.order == (2 * 3) * (2 * 4)

    def test_cap_applies(self):
        with pytest.raises(OrderCapExceeded):
            build_group(parse_coxeter_type("B5 x B5"), order_cap=1000)

    def test_point_sets_over_256_refused(self):
        with pytest.raises(UnsupportedGroupError):
            build("I2(257)")
        with pytest.raises(UnsupportedGroupError):
            direct_product(build("I2(200)"), build("I2(100)"))
        with pytest.raises(UnsupportedGroupError, match="acts on 259 points"):
            direct_product(build("I2(256)"), build("I2(3)"))
        with pytest.raises(
            UnsupportedGroupError, match=r"^I2\(200\) x I2\(100\) x I2\(5\) acts on 305"
        ):
            direct_product(build("I2(200)"), build("I2(100)"), build("I2(5)"))
        with pytest.raises(UnsupportedGroupError):
            group_from_generators([np.arange(257)], name="big", degree=257, order=1)
        assert build("I2(256)").degree == 256

    def test_point_sets_over_256_refused_before_the_build(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("group_from_generators was called")

        monkeypatch.setattr(groups, "group_from_generators", unreached)
        parts = [groups.dihedral_generators(200), groups.dihedral_generators(100)]
        with pytest.raises(
            UnsupportedGroupError,
            match=r"^I2\(200\) x I2\(100\) acts on 300 points; "
            r"group tables hold at most 256 points$",
        ):
            product_table(parts, "I2(200) x I2(100)", 400 * 200)

    def test_component_labels(self):
        g = direct_product(build("A2"), build("A1"))
        labels = {g.label(r) for r in range(g.order)}
        assert labels == {
            "1~3 | 1~2", "1~3 | 2", "2 1 | 1~2", "2 1 | 2", "3 | 1~2", "3 | 2",
        }

    @pytest.mark.parametrize(
        "factors",
        [
            lambda: (build("A2"), build("B2"), build("I2(5)")),
            lambda: (build("A1"), build("A1"), build("B3")),
        ],
        ids=["S3 x B2 x I2(5)", "A1 x A1 x B3"],
    )
    def test_one_build_equals_pairwise_builds(self, factors):
        a, b, c = factors()
        once = direct_product(a, b, c)
        pairwise = direct_product(direct_product(a, b), c)
        assert np.array_equal(once.perms, pairwise.perms)
        assert once.gen_rows == pairwise.gen_rows
        assert once.name == pairwise.name == f"{a.name} x {b.name} x {c.name}"
        labels = [once.label(r) for r in range(once.order)]
        assert labels == [pairwise.label(r) for r in range(pairwise.order)]


class TestSingleCapCheck:
    """The order cap is checked once, at the type, before any table is built."""

    @pytest.mark.parametrize(
        "text", ["A4", "B3", "D4", "I2(7)", "H3", "B3 x I2(7)", "A2 x H3"]
    )
    def test_refused_exactly_over_the_cap(self, monkeypatch, text):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(groups, "group_from_generators", built)
        t = parse_coxeter_type(text)
        order = t.group_order()
        for cap in (order - 1, order, order + 1):
            expected = OrderCapExceeded if order > cap else Built
            with pytest.raises(expected):
                build_group(t, order_cap=cap)

    @pytest.mark.parametrize("text", GOLDEN_TYPES)
    def test_one_table_per_request(self, monkeypatch, text):
        # a product is built as one table, with no table of any factor
        calls = []

        def built(*args, **kwargs):
            calls.append(kwargs["name"])
            return calls

        monkeypatch.setattr(groups, "group_from_generators", built)
        t = parse_coxeter_type(text)
        if t.group_order() > LARGE_ORDER_CAP:
            with pytest.raises(OrderCapExceeded):
                build(text)
            assert calls == []
        else:
            assert build(text) is calls
            assert calls == [text]
