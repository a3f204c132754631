"""Brute-force engine: conjugacy classes, centralizers, subgroup conjugacy, z-grouping."""

import logging
import math
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from conftest import (
    build,
    certified_probe_rows,
    elements,
    invert,
    multiply,
    naive_z_class_count,
    set_row_kernels,
    signed_perm_to_row,
)

from zclass import groups, oracle, reflection
from zclass.groups import (
    chain_order,
    direct_product,
    extend,
    group_from_generators,
    product_table,
    row_to_signed_perm,
    symmetric_generators,
)
from zclass.closed_form import parse_coxeter_type, z_count
from zclass.signed_perm import (
    SignedPartition,
    SignedPermutation,
    class_representative,
    signed_cycle_type,
    z_classes_a,
)
from zclass.verify import oracle_grouping_labels


def dn_membership_label(table, cl):
    """Signed-partition label of a D_n oracle class, with +/- for split halves,
    by membership: the '+' half is the class holding the representative
    `class_representative` gives its signed partition."""
    sp = signed_cycle_type(row_to_signed_perm(table.perms[cl.rep]))
    if not sp.is_all_even_positive():
        return str(sp)
    row = signed_perm_to_row(class_representative(sp))
    rep_idx = int(table.row_index(row[None, :])[0])
    pos = np.searchsorted(cl.members, rep_idx)
    in_class = pos < cl.members.size and cl.members[pos] == rep_idx
    return str(sp) + ("+" if in_class else "-")


def class_of(table, classes, signed_partition_entries):
    rep = class_representative(SignedPartition(signed_partition_entries))
    row = int(table.row_index(signed_perm_to_row(rep)[None, :])[0])
    for cl in classes:
        pos = np.searchsorted(cl.members, row)
        if pos < cl.members.size and cl.members[pos] == row:
            return cl
    raise AssertionError("class not found")


class TestConjugacyClasses:
    def test_b2_has_five_classes(self):
        table = build("B2")
        classes = oracle.conjugacy_classes(table)
        assert len(classes) == 5
        assert sorted(c.size for c in classes) == [1, 1, 2, 2, 2]

    def test_b3_has_ten_classes(self):
        table = build("B3")
        assert len(oracle.conjugacy_classes(table)) == 10

    def test_class_equation(self):
        for table in (build("B3"), build("D4"), build("I2(7)")):
            classes = oracle.conjugacy_classes(table)
            assert sum(c.size for c in classes) == table.order
            for c in classes:
                assert table.order % c.size == 0

    @pytest.mark.parametrize("text", ["S1", "B3", "D4 x I2(8)", "E6"])
    def test_row_classes_index_the_listed_classes(self, text):
        # the class pass's own row index, in the order of the list it returns
        table = table_of(text)
        classes, number = oracle._classes(table)
        assert [(cl.rep, cl.members.tolist()) for cl in classes] == [
            (cl.rep, cl.members.tolist()) for cl in oracle.conjugacy_classes(table)
        ]
        expected = np.empty(table.order, dtype=np.intp)
        for i, cl in enumerate(classes):
            expected[cl.members] = i
        assert number.tolist() == expected.tolist()

    def test_representative_is_minimal_encoding(self):
        table = build("D3")
        for c in oracle.conjugacy_classes(table):
            assert c.rep == int(c.members.min())

    def test_dihedral_8_has_five_classes(self):
        assert len(oracle.conjugacy_classes(build("I2(4)"))) == 5

    def test_dihedral_12_class_structure(self):
        # two central singletons, two rotation pairs, two reflection triples
        table = build("I2(6)")
        sizes = sorted(c.size for c in oracle.conjugacy_classes(table))
        assert sizes == [1, 1, 2, 2, 3, 3]


A1_9, A1_17 = " x ".join(["A1"] * 9), " x ".join(["A1"] * 17)  # past 2^8, 2^16 classes


def argsort_classes(table) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The orbit labels of the conjugation maps, and the member rows of each
    class by a stable argsort of them, keyed by the class's label."""
    label = groups.orbit_labels(table.conjugation_maps(), table.order)
    roots = np.flatnonzero(label == np.arange(table.order))
    members = np.argsort(label, kind="stable")
    split = np.split(members, np.cumsum(np.bincount(label)[roots])[:-1])
    return label, dict(zip(roots.tolist(), split))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "text", ["D7", "E6", "B6", "D4 x I2(8)", "I2(7)", "A1", A1_9, A1_17]
)
def test_members_match_a_stable_argsort_of_the_labels(monkeypatch, text, workers):
    table = build(text)
    label, expected = argsort_classes(table)
    # about 20 chunks, so that several meet inside one class
    set_row_kernels(monkeypatch, workers, table.order // 20 + 1)
    classes = oracle.conjugacy_classes(table)
    assert len(classes) == len(expected)
    for cl in classes:  # the members of the class of the rep, each class once
        assert cl.members.dtype == np.int32
        assert np.array_equal(cl.members, expected.pop(int(label[cl.rep])))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "text", ["D4", "B4", "E6", "H3", "I2(8)", "D4 x I2(8)", A1_9]
)
def test_reps_are_least_member_rows_in_order(monkeypatch, text, workers):
    # each class's rep is its lexicographically least member row, the classes
    # come in order of those rows, and so the identity's class comes first
    table = build(text)
    set_row_kernels(monkeypatch, workers, table.order // 20 + 1)
    classes = oracle.conjugacy_classes(table)
    rows = elements(table)
    reps = [rows[cl.rep] for cl in classes]
    for cl, rep in zip(classes, reps):
        assert rep == min(rows[m] for m in cl.members.tolist())
    assert reps == sorted(reps)
    assert classes[0].rep == table.identity_row


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("broken", ["label not a label", "size not dividing"])
def test_labels_breaking_the_class_equation_raise(monkeypatch, workers, broken):
    table = build("D4")
    label = groups.orbit_labels(table.conjugation_maps(), table.order)
    sizes = np.bincount(label)
    moved = next(  # a row whose class breaks the class equation without it
        r
        for r in range(table.order)
        if label[r] != r and table.order % (sizes[label[r]] - 1)
    )
    if broken == "label not a label":  # labelled with a row not labelling itself
        label[-1] = moved
    else:  # a row moved into the identity's class
        label[moved] = 0
    monkeypatch.setattr(groups, "orbit_labels", lambda maps, n: label.copy())
    set_row_kernels(monkeypatch, workers, 16)  # chunks on threads
    with pytest.raises(AssertionError, match="class equation"):
        oracle.conjugacy_classes(table)


def full_row_classes(table) -> list[tuple[int, list[int]]]:
    """(lexicographically least row, sorted member rows) of each class, by a
    breadth-first search of conjugation by the generators over full rows,
    from the rows in lexicographic order."""
    group = elements(table)
    index = {e: i for i, e in enumerate(group)}
    gens = [(group[r], invert(group[r])) for r in table.gen_rows]
    seen, classes = set(), []
    for x in sorted(group):
        if x in seen:
            continue
        orbit, frontier = {x}, {x}
        while frontier:
            frontier = {
                multiply(multiply(s, y), s_inv) for y in frontier for s, s_inv in gens
            }
            frontier -= orbit
            orbit |= frontier
        seen |= orbit
        classes.append((index[x], sorted(index[y] for y in orbit)))
    return classes


class TestFullRowClasses:
    # I2(255): its odd reflection class took 71 propagation rounds, the most seen
    @pytest.mark.parametrize(
        "text",
        ["B3", "D4", "H3", "I2(8)", "B2 x I2(5)", " x ".join(["A1"] * 8), "I2(255)"],
    )
    def test_propagation_matches_breadth_first_search(self, text):
        table = build(text)
        got = [(cl.rep, cl.members.tolist()) for cl in oracle.conjugacy_classes(table)]
        assert got == full_row_classes(table)


def class_answers(table):
    """Class reps and members, and the z_classes grouping by reps."""
    classes = [(c.rep, c.members.tolist()) for c in oracle.conjugacy_classes(table)]
    grouping = [[c.rep for c in grp] for grp in oracle.z_classes(table)]
    return classes, grouping


def class_rows(table):
    """`class_answers` as rows, comparable between tables of one group in any
    row order: each class's rep row and sorted member rows, and the
    z_classes grouping by rep rows."""
    rows = elements(table)
    classes = [
        (rows[c.rep], sorted(rows[m] for m in c.members.tolist()))
        for c in oracle.conjugacy_classes(table)
    ]
    grouping = [[rows[c.rep] for c in grp] for grp in oracle.z_classes(table)]
    return classes, grouping


def threaded_answers(text):
    """The table, conjugation maps, orbit labels and class answers of `text`."""
    table = build(text)
    maps = table.conjugation_maps()
    label = groups.orbit_labels(maps, table.order)
    return (table.perms, maps, label), class_answers(table)


class TestWorkerCount:
    """The answers do not depend on how many threads run the row kernels."""

    @pytest.mark.parametrize(
        "text",
        ["B3", "D4", "H3", "I2(255)", " x ".join(["A1"] * 8), "B2 x I2(5)"],
    )
    def test_one_and_two_threads_over_small_chunks_agree(self, monkeypatch, text):
        expected = threaded_answers(text)
        for workers in (1, 2):
            set_row_kernels(monkeypatch, workers, 5)
            arrays, answers = threaded_answers(text)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, expected[0]))
            assert answers == expected[1]

    def test_d7_one_and_two_threads_agree(self, monkeypatch):
        set_row_kernels(monkeypatch, 1)
        arrays, expected = threaded_answers("D7")
        set_row_kernels(monkeypatch, 2)
        threaded, answers = threaded_answers("D7")
        assert all(np.array_equal(a, b) for a, b in zip(threaded, arrays))
        assert answers == expected


class TestGeneratorOrder:
    @pytest.mark.parametrize("text", ["B4", "H3", "B2 x I2(5)"])
    def test_classes_and_grouping_ignore_generator_order(self, text):
        table = build(text)
        gens, maps = table.gen_rows, table.conjugation_maps()
        expected = class_rows(table)
        for order in (gens[::-1], gens[1:] + gens[:1], gens[2:] + gens[:2]):
            other = group_from_generators(
                [table.perms[r] for r in order],
                name=table.name,
                degree=table.degree,
                order=table.order,
                labeler=table.labeler,
            )
            same = table.row_index(other.perms)  # other's row r is table's same[r]
            assert sorted(same.tolist()) == list(range(table.order))
            assert tuple(same[list(other.gen_rows)].tolist()) == order
            for s, t in enumerate(order):
                conjugates = same[other.conjugation_maps()[s]]
                assert np.array_equal(conjugates, maps[gens.index(t)][same])
            assert class_rows(other) == expected

    @pytest.mark.parametrize(
        "text", ["A5", "B4", "D4", "D6", "F4", "H4", "E6", "D4 x I2(8)"]
    )
    def test_classes_and_grouping_match_all_simple_reflections(
        self, monkeypatch, text
    ):
        table = build(text)
        expected = class_rows(table)
        for module in (groups, reflection):  # builders take every reflection
            monkeypatch.setattr(module, "coxeter_generators", lambda gens: gens)
        simple = build(text)
        assert len(simple.gen_rows) > len(table.gen_rows)
        same = table.row_index(simple.perms)
        assert sorted(same.tolist()) == list(range(table.order))
        assert class_rows(simple) == expected


class TestCentralizer:
    def test_identity_centralizer_is_whole_group(self):
        table = build("I2(5)")
        cen = oracle.centralizer(table, table.identity_row)
        assert cen.order == table.order

    def test_trivial_group_centralizer(self):
        # the trivial group has no base; its one row still lists itself
        cen = oracle.centralizer(table_of("S1"), 0)
        assert cen.member_rows.tolist() == [0] and cen.generator_rows == ()

    def test_b2_table_sizes(self):
        table = build("B2")
        classes = oracle.conjugacy_classes(table)
        expected = {"1~2": 8, "1 1b": 4, "1b~2": 8, "2": 4, "2b": 4}
        for cl in classes:
            cen = oracle.centralizer(table, cl.rep)
            assert cen.order == expected[table.label(cl.rep)]

    def test_b3_negative_three_cycle(self):
        table = build("B3")
        classes = oracle.conjugacy_classes(table)
        cl = class_of(table, classes, ((3, 0, 1),))
        assert oracle.centralizer(table, cl.rep).order == 6

    def test_order_times_class_size(self):
        table = build("D4")
        for cl in oracle.conjugacy_classes(table):
            cen = oracle.centralizer(table, cl.rep)
            assert cen.order * cl.size == table.order

    def test_generators_generate(self):
        table = build("B3")
        classes = oracle.conjugacy_classes(table)
        for cl in classes:
            cen = oracle.centralizer(table, cl.rep)
            assert len(cen.generator_rows) <= 6
            members = set(cen.member_rows.tolist())
            closed = {table.identity_row}
            frontier = [table.identity_row]
            while frontier:
                fresh = []
                for r in frontier:
                    for g in cen.generator_rows:
                        p = int(
                            table.row_index(
                                table.perms[r][table.perms[g]][None, :]
                            )[0]
                        )
                        if p not in closed:
                            closed.add(p)
                            fresh.append(p)
                frontier = fresh
            assert closed == members


    def test_running_out_of_probes_raises(self, monkeypatch):
        table = build("B3")
        cl = oracle.conjugacy_classes(table)[1]
        monkeypatch.setattr(
            oracle,
            "_probes",
            lambda g, x, rows: np.full(rows.size, g.identity_row),
        )
        with pytest.raises(AssertionError, match="ran out"):
            certified_probe_rows(table, cl)

    def test_non_centralizing_generator_raises(self, monkeypatch):
        table = build("B3")
        cl = oracle.conjugacy_classes(table)[1]
        monkeypatch.setattr(
            oracle,
            "_probes",
            lambda g, x, rows: np.array(g.gen_rows),
        )
        with pytest.raises(AssertionError, match="passed"):
            certified_probe_rows(table, cl)

    @staticmethod
    def other_members_centralizer(table, cl):
        """Certified generator rows of C(y), for the first y in x's class with
        C(y) != C(x): they generate a subgroup of order |G|/|class| exactly."""
        own = oracle.centralizer(table, cl.rep, cl).member_rows
        for y in cl.members.tolist():
            other = oracle.centralizer(table, y)
            if not np.array_equal(other.member_rows, own):
                return list(other.generator_rows)
        raise AssertionError("every member of the class has the same centralizer")

    def test_generators_of_another_centralizer_raise(self, monkeypatch):
        # C(y) has the right order, so the complete chain reaches |G|/|class|
        # exactly and only the commuting check can refuse
        table = build("B3")
        cl = oracle.conjugacy_classes(table)[1]
        rows = self.other_members_centralizer(table, cl)
        target = table.order // cl.size
        assert chain_order(extend([], table.perms[rows])) == target
        monkeypatch.setattr(oracle, "_probes", lambda g, x, r: np.array(rows))
        with pytest.raises(AssertionError) as exc:
            certified_probe_rows(table, cl)
        assert str(exc.value) == "a probe does not centralize"

    def test_centralizer_checks_survive_python_O(self):
        table = build("B3")
        rows = self.other_members_centralizer(table, oracle.conjugacy_classes(table)[1])
        script = textwrap.dedent(
            f"""
            import numpy as np
            from zclass import oracle
            from zclass.families import parse_coxeter_type
            from zclass.verify import build_group

            table = build_group(parse_coxeter_type("B3"))
            cl = oracle.conjugacy_classes(table)[1]
            order = table.order // cl.size
            fakes = {{
                "ran out": lambda g, x, rows: np.full(rows.size, g.identity_row),
                "passed": lambda g, x, rows: np.array(g.gen_rows),
                "does not centralize": lambda g, x, rows: np.array({rows}),
            }}
            for name, fake in fakes.items():
                oracle._probes = fake
                probes = oracle._Probes(table, cl.rep, order)
                try:
                    while not probes.certify():
                        probes.draw()
                    print(name, "accepted")
                except AssertionError as exc:
                    print(name, "refused", name in str(exc))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "ran out refused True",
            "passed refused True",
            "does not centralize refused True",
        ]

    @pytest.mark.parametrize("text", ["B3", "D4", "H3", "B2 x I2(5)"])
    def test_generator_rows_generate_exactly_the_members(self, text):
        table = build(text)
        for cl in oracle.conjugacy_classes(table):
            cen = oracle.centralizer(table, cl.rep, cl)
            chain = extend([], table.perms[list(cen.generator_rows)])
            assert chain_order(chain) == cen.order == table.order // cl.size

    def test_class_walked_from_another_row_is_refused(self):
        table = build("B2")
        cl = oracle.conjugacy_classes(table)[1]
        other = int(cl.members[cl.members != cl.rep][0])
        with pytest.raises(ValueError):
            oracle.centralizer(table, other, cl)


class TestSubgroupsConjugate:
    def test_identical_subgroups_identity_witness(self):
        table = build("B2")
        cl = oracle.conjugacy_classes(table)[1]
        cen = oracle.centralizer(table, cl.rep)
        ok, witness = oracle.subgroups_conjugate(table, cen, cen)
        assert ok and witness == table.identity_row

    def test_positive_and_negative_two_cycle_not_conjugate(self):
        # Z(2) ~ C2 x C2 but Z(2b) ~ C4: same order, different element orders
        table = build("B2")
        classes = oracle.conjugacy_classes(table)
        cen_pos = oracle.centralizer(
            table, class_of(table, classes, ((2, 1, 0),)).rep
        )
        cen_neg = oracle.centralizer(
            table, class_of(table, classes, ((2, 0, 1),)).rep
        )
        assert cen_pos.order == cen_neg.order == 4
        assert cen_pos.fingerprint != cen_neg.fingerprint
        ok, _ = oracle.subgroups_conjugate(table, cen_pos, cen_neg)
        assert not ok

    def test_dihedral_16_reflection_centralizers_not_conjugate(self):
        table = build("I2(8)")
        classes = oracle.conjugacy_classes(table)
        reflection_classes = [c for c in classes if c.size == 4]
        assert len(reflection_classes) == 2
        h, k = (oracle.centralizer(table, c.rep) for c in reflection_classes)
        ok, _ = oracle.subgroups_conjugate(table, h, k)
        assert not ok

    def test_dihedral_12_reflection_centralizers_conjugate(self):
        table = build("I2(6)")
        classes = oracle.conjugacy_classes(table)
        reflection_classes = [c for c in classes if c.size == 3]
        assert len(reflection_classes) == 2
        h, k = (oracle.centralizer(table, c.rep) for c in reflection_classes)
        ok, witness = oracle.subgroups_conjugate(table, h, k)
        assert ok and witness is not None

    def test_witness_actually_conjugates(self):
        table = build("B3")
        classes = oracle.conjugacy_classes(table)
        cens = [oracle.centralizer(table, c.rep) for c in classes]
        found_any = False
        for i in range(len(cens)):
            for j in range(i + 1, len(cens)):
                ok, witness = oracle.subgroups_conjugate(table, cens[i], cens[j])
                if not ok:
                    continue
                found_any = True
                conj = {
                    int(
                        table.row_index(
                            (
                                table.perms[witness][table.perms[m]][
                                    table.inverses()[witness]
                                ]
                            )[None, :]
                        )[0]
                    )
                    for m in cens[i].member_rows.tolist()
                }
                assert conj == set(cens[j].member_rows.tolist())
        assert found_any

    def test_conjugate_elements_have_conjugate_centralizers(self):
        table = build("D3")
        rng = random.Random(13)
        inv = table.inverses()
        for _ in range(500):
            x = rng.randrange(table.order)
            w = rng.randrange(table.order)
            conj_row = table.perms[w][table.perms[x]][inv[w]]
            y = int(table.row_index(conj_row[None, :])[0])
            ok, _ = oracle.subgroups_conjugate(
                table, oracle.centralizer(table, x), oracle.centralizer(table, y)
            )
            assert ok


class TestZClasses:
    def test_b2(self):
        table = build("B2")
        groups = oracle.z_classes(table)
        assert len(groups) == 4

    def test_dihedral_counts(self):
        assert len(oracle.z_classes(build("I2(6)"))) == 3
        assert len(oracle.z_classes(build("I2(8)"))) == 4

    def test_refines_conjugacy(self):
        table = build("D4")
        groups = oracle.z_classes(table)
        reps = [c.rep for grp in groups for c in grp]
        assert len(reps) == len(set(reps)) == len(oracle.conjugacy_classes(table))

    @pytest.mark.parametrize(
        "text",
        ["B2", "B3", "D3", "I2(4)", "I2(6)", "A3"],
        # the ids these cases have always been reported under
        ids=[
            "build_wreath_bc-2",
            "build_wreath_bc-3",
            "build_d-3",
            "build_dihedral-4",
            "build_dihedral-6",
            "build_symmetric-4",
        ],
    )
    def test_matches_naive_oracle(self, text):
        table = build(text)
        assert len(oracle.z_classes(table)) == naive_z_class_count(table)

    def test_first_matching_group_absorbs(self):
        table = build("B3")
        groups = oracle.z_classes(table)
        firsts = [grp[0].rep for grp in groups]
        assert firsts == sorted(firsts)


    def test_debug_log_has_one_line_per_class(self, caplog):
        table = build("B3")
        with caplog.at_level(logging.DEBUG, logger="zclass.oracle"):
            oracle.z_classes(table)
        lines = [r.getMessage() for r in caplog.records if r.name == "zclass.oracle"]
        assert len(lines) == 11
        # the two central classes are one sure component, so nothing probes
        # the identity's class
        assert lines[0] == "class 1/10: size 1, centralizer order 48, no certificate"
        assert lines[9] == (
            "class 10/10: size 1, centralizer order 48, no certificate, "
            "sure join with class 1"
        )
        for i, line in enumerate(lines[:10], 1):
            assert line.startswith(f"class {i}/10: ")
        assert lines[10] == (
            "10 classes, 5 sure components, 1 heads probed, 0 heads certified"
        )

    def test_no_log_output_by_default(self, capsys):
        oracle.z_classes(build("B3"))
        assert capsys.readouterr() == ("", "")


EAGER_TYPES = (
    [f"B{n}" for n in range(2, 6)]
    + [f"D{n}" for n in range(2, 7)]
    + [f"A{n}" for n in range(1, 7)]
    + ["H3", "F4", "H4", "E6"]
    + [f"I2({m})" for m in range(3, 17)]
    + ["B3 x I2(7)", "D4 x I2(8)"]
)


def eager_grouping(table) -> tuple[list, list[list[int]]]:
    """Classes and groups of class indices, listing every centralizer and
    testing each class from its own side: a class joins the first group whose
    head's members meet the listed center of the class's centralizer."""
    classes = oracle.conjugacy_classes(table)
    groups: list[list[int]] = []
    for ci, cl in enumerate(classes):
        center = oracle.centralizer(table, cl.rep, cl).center_rows
        for grp in groups:
            head = classes[grp[0]]
            if head.size == cl.size and np.isin(head.members, center).any():
                grp.append(ci)
                break
        else:
            groups.append([ci])
    return classes, groups


def sure_roots(table) -> dict[int, int]:
    """The rep of each class mapped to the rep of the first class of its sure
    component."""
    classes, number = oracle._classes(table)
    root = oracle._sure_components(table, classes, number)
    return {cl.rep: classes[r].rep for cl, r in zip(classes, root)}


def reached_heads(groups, root) -> set[int]:
    """Reps of the heads that a later class of their size from another sure
    component reaches.

    Only the first class of a sure component is tested, against the heads of
    every group up to its own, and the other classes of a component share its
    group and size; so a head is reached by a class of its size in its own
    group or a later one, outside its component.
    """
    reached = set()
    for gi, grp in enumerate(groups):
        head = grp[0]
        later = (cl for g in groups[gi:] for cl in g if root[cl.rep] != root[head.rep])
        if any(cl.size == head.size for cl in later):
            reached.add(head.rep)
    return reached


def absorbing_heads(groups, root) -> set[int]:
    """Reps of the heads whose group holds a class of another sure component:
    each absorbed it through certified probes."""
    return {
        grp[0].rep
        for grp in groups
        if any(root[cl.rep] != root[grp[0].rep] for cl in grp)
    }


# heads whose probes get certified: every head that absorbs through probes,
# and those a class survived the first probes of without joining
CERTIFIED = {"B6": 3, "D7": 3, "E6": 0}
# the sorted numbers of probes kept by the certified heads, which are sampled
# by row position, so depend on the row order
KEPT_PROBES = {"B6": [3, 4, 4], "D7": [3, 4, 4], "E6": []}


class TestLazyCertificates:
    @pytest.mark.parametrize("text", EAGER_TYPES)
    def test_matches_eager_grouping_class_by_class(self, text):
        table = build(text)
        classes, eager = eager_grouping(table)
        eager_group_of = {classes[ci].rep: gi for gi, grp in enumerate(eager) for ci in grp}
        got = oracle.z_classes(table)
        got_group_of = {cl.rep: gi for gi, grp in enumerate(got) for cl in grp}
        assert len(got_group_of) == len(classes)
        for cl in classes:
            assert got_group_of[cl.rep] == eager_group_of[cl.rep], table.label(cl.rep)
        assert [[cl.rep for cl in grp] for grp in got] == [
            [classes[ci].rep for ci in grp] for grp in eager
        ]

    @pytest.mark.parametrize(
        "text,probed,n_classes", [("B6", 22, 65), ("E6", 7, 25), ("D7", 26, 55)]
    )
    def test_certifies_only_reached_heads(self, monkeypatch, text, probed, n_classes):
        table = build(text)
        root = sure_roots(table)
        made = []

        class Counting(oracle._Probes):
            def __init__(self, g, x, order):
                super().__init__(g, x, order)
                made.append(self)

        monkeypatch.setattr(oracle, "_Probes", Counting)
        groups = oracle.z_classes(table)
        assert sum(len(grp) for grp in groups) == n_classes
        heads = [p.x for p in made]
        assert len(heads) == len(set(heads)) == probed
        assert set(heads) == reached_heads(groups, root)
        certified = {p.x for p in made if p.certified}
        assert absorbing_heads(groups, root) <= certified
        assert len(certified) == CERTIFIED[text]
        kept = sorted(p.rows.size for p in made if p.certified)
        assert kept == KEPT_PROBES[text]

    def test_debug_log_marks_uncertified_classes(self, caplog):
        table = build("E6")
        with caplog.at_level(logging.DEBUG, logger="zclass.oracle"):
            groups = oracle.z_classes(table)
        lines = [r.getMessage() for r in caplog.records if r.name == "zclass.oracle"]
        rep_row = lambda cl: table.perms[cl.rep].tolist()
        classes = sorted((cl for grp in groups for cl in grp), key=rep_row)
        root = sure_roots(table)
        index = {cl.rep: i for i, cl in enumerate(classes, 1)}
        certified, joined = set(), []
        assert len(lines) == len(classes) + 1 == 26
        for i, (line, cl) in enumerate(zip(lines, classes), 1):
            prefix = (
                f"class {i}/25: size {cl.size}, centralizer order {table.order // cl.size}, "
            )
            assert line.startswith(prefix)
            if line.endswith(" generators"):
                certified.add(cl.rep)
            elif root[cl.rep] != cl.rep:
                joined.append(i)
                first = index[root[cl.rep]]
                assert line == prefix + f"no certificate, sure join with class {first}"
            else:
                assert line == prefix + "no certificate"
        assert absorbing_heads(groups, root) <= certified <= reached_heads(groups, root)
        assert len(certified) == CERTIFIED["E6"]
        assert len(joined) == 1
        assert lines[25] == (
            "25 classes, 24 sure components, 7 heads probed, 0 heads certified"
        )


A1_POWER = " x ".join(["A1"] * 8)


def table_of(text: str):
    """The group of a type, or the trivial group S1."""
    if text == "S1":
        return product_table([symmetric_generators(1)], "S1", 1)
    return build(text)


def size_search_roots(table, classes) -> list[int]:
    """The first class of each class's sure component, each image of a rep
    (x^p for primes p dividing its order, and x c for c in the generators of
    the center) looked for among the members of the classes of x's size."""
    sizes = [cl.size for cl in classes]
    central = np.array([cl.rep for cl in classes if cl.size == 1])
    moving = [ci for ci, size in enumerate(sizes) if size > 1]
    centre = oracle._generating_rows(table, central) if moving else []
    root = [0 if size == 1 else ci for ci, size in enumerate(sizes)]

    def find(ci):
        while root[ci] != ci:
            ci = root[ci]
        return ci

    for ci in moving:
        x = table.perms[classes[ci].rep]
        order = math.lcm(*groups.cycle_lengths(x[None])[0].tolist())
        images = [x[table.perms[c]] for c in centre]  # x c
        for p in range(2, order + 1):
            if order % p == 0 and all(p % q for q in range(2, p)):
                power = x
                for _ in range(p - 1):
                    power = x[power]
                images.append(power)
        for row in table.row_index(np.array(images)):
            for j in (j for j in moving if sizes[j] == sizes[ci]):
                members = classes[j].members
                at = np.searchsorted(members, row)
                if at < members.size and members[at] == row:
                    a, b = find(ci), find(j)
                    root[max(a, b)] = min(a, b)
    return [find(ci) for ci in range(len(classes))]


class TestSureComponents:
    @pytest.mark.parametrize(
        "text", EAGER_TYPES + [A1_POWER, "I2(255)", "S1", "A1 x A1 x A1 x B3"]
    )
    def test_roots_match_a_search_among_the_classes_of_each_size(self, text):
        table = table_of(text)
        classes, number = oracle._classes(table)
        roots = oracle._sure_components(table, classes, number)
        assert roots == size_search_roots(table, classes)

    @pytest.mark.parametrize("text", EAGER_TYPES + [A1_POWER, "I2(255)", "S1"])
    def test_components_lie_in_one_eager_class(self, text):
        table = table_of(text)
        classes, eager = eager_grouping(table)
        group_of = {ci: gi for gi, grp in enumerate(eager) for ci in grp}
        root = oracle._sure_components(table, *oracle._classes(table))
        for ci, r in enumerate(root):
            assert root[r] == r <= ci
            assert group_of[r] == group_of[ci], table.label(classes[ci].rep)
        assert {r for r, cl in zip(root, classes) if cl.size == 1} == {0}

    def test_all_central_group_makes_no_probes(self, monkeypatch):
        made = []

        class Counting(oracle._Probes):
            def __init__(self, g, x, order):
                super().__init__(g, x, order)
                made.append(self)

        monkeypatch.setattr(oracle, "_Probes", Counting)
        table = table_of(" x ".join(["A1"] * 10))
        assert len(oracle.z_classes(table)) == 1
        assert made == []

    @pytest.mark.parametrize(
        "text,n_generators", [(A1_POWER + " x B3", 9), ("D4 x I2(8)", 2)]
    )
    def test_rows_looked_up_are_bounded(self, monkeypatch, text, n_generators):
        table = table_of(text)
        classes, number = oracle._classes(table)
        central = np.array([cl.rep for cl in classes if cl.size == 1])
        assert len(oracle._generating_rows(table, central)) == n_generators
        looked_up = []
        base_index = type(table).base_index

        def counting(g, images):
            looked_up.append(len(images))
            return base_index(g, images)

        monkeypatch.setattr(type(table), "base_index", counting)
        oracle._sure_components(table, classes, number)
        primes = sum(
            table.order % p == 0 and all(p % q for q in range(2, p))
            for p in range(2, table.degree + 1)
        )
        per_class = math.ceil(math.log2(central.size)) + primes
        bound = (len(classes) - central.size) * per_class
        assert 0 < sum(looked_up) <= bound

    @pytest.mark.parametrize(
        "text", ["S1", "A1", "A1 x A1 x A1", "A3", "A5", "E6", "D7"]
    )
    def test_trivial_group_all_central_and_trivial_centers(self, text):
        table = table_of(text)
        classes, number = oracle._classes(table)
        central = np.array([cl.rep for cl in classes if cl.size == 1])
        generators = oracle._generating_rows(table, central)
        assert len(generators) == math.ceil(math.log2(central.size))
        assert len(oracle._sure_components(table, classes, number)) == len(classes)
        expected = 1 if text == "S1" else z_count(parse_coxeter_type(text)).total
        assert len(oracle.z_classes(table)) == expected


    @pytest.mark.parametrize("text", ["A1 x A1 x A1 x B3", "D4 x I2(8)", "B4"])
    def test_generating_rows_sift_once_per_generator(self, monkeypatch, text):
        # both callers pass every row of a subgroup: Z(G), and a listed C(x)
        table = table_of(text)
        classes = oracle.conjugacy_classes(table)
        subgroups = [np.array([cl.rep for cl in classes if cl.size == 1])] + [
            oracle.centralizer(table, cl.rep, cl).member_rows for cl in classes
        ]
        calls, outside = [], oracle._outside
        monkeypatch.setattr(
            oracle, "_outside", lambda *args: calls.append(1) or outside(*args)
        )
        for rows in subgroups:
            calls.clear()
            kept = oracle._generating_rows(table, rows)
            assert len(calls) == len(kept)
            assert chain_order(extend([], table.perms[kept])) == rows.size


class TestIndexTwoConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonsplit_z_grouping_agrees_between_d_and_b(self, n):
        bn = build(f"B{n}")
        dn = build(f"D{n}")
        d_groups = oracle.z_classes(dn)
        b_groups = oracle.z_classes(bn)

        def b_group_of(label):
            for gi, grp in enumerate(b_groups):
                if any(bn.label(c.rep) == label for c in grp):
                    return gi
            raise AssertionError(label)

        labelled = [
            [dn_membership_label(dn, c) for c in grp] for grp in d_groups
        ]
        # non-split labels carry no +/- suffix; the iff runs both ways:
        # same D-group => same B-group, and same B-group => same D-group
        for grp in labelled:
            nonsplit = [lbl for lbl in grp if lbl[-1] not in "+-"]
            assert len({b_group_of(lbl) for lbl in nonsplit}) <= 1
        b_to_d: dict[int, int] = {}
        for gi, grp in enumerate(labelled):
            for lbl in grp:
                if lbl[-1] in "+-":
                    continue
                assert b_to_d.setdefault(b_group_of(lbl), gi) == gi

    def test_minus_half_is_outside_conjugate_of_plus_half(self):
        # conjugating the all-plus representative by a lone sign flip
        # (an element outside D_n) lands in the '-' half
        dn = build("D4")
        classes = oracle.conjugacy_classes(dn)
        by_label = {dn_membership_label(dn, c): c for c in classes}
        for sp_entries in (((4, 1, 0),), ((2, 2, 0),)):
            rep = class_representative(SignedPartition(sp_entries))
            flip = SignedPermutation((-1,) + (1,) * 3, tuple(range(4)))
            conj = flip * rep * flip.inverse()
            row = int(dn.row_index(signed_perm_to_row(conj)[None, :])[0])
            label = None
            for lbl, cl in by_label.items():
                pos = np.searchsorted(cl.members, row)
                if pos < cl.members.size and cl.members[pos] == row:
                    label = lbl
                    break
            assert label is not None and label.endswith("-")

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_row_labels_are_the_membership_labels(self, n):
        # the D_n table labels every row, not only class representatives,
        # with the half its class holds by membership
        dn = build(f"D{n}")
        for cl in oracle.conjugacy_classes(dn):
            expected = dn_membership_label(dn, cl)
            assert {dn.label(r) for r in cl.members.tolist()} == {expected}

    def test_split_class_centralizers_equal_in_both_groups(self):
        for n in (2, 4, 6):
            bn = build(f"B{n}")
            dn = build(f"D{n}")
            for cl in oracle.conjugacy_classes(dn):
                label = dn_membership_label(dn, cl)
                row_in_b = int(bn.row_index(dn.perms[cl.rep][None, :])[0])
                cen_b = oracle.centralizer(bn, row_in_b)
                cen_d = oracle.centralizer(dn, cl.rep)
                if label[-1] in "+-":
                    assert cen_b.order == cen_d.order
                else:
                    assert cen_b.order == 2 * cen_d.order


class TestDirectProductRule:
    def test_dihedral_square(self):
        g = direct_product(build("I2(3)"), build("I2(3)"))
        assert len(oracle.z_classes(g)) == 9

    def test_random_pairs_multiply(self):
        rng = random.Random(14)
        pool = ["I2(3)", "I2(4)", "I2(6)", "B2", "A2", "A3", "D3"]
        for _ in range(10):
            g1, g2 = (build(text) for text in rng.sample(pool, 2))
            if g1.order * g2.order > 2000:
                continue
            prod = direct_product(g1, g2)
            assert len(oracle.z_classes(prod)) == len(
                oracle.z_classes(g1)
            ) * len(oracle.z_classes(g2))


class TestOracleLabels:
    def test_b3_grouping_labels(self):
        table = build("B3")
        groups = oracle_grouping_labels(table)
        assert {frozenset(g) for g in groups} == {
            frozenset({"1~3", "1b~3"}),
            frozenset({"1~2 1b", "1 1b~2"}),
            frozenset({"2 1", "2 1b"}),
            frozenset({"2b 1", "2b 1b"}),
            frozenset({"3", "3b"}),
        }

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_type_a_grouping_matches_structure(self, rank):
        """The oracle's z-classes of S_(rank+1), as sets of cycle types, are
        the structural grouping `z_classes_a`."""
        table = build(f"A{rank}")
        oracular = oracle_grouping_labels(table)
        structural = [[str(lam) for lam in g] for g in z_classes_a(rank + 1)]
        assert {frozenset(g) for g in oracular} == {frozenset(g) for g in structural}
        assert sorted(sum(oracular, [])) == sorted(sum(structural, []))

    def test_generic_labels_are_positional(self):
        table = build("I2(5)")
        groups = oracle_grouping_labels(table)
        flat = sorted(lbl for grp in groups for lbl in grp)
        assert flat == [f"c{i}" for i in range(4)]
