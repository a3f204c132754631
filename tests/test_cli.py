"""CLI surface: commands, formats, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest
from sympy import partition as npartitions

import zclass.cli as cli
from zclass import closed_form, verify
from zclass.cli import main
from zclass.closed_form import parse_coxeter_type
from zclass.errors import OrderCapExceeded, order_text
from zclass.families import FAMILIES
from zclass.groups import GroupTable
from zclass.verify import build_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_b4(self, capsys):
        code, out, _ = run_cli(capsys, "count", "B4")
        assert code == 0
        row = out.splitlines()[1].split()
        assert row == ["B4", "formula", "20", "13"]

    def test_e8_table_lookup(self, capsys):
        code, out, _ = run_cli(capsys, "count", "E8", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["z_class_count"] == 65
        assert record["method"] == "table"
        assert record["conjugacy_class_count"] == 112

    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "count", "B3 x I2(8)", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["z_class_count"] == 20
        assert [f["z_class_count"] for f in record["per_factor"]] == [5, 4]

    def test_oracle_method_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "D4", "--method", "oracle", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["z_class_count"] == 10
        assert record["method"] == "oracle"

    def test_oracle_count_labels_no_class(self, capsys, monkeypatch):
        def label(self, row):
            raise AssertionError("count printed no label")

        monkeypatch.setattr(GroupTable, "label", label)
        code, out, err = run_cli(
            capsys, "count", "A1 x A1 x B3", "--method", "oracle", "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "A1 x A1 x B3,oracle,40,5"

    def test_a8_counts_past_the_order_cap(self, capsys):
        code, out, _ = run_cli(capsys, "count", "A8", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert (record["method"], record["z_class_count"]) == ("formula", 28)

    def test_a5000_counts(self, capsys):
        """The largest A rank the formula route serves, against sympy."""
        code, out, _ = run_cli(capsys, "count", "A5000", "--format", "json")
        assert code == 0
        n, record = 5001, json.loads(out)
        assert record["conjugacy_class_count"] == npartitions(n)
        assert record["z_class_count"] == (
            npartitions(n)
            - npartitions(n - 2)
            + npartitions(n - 3)
            + npartitions(n - 4)
            - npartitions(n - 5)
        )

    def test_a5000_counts_in_process_quickly(self, capsys):
        """p(0..5001) by the pentagonal recurrence, once for each of the two counts."""
        start = time.perf_counter()
        code, _, _ = run_cli(capsys, "count", "A5000")
        assert code == 0
        assert time.perf_counter() - start < 0.5

    def test_e8_oracle_refused(self, capsys):
        code, _, err = run_cli(capsys, "count", "E8", "--method", "oracle")
        assert code == 3
        assert "E8" in err
        with pytest.raises(OrderCapExceeded, match="no order cap serves it"):
            build_group(parse_coxeter_type("E8"))

    def test_d40_class_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "D40", "--format", "json")
        assert code == 0
        bp = sum(npartitions(k) * npartitions(40 - k) for k in range(41))
        record = json.loads(out)
        assert record["conjugacy_class_count"] == (bp + 3 * npartitions(20)) // 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "B5001"),
            ("count", "B3 x D5001"),
            ("count", "C100000", "--format", "json"),
            ("classes", "D5001"),
            ("verify", "B5001"),
            ("count", "A5001"),
            ("classes", "A5001"),
        ],
    )
    def test_rank_over_formula_cap_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            f"zclass: {argv[1].split()[-1]}: the formula route serves A/B/C/D "
            "ranks up to 5000"
        ]

    def test_formula_rank_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(closed_form, "MAX_FORMULA_RANK", 30)
        assert run_cli(capsys, "count", "D30")[0] == 0
        assert run_cli(capsys, "count", "D31")[0] == 3

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "B3 + D4")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "text", ["B²", "B١٢", "B" + "9" * 4400, "I2(" + "7" * 1001 + ")"]
    )
    def test_numbers_outside_the_grammar_exit_2(self, capsys, text):
        code, out, err = run_cli(capsys, "count", text)
        assert (code, out) == (2, "")
        assert "at position" in err and "internal error" not in err

    def test_rank_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "D1")
        assert code == 2
        assert "rank" in err


class TestClasses:
    def test_b2_lines(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "B2")
        assert code == 0
        assert out.splitlines() == ["{1~2, 1b~2}", "{1 1b}", "{2}", "{2b}"]

    def test_d4_has_ten_groups_with_split_singletons(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "D4")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 10
        assert "{4+}" in lines and "{4-}" in lines

    def test_a1_single_group(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "A1")
        assert code == 0
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "text,count",
        [
            ("B28", 326015),
            ("C27", 240840),
            ("D30", 294828),
            ("A49", 204226),
            ("A50", 239943),
        ],
    )
    def test_listing_over_cap_exits_3(self, capsys, text, count):
        # the counts pass the cap first at B27/C27 (240840), D29 (219595) and
        # A49 (204226); a rank past that is refused without a count of its own
        factor = parse_coxeter_type(text).factors[0]
        assert FAMILIES[factor.family].class_count(factor.rank) == count
        first = {
            "B28": "B27 (240840)",
            "D30": "D29 (219595)",
            "A50": "A49 (204226)",
        }.get(text)
        what = f"{count} conjugacy classes"
        if first:
            what = f"more conjugacy classes than {first}"
        code, out, err = run_cli(capsys, "classes", text)
        assert code == 3
        assert out == ""
        assert err == f"zclass: {text} has {what}; a listing holds at most 200000\n"

    @pytest.mark.parametrize(
        "text,first",
        [("B5000", "B27"), ("C5000", "C27"), ("D5000", "D29"), ("A5000", "A49")],
    )
    def test_largest_listing_refused_at_once(self, capsys, text, first):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classes", text)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (3, "")
        assert err.startswith(f"zclass: {text} has more conjugacy classes than {first}")

    def test_listing_cap_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "MAX_LISTED_CLASSES", 20)
        code, out, _ = run_cli(capsys, "classes", "B4")
        assert code == 0
        assert len(out.splitlines()) == 13
        assert run_cli(capsys, "classes", "B5")[0] == 3
        assert run_cli(capsys, "classes", "D5")[0] == 0
        assert run_cli(capsys, "classes", "D6")[0] == 3

    def test_exceptional_requires_oracle(self, capsys):
        code, _, err = run_cli(capsys, "classes", "H3")
        assert code == 2
        assert "--method oracle" in err

    def test_exceptional_oracle_listing(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "H3", "--method", "oracle")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_oracle_and_structural_groupings_agree(self, capsys):
        _, structural, _ = run_cli(capsys, "classes", "D4")
        _, oracular, _ = run_cli(capsys, "classes", "D4", "--method", "oracle")

        def parting(text):
            return {
                frozenset(line.strip("{}").split(", "))
                for line in text.splitlines()
            }

        assert parting(structural) == parting(oracular)

    @pytest.mark.parametrize("text", ["A1 x D4", "A2 x D4", "D4 x D4", "A1 x D6"])
    def test_oracle_product_labels_are_distinct(self, capsys, text):
        # a product class is named by its factors' classes, D halves included
        code, out, _ = run_cli(
            capsys, "classes", text, "--method", "oracle", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        labels = [label for grp in record["z_classes"] for label in grp]
        assert len(set(labels)) == len(labels) == record["conjugacy_class_count"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "classes", "B2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["group", "z_class", "members"]
        assert len(rows) == 5


class TestVerify:
    def test_d4_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "D4")
        assert code == 0
        assert "PASS" in out

    def test_i2_8_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "I2(8)", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["formula_count"] == record["oracle_count"] == 4
        assert record["status"] == "PASS"

    def test_h3_table_vs_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "H3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["formula_method"] == "table"
        assert record["formula_count"] == record["oracle_count"] == 4

    def test_missing_type_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "all-small" in err

    def test_type_with_all_small_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "H3", "--all-small")
        assert (code, out) == (2, "")
        assert err == "zclass: verify takes a type or --all-small, not both\n"

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "B3", "--format", "json")
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record


class TestInternalError:
    def test_unexpected_exception_exits_4_on_one_line(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "count", boom)
        code, out, err = run_cli(capsys, "count", "B2")
        assert code == 4
        assert out == ""
        assert err == "zclass: internal error: RuntimeError('boom')\n"


class TestVerifyMismatchPath:
    @pytest.fixture
    def off_by_one(self, monkeypatch):
        """The formula route counts one z-class too many."""
        from zclass.closed_form import ZCountResult

        real = verify.z_count

        def broken(t):
            r = real(t)
            return ZCountResult(r.total + 1, r.per_factor, r.method)

        monkeypatch.setattr(verify, "z_count", broken)

    def test_forced_mismatch_exits_1_with_diff(self, capsys, off_by_one):
        code, out, _ = run_cli(capsys, "verify", "B2")
        assert code == 1
        assert "FAIL" in out

    def test_grouping_mismatch_with_equal_counts_prints_both_groupings(
        self, capsys, monkeypatch
    ):
        moved = [["1~2", "1 1b"], ["1b~2"], ["2"], ["2b"]]  # B2 with 1 1b moved
        monkeypatch.setattr(verify, "structural_grouping_labels", lambda f: moved)
        code, out, _ = run_cli(capsys, "verify", "B2")
        assert code == 1
        assert "FAIL" in out
        lines = out.splitlines()
        assert lines[2:] == [
            "structural grouping:",
            "  {1~2, 1 1b}",
            "  {1b~2}",
            "  {2}",
            "  {2b}",
            "oracle grouping:",
            "  {1~2, 1b~2}",
            "  {1 1b}",
            "  {2}",
            "  {2b}",
        ]
        code, out, _ = run_cli(capsys, "verify", "B2", "--format", "json")
        record = json.loads(out)
        assert code == 1
        assert (record["formula_count"], record["oracle_count"]) == (4, 4)
        assert record["status"] == "FAIL"
        assert record["diff"] == lines[2:]

    def test_count_mismatch_without_structural_grouping_has_no_diff(
        self, capsys, off_by_one
    ):
        code, out, _ = run_cli(capsys, "verify", "B2 x I2(4)", "--format", "json")
        record = json.loads(out)
        assert code == 1
        assert (record["formula_count"], record["oracle_count"]) == (17, 16)
        assert record["status"] == "FAIL"
        assert "diff" not in record

    def test_record_invariant_z_at_most_conjugacy(self, capsys):
        for text in ("B4", "D6", "I2(12)", "E7", "B2 x A2"):
            _, out, _ = run_cli(capsys, "count", text, "--format", "json")
            record = json.loads(out)
            assert record["z_class_count"] <= record["conjugacy_class_count"]


class TestCacheDir:
    def test_cache_dir_round_trip(self, capsys, tmp_path):
        """--cache-dir DIR is accepted and has no effect."""
        junk = tmp_path / "zclass-group-H3-0123456789abcdef.npz"
        junk.write_bytes(b"not a table")
        for argv in (("verify", "H3"), ("classes", "F4", "--method", "oracle")):
            plain = run_cli(capsys, *argv)
            assert plain[0] == 0
            for _ in range(2):
                assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == plain
        assert list(tmp_path.iterdir()) == [junk]
        assert junk.read_bytes() == b"not a table"


class TestLargeDegree:
    @pytest.mark.parametrize(
        "text", ["I2(300)", "I2(200) x I2(100)", "I2(256) x I2(3)"]
    )
    def test_point_sets_over_256_exit_3(self, text):
        proc = subprocess.run(
            [sys.executable, "-m", "zclass.cli", "verify", text],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("zclass: ")
        assert "at most 256 points" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command,text,flags,points",
        [
            ("count", "I2(200) x I2(100) x I2(5)", "--method oracle --allow-large", 305),
            ("verify", "A1 x I2(255)", "", 257),
            ("count", "I2(300) x A1", "--method oracle", 302),
        ],
        ids=["I2(200) x I2(100) x I2(5)", "A1 x I2(255)", "I2(300) x A1"],
    )
    def test_refusal_names_the_whole_product(
        self, capsys, command, text, flags, points
    ):
        # the typed product, not the factor whose generators come first
        assert run_cli(capsys, command, text, *flags.split()) == (
            3,
            "",
            f"zclass: {text} acts on {points} points; "
            "group tables hold at most 256 points\n",
        )


class TestWithoutNumpy:
    """With numpy blocked, the formula route answers and an oracle request is
    a typed refusal (exit 3), never a traceback with the mismatch code."""

    @staticmethod
    def run_without_numpy(*argv):
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from zclass.cli import main\n"
            f"sys.exit(main({list(argv)!r}))\n"
        )
        return subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )

    @pytest.mark.parametrize("argv", [("count", "B4"), ("classes", "B4")])
    def test_formula_route_exits_0(self, capsys, argv):
        proc = self.run_without_numpy(*argv)
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == (run_cli(capsys, *argv)[1], "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "B4", "--method", "oracle"),
            ("classes", "H3", "--method", "oracle"),
            ("verify", "B3"),
        ],
    )
    def test_oracle_request_exits_3(self, argv):
        proc = self.run_without_numpy(*argv)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "zclass: the oracle needs numpy, which is not installed\n"


class TestSizeCaps:
    @pytest.mark.parametrize("argv", [("count", "B5001"), ("classes", "B28")])
    def test_exit_3_from_the_command_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "zclass.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1


    @pytest.mark.parametrize(
        "argv,digits",
        [
            (("verify", "B2000"), 6338),
            (("count", "A100000", "--method", "oracle"), 456579),
        ],
    )
    def test_orders_past_4300_digits_refused(self, capsys, argv, digits):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert f"order of {digits} digits > cap 100000; no order cap serves it" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_giant_type_a_refused_at_once(self, capsys, command):
        """Refused by the rank cap before any series is evaluated."""
        for text in ("A5001", "A1000000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, text)
            assert time.perf_counter() - start < 0.5
            assert (code, out) == (3, "")
            assert err == (
                f"zclass: {text}: the formula route serves A/B/C/D ranks up to 5000\n"
            )

    def test_giant_type_a_by_oracle_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "count", "A1000000", "--method", "oracle")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "has order of 5565715 digits > cap 100000" in err

    @pytest.mark.parametrize(
        "text", ["A45", "A1699", "B40", "B1234", "D41", "D999", "A30 x B30 x I2(7)"]
    )
    def test_digit_count_matches_the_exact_order(self, text):
        """Stirling's series gives the digit count of the exact order."""
        t = parse_coxeter_type(text)
        with pytest.raises(OrderCapExceeded) as info:
            closed_form.check_order(
                [f.order_parts() for f in t.factors], text, 100000
            )
        assert f"has order {order_text(t.group_order())} > cap" in str(info.value)

    @pytest.mark.parametrize(
        "cap_flag,cap", [((), 100000), (("--allow-large",), 5000000)]
    )
    def test_e8_refusal_names_no_cap(self, capsys, cap_flag, cap):
        code, out, err = run_cli(capsys, "verify", "E8", *cap_flag)
        assert (code, out) == (3, "")
        assert err == (
            f"zclass: E8 has order 696729600 > cap {cap}; no order cap serves it "
            "(--allow-large raises it to 5000000)\n"
        )

    def test_order_text(self):
        assert order_text(10**30 - 1) == "9" * 30
        assert order_text(10**30) == "of 31 digits"
        assert order_text(10**5000 - 1) == "of 5000 digits"
        assert order_text(10**5000) == "of 5001 digits"


class TestDeterminism:
    def test_consecutive_runs_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "zclass.cli",
            "verify",
            "--all-small",
            "--format",
            "json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
        record = json.loads(first.stdout)
        assert record["all_match"] is True
        assert len(record["results"]) == 29

    def test_classes_output_stable_in_process(self, capsys):
        outs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "classes", "D6")
            outs.add(out)
        assert len(outs) == 1
