"""Command-line front end: count z-classes, list class structure, verify formulas.

Exit codes: 0 success / verified, 1 verification mismatch, 2 usage or parse
error, 3 order cap or unsupported-group limit, 4 internal error (an
unexpected exception, reported on one stderr line).  Output is deterministic:
re-running a command byte-for-byte reproduces its output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .closed_form import z_count
from .errors import (
    DEFAULT_ORDER_CAP,
    LARGE_ORDER_CAP,
    CoxeterParseError,
    CoxeterRankError,
    OrderCapExceeded,
    UnsupportedGroupError,
    UsageError,
)
from .families import FAMILIES, parse_coxeter_type
from .verify import (
    ALL_SMALL_SWEEP,
    build_group,
    oracle_grouping_labels,
    structural_grouping_labels,
    verify_type,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _record_base(command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command}


def _cap(args) -> int:
    return LARGE_ORDER_CAP if args.allow_large else DEFAULT_ORDER_CAP


def _cmd_count(args) -> tuple[dict, int]:
    t = parse_coxeter_type(args.type)
    record = _record_base("count")
    record["group"] = str(t)
    if args.method == "oracle":
        table = build_group(t, order_cap=_cap(args))  # refused without numpy
        from .oracle import z_classes

        groups = z_classes(table)  # counted, so no class is labelled
        record["method"] = "oracle"
        record["conjugacy_class_count"] = sum(len(g) for g in groups)
        record["z_class_count"] = len(groups)
    else:
        result = z_count(t)
        record["method"] = result.method
        record["conjugacy_class_count"] = result.conjugacy_total
        record["z_class_count"] = result.total
        record["per_factor"] = [
            {
                "type": str(f.factor),
                "method": f.method,
                "conjugacy_class_count": f.conjugacy_count,
                "z_class_count": f.z_count,
            }
            for f in result.per_factor
        ]
    return record, EXIT_OK


def _cmd_classes(args) -> tuple[dict, int]:
    t = parse_coxeter_type(args.type)
    record = _record_base("classes")
    record["group"] = str(t)
    single = t.factors[0] if len(t.factors) == 1 else None
    structural = (
        structural_grouping_labels(single)
        if single is not None and args.method != "oracle"
        else None
    )
    if structural is not None:
        record["method"] = "formula"
        groups = structural
    else:
        if args.method == "formula":
            raise UsageError(
                f"no structural class listing for {t}; rerun with --method oracle"
            )
        family = single.family if single is not None else ""
        if args.method == "auto" and family and FAMILIES[family].method == "table":
            raise UsageError(
                f"structural listing unavailable for {t}; rerun with --method oracle"
            )
        groups = oracle_grouping_labels(build_group(t, order_cap=_cap(args)))
        record["method"] = "oracle"
    record["conjugacy_class_count"] = sum(len(g) for g in groups)
    record["z_class_count"] = len(groups)
    record["z_classes"] = groups
    return record, EXIT_OK


def _verify_one(text: str, args) -> dict:
    return verify_type(parse_coxeter_type(text), order_cap=_cap(args))


def _cmd_verify(args) -> tuple[dict, int]:
    record = _record_base("verify")
    if args.all_small:
        if args.type:
            raise UsageError("verify takes a type or --all-small, not both")
        results = [_verify_one(text, args) for text in ALL_SMALL_SWEEP]
        record["results"] = results
        record["all_match"] = all(r["status"] == "PASS" for r in results)
        return record, EXIT_OK if record["all_match"] else EXIT_MISMATCH
    if not args.type:
        raise CoxeterParseError("verify needs a type or --all-small", 0)
    result = _verify_one(args.type, args)
    record.update(result)
    return record, EXIT_OK if result["status"] == "PASS" else EXIT_MISMATCH


def _flatten_rows(record: dict) -> tuple[list[str], list[list]]:
    command = record["command"]
    if command == "count":
        header = ["group", "method", "conjugacy_classes", "z_classes"]
        rows = [
            [
                record["group"],
                record["method"],
                record["conjugacy_class_count"],
                record["z_class_count"],
            ]
        ]
        per_factor = record.get("per_factor", [])
        if len(per_factor) > 1:
            for f in per_factor:
                rows.append(
                    [
                        "  " + f["type"],
                        f["method"],
                        f["conjugacy_class_count"],
                        f["z_class_count"],
                    ]
                )
        return header, rows
    if command == "classes":
        header = ["group", "z_class", "members"]
        rows = [
            [record["group"], i, "{" + ", ".join(grp) + "}"]
            for i, grp in enumerate(record["z_classes"])
        ]
        return header, rows
    header = [
        "group",
        "formula",
        "oracle",
        "conjugacy_formula",
        "conjugacy_oracle",
        "status",
    ]
    results = record.get("results", [record])
    rows = [
        [
            r["group"],
            r["formula_count"],
            r["oracle_count"],
            r["conjugacy_class_count_formula"],
            r["conjugacy_class_count_oracle"],
            r["status"],
        ]
        for r in results
    ]
    return header, rows


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    if fmt == "table" and record["command"] == "classes":
        for grp in record["z_classes"]:
            out.write("{" + ", ".join(grp) + "}\n")
        return
    header, rows = _flatten_rows(record)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    # aligned text table
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    if record["command"] == "verify" and "diff" in record:
        out.write("\n".join(record["diff"]) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zclass",
        description="Count and verify z-classes (centralizer conjugacy classes) "
        "of finite Coxeter groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--method",
            choices=("auto", "formula", "oracle"),
            default="auto",
            help="auto uses formulas/tables where they exist; oracle forces brute force",
        )
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            dest="fmt",
        )
        p.add_argument(
            "--allow-large",
            action="store_true",
            help=f"raise the order cap from {DEFAULT_ORDER_CAP} to {LARGE_ORDER_CAP} "
            "(unlocks E7)",
        )
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="has no effect, kept for compatibility: tables are rebuilt, "
            "which is faster than reading them back from disk",
        )

    p_count = sub.add_parser("count", help="z-class count of a Coxeter type")
    p_count.add_argument("type", help='e.g. "B4", "D6", "I2(8)", "B3 x I2(7)"')
    add_common(p_count)

    p_classes = sub.add_parser("classes", help="list z-classes by conjugacy-class label")
    p_classes.add_argument("type")
    add_common(p_classes)

    p_verify = sub.add_parser("verify", help="compare formula against brute force")
    p_verify.add_argument("type", nargs="?", default=None)
    p_verify.add_argument(
        "--all-small",
        action="store_true",
        help="sweep B1..B5, D2..D6, I2(3..16), A1..A5",
    )
    add_common(p_verify)
    return parser


_HANDLERS = {"count": _cmd_count, "classes": _cmd_classes, "verify": _cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, code = _HANDLERS[args.command](args)
        buffer = io.StringIO()
        _emit(record, args.fmt, buffer)
    except (CoxeterParseError, CoxeterRankError, UsageError) as exc:
        print(f"zclass: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OrderCapExceeded, UnsupportedGroupError) as exc:
        print(f"zclass: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a defect, never a verification mismatch
        print(f"zclass: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
