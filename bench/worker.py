"""One benchmark pass, run in a fresh interpreter.

Protocol on stdin/stdout: the worker imports `zclass.cli` from the checkout's
`src/`, prints "ready", reads one JSON job line, runs the job's ops in order
and prints one JSON result line.  End of input instead of a job means exit at
once; run.py uses that to time set-up alone.

Run only by `run.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import zclass.cli  # noqa: E402

# Public functions the traced run wraps, as "<module>.<qualname>" under zclass.
TRACED = (
    "groups.group_from_generators",
    "groups.direct_product",
    "groups.GroupTable.inverses",
    "groups.GroupTable.element_orders",
    "groups.GroupTable.row_index",
    "oracle.centralizer",
    "oracle.conjugacy_classes",
    "oracle.subgroups_conjugate",
    "oracle.z_classes",
    "reflection.build_root_system",
    "reflection.generate_group",
    "closed_form.z_count",
    "combinatorics.partitions_of",
    "combinatorics.signed_partitions_of",
    "signed_perm.dn_conjugacy_classes",
    "signed_perm.z_classes_bc",
    "signed_perm.z_classes_dn",
    "verify.verify_type",
    "verify.build_group",
    "verify.oracle_grouping_labels",
    "cli.main",
)


def _count_elements(counts, args, result):
    counts["groups.group_from_generators.elements"] += result.order


def _count_rows(counts, args, result):
    counts["groups.GroupTable.row_index.rows"] += len(result)


def _count_classes(counts, args, result):
    counts["oracle.conjugacy_classes.classes"] += len(result)


def _count_conjugacy_search(counts, args, result):
    _, h, k = args
    if h.fingerprint != k.fingerprint:
        counts["oracle.subgroups_conjugate.fingerprint_rejects"] += 1
    if result[0]:
        counts["oracle.subgroups_conjugate.found"] += 1


COUNTERS = {
    "groups.group_from_generators": _count_elements,
    "groups.GroupTable.row_index": _count_rows,
    "oracle.conjugacy_classes": _count_classes,
    "oracle.subgroups_conjugate": _count_conjugacy_search,
}


class Tracer:
    """Wraps the TRACED functions and keeps their spans in memory.

    A span is (name, start, end, parent span index, op id).  A function is
    rebound in every zclass module that imported it by name, so calls through
    `cli.verify_type` and `verify.verify_type` are both seen.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = {
            f"{name}.{suffix}": 0
            for name, suffix in (
                ("groups.group_from_generators", "elements"),
                ("groups.GroupTable.row_index", "rows"),
                ("oracle.conjugacy_classes", "classes"),
                ("oracle.subgroups_conjugate", "fingerprint_rejects"),
                ("oracle.subgroups_conjugate", "found"),
            )
        }

    def install(self) -> None:
        import zclass.reflection  # noqa: F401  (loaded lazily by the program)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "zclass"]
        for name in TRACED:
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules[f"zclass.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """Per function: self time (span minus child spans) and call count."""
        child_time = [0.0] * len(self.spans)
        has_closure_child = [False] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "groups.group_from_generators":
                    has_closure_child[parent] = True
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        out["reflection.generate_group.cold_s"] = 0.0
        out["reflection.generate_group.warm_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.self_s"] += end - start - child_time[i]
            out[f"{name}.calls"] += 1
            if name == "reflection.generate_group":
                phase = "cold" if has_closure_child[i] else "warm"
                out[f"{name}.{phase}_s"] += end - start
        out.update(self.counts)
        calls = out["oracle.subgroups_conjugate.calls"]
        found = out["oracle.subgroups_conjugate.found"]
        out["oracle.subgroups_conjugate.hit_ratio"] = found / calls if calls else 0.0
        return out


def run_op(op: dict) -> dict:
    """Run one op with stdout and stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "reload":
                from zclass.reflection import build_reflection_group

                name, cache_dir = op["argv"]
                table = build_reflection_group(name, cache_dir=cache_dir)
                json.dump({"order": table.order, "degree": table.degree}, out)
                code = 0
            else:
                code = zclass.cli.main(list(op["argv"]))
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark reports any failure and carries on
        error = traceback.format_exc()
    seconds = perf_counter() - start
    return {
        "seconds": seconds,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(zclass.cli.__file__).resolve().parents:
        print(f"zclass imported from outside {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    outcomes = []
    start = perf_counter()
    for op_id, op in enumerate(job["ops"]):
        if tracer:
            tracer.op_id = op_id
        outcomes.append(run_op(op))
    pass_s = perf_counter() - start
    result = {
        "pass_s": pass_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": outcomes,
        "layers": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
