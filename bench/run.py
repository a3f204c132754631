"""zclass benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all [--out results.json]

Each pass runs a workload's ops in a fresh worker interpreter (worker.py), one
worker at a time, and every answer is checked against the literals in
expected.py.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and it holds the
per-layer metrics of the traced ones plus the tracing overhead.  `all` runs
every workload both ways and can write everything to one JSON file.  See
README.md for the workloads, the metrics and what they should move.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import expected

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
CALIBRATE = BENCH / "calibrate.py"
WORK = BENCH / ".work"

SETUP_SPAWNS = 4  # set-up-only spawns per run, after one reported warm-up spawn
PROBES = 3  # calibration probes at the start and after every pass
PROBE_REF_S = 0.075  # the calibration probe's median time on the reference VM
DEADLINE_S = 170  # a run ends well inside 180 s, whatever --seconds says


class BenchError(Exception):
    pass


def tally(ops: list, outcomes: list[dict]) -> tuple[int, int, list[str]]:
    """Check each op's outcome: (failed ops, wrong answers, one line per problem)."""
    failed = wrong = 0
    problems = []
    for op, outcome in zip(ops, outcomes, strict=True):
        verdict = expected.check(op, outcome)
        failed += verdict == "failed"
        wrong += verdict == "wrong"
        if verdict != "ok":
            detail = outcome["error"] or outcome["stderr"] or outcome["stdout"][:200]
            problems.append(f"{verdict}: {' '.join(op.argv)}: {detail.strip()}")
    return failed, wrong, problems


class Worker:
    """A worker interpreter, started and timed until it reports ready."""

    def __init__(self):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line != "ready\n":
            _, err = self.proc.communicate()
            raise BenchError(f"worker did not start: {line.strip()} {err.strip()}")

    def run(self, job: dict | None, timeout: float) -> dict | None:
        """Send one job (None: just exit) and wait for the worker to end."""
        try:
            out, err = self.proc.communicate(
                json.dumps(job) + "\n" if job else "", timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None
        if self.proc.returncode != 0 or (job and not out.strip()):
            raise BenchError(f"worker exited {self.proc.returncode}: {err.strip()}")
        return json.loads(out.splitlines()[-1]) if job else None


class Run:
    """One benchmark run of one workload: set-up spawns, then timed passes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.rng = random.Random(seed)
        self.phases = expected.build_phases(workload, self.rng)
        self.seconds = seconds
        self.trace = trace
        self.start = perf_counter()
        self.warmup_setup_s = 0.0
        self.setup_samples: list[float] = []
        self.probe_samples: list[float] = []
        self.passes: list[dict] = []  # untraced
        self.traced: list[dict] = []
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (perf_counter() - self.start))

    def execute(self) -> None:
        prober = subprocess.Popen(
            [sys.executable, str(CALIBRATE)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.measure(prober)
        finally:
            prober.stdin.close()
            prober.wait()

    def calibrate(self, prober) -> None:
        prober.stdin.write(f"{PROBES}\n")
        prober.stdin.flush()
        times = [float(t) for t in prober.stdout.readline().split()]
        if len(times) != PROBES:
            raise BenchError("the calibration probe did not answer")
        self.probe_samples += times

    def measure(self, prober) -> None:
        warm = Worker()  # compiles bytecode and warms the file cache; reported apart
        warm.run(None, self.remaining())
        self.warmup_setup_s = warm.setup_s
        for _ in range(SETUP_SPAWNS):
            w = Worker()
            w.run(None, self.remaining())
            self.setup_samples.append(w.setup_s)
        self.calibrate(prober)
        # stop before a pass that would run past --seconds, judged by the mean pass
        measure_start = perf_counter()
        walls: list[float] = []
        traced_next = False
        while True:
            start = perf_counter()
            self.one_pass(traced_next)
            self.calibrate(prober)
            walls.append(perf_counter() - start)
            if self.trace:
                traced_next = not traced_next
            next_end = perf_counter() - measure_start + statistics.mean(walls)
            have_both = not self.trace or (self.passes and self.traced)
            if have_both and next_end > self.seconds:
                break
            if self.remaining() < 2 * max(walls):
                break

    def one_pass(self, traced: bool) -> None:
        ops = [op for phase in self.phases for op in self.rng.sample(phase, len(phase))]
        WORK.mkdir(exist_ok=True)
        cache = tempfile.mkdtemp(prefix="pass-", dir=WORK)
        try:
            job = {
                "trace": traced,
                "ops": [
                    {"kind": op.kind, "argv": [a.replace("{cache}", cache) for a in op.argv]}
                    for op in ops
                ],
            }
            worker = Worker()
            self.setup_samples.append(worker.setup_s)
            result = worker.run(job, self.remaining())
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        self.attempted += len(ops)
        if result is None:
            self.failed += len(ops)
            raise BenchError(f"{self.workload}: a pass was still running at the deadline")
        failed, wrong, problems = tally(ops, result["ops"])
        self.failed += failed
        self.wrong += wrong
        self.problems += problems
        result["slowest_op_s"] = max(o["seconds"] for o in result["ops"])
        (self.traced if traced else self.passes).append(result)

    def wall(self, key: str) -> float:
        """Median over untraced passes, in seconds of wall time."""
        return statistics.median(p[key] for p in self.passes)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        # pass times at the reference speed; set-up time as measured
        scale = PROBE_REF_S / statistics.median(self.probe_samples)
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "pass_s": (self.wall("pass_s") * scale, "s"),
            "slowest_op_s": (self.wall("slowest_op_s") * scale, "s"),
            "peak_rss_mb": (self.wall("maxrss_kb") / 1024, "MiB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        layers = [p["layers"] for p in self.traced]
        out = {}
        for key in layers[0]:
            suffix = key.rsplit(".", 1)[1]
            if suffix.endswith("_s") or suffix == "hit_ratio":
                unit = "s" if suffix.endswith("_s") else "ratio"
                out[key] = (statistics.median(layer[key] for layer in layers), unit)
            else:  # a count: keep it whole
                out[key] = (statistics.median_low(layer[key] for layer in layers), "count")
        traced = statistics.median(p["pass_s"] for p in self.traced)
        out["trace.overhead_ratio"] = (traced / self.wall("pass_s"), "ratio")
        out["calibrate.probe_s"] = (statistics.median(self.probe_samples), "s")
        out["wall.pass_s"] = (self.wall("pass_s"), "s")
        out["wall.slowest_op_s"] = (self.wall("slowest_op_s"), "s")
        return out

    def report(self) -> dict:
        metrics = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def print_summary(self, out) -> None:
        n_ops = sum(len(phase) for phase in self.phases)
        kind = "traced" if self.trace else "untraced"
        print(f"== {self.workload}: {n_ops} ops per pass, {len(self.passes)} untraced "
              f"and {len(self.traced)} traced passes, {len(self.setup_samples)} "
              f"set-up samples", file=out)
        print(f"  warm-up spawn (not in setup_s)  {self.warmup_setup_s:.4f} s", file=out)
        for label, runs in (("untraced", self.passes), ("traced", self.traced)):
            if runs:
                times = " ".join(f"{p['pass_s']:.3f}" for p in runs)
                print(f"  {label} pass_s, in run order: {times}", file=out)
        if self.passes:
            print(f"  unscaled medians: pass_s {self.wall('pass_s'):.4f} s, slowest_op_s "
                  f"{self.wall('slowest_op_s'):.4f} s; calibration probe "
                  f"{statistics.median(self.probe_samples):.5f} s", file=out)
        for key, value in (("ops", self.attempted), ("failed_ops", self.failed),
                           ("wrong_answers", self.wrong)):
            print(f"  {key:<48} {value} count", file=out)
        print(f"  -- {kind} metrics (medians over passes)", file=out)
        metrics = self.per_layer() if self.trace else self.end_to_end()
        for key, (value, unit) in metrics.items():
            print(f"  {key:<48} {value:.6g} {unit}", file=out)
        for problem in self.problems:
            print(f"  PROBLEM {problem}", file=out)


def run_all(seed: int, seconds: float, out_path: str | None) -> dict:
    """Every workload, untraced then traced, as one report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    detail = {}
    for workload in expected.WORKLOADS:
        for trace in (False, True):
            run = Run(workload, seed, seconds, trace)
            run.execute()
            run.print_summary(sys.stdout)
            report = run.report()
            detail[f"{workload}/{'trace' if trace else 'e2e'}"] = report
            combined["correct"] &= report["correct"]
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            for key, value in report["metrics"].items():
                combined["metrics"][f"{workload}/{key}"] = value
    if out_path:
        Path(out_path).write_text(json.dumps(
            {"seed": seed, "seconds": seconds, "runs": detail}, indent=2) + "\n")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*expected.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every report here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zclass" / "cli.py").is_file():
        print(f"run.py: no zclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            report = run_all(args.seed, args.seconds, args.out)
        else:
            run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
            run.execute()
            run.print_summary(sys.stdout)
            report = run.report()
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
