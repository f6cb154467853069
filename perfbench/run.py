"""dpcounts benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload county-release --seed 1 --seconds 25 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
The program is imported from the checkout's ``src/``; without it the
benchmark exits 1 and prints no result. With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds of ops and prints the per-layer metrics from the traced ones. A
human-readable summary precedes the last line of standard output, which is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. Every run
also writes ``.perfbench_run/results/<workload>-seed<seed>-trace<t>.json``
(environment, and each metric's median and IQR across ops) and, when
traced, the raw spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 7

# Metric names and units are declared once, in BENCHMARK.json. op_tail_s and
# failed_frac are printed and recorded too, but gated on no workload.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def import_program():
    """Import dpcounts from this checkout's src/, and only from there."""
    if not (SRC / "dpcounts" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'dpcounts'} is missing")
    sys.path.insert(0, str(SRC))
    import dpcounts
    if Path(dpcounts.__file__).resolve().parent != SRC / "dpcounts":
        raise SystemExit(f"error: imported dpcounts from {dpcounts.__file__}, not {SRC}")


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing dpcounts.cli. The
    benchmark's own import of the package has already written the bytecode
    cache and warmed the file cache, as an earlier command would have."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dpcounts.cli"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checkout's commit; 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Closed-loop op runner for one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = None
        self.untraced: list[float] = []        # op wall times
        self.traced: dict[int, float] = {}     # op -> wall time
        self.work: list[float] = []
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> None:
        import tracer as tracing
        if self.trace:
            self.tracer = tracing.Tracer()
        start = time.perf_counter()
        op = 0
        rounds = 0
        while (time.perf_counter() - start < self.seconds
               or (self.trace and rounds < 2)):
            traced = self.trace and rounds % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for _ in range(self.workload.cycle):
                    if not self.trace:
                        self._sample_setup(time.perf_counter() - start)
                    self._op(op, traced)
                    op += 1
            finally:
                if traced:
                    self.tracer.remove()
            rounds += 1
        if not self.trace:
            self._sample_setup(self.seconds)
        try:
            problems = self.workload.closing()
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems is not None:
            self.attempted += 1
            self._fail_if(problems, "closing check")

    def _sample_setup(self, elapsed: float) -> None:
        """Take the set-up samples due by ``elapsed`` seconds into the run, so
        that they spread over the run like the ops and see the same drift of
        the machine's speed."""
        due = min(SETUP_SAMPLES, 1 + int(elapsed * SETUP_SAMPLES / self.seconds))
        while len(self.setup_times) < due:
            self.setup_times.append(measure_setup())

    def _op(self, op: int, traced: bool) -> None:
        self.attempted += 1
        if traced:
            self.tracer.begin_op(op)
        start = time.perf_counter()
        try:
            artifact = self.workload.call(op)
        except Exception:
            self._fail_if([traceback.format_exc(limit=4)], f"op {op}")
            return
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.end_op()
        try:
            work, problems, counts = self.workload.check(op, artifact)
        except Exception:
            work, problems, counts = 0, [traceback.format_exc(limit=4)], {}
        if self._fail_if(problems, f"op {op}"):
            return
        if traced:
            self.traced[op] = wall
            for name, value in counts.items():
                self.tracer.count(op, name, value)
        else:
            self.untraced.append(wall)
            self.work.append(work)

    def _fail_if(self, problems, where: str) -> bool:
        if not problems:
            return False
        self.failed += 1
        for problem in problems:
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {problem}")
        return True


def end_to_end_metrics(runner: Runner) -> tuple[dict, dict]:
    from stats import median, percentile, summary
    walls, setup_times = runner.untraced, runner.setup_times
    values = {
        "setup_s": median(setup_times),
        "op_p50_s": median(walls) if walls else 0.0,
        "work_per_s": sum(runner.work) / sum(walls) if walls else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values = {name: values[name] for name in END_TO_END}
    across = {
        "setup_s": summary(setup_times),
        "op_p50_s": summary(walls),
        "work_per_s": summary([w / t for w, t in zip(runner.work, walls)]),
    }
    pct = runner.workload.tail_pct
    if pct is not None and len(walls) * (100 - pct) / 100.0 >= 10:
        # reported only where a run holds at least ten ops beyond the percentile
        across["op_tail_s"] = {"value": percentile(walls, pct), "percentile": pct,
                               "n": len(walls)}
    return values, across


def per_layer_metrics(runner: Runner) -> tuple[dict, dict]:
    import tracer as tracing
    from stats import summary
    by_op = tracing.spans_by_op(runner.tracer.spans)
    per_op = [tracing.op_layer_values(by_op.get(op, []), wall)
              for op, wall in sorted(runner.traced.items())]
    values = tracing.layer_metrics(per_op, list(runner.traced.values()), runner.untraced)
    names = list(PER_LAYER)
    across = {name: summary([v.get(name, 0.0) for v in per_op]) for name in names
              if name != "trace.overhead_frac"}
    return {name: values.get(name, 0.0) for name in names}, across


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")

    workdir = RUN_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](workdir.relative_to(ROOT), args.seed)
        cwd = os.getcwd()
        os.chdir(ROOT)   # relative paths keep the outputs free of checkout paths
        try:
            workload.setup()
            runner = Runner(workload, args.seconds, bool(args.trace))
            runner.run()
        finally:
            os.chdir(cwd)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, across = per_layer_metrics(runner)
        units = PER_LAYER
    else:
        metrics, across = end_to_end_metrics(runner)
        units = END_TO_END
    ops = len(runner.untraced) + len(runner.traced)
    correct = runner.failed == 0

    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "work_unit": workload.unit,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "ops": ops, "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems, "notes": workload.notes(),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "across_ops": across,
        "untraced_walls_s": runner.untraced,
    }
    if args.trace:
        record["traced_walls_s"] = list(runner.traced.values())
        record["missing_targets"] = runner.tracer.missing
        write_spans(results / f"{stem}.spans.jsonl", runner.tracer.spans)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print(f"{args.workload}: seed {args.seed}, {ops} ops timed, "
          f"{runner.attempted} attempted, {runner.failed} failed; "
          f"work unit: {workload.unit}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {units[name]}")
    if not args.trace:
        tail = across.get("op_tail_s")
        if tail is not None:
            print(f"  {'op_tail_s':<46} {tail['value']:>14.6g} s "
                  f"(p{tail['percentile']} of {tail['n']} ops)")
        else:
            print(f"  {'op_tail_s':<46} {'-':>14} s (under ten ops beyond any tail)")
    print(f"  {'failed_frac':<46} {runner.failed / runner.attempted:>14.6g} fraction")
    for problem in runner.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
