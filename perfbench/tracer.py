"""Outside-in tracer: wraps the package's public functions from the outside.

Nothing under ``src/`` knows about it. :meth:`Tracer.install` replaces each
target function at every module (and class) that binds it, so a call made
through ``from x import f`` is seen as well as a call through ``x.f``.
Each wrapped call records one span in memory:

    (span id, parent span id, op id, name, thread id,
     wall start ns, wall end ns, thread cpu ns, info)

Parents are tracked per thread. A span opened on a thread whose own stack is
empty (a pool worker) takes as parent the span that is open on the thread
running the op, so spans made inside ``simstudy``'s thread pool nest under
``run_study``. Spans are recorded only while an op is active and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from stats import median


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` (``attr`` may be ``Class.method``).

    ``name`` is the span name; ``label`` may rename a span from the call's
    arguments and ``annotate`` may extract counts from its result.
    """

    name: str
    module: str
    attr: str
    label: Callable | None = None
    annotate: Callable | None = None


def _audit_label(args, kwargs) -> str:
    mechanism = kwargs.get("mechanism", args[0] if args else "?")
    if mechanism == "pg2" and kwargs.get("exact", False):
        return "audit.pg2_exact"
    return f"audit.{mechanism}"


def _calibration_info(result) -> dict:
    return {"sweeps": int(result.iterations), "converged": bool(result.converged)}


def _audit_info(result) -> dict:
    return {"ratios": int(result.instances_checked)}


TARGETS = (
    Target("cli.run", "dpcounts.cli", "run"),
    Target("cli.ingest_counts", "dpcounts.cli", "ingest_counts"),
    Target("core.RngStream.child", "dpcounts.core", "RngStream.child"),
    Target("core.CountDataset", "dpcounts.core", "CountDataset.__init__"),
    Target("core.SyntheticDataset", "dpcounts.core", "SyntheticDataset.__init__"),
    Target("core.sample_gamma", "dpcounts.core", "sample_gamma"),
    Target("core.sample_dirichlet", "dpcounts.core", "sample_dirichlet"),
    Target("core.sample_multinomial", "dpcounts.core", "sample_multinomial"),
    Target("dirichlet_mult.md_synthesize", "dpcounts.dirichlet_mult", "md_synthesize"),
    Target("dirichlet_mult.md_log_ratio", "dpcounts.dirichlet_mult", "md_log_ratio"),
    Target("dirichlet_mult.md_log_pmf", "dpcounts.dirichlet_mult", "md_log_pmf"),
    Target("poisson_gamma.calibrate_pg", "dpcounts.poisson_gamma", "calibrate_pg",
           annotate=_calibration_info),
    Target("poisson_gamma.pg_synthesize", "dpcounts.poisson_gamma", "pg_synthesize"),
    Target("poisson_gamma.pg_implied_epsilon", "dpcounts.poisson_gamma",
           "pg_implied_epsilon"),
    Target("poisson_gamma.state_target_rates", "dpcounts.poisson_gamma",
           "state_target_rates"),
    Target("poisson_gamma.sanitize_state_rates", "dpcounts.poisson_gamma",
           "sanitize_state_rates"),
    Target("poisson_gamma.conditional_log_pmf_all", "dpcounts.poisson_gamma",
           "conditional_log_pmf_all"),
    Target("poisson_gamma.log_normalizer_from_ratio", "dpcounts.poisson_gamma",
           "log_normalizer_from_ratio"),
    Target("poisson_gamma.integer_prior_strength", "dpcounts.poisson_gamma",
           "integer_prior_strength"),
    Target("audit", "dpcounts.audit", "audit_synthesizer",
           label=_audit_label, annotate=_audit_info),
    Target("exact_math.exact_normalizer", "dpcounts.exact_math", "exact_normalizer"),
    Target("exact_math.check_convolution_identity", "dpcounts.exact_math",
           "check_convolution_identity"),
    Target("simstudy.run_study", "dpcounts.simstudy", "run_study"),
    Target("simstudy.gen_truth", "dpcounts.simstudy", "gen_truth"),
    Target("simstudy.gen_replicate", "dpcounts.simstudy", "gen_replicate"),
    Target("simstudy.rate_estimates", "dpcounts.simstudy", "rate_estimates"),
)

# span fields
SID, PARENT, OP, NAME, THREAD, T0, T1, CPU, INFO = range(9)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None
        self._op_stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each ``dpcounts`` module that binds it. The
        benchmark's own calls go through module attributes, so they are
        wrapped too. Targets that no longer exist are listed in ``missing``
        and their metrics read 0."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dpcounts" or name.startswith("dpcounts."))]
        for target in self.targets:
            home = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = owner.__dict__.get(method) if owner is not None else None
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every binding replaced by :meth:`install`."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, target: Target, fn):
        tracer = self
        name, label, annotate = target.name, target.label, target.annotate
        perf_ns, cpu_ns = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                op_stack = tracer._op_stack
                parent = op_stack[-1] if op_stack and stack is not op_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = cpu_ns()
            t0 = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                cpu = cpu_ns() - c0
                stack.pop()
                span = [sid, parent, op, label(args, kwargs) if label else name,
                        threading.get_ident(), t0, t1, cpu, None]
                tracer.spans.append(span)
            if annotate is not None:
                span[INFO] = annotate(result)
            return result

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Start recording spans for ``op`` on the calling thread."""
        self._op_stack = self._stack()
        self._op = op

    def end_op(self) -> None:
        self._op = None

    def count(self, op: int, name: str, value: float) -> None:
        """Record a count measured by the benchmark itself (no duration)."""
        self.spans.append([next(self._ids), None, op, name, threading.get_ident(),
                           0, 0, 0, {"count": value}])


# -- reduction ------------------------------------------------------------------


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def op_layer_values(spans, op_wall_s: float) -> dict[str, float]:
    """Per-layer values of one op from its spans.

    For each span name: ``.calls``, ``.s`` (summed wall time) and
    ``.self_s`` (wall time minus the part its child spans cover). Also the
    counts annotated on spans, ``simstudy.run_study.concurrency`` (summed
    thread cpu time of run_study's direct children over its wall time) and
    ``trace.covered_frac`` (top-level span wall time over the op's wall).
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    top_ns = 0
    study_wall = study_child_cpu = 0
    for span in spans:
        name, info = span[NAME], span[INFO]
        if info is not None and "count" in info:
            add(name, info["count"])
            continue
        wall = span[T1] - span[T0]
        kids = children.get(span[SID], ())
        self_ns = wall - _covered_ns([(k[T0], k[T1]) for k in kids], span[T0], span[T1])
        add(f"{name}.calls", 1)
        add(f"{name}.s", wall / 1e9)
        add(f"{name}.self_s", self_ns / 1e9)
        if span[PARENT] is None:
            top_ns += wall
        if name == "simstudy.run_study":
            study_wall += wall
            study_child_cpu += sum(k[CPU] for k in kids)
        if info:
            if "sweeps" in info:
                add(f"{name}.sweeps", info["sweeps"])
                add(f"{name}.converged", info["converged"])
            if "ratios" in info:
                add("audit.ratios_checked", info["ratios"])
    out["simstudy.run_study.concurrency"] = (study_child_cpu / study_wall
                                             if study_wall else 0.0)
    out["trace.covered_frac"] = top_ns / 1e9 / op_wall_s if op_wall_s > 0 else 0.0
    return out


def spans_by_op(spans) -> dict[int, list]:
    grouped: dict[int, list] = {}
    for span in spans:
        grouped.setdefault(span[OP], []).append(span)
    return grouped


def layer_metrics(per_op: list[dict[str, float]], traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Mean per op of every per-layer value across the traced ops, plus the
    ratios that are not additive and ``trace.overhead_frac``."""
    n = len(per_op)
    if not n or not untraced_walls:
        return {}
    keys = sorted({key for values in per_op for key in values})
    means = {key: sum(values.get(key, 0.0) for values in per_op) / n for key in keys}
    calls = means.get("poisson_gamma.calibrate_pg.calls", 0.0)
    means["poisson_gamma.calibrate_pg.converged_frac"] = (
        means.pop("poisson_gamma.calibrate_pg.converged", 0.0) / calls if calls else 0.0)
    means["simstudy.run_study.concurrency"] = median(
        [v["simstudy.run_study.concurrency"] for v in per_op])
    means["trace.covered_frac"] = median([v["trace.covered_frac"] for v in per_op])
    means["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    return means
