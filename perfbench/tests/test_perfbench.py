"""Self-tests of the benchmark: its checks catch corrupted outputs, its
tracer installs and removes cleanly and counts calls reproducibly, and
its workloads and set-up samples are laid out as BENCHMARK.json expects.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
import tracer as tracing
import workloads
from inputs import county_rows, write_counts_csv

import dpcounts
from dpcounts import cli, poisson_gamma, simstudy

ROOT = Path(run.__file__).resolve().parent.parent


# -- checks against real program output ---------------------------------------


@pytest.fixture(scope="module")
def small_release(tmp_path_factory):
    """A synthesize table and provenance from a small generated input."""
    tmp = tmp_path_factory.mktemp("release")
    rows = county_rows(3, 0, n_groups=40, n_states=4, total=300)
    write_counts_csv(tmp / "counts.csv", rows)
    out = tmp / "release.csv"
    config = cli.RunConfig(command="synthesize", input_path=str(tmp / "counts.csv"),
                           output_path=str(out), epsilon=1.0, method="pg-multinomial",
                           m_datasets=3, seed=5)
    assert cli.run(config) == 0
    group_ids = [row[0] for row in rows]
    return (out.read_text(), out.with_suffix(".provenance.json").read_text(),
            group_ids, sum(row[3] for row in rows))


def test_release_check_passes_real_output(small_release):
    table, sidecar, group_ids, total = small_release
    assert checks.check_release(table, group_ids, total, 3) == []
    assert checks.check_provenance(sidecar, 3, total) == []


def _replace_last_count(table: str, delta: int) -> str:
    lines = table.splitlines()
    gid, rep, z = lines[-1].split(",")
    lines[-1] = f"{gid},{rep},{int(z) + delta}"
    return "\n".join(lines) + "\n"


def test_release_check_fails_on_sum_off_by_one(small_release):
    table, _, group_ids, total = small_release
    problems = checks.check_release(_replace_last_count(table, 1), group_ids, total, 3)
    assert any("sums to" in p for p in problems)


def test_release_check_fails_on_negative_count_and_wrong_group(small_release):
    table, _, group_ids, total = small_release
    lines = table.splitlines()
    gid, rep, _ = lines[-1].split(",")
    negative = "\n".join(lines[:-1] + [f"{gid},{rep},-1"])
    assert checks.check_release(negative, group_ids, total, 3)
    renamed = "\n".join(lines[:-1] + [f"x{gid},{rep},0"])
    assert checks.check_release(renamed, group_ids, total, 3)
    assert checks.check_release(table, group_ids[::-1], total, 3)


def test_provenance_check_fails_on_overstated_budget(small_release):
    _, sidecar, _, total = small_release
    doc = json.loads(sidecar)
    doc["result"]["epsilon_certified"] = doc["result"]["epsilon_requested"] + 1e-6
    assert checks.check_provenance(json.dumps(doc), 3, total)


def test_identical_check_fails_on_flipped_byte(small_release):
    data = small_release[0].encode()
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.check_identical(data, data, "table") == []
    problems = checks.check_identical(data, bytes(flipped), "table")
    assert problems and str(len(flipped) // 2) in problems[0]


def test_study_check(tmp_path):
    out = tmp_path / "study.csv"
    config = cli.RunConfig(command="simulate", output_path=str(out), seed=3,
                           scenarios="hetero-n", n_groups=20, sim_y_total=100,
                           replicates=3, epsilons="1,4")
    assert cli.run(config) == 0
    table = out.read_text()
    assert checks.check_study(table, n_results=6) == []
    assert checks.check_study(table, n_results=60)
    lines = table.splitlines()
    cells = lines[-1].split(",")
    cells[4] = "nan"
    assert checks.check_study("\n".join(lines[:-1] + [",".join(cells)]), n_results=6)
    assert checks.check_study("\n".join(lines[:-1]), n_results=6)


def test_audit_checks_fail_on_mismatched_values():
    alpha = 12 / 1.718281828459045
    exact = math.log((12 + alpha) / alpha)
    assert checks.check_md_worst_ratio(exact, alpha, 12) == []
    assert checks.check_md_worst_ratio(exact + 1e-9, alpha, 12)
    assert checks.check_routes_agree(0.75, 0.75 + 1e-12) == []
    assert checks.check_routes_agree(0.75, 0.75 + 1e-6)
    assert checks.check_identities([True] * 800) == []
    assert checks.check_identities([True] * 799 + [False])


def test_audit_ops_pass_their_checks_on_distinct_inputs(tmp_path):
    workload = workloads.AuditCap(tmp_path, 7)
    workload.setup()
    epsilons = []
    for op in range(2):
        artifact = workload.call(op)
        work, problems, _ = workload.check(op, artifact)
        assert problems == []
        assert work == 10920
        epsilons.append([eps for _, eps, _, _ in artifact[0]])
    assert all(a != b for a, b in zip(*epsilons))


# -- tracer -------------------------------------------------------------------


def test_install_wraps_every_binding_and_remove_restores_them():
    original = poisson_gamma.calibrate_pg
    child = dpcounts.core.RngStream.child
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = poisson_gamma.calibrate_pg
        assert wrapped is not original
        assert cli.calibrate_pg is wrapped
        assert simstudy.calibrate_pg is wrapped
        assert dpcounts.calibrate_pg is wrapped
        assert dpcounts.core.RngStream.child is not child
        assert tracer.missing == []
    finally:
        tracer.remove()
    assert poisson_gamma.calibrate_pg is original
    assert cli.calibrate_pg is original
    assert simstudy.calibrate_pg is original
    assert dpcounts.calibrate_pg is original
    assert dpcounts.core.RngStream.child is child


def test_no_spans_outside_an_op():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dpcounts.core.RngStream(1).child(2)
    finally:
        tracer.remove()
    assert tracer.spans == []


def _traced_calls(workload_cls, workdir, seed, ops):
    workdir.mkdir()
    workload = workload_cls(workdir, seed)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in range(ops):
            tracer.begin_op(op)
            try:
                workload.call(op)
            finally:
                tracer.end_op()
    finally:
        tracer.remove()
    by_op = tracing.spans_by_op(tracer.spans)
    return [{k: v for k, v in tracing.op_layer_values(by_op[op], 1.0).items()
             if k.endswith(".calls")} for op in range(ops)]


@pytest.mark.parametrize("workload_cls", [workloads.CountyRelease, workloads.AuditCap])
def test_calls_repeat_for_the_same_seed(workload_cls, tmp_path):
    cycle = workload_cls.cycle
    first = _traced_calls(workload_cls, tmp_path / "a", 11, cycle)
    second = _traced_calls(workload_cls, tmp_path / "b", 11, cycle)
    assert first == second
    assert all(calls for calls in first)


def test_worker_thread_spans_nest_under_run_study():
    config = simstudy.StudyConfig(n_groups=20, y_total=100, n_replicates=4,
                                  epsilons=(1.0,), scenarios=simstudy.StudyConfig.scenarios[:1],
                                  n_workers=2)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        simstudy.run_study(config)
    finally:
        tracer.end_op()
        tracer.remove()
    study = [s for s in tracer.spans if s[tracing.NAME] == "simstudy.run_study"]
    assert len(study) == 1
    replicates = [s for s in tracer.spans if s[tracing.NAME] == "simstudy.gen_replicate"]
    threads = {s[tracing.THREAD] for s in replicates}
    assert len(threads) > 1
    assert all(s[tracing.PARENT] == study[0][tracing.SID] for s in replicates)


def test_self_time_and_concurrency_from_spans():
    ms = 1_000_000
    spans = [
        # sid, parent, op, name, thread, t0, t1, cpu, info
        (1, None, 0, "simstudy.run_study", 1, 0, 10 * ms, 1 * ms, None),
        (2, 1, 0, "simstudy.gen_replicate", 2, 1 * ms, 7 * ms, 5 * ms, None),
        (3, 1, 0, "simstudy.gen_replicate", 3, 2 * ms, 8 * ms, 6 * ms, None),
        (4, 2, 0, "core.CountDataset", 2, 2 * ms, 3 * ms, 1 * ms, None),
        (5, None, 0, "cli.bytes_written", 1, 0, 0, 0, {"count": 42}),
    ]
    values = tracing.op_layer_values(spans, op_wall_s=0.0125)
    assert values["simstudy.run_study.self_s"] == pytest.approx(0.003)
    assert values["simstudy.gen_replicate.calls"] == 2
    assert values["simstudy.gen_replicate.self_s"] == pytest.approx(0.011)
    assert values["simstudy.run_study.concurrency"] == pytest.approx(1.1)
    assert values["trace.covered_frac"] == pytest.approx(0.8)
    assert values["cli.bytes_written"] == 42


def test_threads_record_into_one_tracer():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda i: dpcounts.core.RngStream(i).child(1), range(200)))
    finally:
        tracer.end_op()
        tracer.remove()
    assert len(tracer.spans) == 200
    assert len({s[tracing.SID] for s in tracer.spans}) == 200


# -- declaration and contract -------------------------------------------------


def test_benchmark_json_workloads_are_defined():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_setup_samples_spread_over_the_run(monkeypatch):
    clock = []
    monkeypatch.setattr(run, "measure_setup", lambda: clock[-1])
    n = run.SETUP_SAMPLES
    runner = run.Runner(workloads.Workload, seconds=float(n), trace=False)
    for elapsed in (0.0, 0.5, 2.5, n - 0.1):
        clock.append(elapsed)
        runner._sample_setup(elapsed)
    assert runner.setup_times == [0.0, 2.5, 2.5] + [n - 0.1] * (n - 3)
    runner._sample_setup(runner.seconds)
    assert len(runner.setup_times) == run.SETUP_SAMPLES


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "audit-cap",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
