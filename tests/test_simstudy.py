import concurrent.futures
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import dpcounts.simstudy as simstudy
from dpcounts.cli import config_from_args, run
from dpcounts.core import CountDataset, PriorSpec, RngStream
from dpcounts.dirichlet_mult import calibrate_md
from dpcounts.errors import DomainError, InfeasibleBudgetError, UsageError
from dpcounts.poisson_gamma import TargetRule, calibrate_pg, state_target_rates
from dpcounts.simstudy import (
    PopMode,
    RateMode,
    Scenario,
    StudyConfig,
    SynthMethod,
    gen_replicate,
    gen_truth,
    rate_estimates,
    region_contrast,
    rmse,
    run_study,
    truth_from_dataset,
)


def scenario(pop=PopMode.UNIFORM, rate=RateMode.UNIFORM, **kw):
    base = dict(n_groups=60, y_total=300, n_total=6e5, seed=11, n_states=6)
    base.update(kw)
    return Scenario(pop_mode=pop, rate_mode=rate, **base)


class TestGenTruth:
    def test_uniform_uniform(self):
        truth = gen_truth(scenario())
        assert np.allclose(truth.populations, 1e4)
        assert np.allclose(truth.rates, 300 / 6e5)

    def test_heterogeneous_population_rescaled(self):
        truth = gen_truth(scenario(pop=PopMode.HETEROGENEOUS))
        assert truth.populations.sum() == pytest.approx(6e5, rel=1e-9)
        assert truth.populations.std() > 0

    def test_zero_sigma_collapses_rates(self):
        truth = gen_truth(scenario(rate=RateMode.HETEROGENEOUS, rate_sigma=0.0))
        assert np.allclose(truth.rates, 300 / 6e5)

    def test_state_blocks_and_regions(self):
        truth = gen_truth(scenario(pop=PopMode.HETEROGENEOUS))
        assert len(set(truth.state_ids)) == 6
        assert truth.region_a.size > 0 and truth.region_b.size > 0
        assert not np.intersect1d(truth.region_a, truth.region_b).size
        # blocks are contiguous
        ids = np.array(truth.state_ids)
        changes = np.sum(ids[1:] != ids[:-1])
        assert changes == 5

    def test_urban_is_top_quintile(self):
        truth = gen_truth(scenario(pop=PopMode.HETEROGENEOUS))
        assert 0 < truth.urban.sum() <= truth.urban.size // 4
        assert truth.populations[truth.urban].min() >= truth.populations[~truth.urban].max()

    def test_deterministic(self):
        t1, t2 = gen_truth(scenario(pop=PopMode.HETEROGENEOUS)), gen_truth(
            scenario(pop=PopMode.HETEROGENEOUS))
        assert np.array_equal(t1.populations, t2.populations)
        assert np.array_equal(t1.rates, t2.rates)


class TestGenReplicate:
    def test_total_exact(self):
        truth = gen_truth(scenario(pop=PopMode.HETEROGENEOUS))
        for i in range(5):
            data = gen_replicate(truth.populations, truth.rates, 300,
                                 RngStream(1, i), state_ids=truth.state_ids)
            assert data.total == 300
            assert data.counts.sum() == 300

    def test_multinomial_mean(self):
        n = np.array([1.0, 3.0])
        lam = np.array([2.0, 1.0])
        draws = np.array([gen_replicate(n, lam, 100, RngStream(2, i)).counts[0]
                          for i in range(2000)])
        p = 2.0 / 5.0
        se = math.sqrt(100 * p * (1 - p) / 2000)
        assert abs(draws.mean() - 40.0) < 3 * se


class TestRmse:
    def test_zero(self):
        assert rmse([1e-4, 2e-4], [1e-4, 2e-4]) == 0.0

    def test_constant_offset(self):
        truth = np.array([1e-4, 2e-4, 3e-4])
        assert rmse(truth + 2e-5, truth) == pytest.approx(1e5 * 2e-5)

    def test_arithmetic_anchor(self):
        assert rmse([2e-4, 3e-4], [1e-4, 3e-4]) == pytest.approx(
            1e5 * math.sqrt(1e-8 / 2))

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(UsageError):
            rmse([[1.0]], [1.0, 2.0])

    def test_matrix_scores_each_row_as_its_vector(self):
        truth = np.array([1e-4, 2e-4, 3e-4])
        estimates = truth + np.array([[0.0, 1e-5, 2e-5], [3e-5, -1e-5, 7e-6]])
        assert type(rmse(estimates[0], truth)) is float
        assert rmse(estimates, truth).tolist() == [rmse(row, truth) for row in estimates]


class TestRateEstimates:
    def test_md_concentrates_at_uniform_allocation(self):
        data = CountDataset.from_counts([30, 20, 10], [100.0, 100.0, 100.0])
        prior = PriorSpec.multinomial_dirichlet(np.full(3, 1e8))
        est = rate_estimates(SynthMethod.MD, data, prior, RngStream(3))
        assert np.allclose(est, (60 / 3) / 100.0, rtol=1e-3)

    def test_pg_informative_limit(self):
        data = CountDataset.from_counts([30, 20], [100.0, 50.0])
        lam0 = np.array([0.1, 0.9])
        prior = PriorSpec.poisson_gamma(a=np.full(2, 1e10), target_rates=lam0)
        est = rate_estimates(SynthMethod.PG_NATIONAL, data, prior, RngStream(4))
        assert np.allclose(est, lam0, rtol=1e-3)

    def test_pg_data_dominant_limit(self):
        data = CountDataset.from_counts([3000, 2000], [1e5, 5e4])
        prior = PriorSpec.poisson_gamma(a=np.full(2, 1e-9), b=np.full(2, 1e-9))
        est = rate_estimates(SynthMethod.PG_STATE, data, prior, RngStream(5))
        assert np.allclose(est, data.crude_rates(), rtol=0.1)

    def test_mode_mismatch(self):
        data = CountDataset.from_counts([1, 1], [1.0, 1.0])
        with pytest.raises(UsageError):
            rate_estimates(SynthMethod.MD, data,
                           PriorSpec.poisson_gamma(a=[1.0, 1.0], b=[1.0, 1.0]),
                           RngStream(0))


class TestRegionContrast:
    def test_identity(self):
        est = np.full(6, 3e-4)
        assert region_contrast(est, [0, 1], [2, 3, 4], np.ones(6)) == pytest.approx(1.0)

    def test_population_weighting(self):
        est = np.array([1e-4, 3e-4, 2e-4, 2e-4])
        n = np.array([1.0, 3.0, 1.0, 1.0])
        expected = ((1e-4 + 9e-4) / 4) / 2e-4
        assert region_contrast(est, [0, 1], [2, 3], n) == pytest.approx(expected)

    def test_errors(self):
        est = np.ones(4)
        with pytest.raises(UsageError):
            region_contrast(est, [], [1], np.ones(4))
        with pytest.raises(UsageError):
            region_contrast(est, [0, 1], [1, 2], np.ones(4))


class TestRunStudy:
    def _config(self, **kw):
        base = dict(n_groups=24, y_total=120, n_total=2.4e5, n_replicates=6,
                    epsilons=(1.0, 4.0), seed=99, n_states=4,
                    scenarios=((PopMode.UNIFORM, RateMode.UNIFORM),
                               (PopMode.HETEROGENEOUS, RateMode.UNIFORM)))
        base.update(kw)
        return StudyConfig(**base)

    def test_row_count_and_bands(self):
        results = run_study(self._config())
        assert len(results) == 2 * 2 * 3
        for row in results:
            assert row.rmse_lo <= row.rmse_mean <= row.rmse_hi

    def test_worker_count_does_not_change_results(self):
        serial = run_study(self._config(n_workers=1))
        forked = run_study(self._config(n_workers=3))
        assert serial == forked

    def test_ingested_study_equal_across_worker_counts(self):
        data = CountDataset.from_counts(
            [12, 20, 30, 38, 5, 9], [1e4, 1e4, 3e4, 3e4, 2e4, 5e3],
            state_ids=["a", "a", "b", "b", "c", "c"])
        config = StudyConfig(n_replicates=6, epsilons=(1.0, 4.0), seed=5,
                             ingested=data)
        assert run_study(config) == run_study(replace(config, n_workers=2))

    @staticmethod
    def _fail_block_checks(monkeypatch):
        # the posterior draws' argument checks run in the replicate blocks,
        # i.e. inside workers; the calibrations run in the parent
        def failing(*args):
            raise InfeasibleBudgetError(f"raised in process {os.getpid()}")
        monkeypatch.setattr(simstudy, "_check_gamma_args", failing)

    def test_worker_error_keeps_its_type(self, monkeypatch):
        self._fail_block_checks(monkeypatch)
        with pytest.raises(InfeasibleBudgetError) as err:
            run_study(self._config(n_workers=2))
        if len(os.sched_getaffinity(0)) > 1:
            assert str(err.value) != f"raised in process {os.getpid()}"

    def test_worker_error_exit_code(self, monkeypatch, tmp_path):
        self._fail_block_checks(monkeypatch)
        argv = ["simulate", "--scenarios", "uniform-uniform", "--n-groups", "12",
                "--y-total", "60", "--replicates", "4", "--epsilons", "1",
                "--workers", "2", "--output", str(tmp_path / "study.csv")]
        assert run(config_from_args(argv)) == 2

    @staticmethod
    def _record_pool_sizes(monkeypatch) -> list:
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return sizes

    def test_pool_never_exceeds_usable_cpus(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        cpus = len(os.sched_getaffinity(0))
        serial = run_study(self._config(n_workers=1))
        assert run_study(self._config(n_workers=1000)) == serial
        assert sizes == ([min(cpus, 2 * 6)] if cpus > 1 else [])

    def test_threaded_caller_runs_serially(self, monkeypatch):
        sizes = self._record_pool_sizes(monkeypatch)
        serial = run_study(self._config(n_workers=1))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = run_study(self._config(n_workers=2))
        finally:
            release.set()
            other.join()
        assert threaded == serial
        assert sizes == []

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_floor(self, workers, tmp_path):
        with pytest.raises(DomainError):
            self._config(n_workers=workers)
        argv = ["simulate", "--workers", str(workers),
                "--output", str(tmp_path / "study.csv")]
        assert run(config_from_args(argv)) == 3

    def test_state_targets_help_on_heterogeneous_rates(self):
        config = self._config(
            n_groups=100, y_total=2000, n_total=2e6, n_replicates=20,
            epsilons=(0.5,),
            scenarios=((PopMode.UNIFORM, RateMode.HETEROGENEOUS),),
            state_targets_from_truth=True)
        results = run_study(config)
        by_method = {row.method: row for row in results}
        assert (by_method[SynthMethod.PG_STATE].rmse_mean
                <= by_method[SynthMethod.PG_NATIONAL].rmse_mean)

    def test_md_uniform_allocation_limit(self):
        # as the budget shrinks the baseline estimates collapse to equal
        # allocation: (y_total / I) / n_i
        truth = gen_truth(Scenario(
            pop_mode=PopMode.HETEROGENEOUS, rate_mode=RateMode.UNIFORM,
            n_groups=24, y_total=120, n_total=2.4e5,
            seed=RngStream(99).child(900).stream_id, n_states=4))
        data = gen_replicate(truth.populations, truth.rates, 120, RngStream(1))
        prior = PriorSpec.multinomial_dirichlet(np.full(24, 1e8))
        est = rate_estimates(SynthMethod.MD, data, prior, RngStream(2))
        expected = (120 / 24) / truth.populations
        assert np.allclose(est, expected, rtol=1e-3)

    def test_ingested_dataset_study(self):
        data = CountDataset.from_counts(
            [12, 20, 30, 38], [1e4, 1e4, 3e4, 3e4],
            state_ids=["a", "a", "b", "b"])
        config = StudyConfig(n_replicates=4, epsilons=(1.0,), seed=5,
                             ingested=data)
        results = run_study(config)
        assert {row.scenario for row in results} == {"ingested"}
        assert len(results) == 3

    def test_ingested_needs_two_states(self):
        data = CountDataset.from_counts([1, 2], [10.0, 10.0], state_ids=["a", "a"])
        with pytest.raises(UsageError):
            truth_from_dataset(data)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block_reps", [None, 1, 3], ids=["default", "cap-1", "cap-3"])
    def test_results_do_not_depend_on_the_block_split(self, workers, block_reps,
                                                      monkeypatch):
        # 7 replicates, which neither 3-replicate blocks nor a split in two divide
        config = self._config(n_replicates=7)
        reference = run_study(config)
        if block_reps is not None:
            # caps a block at block_reps replicates of 2 budgets x 24 groups
            monkeypatch.setattr(simstudy, "_BLOCK_CELLS", block_reps * 2 * 24)
        assert run_study(replace(config, n_workers=workers)) == reference

    @pytest.mark.parametrize("n_scenarios,n_reps,lane_cells,n_procs", [
        (4, 8, 1000, 1), (4, 8, 1000, 2), (4, 50, 1000, 1), (1, 7, 10, 3),
        (2, 6, 10, 16), (3, 5, 1 << 14, 2), (1, 10, 10, 8), (2, 6, 10, 8),
        (1, 200, 1000, 3)])
    def test_blocks_cover_every_replicate_once(self, n_scenarios, n_reps, lane_cells,
                                               n_procs):
        blocks = simstudy._replicate_blocks(n_scenarios, n_reps, lane_cells, n_procs)
        assert [(s, rep) for s, start, stop in blocks for rep in range(start, stop)] == [
            (s, rep) for s in range(n_scenarios) for rep in range(n_reps)]
        # every process gets a block while there are replicates to share
        assert len(blocks) >= min(n_procs, n_scenarios * n_reps)
        assert max(stop - start for _, start, stop in blocks) - min(
            stop - start for _, start, stop in blocks) <= 1
        assert all((stop - start) * lane_cells <= simstudy._BLOCK_CELLS or stop - start == 1
                   for _, start, stop in blocks)
        if n_procs == 1 and n_reps * lane_cells <= simstudy._BLOCK_CELLS:
            assert len(blocks) == n_scenarios

    @staticmethod
    def _run_by_blocks(monkeypatch, config):
        """run_study's results, with its replicate blocks run serially through
        the block function, and each scenario's (metric, column, replicate)
        series of the values the blocks returned."""
        parts = {}

        def serial(config, cases, blocks, n_procs):
            out = [simstudy._block_metrics(config, cases, block) for block in blocks]
            for (s_idx, _, _), metrics in zip(blocks, out):
                parts.setdefault(s_idx, []).append(metrics)
            return out
        monkeypatch.setattr(simstudy, "_map_blocks", serial)
        results = run_study(config)
        return results, {s_idx: np.concatenate(blocks, axis=-1)
                         for s_idx, blocks in parts.items()}

    @pytest.mark.parametrize("from_truth", [False, True], ids=["data", "truth"])
    def test_replicate_metrics_match_per_replicate_reference(self, from_truth,
                                                             monkeypatch):
        # reference: every prior built inside the replicate, weighted means
        # over masks, the contrast through the public region_contrast
        config = self._config(n_replicates=3, state_targets_from_truth=from_truth,
                              scenarios=((PopMode.HETEROGENEOUS, RateMode.HETEROGENEOUS),
                                         (PopMode.UNIFORM, RateMode.UNIFORM)))
        _, series = self._run_by_blocks(monkeypatch, config)
        assert [metrics.shape for metrics in series.values()] == [
            (4, 3 * len(config.epsilons), config.n_replicates)] * 2
        master = RngStream(config.seed)

        def weighted_mean(values, pops, mask):
            return float(np.sum(pops[mask] * values[mask]) / np.sum(pops[mask]))

        for s_idx, scen in enumerate(simstudy._scenario_objects(config)):
            truth = gen_truth(scen)
            pops = truth.populations
            ref_data = gen_replicate(pops, truth.rates, config.y_total,
                                     master.child(s_idx, 0, 0), state_ids=truth.state_ids)
            ids = np.array(truth.state_ids)
            true_state = np.empty(pops.size)
            for state in np.unique(ids):
                true_state[ids == state] = weighted_mean(truth.rates, pops, ids == state)
            for rep in range(config.n_replicates):
                got = series[s_idx][:, :, rep]
                data = gen_replicate(pops, truth.rates, config.y_total,
                                     master.child(s_idx, rep, 0), state_ids=truth.state_ids)
                targets = true_state if from_truth else state_target_rates(data)
                assert got.shape == (4, 3 * len(config.epsilons))
                # one stream per replicate draws its rows budget by budget
                rows_rng = master.child(s_idx, rep, 1)
                for e_idx, eps in enumerate(config.epsilons):
                    for m_idx, method in enumerate(simstudy._METHODS):
                        col = 3 * e_idx + m_idx
                        if method is SynthMethod.MD:
                            alpha = calibrate_md(eps, config.y_total).alpha_min
                            prior = PriorSpec.multinomial_dirichlet(np.full(pops.size, alpha))
                        elif method is SynthMethod.PG_NATIONAL:
                            prior = calibrate_pg(eps, ref_data).prior()
                        else:
                            prior = calibrate_pg(eps, data, target_rates=targets,
                                                 rule=TargetRule.CUSTOM).prior()
                        est = rate_estimates(method, data, prior, rows_rng)
                        assert got[:, col].tolist() == [
                            rmse(est, truth.rates),
                            weighted_mean(est, pops, truth.urban),
                            weighted_mean(est, pops, ~truth.urban),
                            region_contrast(est, truth.region_a, truth.region_b, pops),
                        ]

    def test_results_are_one_dimensional_reductions_of_each_series(self, monkeypatch):
        # reference: every field is a 1-d mean or percentile over that
        # series' per-replicate values, in replicate order
        config = self._config(n_replicates=13)
        results, series = self._run_by_blocks(monkeypatch, config)
        n_reps, n_cols = config.n_replicates, 3 * len(config.epsilons)
        assert len(results) == 2 * n_cols
        for k, row in enumerate(results):
            s_idx, col = divmod(k, n_cols)
            rmses, urban, rural, contrast = (
                np.array([series[s_idx][metric, col, rep] for rep in range(n_reps)])
                for metric in range(4))
            lo, hi = np.percentile(rmses, [2.5, 97.5])
            assert (row.method, row.epsilon) == (simstudy._METHODS[col % 3],
                                                 config.epsilons[col // 3])
            assert [row.rmse_mean, row.rmse_lo, row.rmse_hi, row.urban_rate,
                    row.rural_rate, row.region_contrast] == [
                np.mean(rmses), lo, hi, np.mean(urban), np.mean(rural), np.mean(contrast)]

    def test_block_rekeys_once_per_replicate(self, monkeypatch):
        # every (budget, method) row of a replicate is drawn on its one stream
        config = self._config(epsilons=(0.5, 1.0, 4.0))
        truth = gen_truth(simstudy._scenario_objects(config)[0])
        case = simstudy._scenario_case(config, 0, "s0", truth, config.y_total)
        keyed = []
        rekey = RngStream.rekey

        def counting(self, stream_id):
            keyed.append(stream_id)
            rekey(self, stream_id)
        monkeypatch.setattr(RngStream, "rekey", counting)
        simstudy._block_metrics(config, [case], (0, 1, 5))
        assert keyed == [RngStream(config.seed).child(0, rep, 1).stream_id
                         for rep in range(1, 5)]

    def test_appending_a_budget_keeps_the_earlier_budgets_results(self):
        shorter = run_study(self._config(epsilons=(1.0, 4.0)))
        longer = run_study(self._config(epsilons=(1.0, 4.0, 8.0)))
        assert len(longer) == 3 * len(shorter) // 2
        assert [row for row in longer if row.epsilon != 8.0] == shorter


def _children(pid: int) -> list[int]:
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return [int(c) for c in f.read().split()]


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _blocked_signals(block):
    return signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux /proc child lists and two usable CPUs")
class TestWorkerTeardown:
    """A `simulate --workers 2` process stopped mid-study leaves no worker
    process behind."""

    def _start(self, tmp_path):
        src = os.path.dirname(os.path.dirname(simstudy.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "dpcounts.cli", "simulate",
                "--scenarios", "uniform-uniform", "--n-groups", "50",
                "--y-total", "500", "--replicates", "8000", "--epsilons", "1",
                "--workers", "2", "--output", str(tmp_path / "study.csv")]
        # The child's stderr is kept, so a run that exits 0 shows why. Its
        # SIGINT starts at the default, as for a job at a terminal: a test run
        # started in the background of a non-interactive shell ignores
        # SIGINT, and the child would inherit that and finish its study.
        with open(tmp_path / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(
                argv, env=env, start_new_session=True,
                stdout=subprocess.DEVNULL, stderr=stderr,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        if not _wait_until(lambda: len(_children(proc.pid)) == 2, 60):
            proc.kill()
            proc.wait()
            pytest.fail("the study did not start two workers")
        return proc, _children(proc.pid)

    def test_workers_keep_sigint_blocked(self, monkeypatch):
        # a SIGINT handled inside the pool's submit could leave one of its
        # locks held; the workers, forked there, keep the signal blocked
        monkeypatch.setattr(simstudy, "_block_task", _blocked_signals)
        masks = simstudy._map_blocks(None, [], [(0, 0, 1), (0, 1, 2)], 2)
        assert [signal.SIGINT in mask for mask in masks] == [True, True]
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    @pytest.mark.parametrize("stop", ["sigterm-parent", "sigint-group", "sigkill-worker"])
    def test_no_worker_outlives_the_run(self, stop, tmp_path):
        proc, workers = self._start(tmp_path)
        try:
            if stop == "sigterm-parent":      # a scheduler or timeout
                os.kill(proc.pid, signal.SIGTERM)
            elif stop == "sigint-group":      # Ctrl-C at a terminal
                os.killpg(proc.pid, signal.SIGINT)
            else:                             # a worker dies: broken pool
                os.kill(workers[0], signal.SIGKILL)
            assert proc.wait(60) != 0, \
                "stderr of the run:\n" + (tmp_path / "stderr.txt").read_text()
            assert _wait_until(lambda: not any(map(_running, workers)), 10)
        finally:
            for pid in [proc.pid, *workers]:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()


class TestScenarioValidation:
    def test_bad_parameters(self):
        with pytest.raises(DomainError):
            scenario(n_groups=1)
        with pytest.raises(DomainError):
            scenario(n_states=1)
        with pytest.raises(DomainError):
            scenario(y_total=0)

    def test_labels(self):
        assert scenario().label == "same-n_same-rate"
        assert scenario(pop=PopMode.HETEROGENEOUS,
                        rate=RateMode.HETEROGENEOUS).label == "diff-n_diff-rate"

    def test_replicate_floor(self):
        with pytest.raises(DomainError):
            StudyConfig(n_replicates=1)
