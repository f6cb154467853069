import math
import os
import threading

import numpy as np
import pytest

import dpcounts.cli as cli
import dpcounts.simstudy as simstudy
from dpcounts.cli import config_from_args, run, write_counts
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


def _no_fork():
    raise AssertionError("the study started a process")


class TestRunStudy:
    def _config(self, **kw):
        base = dict(n_groups=24, y_total=120, n_total=2.4e5, n_replicates=6,
                    epsilons=(1.0, 4.0), seed=99, n_states=4,
                    scenarios=((PopMode.UNIFORM, RateMode.UNIFORM),
                               (PopMode.HETEROGENEOUS, RateMode.UNIFORM)))
        base.update(kw)
        return StudyConfig(**base)

    @staticmethod
    def _simulate_rows(monkeypatch, tmp_path, argv) -> list:
        """The rows run_study returns inside a `simulate` command line,
        which must start no process."""
        rows = []

        def recording(config):
            rows.extend(run_study(config))
            return rows
        monkeypatch.setattr(cli, "run_study", recording)
        monkeypatch.setattr(os, "fork", _no_fork)
        argv = ["simulate", *argv, "--output", str(tmp_path / "study.csv")]
        assert run(config_from_args(argv)) == 0
        return rows

    def test_row_count_and_bands(self):
        results = run_study(self._config())
        assert len(results) == 2 * 2 * 3
        for row in results:
            assert row.rmse_lo <= row.rmse_mean <= row.rmse_hi

    def test_worker_count_does_not_change_results(self, monkeypatch, tmp_path):
        argv = ["--scenarios", "uniform-uniform,hetero-n", "--n-groups", "24",
                "--y-total", "120", "--replicates", "6", "--epsilons", "1,4",
                "--seed", "99"]
        serial = self._simulate_rows(monkeypatch, tmp_path, argv + ["--workers", "1"])
        assert len(serial) == 2 * 2 * 3
        for workers in ["3", "1000"]:
            assert self._simulate_rows(monkeypatch, tmp_path,
                                       argv + ["--workers", workers]) == serial

    def test_ingested_study_equal_across_worker_counts(self, monkeypatch, tmp_path):
        data = CountDataset.from_counts(
            [12, 20, 30, 38, 5, 9], [1e4, 1e4, 3e4, 3e4, 2e4, 5e3],
            state_ids=["a", "a", "b", "b", "c", "c"])
        write_counts(data, tmp_path / "counts.csv")
        argv = ["--input", str(tmp_path / "counts.csv"), "--replicates", "6",
                "--epsilons", "1,4", "--seed", "5"]
        serial = self._simulate_rows(monkeypatch, tmp_path, argv + ["--workers", "1"])
        assert {row.scenario for row in serial} == {"ingested"}
        assert self._simulate_rows(monkeypatch, tmp_path,
                                   argv + ["--workers", "2"]) == serial

    def test_threaded_caller_runs_serially(self, monkeypatch):
        serial = run_study(self._config())
        monkeypatch.setattr(os, "fork", _no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = run_study(self._config())
        finally:
            release.set()
            other.join()
        assert threaded == serial

    @staticmethod
    def _fail_block_checks(monkeypatch):
        # the posterior draws' argument checks run in the replicate blocks,
        # after the calibrations
        def failing(*args):
            raise InfeasibleBudgetError("raised in a replicate block")
        monkeypatch.setattr(simstudy, "_check_gamma_args", failing)

    def test_worker_error_keeps_its_type(self, monkeypatch):
        self._fail_block_checks(monkeypatch)
        with pytest.raises(InfeasibleBudgetError, match="raised in a replicate block"):
            run_study(self._config())

    def test_worker_error_exit_code(self, monkeypatch, tmp_path):
        self._fail_block_checks(monkeypatch)
        argv = ["simulate", "--scenarios", "uniform-uniform", "--n-groups", "12",
                "--y-total", "60", "--replicates", "4", "--epsilons", "1",
                "--workers", "2", "--output", str(tmp_path / "study.csv")]
        assert run(config_from_args(argv)) == 2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_floor(self, workers, tmp_path, capsys):
        argv = ["simulate", "--workers", str(workers),
                "--output", str(tmp_path / "study.csv")]
        assert run(config_from_args(argv)) == 3
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert not (tmp_path / "study.csv").exists()

    def test_state_targets_help_on_heterogeneous_rates(self):
        config = self._config(
            n_groups=100, y_total=2000, n_total=2e6, n_replicates=20,
            epsilons=(0.5,),
            scenarios=((PopMode.UNIFORM, RateMode.HETEROGENEOUS),))
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
                                                      monkeypatch, tmp_path):
        # 7 replicates, which neither 3-replicate blocks nor a split in two divide
        argv = ["--scenarios", "uniform-uniform,hetero-n", "--n-groups", "24",
                "--y-total", "120", "--replicates", "7", "--epsilons", "1,4",
                "--seed", "99"]
        reference = self._simulate_rows(monkeypatch, tmp_path, argv)
        if block_reps is not None:
            # caps a block at block_reps replicates of 2 budgets x 24 groups
            monkeypatch.setattr(simstudy, "_BLOCK_CELLS", block_reps * 2 * 24)
        assert self._simulate_rows(monkeypatch, tmp_path,
                                   argv + ["--workers", str(workers)]) == reference

    @pytest.mark.parametrize("n_scenarios,n_reps,lane_cells,cap_reps", [
        (4, 8, 1000, 1), (4, 8, 1000, 2), (4, 50, 1000, 1), (1, 7, 10, 3),
        (2, 6, 10, 16), (3, 5, 1 << 14, 2), (1, 10, 10, 8), (2, 6, 10, 8),
        (1, 200, 1000, 3), (4, 50, 1000, None), (3, 5, 1 << 14, None),
        (1, 200, 1000, None)])
    def test_blocks_cover_every_replicate_once(self, n_scenarios, n_reps, lane_cells,
                                               cap_reps, monkeypatch):
        # cap_reps caps a block at that many replicates; None keeps _BLOCK_CELLS
        if cap_reps is not None:
            monkeypatch.setattr(simstudy, "_BLOCK_CELLS", cap_reps * lane_cells)
        blocks = simstudy._replicate_blocks(n_scenarios, n_reps, lane_cells)
        assert [(s, rep) for s, start, stop in blocks for rep in range(start, stop)] == [
            (s, rep) for s in range(n_scenarios) for rep in range(n_reps)]
        assert max(stop - start for _, start, stop in blocks) - min(
            stop - start for _, start, stop in blocks) <= 1
        assert all((stop - start) * lane_cells <= simstudy._BLOCK_CELLS or stop - start == 1
                   for _, start, stop in blocks)
        if n_reps * lane_cells <= simstudy._BLOCK_CELLS:
            assert len(blocks) == n_scenarios
        # the fewest blocks: one block fewer per scenario would pass the cap
        per_scenario = len(blocks) // n_scenarios
        assert per_scenario == 1 or (
            (per_scenario - 1) * max(1, simstudy._BLOCK_CELLS // lane_cells) < n_reps)

    @staticmethod
    def _run_by_blocks(monkeypatch, config):
        """run_study's results, and each scenario's (metric, column, replicate)
        series of the values its replicate blocks returned."""
        parts = {}

        block_metrics = simstudy._block_metrics

        def recording(config, cases, block):
            metrics = block_metrics(config, cases, block)
            parts.setdefault(block[0], []).append(metrics)
            return metrics
        monkeypatch.setattr(simstudy, "_block_metrics", recording)
        results = run_study(config)
        return results, {s_idx: np.concatenate(blocks, axis=-1)
                         for s_idx, blocks in parts.items()}

    def test_replicate_metrics_match_per_replicate_reference(self, monkeypatch):
        # reference: every prior built inside the replicate, weighted means
        # over masks, the contrast through the public region_contrast
        config = self._config(n_replicates=3,
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
            for rep in range(config.n_replicates):
                got = series[s_idx][:, :, rep]
                data = gen_replicate(pops, truth.rates, config.y_total,
                                     master.child(s_idx, rep, 0), state_ids=truth.state_ids)
                targets = state_target_rates(data)
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
