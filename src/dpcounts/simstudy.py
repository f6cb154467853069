"""Desk-scale utility study of the synthesizers.

Four scenarios cross heterogeneity in population sizes against heterogeneity
in true event rates. For each replicate dataset the three approaches (the
baseline, Poisson-gamma smoothed to the national rate, Poisson-gamma
smoothed to state rates) are calibrated to the same budget, a posterior rate
draw is scored against the truth by rMSE per 100,000, and urban/rural and
two-state contrasts are tracked. Replicates own derived random streams, so
results are bit-identical for any worker count.

The baseline and national-target priors for each budget, the true state
rates, and the urban, rural and two-region score groups with their
population weights, are built once per scenario. Each replicate calibrates
its state-target priors for all budgets in one lockstep solve and scores its
rate estimates, one row per (budget, method), into one (4, 3 * n_budgets)
array: rows rMSE, urban rate, rural rate and region contrast, columns
(budget, method) with the method varying fastest. Each reported value is a
1-d mean or percentile over one contiguous replicate series.

With ``n_workers > 1`` the replicates run in a pool of forked worker
processes (POSIX only). The study runs serially instead where ``fork`` is
unavailable or the calling process has more than one thread, since forking
a threaded process can deadlock the child. Each worker inherits the
scenarios' truths, priors and score groups from the parent and receives
only (scenario, replicate) indices, so nothing but the small per-replicate
metrics crosses a process boundary. On Linux a worker is sent SIGTERM when
its parent dies, so a parent killed by a signal leaves no worker behind.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CountDataset, PriorModel, PriorSpec, RngStream, sample_dirichlet, sample_gamma, sample_multinomial
from .dirichlet_mult import calibrate_md
from .errors import DomainError, UsageError
# calibrate_pg is not called here, but stays bound: perfbench's tracer wraps
# it at every module that binds it, and its tests check this module
from .poisson_gamma import (RATE_FLOOR_SCALE, TargetRule, _group_states,
                            calibrate_pg, calibrate_pg_budgets,  # noqa: F401
                            state_target_rates)

RMSE_SCALE = 100_000.0  # rates are reported per 100,000 population


class PopMode(str, Enum):
    UNIFORM = "uniform"
    HETEROGENEOUS = "heterogeneous"


class RateMode(str, Enum):
    UNIFORM = "uniform"
    HETEROGENEOUS = "heterogeneous"


class SynthMethod(str, Enum):
    MD = "md"
    PG_NATIONAL = "pg-national"
    PG_STATE = "pg-state"


@dataclass(frozen=True)
class Scenario:
    pop_mode: PopMode
    rate_mode: RateMode
    n_groups: int
    y_total: int
    n_total: float
    seed: int
    n_states: int = 10
    rate_sigma: float = 0.3
    pop_sigma: float = 1.25

    def __post_init__(self):
        if self.n_groups < 2:
            raise DomainError("need at least two groups")
        if self.y_total < 1:
            raise DomainError("y_total must be positive")
        if not self.n_total > 0:
            raise DomainError("n_total must be positive")
        if not 2 <= self.n_states <= self.n_groups:
            raise DomainError("n_states must lie in [2, n_groups]")

    @property
    def label(self) -> str:
        pop = "same-n" if self.pop_mode is PopMode.UNIFORM else "diff-n"
        rate = "same-rate" if self.rate_mode is RateMode.UNIFORM else "diff-rate"
        return f"{pop}_{rate}"


@dataclass(frozen=True)
class GroundTruth:
    populations: np.ndarray
    rates: np.ndarray
    state_ids: tuple[str, ...]
    urban: np.ndarray  # boolean flags, top population quintile
    region_a: np.ndarray  # indices of the smallest-population state
    region_b: np.ndarray  # indices of the largest-population state


@dataclass(frozen=True)
class StudyResult:
    scenario: str
    method: SynthMethod
    epsilon: float
    rmse_mean: float
    rmse_lo: float
    rmse_hi: float
    urban_rate: float
    rural_rate: float
    region_contrast: float

    def __post_init__(self):
        if not self.rmse_lo <= self.rmse_mean <= self.rmse_hi:
            raise DomainError("rMSE band must bracket its mean")


def _score_group(populations, idx):
    """Groups ``idx`` (indices or mask) as indices, their population weights
    and sum."""
    idx = np.asarray(idx)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    weights = populations[idx]
    return idx, weights, weights.sum()


def _weighted_mean(values, group):
    """Population-weighted mean of ``values`` over a score group; for a
    matrix, one mean per row. ``take`` keeps the rows contiguous, so each
    row sums exactly as the same values in a vector do."""
    idx, weights, weight_sum = group
    return (weights * values.take(idx, axis=-1)).sum(axis=-1) / weight_sum


def _contrast_regions(state_index, populations):
    """Group indices of the smallest- and largest-population states, every
    state holding a group; when all states tie, the next state stands in for
    the largest."""
    state_pops = np.bincount(state_index, weights=populations)
    a_state = int(np.argmin(state_pops))
    b_state = int(np.argmax(state_pops))
    if a_state == b_state:  # degenerate uniform populations
        b_state = (a_state + 1) % state_pops.size
    return np.flatnonzero(state_index == a_state), np.flatnonzero(state_index == b_state)


def gen_truth(scenario: Scenario) -> GroundTruth:
    """Ground-truth populations and rates for one scenario.

    Heterogeneous populations are log-normal, rescaled to the fixed total;
    heterogeneous rates multiply the overall rate by a log-normal factor with
    a shared state-level component, mean-corrected so the average rate stays
    at y_total / n_total. Urban means top population quintile (by index for
    degenerate uniform populations, where the split is arbitrary).
    """
    rng = RngStream(scenario.seed).child(0)
    gen = rng.generator
    size = scenario.n_groups
    # contiguous blocks of groups per state
    bounds = np.linspace(0, size, scenario.n_states + 1).astype(int)
    state_index = np.repeat(np.arange(scenario.n_states), np.diff(bounds))
    state_ids = tuple(f"s{state_index[i]:03d}" for i in range(size))

    if scenario.pop_mode is PopMode.HETEROGENEOUS:
        raw = np.exp(scenario.pop_sigma * gen.standard_normal(size))
        populations = raw * (scenario.n_total / raw.sum())
        urban = populations > np.quantile(populations, 0.8)
    else:
        populations = np.full(size, scenario.n_total / size)
        urban = np.arange(size) < max(size // 5, 1)

    base_rate = scenario.y_total / scenario.n_total
    if scenario.rate_mode is RateMode.HETEROGENEOUS:
        state_effect = gen.standard_normal(scenario.n_states)[state_index]
        county_effect = gen.standard_normal(size)
        u = (state_effect + county_effect) / math.sqrt(2.0)
        sigma = scenario.rate_sigma
        rates = base_rate * np.exp(sigma * u - 0.5 * sigma * sigma)
    else:
        rates = np.full(size, base_rate)

    region_a, region_b = _contrast_regions(state_index, populations)
    return GroundTruth(populations=populations, rates=rates, state_ids=state_ids,
                       urban=urban, region_a=region_a, region_b=region_b)


def gen_replicate(populations, rates, y_total: int, rng: RngStream,
                  state_ids=None) -> CountDataset:
    """One replicate dataset: the multinomial allocation of the fixed total
    with cell weights n_i * rate_i, which is exactly the law of independent
    Poisson counts conditioned on their sum."""
    populations = np.asarray(populations, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    weights = populations * rates
    counts = sample_multinomial(int(y_total), weights / weights.sum(), rng)
    return CountDataset.from_counts(counts, populations, state_ids=state_ids)


def rmse(estimate, truth):
    """Root mean squared rate error, scaled to events per 100,000: a float
    for one estimate vector, one value per row for a matrix of them."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.ndim not in (1, 2) or estimate.shape[-1:] != truth.shape:
        raise UsageError("estimate and truth must have equal length")
    errors = RMSE_SCALE * np.sqrt(np.mean((estimate - truth) ** 2, axis=-1))
    return float(errors) if estimate.ndim == 1 else errors


def rate_estimates(method: SynthMethod, data: CountDataset, prior: PriorSpec,
                   rng: RngStream) -> np.ndarray:
    """One posterior rate draw per group, the quantity a release would be
    built from: a Dirichlet weight draw scaled by total/population for the
    baseline, a gamma posterior draw for the Poisson-gamma methods."""
    method = SynthMethod(method)
    if method is SynthMethod.MD:
        if prior.mode is not PriorModel.MULTINOMIAL_DIRICHLET:
            raise UsageError("MD estimates need a multinomial-Dirichlet prior")
        theta = sample_dirichlet(data.counts + prior.alpha, rng)
        return theta * data.total / data.populations
    if prior.mode is not PriorModel.POISSON_GAMMA:
        raise UsageError("PG estimates need a Poisson-gamma prior")
    return np.asarray(sample_gamma(data.counts + prior.a,
                                   data.populations + prior.b, rng))


def region_contrast(estimates, group_a, group_b, populations) -> float:
    """Ratio of population-weighted mean estimated rates, group A over B."""
    estimates = np.asarray(estimates, dtype=np.float64)
    populations = np.asarray(populations, dtype=np.float64)
    group_a = np.asarray(group_a, dtype=np.int64)
    group_b = np.asarray(group_b, dtype=np.int64)
    if group_a.size == 0 or group_b.size == 0:
        raise UsageError("contrast groups must be nonempty")
    if np.intersect1d(group_a, group_b).size:
        raise UsageError("contrast groups must be disjoint")
    return float(_weighted_mean(estimates, _score_group(populations, group_a))
                 / _weighted_mean(estimates, _score_group(populations, group_b)))


@dataclass(frozen=True)
class StudyConfig:
    n_groups: int = 200
    y_total: int = 1000
    n_total: float = 10_000_000.0
    n_replicates: int = 50
    epsilons: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    scenarios: tuple[tuple[PopMode, RateMode], ...] = (
        (PopMode.UNIFORM, RateMode.UNIFORM),
        (PopMode.HETEROGENEOUS, RateMode.UNIFORM),
        (PopMode.UNIFORM, RateMode.HETEROGENEOUS),
        (PopMode.HETEROGENEOUS, RateMode.HETEROGENEOUS),
    )
    seed: int = 20260808
    n_states: int = 10
    n_workers: int = 1
    state_targets_from_truth: bool = False
    # when set, the generated scenarios are replaced by replicates of this
    # dataset's populations and (floored) crude rates
    ingested: CountDataset | None = None

    def __post_init__(self):
        if self.n_replicates < 2:
            raise DomainError("need at least two replicates for bands")
        if self.n_workers < 1:
            raise DomainError("n_workers must be at least 1")


def truth_from_dataset(data: CountDataset) -> GroundTruth:
    """Ground truth built from an ingested dataset: its populations, its
    floored crude rates, its state labels. Needs at least two states so the
    two-region contrast is defined."""
    if data.state_ids is None or len(set(data.state_ids)) < 2:
        raise UsageError("ingested study needs at least two distinct states")
    rates = np.maximum(data.crude_rates(), RATE_FLOOR_SCALE / data.populations)
    urban = data.populations > np.quantile(data.populations, 0.8)
    if urban.all() or not urban.any():
        urban = np.arange(data.n_groups) < max(data.n_groups // 5, 1)
    state_index = _group_states(data)[0]
    region_a, region_b = _contrast_regions(state_index, data.populations)
    return GroundTruth(populations=data.populations.copy(), rates=rates,
                       state_ids=data.state_ids, urban=urban,
                       region_a=region_a, region_b=region_b)


_METHODS = (SynthMethod.MD, SynthMethod.PG_NATIONAL, SynthMethod.PG_STATE)


def _scenario_objects(config: StudyConfig) -> list[Scenario]:
    return [
        Scenario(pop_mode=pop, rate_mode=rate, n_groups=config.n_groups,
                 y_total=config.y_total, n_total=config.n_total,
                 seed=RngStream(config.seed).child(900 + k).stream_id,
                 n_states=config.n_states)
        for k, (pop, rate) in enumerate(config.scenarios)
    ]


def _true_state_rates(truth: GroundTruth, state_index: np.ndarray) -> np.ndarray:
    state_rates = [_weighted_mean(truth.rates, _score_group(truth.populations, state_index == s))
                   for s in range(state_index.max() + 1)]
    return np.array(state_rates)[state_index]


def _replicate_metrics(config: StudyConfig, cases: list,
                       task: tuple[int, int]) -> np.ndarray:
    scenario_idx, rep = task
    _, truth, y_total, priors, groups, true_state_rates = cases[scenario_idx]
    master = RngStream(config.seed)
    data = gen_replicate(truth.populations, truth.rates, y_total,
                         master.child(scenario_idx, rep, 0),
                         state_ids=truth.state_ids)
    state_targets = (true_state_rates if config.state_targets_from_truth
                     else state_target_rates(data))
    state_cals = calibrate_pg_budgets(config.epsilons, data, target_rates=state_targets,
                                      rule=TargetRule.CUSTOM)
    estimates = []
    for e_idx, state_cal in enumerate(state_cals):
        for m_idx, method in enumerate(_METHODS):
            prior = (state_cal.prior() if method is SynthMethod.PG_STATE
                     else priors[method, e_idx])
            rng = master.child(scenario_idx, rep, 1 + m_idx, e_idx)
            estimates.append(rate_estimates(method, data, prior, rng))
    # one row per (epsilon, method), scored by row reductions
    estimates = np.array(estimates)
    urban, rural, region_a, region_b = (_weighted_mean(estimates, group)
                                        for group in groups)
    return np.array([rmse(estimates, truth.rates), urban, rural, region_a / region_b])


# (config, cases) inside a forked worker; set by _install_study, never in
# the parent process
_WORKER_STUDY = None


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _install_study(parent_pid: int, config: StudyConfig, cases: list) -> None:
    global _WORKER_STUDY
    _WORKER_STUDY = (config, cases)
    # a worker blocks on the pool's call queue, whose write end its siblings
    # also hold, so it would outlive a parent killed by a signal; have the
    # kernel end it with the parent instead, whatever handler the parent set
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if sys.platform.startswith("linux"):
        import ctypes
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if os.getppid() != parent_pid:  # the parent died before the prctl
            os._exit(1)


def _replicate_task(task: tuple[int, int]) -> np.ndarray:
    return _replicate_metrics(*_WORKER_STUDY, task)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_replicates(config: StudyConfig, cases: list,
                    tasks: list[tuple[int, int]]) -> list[np.ndarray]:
    """Per-replicate metrics for ``tasks``, in task order. More than one
    worker means forked processes, never more than there are tasks or
    usable CPUs, and only from a single-threaded process."""
    n_procs = 1
    if config.n_workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            n_procs = min(config.n_workers, len(tasks), _usable_cpus())
    if n_procs == 1:
        return [_replicate_metrics(config, cases, task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    # fork, not spawn: a spawned worker re-imports numpy, scipy and this
    # package (about 0.5 s each), and the study state would be pickled to it.
    # The executor forks every worker on the first submit, from this thread
    # and before it starts threads of its own.
    with ProcessPoolExecutor(max_workers=n_procs,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_study,
                             initargs=(os.getpid(), config, cases)) as pool:
        # a few chunks per worker balance the load with few round trips
        chunksize = max(1, len(tasks) // (4 * n_procs))
        return list(pool.map(_replicate_task, tasks, chunksize=chunksize))


def run_study(config: StudyConfig) -> list[StudyResult]:
    """Run every scenario and return one result row per
    (scenario, method, epsilon). Deterministic for a fixed config seed,
    independent of n_workers. With n_workers > 1 the replicates run in
    forked processes only if the caller is single-threaded (one Python
    thread); otherwise they run serially, with the same results."""
    if config.ingested is not None:
        truths = [("ingested", truth_from_dataset(config.ingested),
                   config.ingested.total)]
    else:
        truths = [(scenario.label, gen_truth(scenario), config.y_total)
                  for scenario in _scenario_objects(config)]

    # per scenario: (label, truth, y_total, the MD and PG-national priors by
    # (method, epsilon index), the urban, rural, region A and B score groups,
    # the true state rates)
    cases = []
    for scenario_idx, (label, truth, y_total) in enumerate(truths):
        pops = truth.populations
        # national targets depend on the fixed total and the populations only,
        # so every replicate calibrates them alike; replicate 0 stands in
        ref_data = gen_replicate(pops, truth.rates, y_total,
                                 RngStream(config.seed).child(scenario_idx, 0, 0),
                                 state_ids=truth.state_ids)
        national = calibrate_pg_budgets(config.epsilons, ref_data,
                                        rule=TargetRule.DEFAULT_NATIONAL)
        priors = {}
        for e_idx, eps in enumerate(config.epsilons):
            alpha = np.full(pops.size, calibrate_md(eps, y_total).alpha_min)
            priors[SynthMethod.MD, e_idx] = PriorSpec.multinomial_dirichlet(alpha)
            priors[SynthMethod.PG_NATIONAL, e_idx] = national[e_idx].prior()
        # the regions come from two distinct states, so they are disjoint
        groups = tuple(_score_group(pops, idx) for idx in
                       (truth.urban, ~truth.urban, truth.region_a, truth.region_b))
        true_state_rates = _true_state_rates(truth, _group_states(ref_data)[0])
        cases.append((label, truth, y_total, priors, groups, true_state_rates))

    n_reps = config.n_replicates
    tasks = [(s, rep) for s in range(len(cases)) for rep in range(n_reps)]
    per_task = _map_replicates(config, cases, tasks)

    columns = [(eps, method) for eps in config.epsilons for method in _METHODS]
    results = []
    for scenario_idx, (label, *_) in enumerate(cases):
        # (metric, column, replicate): every series is one contiguous row
        series = np.stack(per_task[scenario_idx * n_reps:(scenario_idx + 1) * n_reps],
                          axis=-1)
        means = series.mean(axis=-1)
        lo, hi = np.percentile(series[0], [2.5, 97.5], axis=-1)
        for col, (epsilon, method) in enumerate(columns):
            results.append(StudyResult(
                scenario=label,
                method=method,
                epsilon=float(epsilon),
                rmse_mean=float(means[0, col]),
                rmse_lo=float(lo[col]),
                rmse_hi=float(hi[col]),
                urban_rate=float(means[1, col]),
                rural_rate=float(means[2, col]),
                region_contrast=float(means[3, col]),
            ))
    return results
