"""Desk-scale utility study of the synthesizers.

Four scenarios cross heterogeneity in population sizes against heterogeneity
in true event rates. For each replicate dataset the three approaches (the
baseline, Poisson-gamma smoothed to the national rate, Poisson-gamma
smoothed to state rates) are calibrated to the same budget, a posterior rate
draw is scored against the truth by rMSE per 100,000, and urban/rural and
two-state contrasts are tracked. Replicates own derived random streams, so
results are bit-identical for any split of the replicates into blocks.

Each scenario is prepared once, before its replicates run, with no
per-replicate dataset or prior objects:

- counts: each replicate's counts are drawn on its own stream (scenario,
  replicate, 0), through one generator re-keyed to each stream in turn,
  into one (replicates, groups) matrix;
- state targets: every replicate's state event totals come from one
  bincount, and are sums of integers, so they equal state_target_rates'
  values exactly;
- calibration: one vectorised bracket over a lane per (replicate, budget)
  with that replicate's state targets, and a lane per budget with the
  national target, which depends on the fixed total and the populations
  only. The brackets are arrays moved by whole-array steps, and the
  targets are passed per state, so each round works on (lanes, states)
  matrices; every lane then gets the calibration's and the prior's checks
  at once, and is kept as one strength and one b per state.

The replicates then run one block at a time:

- sampling: every (replicate, budget, method) row's posterior shapes, and
  the PG rows' rates, are built as whole arrays and checked once. Each
  replicate draws all its rows on its own stream (scenario, replicate, 1):
  one generator is re-keyed to that stream and fills the replicate's
  (budget, method, group) slab with one call to numpy's one-parameter
  gamma sampler, the same values its two-parameter gamma draws. The rows
  are drawn budget-major, so appending a budget leaves the earlier budgets'
  results unchanged. The gamma scaling, the floor and the Dirichlet
  normalisation then run once on the whole block;
- scoring: the rows are scored by row reductions into one
  (4, 3 * n_budgets, replicates) array: rMSE, urban rate, rural rate and
  region contrast, columns (budget, method) with the method varying fastest.

Each reported value is a 1-d mean or percentile over one contiguous
replicate series.

The blocks are sized only to bound the study's peak memory (_BLOCK_CELLS);
the split changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (_FLOOR, CountDataset, PriorModel, PriorSpec, RngStream, _check_gamma_args,
                   _checked_positive, _checked_probs, sample_dirichlet, sample_gamma,
                   sample_multinomial)
from .dirichlet_mult import calibrate_md
from .errors import DomainError, UsageError
# calibrate_pg is not called here, but stays bound: perfbench's tracer wraps
# it at every module that binds it, and its tests check this module
from .poisson_gamma import (RATE_FLOOR_SCALE, _calibrate_lanes, _check_requirement,
                            _checked_budgets, _floored_rates, _group_states,
                            calibrate_pg)  # noqa: F401

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


def _count_probs(populations: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Cell probabilities proportional to n_i * rate_i: the multinomial
    allocation of the fixed total with them is exactly the law of
    independent Poisson counts conditioned on their sum."""
    weights = populations * rates
    return weights / weights.sum()


def gen_replicate(populations, rates, y_total: int, rng: RngStream,
                  state_ids=None) -> CountDataset:
    """One replicate dataset, its counts drawn as in the study."""
    populations = np.asarray(populations, dtype=np.float64)
    rates = np.asarray(rates, dtype=np.float64)
    counts = sample_multinomial(int(y_total), _count_probs(populations, rates), rng)
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
    baseline, a gamma posterior draw for the Poisson-gamma methods.

    Each call continues ``rng`` where the last one left it. The study draws
    all of a replicate's rows on one stream, (scenario, replicate, 1):
    calling this on that stream for every (budget, method) in turn, budget
    by budget and methods in study order, gives the study's estimates, so
    a budget's rows do not depend on the budgets after it."""
    method = SynthMethod(method)
    if method is SynthMethod.MD:
        if prior.mode is not PriorModel.MULTINOMIAL_DIRICHLET:
            raise UsageError("MD estimates need a multinomial-Dirichlet prior")
        return sample_dirichlet(data.counts + prior.alpha, rng) * data.total / data.populations
    if prior.mode is not PriorModel.POISSON_GAMMA:
        raise UsageError("PG estimates need a Poisson-gamma prior")
    return np.asarray(sample_gamma(data.counts + prior.a, data.populations + prior.b, rng))


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
    # when set, the generated scenarios are replaced by replicates of this
    # dataset's populations and (floored) crude rates
    ingested: CountDataset | None = None

    def __post_init__(self):
        if self.n_replicates < 2:
            raise DomainError("need at least two replicates for bands")


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


class _Case(NamedTuple):
    """What every replicate block of one scenario shares."""
    label: str
    truth: GroundTruth
    y_total: int
    groups: tuple  # the urban, rural, region A and B score groups
    state_index: np.ndarray  # per group
    counts: np.ndarray  # (replicate, group)
    # (replicate, budget, method): the prior strength every group shares
    strengths: np.ndarray
    # (replicate, budget, PG method, state): b = strength / target rate
    prior_b: np.ndarray
    # (replicate,): stream (scenario, replicate, 1), which draws all the
    # replicate's (budget, method) rows in that order, budget-major
    row_ids: np.ndarray


def _block_metrics(config: StudyConfig, cases: list[_Case],
                   block: tuple[int, int, int]) -> np.ndarray:
    """Metrics of replicates ``start .. stop - 1`` of one scenario, as a
    (4, 3 * n_budgets, stop - start) array: rows rMSE, urban rate, rural
    rate and region contrast, columns (budget, method) with the method
    varying fastest, one entry per replicate. Every replicate keeps its own
    streams, so a replicate's values do not depend on the block holding it."""
    scenario_idx, start, stop = block
    case = cases[scenario_idx]
    truth, y_total = case.truth, case.y_total
    pops = truth.populations
    # (replicate, budget, method) rows of posterior shapes, and the rates of
    # the two PG methods, methods in _METHODS order
    shapes = case.counts[start:stop, None, None] + case.strengths[start:stop, :, :, None]
    rates = pops + case.prior_b[start:stop].take(case.state_index, axis=-1)
    _check_gamma_args(shapes, rates)
    # each replicate's rows are filled with one-parameter gamma draws, in
    # one call on its stream: numpy's gamma(shape, scale) and the
    # Dirichlet's gamma(alphas) are scale * standard_gamma(shape), so the
    # scaling, the floor and the Dirichlet normalisation run on whole
    # arrays. One generator, re-keyed to each replicate's stream, draws
    # what that stream's own would, row after row in C order.
    lane_stream = RngStream(config.seed)
    gen = lane_stream.generator
    draws = np.empty_like(shapes)
    for stream_id, shape_slab, slab in zip(case.row_ids[start:stop].tolist(), shapes, draws):
        lane_stream.rekey(stream_id)
        gen.standard_gamma(shape_slab, out=slab)
    # the draws become the rate estimates in place
    weights = np.maximum(draws[:, :, 0], _FLOOR)
    draws[:, :, 0] = weights / weights.sum(axis=-1, keepdims=True) * y_total / pops
    gamma_rows = draws[:, :, 1:]
    gamma_rows *= 1.0 / rates
    np.maximum(gamma_rows, _FLOOR, out=gamma_rows)

    # scored by row reductions, each row as its own vector would be
    estimates = draws.reshape(-1, pops.size)
    urban, rural, region_a, region_b = (_weighted_mean(estimates, group)
                                        for group in case.groups)
    metrics = np.array([rmse(estimates, truth.rates), urban, rural, region_a / region_b])
    return metrics.reshape(4, stop - start, -1).transpose(0, 2, 1).copy()


def _draw_counts(config: StudyConfig, scenario_idx: int, truth: GroundTruth,
                 y_total: int) -> np.ndarray:
    """Every replicate's counts, replicate r drawn on stream (scenario, r, 0)
    through one generator re-keyed to each stream in turn."""
    probs = _checked_probs(_count_probs(truth.populations, truth.rates))
    stream = RngStream(config.seed)
    ids = stream.child_ids(scenario_idx, np.arange(config.n_replicates), 0)
    counts = np.empty((config.n_replicates, probs.size), dtype=np.int64)
    for stream_id, row in zip(ids.tolist(), counts):
        stream.rekey(stream_id)
        row[:] = stream.generator.multinomial(y_total, probs)
    return counts


def _scenario_case(config: StudyConfig, scenario_idx: int, label: str,
                   truth: GroundTruth, y_total: int) -> _Case:
    """Counts, calibrated priors and score groups of one scenario. Its PG
    priors come from one vectorised bracket over a lane per (replicate,
    budget) with the replicate's state targets, then a lane per budget with
    the national target, every lane checked as PgCalibration and PriorSpec
    would check it."""
    pops = truth.populations
    counts = _draw_counts(config, scenario_idx, truth, y_total)
    epsilons = _checked_budgets(config.epsilons)
    if y_total < 1:
        raise DomainError("calibration needs a positive event total")
    n_reps = config.n_replicates
    state_index = np.unique(np.asarray(truth.state_ids), return_inverse=True)[1]
    state_pops = np.bincount(state_index, weights=pops)
    # every row's state event totals in one bincount, row k's states offset
    # by k * n_states; sums of integers, so exact in any order, and equal to
    # state_target_rates' values
    n_states = state_pops.size
    bins = state_index + n_states * np.arange(n_reps)[:, None]
    totals = np.bincount(bins.ravel(), weights=counts.ravel(),
                         minlength=n_reps * n_states)
    state_rates = _floored_rates(totals.reshape(n_reps, n_states), state_pops)
    # lanes (replicate, budget), the budget varying fastest, then one
    # national lane per budget; national targets depend on the fixed total
    # and the populations only, so every replicate shares them
    lane_rates = np.concatenate([np.repeat(state_rates, len(epsilons), axis=0),
                                 np.full((len(epsilons), state_pops.size),
                                         y_total / float(pops.sum()))])
    a_min, nu, _ = _calibrate_lanes(epsilons * (n_reps + 1), pops, y_total,
                                    lane_rates, state_index)
    e_eps = np.tile([math.exp(eps) for eps in epsilons], n_reps + 1)
    _check_requirement(e_eps, y_total, a_min, nu)
    lane_b = (a_min[:, None] / lane_rates).reshape(n_reps + 1, len(epsilons), -1)
    _checked_positive(a_min, "a")
    _checked_positive(lane_b, "b")
    a_min = a_min.reshape(n_reps + 1, len(epsilons))
    # (replicate, budget, PG method, state), the national lanes' b repeated
    # for every replicate
    prior_b = np.stack([np.broadcast_to(lane_b[-1], lane_b[:-1].shape), lane_b[:-1]], axis=2)

    alphas = [calibrate_md(eps, y_total).alpha_min for eps in epsilons]
    for alpha in alphas:  # checked as the baseline's prior
        PriorSpec.multinomial_dirichlet(np.full(pops.size, alpha))
    strengths = np.empty((n_reps, len(epsilons), len(_METHODS)))
    strengths[:, :, 0] = alphas
    strengths[:, :, 1] = a_min[-1]
    strengths[:, :, 2] = a_min[:-1]
    # the regions come from two distinct states, so they are disjoint
    groups = tuple(_score_group(pops, idx) for idx in
                   (truth.urban, ~truth.urban, truth.region_a, truth.region_b))
    return _Case(label, truth, y_total, groups, state_index, counts, strengths, prior_b,
                 RngStream(config.seed).child_ids(scenario_idx, np.arange(n_reps), 1))


# cap on a block's replicates x budgets x groups, the size of each of its
# lane matrices: 64 kB of floats keeps the study's peak memory where the
# per-replicate study had it (8 MB blocks added 5 MB to a 56 MB process),
# at no cost in speed on the default study
_BLOCK_CELLS = 1 << 13


def _replicate_blocks(n_scenarios: int, n_replicates: int,
                      lane_cells: int) -> list[tuple[int, int, int]]:
    """(scenario, start, stop) blocks covering every replicate once, in
    order. Each scenario is split into the fewest balanced blocks that keep
    every block of more than one replicate within _BLOCK_CELLS;
    ``lane_cells`` is budgets x groups, one replicate's share."""
    max_size = max(1, _BLOCK_CELLS // lane_cells)
    per_scenario = -(-n_replicates // max_size)
    return [(s, n_replicates * i // per_scenario, n_replicates * (i + 1) // per_scenario)
            for s in range(n_scenarios) for i in range(per_scenario)]


def run_study(config: StudyConfig) -> list[StudyResult]:
    """Run every scenario and return one result row per
    (scenario, method, epsilon). Deterministic for a fixed config seed; the
    replicate blocks run one after another in this process."""
    if config.ingested is not None:
        truths = [("ingested", truth_from_dataset(config.ingested),
                   config.ingested.total)]
    else:
        truths = [(scenario.label, gen_truth(scenario), config.y_total)
                  for scenario in _scenario_objects(config)]

    cases = [_scenario_case(config, scenario_idx, label, truth, y_total)
             for scenario_idx, (label, truth, y_total) in enumerate(truths)]

    blocks = _replicate_blocks(len(cases), config.n_replicates,
                               len(config.epsilons) * cases[0].truth.populations.size)
    per_block = [_block_metrics(config, cases, block) for block in blocks]

    columns = [(eps, method) for eps in config.epsilons for method in _METHODS]
    results = []
    for scenario_idx, case in enumerate(cases):
        # (metric, column, replicate): every series is one contiguous row
        series = np.concatenate([metrics for (s, _, _), metrics in zip(blocks, per_block)
                                 if s == scenario_idx], axis=-1)
        means = series.mean(axis=-1)
        lo, hi = np.percentile(series[0], [2.5, 97.5], axis=-1)
        for col, (epsilon, method) in enumerate(columns):
            results.append(StudyResult(
                scenario=case.label,
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
