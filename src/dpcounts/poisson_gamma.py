"""Poisson-gamma synthesizer.

Counts are modeled as Poisson events with gamma-prior rates, then a synthetic
allocation is drawn conditional on the fixed public total. Heterogeneous
populations or smoothing targets make the mechanism leak more than the
multinomial-Dirichlet baseline, which shows up as a penalty factor nu in
[1, e^eps) multiplying the budget requirement:

    a_i >= z_total / (e^eps / nu_i - 1)

with nu_i driven by the structure ratio r comparing each group's prior mass
per capita against its complement. nu is exactly 1 when every ratio is at
least 1; otherwise it grows with z_total (1 - min r), and only e^eps bounds
it. Everything needed to calibrate, sample, and audit that statement lives
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    _allocation_terms,
    _allocations,
    _checked_epsilon,
    _checked_positive,
    _log_sum_exp,
    _row_streams,
    sample_releases,
)
from .errors import DomainError, InfeasibleBudgetError, UsageError

# Default floor for crude-rate smoothing targets, as a multiple of 1/population:
# keeps b = a / rate finite when a state observes zero events.
RATE_FLOOR_SCALE = 0.1


def structure_ratio(i: int, populations, b) -> float:
    """Ratio (b_c/n_c + 2) / (b_i/n_i + 2) of group i's complement against
    group i, where the complement aggregates every other group's population
    and prior mass. Equals 1 exactly when b/n is constant across groups."""
    n = _checked_positive(populations, "populations")
    b = _checked_positive(b, "b")
    if n.shape != b.shape or n.ndim != 1 or n.size < 2:
        raise UsageError("populations and b must be equal-length vectors, I >= 2")
    if not 0 <= i < n.size:
        raise UsageError("group index out of range")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused just below
        totals = n.sum(), b.sum()
        # each complement as its prefix sum plus its suffix sum, which never
        # cancels when one group dominates: at I = 2, it is the other group
        nb, pad = np.stack([n, b]), np.zeros((2, 1))
        n_c, b_c = (np.cumsum(np.hstack([pad, nb[:, :-1]]), axis=1)
                    + np.cumsum(np.hstack([pad, nb[:, :0:-1]]), axis=1)[:, ::-1])
        ratios = (b_c / n_c + 2.0) / (b / n + 2.0)
    # an overflowing total can leave every ratio finite, and an overflowing
    # b / n makes its own ratio 0
    if not all(map(math.isfinite, totals)):
        raise DomainError("populations and b must have a finite sum")
    return float(_checked_positive(ratios, "structure ratios")[i])


def _structure_ratios(n: np.ndarray, n_c: np.ndarray, b: np.ndarray,
                      b_total=None) -> np.ndarray:
    # b is one prior-mass vector, or a matrix with one row per lane; b_total,
    # the prior-mass total, defaults to the sum of b's last axis
    if b_total is None:
        b_total = b.sum(axis=-1, keepdims=True)
    b_c = b_total - b
    return (b_c / n_c + 2.0) / (b / n + 2.0)


def _normalized_pair_terms(y, a, log_r1: float,
                           z_total: int) -> tuple[np.ndarray, np.ndarray]:
    """(log pmf of the group-1 allocation over 0..z_total, log normalizer):
    the shared allocation terms plus z1 ln r1, and one log-sum-exp; a (k, 2)
    stack of datasets gives k rows and k normalizers. Strengths at which a
    log normalizer is not a finite float (near either end of the float
    range) are refused."""
    z = _allocations(z_total)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        terms = _allocation_terms(z, (y + a)[..., None, :]) + z[:, 0] * log_r1
        log_c = _log_sum_exp(terms)
    if not np.isfinite(log_c).all():
        raise DomainError("the log normalizers are not finite at these prior strengths")
    return terms - log_c[..., None], log_c


def log_normalizer_from_ratio(y, a, r1: float, z_total: int) -> float:
    """Log of the constrained-total normalizer written in terms of the
    group-1 structure ratio; stable log-sum-exp over z_total + 1 terms."""
    if r1 <= 0:
        raise DomainError("structure ratio must be positive")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return float(_normalized_pair_terms(y, a, math.log(r1), int(z_total))[1])


def conditional_log_pmf_all(y, a, b, n, z_total: int) -> np.ndarray:
    """Log pmf of the group-1 allocation over 0..z_total, conditioned on the
    pair summing to z_total."""
    y = np.asarray(y, dtype=np.int64)
    a = _checked_positive(a, "a")  # b and n are checked by structure_ratio
    for name, arr in (("y", y), ("a", a), ("b", b), ("n", n)):
        if np.shape(arr) != (2,):
            raise UsageError(f"{name} must be a length-2 vector")
    if np.any(y < 0):
        raise DomainError("counts must be non-negative")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    return _normalized_pair_terms(y, a, math.log(structure_ratio(0, n, b)),
                                  int(z_total))[0]


def normalizer_ratio_bound(y, a, r_i: float, z_total: int) -> float:
    """Upper bound on |ln C(x)/C(y)| between neighboring pairs, valid when
    the first group has strictly smaller a + y; callers order the pair.

        | ln[ (z_total * max(1 - r_i, 0) + a_2 + y_2) / (a_1 + y_1 - 1) ] |
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if y.shape != (2,) or a.shape != (2,):
        raise UsageError("y and a must be length-2 vectors")
    small = a[0] + y[0]
    large = a[1] + y[1]
    if not small < large:
        raise UsageError("bound requires a1 + y1 < a2 + y2; order the pair")
    if not small > 1:
        raise DomainError("bound requires a1 + y1 > 1")
    return abs(math.log((z_total * max(1.0 - r_i, 0.0) + large) / (small - 1.0)))


def _penalties(a_comp, y_total: int, z_total: int, r):
    denom = a_comp + y_total - 1.0
    if not np.greater(denom, 0.0).all():
        raise DomainError("a_complement + y_total - 1 must be positive")
    return (z_total * np.maximum(1.0 - r, 0.0) + denom) / denom


class TargetRule(str, Enum):
    DEFAULT_NATIONAL = "national"
    STATE_AVERAGE = "state"
    CUSTOM = "custom"


@dataclass(frozen=True)
class PgCalibration:
    """A Poisson-gamma prior calibrated to a budget: the smallest prior
    strength a_min shared by every group, with the penalties nu and structure
    ratios r it implies. ``iterations`` counts the evaluations of the
    certified budget the solve made; ``converged`` is True on every
    calibration that :func:`calibrate_pg_budgets` returns."""

    epsilon: float
    z_total: int
    y_total: int
    a_min: np.ndarray
    nu: np.ndarray
    r: np.ndarray
    iterations: int
    converged: bool
    target_rates: np.ndarray

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        _check_requirement(math.exp(self.epsilon), self.z_total,
                           np.asarray(self.a_min), np.asarray(self.nu, dtype=np.float64))

    @property
    def b_min(self) -> np.ndarray:
        return self.a_min / self.target_rates

    def prior(self) -> PriorSpec:
        return PriorSpec.poisson_gamma(a=self.a_min, target_rates=self.target_rates)


def _check_requirement(e_eps, z_total: int, a_min: np.ndarray, nu: np.ndarray) -> None:
    """PgCalibration's budget checks: every penalty lies in [1, e^eps) and
    every strength meets z_total / (e^eps / nu - 1). For a (k, I) stack of
    lanes, e_eps is a (k, 1) column of each lane's e^eps."""
    if (nu < 1.0 - 1e-12).any() or (nu >= e_eps).any():
        raise DomainError("penalty must lie in [1, e^eps)")
    required = z_total / (e_eps / nu - 1.0)
    if (a_min < required * (1.0 - 1e-9)).any():
        raise DomainError("a_min fails the budget requirement")


def _group_states(data: CountDataset):
    """Per-group state index, per-state event and population totals, and
    the states in order of first appearance."""
    if data.state_ids is None:
        raise UsageError("dataset has no state labels")
    _, first, index = np.unique(np.asarray(data.state_ids), return_index=True,
                                return_inverse=True)
    counts = np.bincount(index, weights=data.counts)
    pops = np.bincount(index, weights=data.populations)
    return index, counts, pops, np.argsort(first)


def _floored_rates(event_totals, pops) -> np.ndarray:
    """Crude rates event_totals / pops, floored at RATE_FLOOR_SCALE / pops;
    a (k, S) matrix of event totals gives one row per count vector."""
    return np.maximum(event_totals / pops, RATE_FLOOR_SCALE / pops)


def state_target_rates(data: CountDataset) -> np.ndarray:
    """Crude event rate of each group's state, floored away from zero."""
    index, counts, pops, _ = _group_states(data)
    return _floored_rates(counts, pops)[index]


def sanitize_state_rates(data: CountDataset, noise_epsilon: float,
                         rng: RngStream) -> np.ndarray:
    """State crude rates with additive noise on each state's event total.

    Noise is Laplace with scale 1/noise_epsilon, drawn independently per
    state in first-appearance order; the result is floored so downstream
    b = a / rate stays finite. The composed budget of releasing these targets
    is left to the caller.
    """
    if not noise_epsilon > 0:
        raise DomainError("noise_epsilon must be positive")
    index, counts, pops, order = _group_states(data)
    noise = np.empty_like(counts)
    noise[order] = rng.generator.laplace(0.0, 1.0 / noise_epsilon, size=order.size)
    return _floored_rates(counts + noise, pops)[index]


def _resolve_targets(data: CountDataset, target_rates, rule: TargetRule) -> np.ndarray:
    if rule is TargetRule.CUSTOM:
        if target_rates is None:
            raise UsageError("custom rule requires target_rates")
        rates = _checked_positive(target_rates, "target_rates")
        if rates.shape != (data.n_groups,):
            raise UsageError("target_rates length must match the dataset")
        # b = a / rate: at a rate below 1 / the largest float (a subnormal
        # one) b is not a finite float even at a = 1
        with np.errstate(over="ignore"):
            if not np.isfinite(1.0 / rates).all():
                raise DomainError("target_rates must be at least 1 / the largest float, "
                                  "where b = a / rate stays finite")
        return rates
    if rule is TargetRule.STATE_AVERAGE:
        return state_target_rates(data) if target_rates is None else _resolve_targets(
            data, target_rates, TargetRule.CUSTOM)
    if data.total < 1:
        raise DomainError("national target rate needs a positive event total")
    national = data.total / float(data.populations.sum())
    return np.full(data.n_groups, national)


def calibrate_pg(epsilon: float, data: CountDataset, target_rates=None,
                 rule: TargetRule = TargetRule.DEFAULT_NATIONAL) -> PgCalibration:
    """The smallest prior strength, shared by every group, that meets the
    budget: the one-budget case of :func:`calibrate_pg_budgets`."""
    return calibrate_pg_budgets((epsilon,), data, target_rates, rule)[0]


def calibrate_pg_budgets(epsilons, data: CountDataset, target_rates=None,
                         rule: TargetRule = TargetRule.DEFAULT_NATIONAL
                         ) -> tuple[PgCalibration, ...]:
    """One calibration per budget in ``epsilons``, in order.

    With one strength a for every group (b = a / target), the budget
    requirement a >= z_total / (e^eps / nu - 1) reads
    pg_implied_epsilon(n, a, a / target) <= eps, and the certified budget
    falls strictly as a grows. So each calibration is one monotone scalar
    equation. Its penalty-free root z_total / (e^eps - 1) bounds it from
    below (nu >= 1); the bracket is doubled from there until feasible, then
    narrowed by Illinois regula falsi to a relative width of 1e-12. The
    feasible end of the bracket is returned, so the certified budget never
    exceeds eps. Raises InfeasibleBudgetError if no finite strength meets a
    budget.

    The budgets are the lanes of one vectorised bracket (``_calibrate_lanes``),
    all sharing this dataset's targets, passed factored as their distinct
    values and each group's index into them; the simulation study calls the
    same solver with one lane per (replicate, budget) and per-state targets
    that differ per lane. A lane's steps and iteration count depend on its
    own budget and targets only. The per-group a_min, nu and r vectors are
    built here from each lane's strength and penalty.
    """
    epsilons = _checked_budgets(epsilons)
    if data.total < 1:
        raise DomainError("calibration needs a positive event total")
    lam0 = _resolve_targets(data, target_rates, rule)
    total, n = data.total, data.populations
    rates, index = np.unique(lam0, return_inverse=True)
    # a strength whose b = a / rate overflows certifies a NaN budget, which
    # the bracket takes as not met
    with np.errstate(over="ignore", invalid="ignore"):
        roots, nu, evaluations = _calibrate_lanes(
            epsilons, n, total, np.broadcast_to(rates, (len(epsilons), rates.size)), index)
    a_min = np.repeat(roots[:, None], n.size, axis=1)
    r = _structure_ratios(n, n.sum() - n, a_min / lam0)
    return tuple(
        PgCalibration(
            epsilon=eps,
            z_total=total,
            y_total=total,
            a_min=a_min[k],
            nu=np.full(n.size, nu[k]),
            r=r[k],
            iterations=evaluations[k],
            converged=True,
            target_rates=lam0,
        )
        for k, eps in enumerate(epsilons))


def _checked_budgets(epsilons) -> list[float]:
    """The budgets as floats, each checked as _checked_epsilon checks it and
    refused where e^eps rounds to 1, which no finite strength meets."""
    epsilons = [_checked_epsilon(eps) for eps in epsilons]
    if not epsilons:
        raise UsageError("need at least one epsilon")
    for eps in epsilons:
        if math.exp(eps) == 1.0:
            raise InfeasibleBudgetError(f"no finite prior strength meets budget "
                                        f"epsilon={eps}: e^epsilon rounds to 1")
    return epsilons


def _calibrate_lanes(epsilons, n: np.ndarray, total: int, rates: np.ndarray,
                     index: np.ndarray):
    """The vectorised bracket behind calibrate_pg_budgets. Lane k calibrates
    budget ``epsilons[k]`` against factored targets: group i's target is
    ``rates[k, index[i]]``, for a (k, S) matrix ``rates`` of class rates and
    a class index per group in which every class 0 .. S - 1 occurs. The
    populations n and the total are shared. Inputs are taken as checked.
    Returns each lane's strength a_min and penalty nu as (k,) vectors, and
    its number of certified-budget evaluations as a list of ints.

    The brackets are (k,) arrays moved by whole-array steps, each lane
    taking the float steps of its own scalar solve. Each round evaluates the
    pending strengths in one ``_lane_penalties`` call, equal bit for bit to
    pg_implied_epsilon's values, whatever the other lanes hold.
    """
    n_c = n.sum() - n
    first = _smallest_groups(n, index)
    eps = np.array(epsilons)
    # one (lanes, groups) scratch matrix for every round: a fresh one per
    # round would cost about as much again in page faults as the arithmetic
    work = np.empty((eps.size, n.size))

    def excess(a, lanes):  # each lane's certified budget at a, minus its budget
        nu = _lane_penalties(n, n_c, index, first, a, rates[lanes], total, work)
        return _budget_of_penalty(nu, a, total) - eps[lanes]

    live = np.arange(eps.size)
    # math.expm1 lane by lane: np.expm1 rounds some budgets differently
    hi = np.array([total / math.expm1(e) for e in epsilons])
    g_hi = excess(hi, live)
    lo, g_lo = hi.copy(), g_hi.copy()
    evaluations = np.ones(eps.size, dtype=np.int64)
    # double each lane from its penalty-free root until its budget is met
    grow = live[~(g_hi <= 0)]  # a NaN is not met
    while grow.size:
        overflows = np.greater(hi[grow], np.finfo(float).max / 2)  # 2 * hi is inf
        if overflows.any():
            raise InfeasibleBudgetError("no finite prior strength meets budget "
                                        f"epsilon={epsilons[grow[overflows.argmax()]]}")
        lo[grow], g_lo[grow] = hi[grow], g_hi[grow]
        hi[grow] *= 2.0
        g_hi[grow] = excess(hi[grow], grow)
        evaluations[grow] += 1
        grow = grow[~(g_hi[grow] <= 0)]

    # then Illinois regula falsi until each bracket closes: where the same
    # end moves twice in a row, the value kept at the other end is halved
    # (both ends' are, and the moved end's is then replaced). Only open lanes
    # are held; a closed lane's root, its feasible end, moves out once.
    roots = np.empty(eps.size)
    lo_moved, rounds = np.full(eps.size, np.nan), 0  # NaN: no end has moved yet
    while True:
        open_ = np.less(g_hi, 0.0) & (hi - lo > 1e-12 * hi)
        if np.count_nonzero(open_) < live.size:
            roots[live[~open_]] = hi[~open_]
            evaluations[live[~open_]] += rounds
            live, lo, hi, g_lo, g_hi, lo_moved = (
                x[open_] for x in (live, lo, hi, g_lo, g_hi, lo_moved))
            if not live.size:
                break
        a = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        g = excess(a, live)
        moves_lo = np.greater(g, 0.0)
        same = moves_lo == lo_moved
        for end, g_end, moves in ((lo, g_lo, moves_lo), (hi, g_hi, ~moves_lo)):
            np.multiply(g_end, 0.5, out=g_end, where=same)
            np.copyto(end, a, where=moves)
            np.copyto(g_end, g, where=moves)
        lo_moved, rounds = moves_lo, rounds + 1
    return (roots, _lane_penalties(n, n_c, index, first, roots, rates, total, work),
            evaluations.tolist())


def _smallest_groups(n: np.ndarray, index: np.ndarray) -> np.ndarray:
    """A smallest-population group of each class 0 .. S - 1 of ``index``,
    where the class's structure ratio is smallest (see _lane_penalties).
    Groups that tie give the same ratio, so any of them will do."""
    smallest = np.full(index.max() + 1, np.inf)
    np.minimum.at(smallest, index, n)
    candidates = np.flatnonzero(n == smallest[index])
    first = np.empty(smallest.size, dtype=np.intp)
    first[index[candidates]] = candidates
    return first


def _lane_penalties(n, n_c, index, first, a, rates, total: int, work) -> np.ndarray:
    """Penalty nu of each lane k when every group holds strength a[k] and
    group i's target is rates[k, index[i]]; ``first`` holds each class's
    smallest-population group (_smallest_groups), n_c the complement
    populations, and ``work`` scratch space of at least (lanes, groups),
    which this overwrites. The budget a lane certifies is ln[nu (total + a) / a]
    (_budget_of_penalty).

    The complement strength is the row sum of I copies of a, and the prior
    mass total B the row sum of every group's a / target, gathered with
    ``take`` so that each row is contiguous and sums pairwise as the same
    values in a vector do (``b[:, index]`` would come out column-major and
    sum in another order). The structure ratios are formed only at the
    ``first`` groups. Within a class b = a / rate is one value, the
    complement's prior mass b_c = B - b is non-negative (a rounded sum of
    positive terms is at least each of them), and n_c = N - n falls as n
    rises; every step of (b_c / n_c + 2) / (b / n + 2) is a correctly
    rounded monotone operation, so the computed ratio is weakly increasing
    in n and the class minimum sits at its smallest group. The row minimum
    over these groups is thus the minimum over all groups, bit for bit.
    """
    work = work[:a.size]
    work[:] = a[:, None]
    a_comp = work.sum(axis=1) - a
    b = a[:, None] / rates
    r = _structure_ratios(n[first], n_c[first], b,
                          b.take(index, axis=1, out=work).sum(axis=1, keepdims=True))
    return _penalties(a_comp, total, total, r.min(axis=1))


def integer_prior_strength(calibration: PgCalibration, populations) -> np.ndarray:
    """Round the calibrated strengths up to integers and verify the budget
    once at the rounded point. Raising a common strength only lowers the
    certified budget, so the check fails only for a hand-built calibration;
    it then raises InfeasibleBudgetError."""
    a = np.maximum(np.ceil(calibration.a_min), 1.0)
    implied = pg_implied_epsilon(populations, a, a / calibration.target_rates,
                                 calibration.y_total, calibration.z_total)
    if implied > calibration.epsilon:
        raise InfeasibleBudgetError(
            f"integer strengths certify epsilon={implied:.6g} > {calibration.epsilon}")
    return a.astype(np.int64)


def pg_implied_epsilon(populations, a, b, y_total: int, z_total: int) -> float:
    """The budget certified by a given Poisson-gamma prior: the largest
    per-group value of ln[nu_i (z_total + a_i) / a_i], with the conservative
    min-over-groups structure ratio inside each penalty. The calibration
    solve (calibrate_pg_budgets) evaluates the same value at class level,
    bit for bit, through the same ratio and penalty steps."""
    n = np.asarray(populations, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_certified_epsilon(n, n.sum() - n, a, a.sum() - a, b,
                                    int(y_total), int(z_total)).max())


def _certified_epsilon(n, n_c, a, a_comp, b, y_total: int, z_total: int) -> np.ndarray:
    """Certified-budget kernel: ln[nu (z_total + a) / a] for every group,
    given complement populations n_c and complement strengths a_comp; the
    budget is their maximum."""
    r = _structure_ratios(n, n_c, b)
    nu = _penalties(a_comp, y_total, z_total, r.min(axis=-1))
    return _budget_of_penalty(nu, a, z_total)


def _budget_of_penalty(nu, a, z_total: int):
    """The budget ln[nu (z_total + a) / a] that penalty nu and strength a
    certify."""
    return np.log(nu * (z_total + a) / a)


def sample_pair_allocation(log_pmf: np.ndarray, rng: RngStream, size=None):
    """Inverse-CDF draw of the group-1 allocation from a log pmf over
    0..z_total. This is the sampling kernel of the two-group release route;
    ``size`` draws share one stream."""
    pmf = np.exp(np.asarray(log_pmf, dtype=np.float64))
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.generator.random(size)
    z1 = np.searchsorted(cdf, u, side="right")
    z1 = np.minimum(z1, pmf.size - 1)
    if size is None:
        return int(z1)
    return z1.astype(np.int64)


def pg_releases(data: CountDataset, prior: PriorSpec, rng: RngStream,
                stream_ids=None) -> tuple[np.ndarray, Provenance]:
    """Synthetic releases with the fixed public total as a count matrix, one
    row per stream id (one row on ``rng`` from where it stands without ids),
    and their provenance.

    Two groups draw the allocation from its exact conditional pmf by inverse
    CDF ("exact-enumeration-2"), the law the two-group certificate and audits
    analyse. More draw posterior rates, then allocate the total by one
    multinomial over rate-weighted populations ("lambda-then-multinomial"),
    through ``core.sample_releases``. The pmf and the certified budget are
    computed once, whatever the number of rows.
    """
    if prior.mode is not PriorModel.POISSON_GAMMA:
        raise UsageError("pg synthesis requires a Poisson-gamma prior")
    if prior.a.size != data.n_groups:
        raise UsageError("prior length does not match the dataset")
    if data.n_groups == 2:
        strategy = "exact-enumeration-2"
        log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                          data.populations, data.total)
        z1 = np.array([sample_pair_allocation(log_pmf, stream)
                       for stream in _row_streams(rng, stream_ids)], dtype=np.int64)
        counts = np.stack([z1, data.total - z1], axis=1)
    else:
        strategy = "lambda-then-multinomial"
        counts = sample_releases(data.counts + prior.a, 1.0 / (data.populations + prior.b),
                                 data.populations, data.total, rng, stream_ids)
    provenance = Provenance(
        method=PriorModel.POISSON_GAMMA.value,
        epsilon=pg_implied_epsilon(data.populations, prior.a, prior.b,
                                   data.total, data.total),
        seed=rng.seed,
        strategy=strategy,
    )
    return counts, provenance


def pg_synthesize(data: CountDataset, prior: PriorSpec, rng: RngStream) -> SyntheticDataset:
    """Draw one synthetic dataset with the fixed public total, on ``rng``
    from where it stands, by the route ``pg_releases`` takes for its number
    of groups."""
    counts, provenance = pg_releases(data, prior, rng)
    return SyntheticDataset(counts=counts[0], total=data.total, provenance=provenance)
