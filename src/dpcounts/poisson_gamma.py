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
from scipy.special import gammaln, logsumexp

from .core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    sample_gamma,
    sample_multinomial,
)
from .errors import DomainError, InfeasibleBudgetError, UsageError

# Default floor for crude-rate smoothing targets, as a multiple of 1/population:
# keeps b = a / rate finite when a state observes zero events.
RATE_FLOOR_SCALE = 0.1


def structure_ratio(i: int, populations, b) -> float:
    """Ratio (b_c/n_c + 2) / (b_i/n_i + 2) of group i's complement against
    group i, where the complement aggregates every other group's population
    and prior mass. Equals 1 exactly when b/n is constant across groups."""
    n = np.asarray(populations, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if n.shape != b.shape or n.ndim != 1 or n.size < 2:
        raise UsageError("populations and b must be equal-length vectors, I >= 2")
    if np.any(n <= 0) or np.any(b <= 0):
        raise DomainError("populations and b must be positive")
    if not 0 <= i < n.size:
        raise UsageError("group index out of range")
    return float(_structure_ratios(n, n.sum() - n, b)[i])


def _structure_ratios(n: np.ndarray, n_c: np.ndarray, b: np.ndarray) -> np.ndarray:
    # b is one prior-mass vector, or a (k, I) matrix with one row per lane
    b_c = b.sum(axis=-1, keepdims=True) - b
    return (b_c / n_c + 2.0) / (b / n + 2.0)


def _pair_terms(y, a, log_r1: float, z_total: int) -> np.ndarray:
    z = np.arange(z_total + 1, dtype=np.float64)
    c1 = y[0] + a[0]
    c2 = y[1] + a[1]
    return (
        gammaln(z + c1)
        - gammaln(z + 1.0)
        + gammaln(z_total - z + c2)
        - gammaln(z_total - z + 1.0)
        + z * log_r1
    )


def _normalized_pair_terms(y, a, log_r1: float,
                           z_total: int) -> tuple[np.ndarray, float]:
    """(log pmf of the group-1 allocation over 0..z_total, log normalizer)
    from one set of terms and one log-sum-exp."""
    terms = _pair_terms(y, a, log_r1, z_total)
    log_c = logsumexp(terms)
    return terms - log_c, float(log_c)


def _checked_pair(y, a, b, n):
    y = np.asarray(y, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    for name, arr in (("y", y), ("a", a), ("b", b), ("n", n)):
        if arr.shape != (2,):
            raise UsageError(f"{name} must be a length-2 vector")
    if np.any(y < 0):
        raise DomainError("counts must be non-negative")
    if np.any(a <= 0) or np.any(b <= 0) or np.any(n <= 0):
        raise DomainError("a, b, n must be positive")
    return y, a, b, n


def log_normalizer_from_ratio(y, a, r1: float, z_total: int) -> float:
    """Log of the constrained-total normalizer written in terms of the
    group-1 structure ratio; stable log-sum-exp over z_total + 1 terms."""
    if r1 <= 0:
        raise DomainError("structure ratio must be positive")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return float(logsumexp(_pair_terms(y, a, math.log(r1), int(z_total))))


def conditional_log_pmf_all(y, a, b, n, z_total: int) -> np.ndarray:
    """Log pmf of the group-1 allocation over 0..z_total, conditioned on the
    pair summing to z_total."""
    y, a, b, n = _checked_pair(y, a, b, n)
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
        e_eps = math.exp(self.epsilon)
        nu = np.asarray(self.nu, dtype=np.float64)
        if (nu < 1.0 - 1e-12).any() or (nu >= e_eps).any():
            raise DomainError("penalty must lie in [1, e^eps)")
        required = self.z_total / (e_eps / nu - 1.0)
        if (np.asarray(self.a_min) < required * (1.0 - 1e-9)).any():
            raise DomainError("a_min fails the budget requirement")

    @property
    def b_min(self) -> np.ndarray:
        return self.a_min / self.target_rates

    def prior(self) -> PriorSpec:
        return PriorSpec.poisson_gamma(a=self.a_min, target_rates=self.target_rates)


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


def state_target_rates(data: CountDataset) -> np.ndarray:
    """Crude event rate of each group's state, floored away from zero."""
    index, counts, pops, _ = _group_states(data)
    return np.maximum(counts / pops, RATE_FLOOR_SCALE / pops)[index]


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
    return np.maximum((counts + noise) / pops, RATE_FLOOR_SCALE / pops)[index]


def _resolve_targets(data: CountDataset, target_rates, rule: TargetRule) -> np.ndarray:
    if rule is TargetRule.CUSTOM:
        if target_rates is None:
            raise UsageError("custom rule requires target_rates")
        rates = np.asarray(target_rates, dtype=np.float64)
        if rates.shape != (data.n_groups,):
            raise UsageError("target_rates length must match the dataset")
        if (rates <= 0).any():
            raise DomainError("target_rates must be positive")
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
    """One calibration per budget in ``epsilons``, in order, solved in lockstep.

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

    Each budget runs its own solve, so its bracket, steps and iteration
    count do not depend on the other budgets. Each round gathers the
    pending strength of every unfinished solve and evaluates them all in
    one call of the certified-budget kernel, one row per budget. That
    kernel is pg_implied_epsilon's; its complement is summed over I equal
    strengths, so each value equals pg_implied_epsilon(n, a * ones,
    a * ones / target) bit for bit.
    """
    epsilons = [float(eps) for eps in epsilons]
    if not epsilons:
        raise UsageError("need at least one epsilon")
    for eps in epsilons:
        if not eps > 0:
            raise DomainError("epsilon must be positive")
        if not math.isfinite(eps):
            raise DomainError("epsilon must be finite")
    if data.total < 1:
        raise DomainError("calibration needs a positive event total")
    lam0 = _resolve_targets(data, target_rates, rule)
    n = data.populations
    n_c = n.sum() - n
    total = data.total

    solves = [_illinois(eps, total) for eps in epsilons]
    pending = [solve.send(None) for solve in solves]
    evaluations = [0] * len(solves)
    roots = [0.0] * len(solves)
    live = list(range(len(solves)))
    while live:
        a = np.array([pending[k] for k in live])
        strengths = np.empty((a.size, n.size))
        strengths[:] = a[:, None]
        a_comp = strengths.sum(axis=1) - a
        certified = _certified_epsilon(n, n_c, a, a_comp, strengths / lam0, total, total)
        still_live = []
        for k, value in zip(live, certified.tolist()):
            evaluations[k] += 1
            try:
                pending[k] = solves[k].send(value - epsilons[k])
                still_live.append(k)
            except StopIteration as done:
                roots[k] = done.value
        live = still_live

    a_min = np.empty((len(roots), n.size))
    a_min[:] = np.array(roots)[:, None]
    r = _structure_ratios(n, n_c, a_min / lam0)
    nu = _penalties(a_min.sum(axis=1, keepdims=True) - a_min, total, total,
                    r.min(axis=1, keepdims=True))
    return tuple(
        PgCalibration(
            epsilon=eps,
            z_total=total,
            y_total=total,
            a_min=a_min[k],
            nu=nu[k],
            r=r[k],
            iterations=evaluations[k],
            converged=True,
            target_rates=lam0,
        )
        for k, eps in enumerate(epsilons))


def _illinois(epsilon: float, total: int):
    """The scalar solve of one budget, as a generator: it yields each
    strength to evaluate, is sent that strength's certified budget minus
    epsilon, and returns the feasible end of its final bracket."""
    lo = hi = total / math.expm1(epsilon)
    g_lo = g_hi = yield hi
    while not g_hi <= 0:
        lo, g_lo = hi, g_hi
        hi = 2.0 * hi
        if not math.isfinite(hi):
            raise InfeasibleBudgetError(
                f"no finite prior strength meets budget epsilon={epsilon}")
        g_hi = yield hi

    # Illinois regula falsi: when the same end moves twice in a row, halve the
    # value kept at the other end so that the secant pulls it in too
    last_moved = 0  # -1: lo moved last, 1: hi moved last
    while g_hi < 0 and hi - lo > 1e-12 * hi:
        a = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        g = yield a
        if g > 0:
            lo, g_lo = a, g
            if last_moved < 0:
                g_hi *= 0.5
            last_moved = -1
        else:
            hi, g_hi = a, g
            if last_moved > 0:
                g_lo *= 0.5
            last_moved = 1
    return hi


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
    min-over-groups structure ratio inside each penalty. It shares its
    kernel with the calibration solve (calibrate_pg_budgets)."""
    n = np.asarray(populations, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(_certified_epsilon(n, n.sum() - n, a, a.sum() - a, b,
                                    int(y_total), int(z_total)).max())


def _certified_epsilon(n, n_c, a, a_comp, b, y_total: int, z_total: int) -> np.ndarray:
    """Certified-budget kernel: ln[nu (z_total + a) / a] for every group,
    given complement populations n_c and complement strengths a_comp; the
    budget is their maximum. Batch form: b is a (k, I) matrix with one row
    per lane, and a and a_comp hold each lane's strength shared by all its
    groups, so every group of a lane has the same value and the result is
    one certified budget per lane."""
    r = _structure_ratios(n, n_c, b)
    nu = _penalties(a_comp, y_total, z_total, r.min(axis=-1))
    return np.log(nu * (z_total + a) / a)


class SynthesisStrategy(str, Enum):
    EXACT_PAIR = "exact-enumeration-2"
    LAMBDA_MULTINOMIAL = "lambda-then-multinomial"


def sample_pair_allocation(log_pmf: np.ndarray, rng: RngStream, size=None):
    """Inverse-CDF draw of the group-1 allocation from a log pmf over
    0..z_total. This is the sampling kernel of the exact-enumeration
    synthesis path; ``size`` draws share one stream."""
    pmf = np.exp(np.asarray(log_pmf, dtype=np.float64))
    cdf = np.cumsum(pmf / pmf.sum())
    u = rng.generator.random(size)
    z1 = np.searchsorted(cdf, u, side="right")
    z1 = np.minimum(z1, pmf.size - 1)
    if size is None:
        return int(z1)
    return z1.astype(np.int64)


def pg_synthesize(data: CountDataset, prior: PriorSpec,
                  strategy: SynthesisStrategy, rng: RngStream) -> SyntheticDataset:
    """Draw one synthetic dataset with the fixed public total.

    EXACT_PAIR samples the two-group allocation from its exact conditional
    pmf by inverse CDF (audit path, I = 2 only). LAMBDA_MULTINOMIAL draws
    posterior rates then allocates the total by a multinomial with
    rate-weighted populations (production path, any I).
    """
    if prior.mode is not PriorModel.POISSON_GAMMA:
        raise UsageError("pg_synthesize requires a Poisson-gamma prior")
    if prior.a.size != data.n_groups:
        raise UsageError("prior length does not match the dataset")
    strategy = SynthesisStrategy(strategy)
    if strategy is SynthesisStrategy.EXACT_PAIR:
        if data.n_groups != 2:
            raise UsageError("exact enumeration synthesis requires exactly 2 groups")
        log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                          data.populations, data.total)
        z1 = sample_pair_allocation(log_pmf, rng)
        counts = np.array([z1, data.total - z1], dtype=np.int64)
    else:
        lam = sample_gamma(data.counts + prior.a, data.populations + prior.b, rng)
        weights = data.populations * np.asarray(lam)
        counts = sample_multinomial(data.total, weights / weights.sum(), rng)
    provenance = Provenance(
        method=PriorModel.POISSON_GAMMA.value,
        epsilon=pg_implied_epsilon(data.populations, prior.a, prior.b,
                                   data.total, data.total),
        seed=rng.seed,
        strategy=strategy.value,
    )
    return SyntheticDataset(counts=counts, total=data.total, provenance=provenance)

