"""Multinomial-Dirichlet synthesizer.

The baseline mechanism: events are reallocated by a Dirichlet-smoothed
multinomial. It satisfies the epsilon guarantee exactly when every prior
weight alpha_i is at least z_total / (e^eps - 1), and the worst-case log
ratio ln((z_total + min alpha) / min alpha) is attained, so calibration is
closed form and tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    _allocation_terms,
    _checked_epsilon,
    _checked_positive,
    _log_gamma,
    sample_releases,
)
from .errors import DomainError, UsageError


@dataclass(frozen=True)
class MdCalibration:
    """Smallest per-group prior weight meeting a budget at a fixed total."""

    epsilon: float
    z_total: int
    alpha_min: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise DomainError("epsilon must be positive")
        if self.z_total < 1:
            raise DomainError("z_total must be a positive integer")
        expected = self.z_total / math.expm1(self.epsilon)
        if not math.isclose(self.alpha_min, expected, rel_tol=1e-12):
            raise DomainError("alpha_min inconsistent with epsilon and z_total")


def calibrate_md(epsilon: float, z_total: int) -> MdCalibration:
    """Solve the budget equation: alpha_min = z_total / (e^eps - 1)."""
    epsilon = _checked_epsilon(epsilon)
    z_total = int(z_total)
    if z_total < 1:
        raise DomainError("z_total must be a positive integer")
    return MdCalibration(epsilon=epsilon, z_total=z_total,
                         alpha_min=z_total / math.expm1(epsilon))


def md_implied_epsilon(alpha, z_total: int) -> float:
    """The budget certified by a given prior: ln(1 + z_total / min alpha)."""
    alpha = _checked_positive(alpha, "alpha")
    return math.log1p(int(z_total) / float(alpha.min()))


def _checked_triple(z, y, alpha):
    z = np.asarray(z, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    alpha = _checked_positive(alpha, "alpha")
    if (alpha.ndim != 1 or y.shape[-1:] != alpha.shape or y.ndim > 2
            or z.ndim not in (1, 2) or z.shape[-1:] != alpha.shape):
        raise UsageError("alpha must be a 1-d vector, and y and z each one "
                         "vector of its length or a stack of them")
    if np.any(z < 0) or np.any(y < 0):
        raise DomainError("counts must be non-negative")
    if np.any(z.sum(axis=-1)[..., None] != y.sum(axis=-1)):
        raise UsageError("z must have the same total as y")
    return z, y, alpha


def md_log_pmf(z, y, alpha) -> float | np.ndarray:
    """Log of the collapsed predictive: the probability of allocation ``z``
    after integrating the multinomial weights against their Dirichlet
    posterior given ``y``. A (k, I) batch of allocations gives k values, an
    (m, I) stack of datasets gives m, and both give an (m, k) table with a
    row per dataset. A prior at which the log normalizer is not a finite
    float (weights near either end of the float range) is refused."""
    z, y, alpha = _checked_triple(z, y, alpha)
    z_total = y.sum(axis=-1)
    ya = y + alpha
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        ya_total = ya.sum(axis=-1)
        const = (_log_gamma(z_total + 1) + _log_gamma(ya_total)
                 - _log_gamma(ya).sum(axis=-1) - _log_gamma(z_total + ya_total))
    if not np.isfinite(const).all():
        raise DomainError("the log normalizer is not finite at this prior")
    if z.ndim == 2:  # one column per allocation
        const, ya = const[..., None], ya[..., None, :]
    out = const + _allocation_terms(z, ya)
    return float(out) if out.ndim == 0 else out


def neighbor_indices(y, x) -> tuple:
    """Indices (decremented, incremented) for a valid neighbor pair, i.e.
    ``x`` equals ``y`` with one event moved between two groups; (P, I)
    stacks of pairs give two arrays of P indices."""
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if y.shape != x.shape or y.ndim not in (1, 2):
        raise UsageError("x and y must be 1-d vectors or (P, I) stacks of equal shape")
    if np.any(x < 0) or np.any(y < 0):
        raise UsageError("neighbor vectors must be non-negative")
    diff = x - y
    if np.any(diff.sum(axis=-1) != 0) or np.any(np.abs(diff).sum(axis=-1) != 2):
        raise UsageError("x must differ from y by moving exactly one event")
    return diff.argmin(axis=-1), diff.argmax(axis=-1)


# libm's log elementwise: numpy's vectorised log can round differently in the
# last bit, and a batch must reproduce its single-allocation ratios exactly
_libm_log = np.frompyfunc(math.log, 1, 1)


def md_log_ratio(z, y, x, alpha) -> float | np.ndarray:
    """Exact log ratio ln p(z|y) - ln p(z|x) for neighboring y, x; a (k, I)
    batch of allocations gives k ratios, and (P, I) stacks of pairs y, x
    give one column of them per pair.

    All gamma functions cancel down to four logarithms, which keeps the
    value exact to float rounding even when the pmfs themselves underflow.
    """
    z, y, alpha = _checked_triple(z, y, alpha)
    x = np.asarray(x, dtype=np.int64)
    dec, inc = neighbor_indices(y, x)
    # Arguments are built from the elementwise minimum of the pair and the
    # two partial sums are grouped, so swapping the roles of y and x
    # reproduces the identical four floats and negates the result bit-exactly.
    base = alpha + np.minimum(y, x)
    base_dec = np.take_along_axis(base, dec[..., None], -1)[..., 0]
    base_inc = np.take_along_axis(base, inc[..., None], -1)[..., 0]
    positive = _libm_log(base_inc) + _libm_log(np.take(z, dec, -1) + base_dec)
    negative = _libm_log(base_dec) + _libm_log(np.take(z, inc, -1) + base_inc)
    out = positive - negative
    return float(out) if z.ndim == y.ndim == 1 else out.astype(np.float64)


def md_releases(data: CountDataset, prior: PriorSpec, rng: RngStream,
                stream_ids=None) -> tuple[np.ndarray, Provenance]:
    """Synthetic releases as a count matrix, one row per stream id as
    ``core.sample_releases`` draws them (one row on ``rng`` without ids), and
    their provenance: weights from the Dirichlet posterior, then a
    multinomial allocation of the fixed total."""
    if prior.mode is not PriorModel.MULTINOMIAL_DIRICHLET:
        raise UsageError("md synthesis requires a multinomial-Dirichlet prior")
    if prior.alpha.size != data.n_groups:
        raise UsageError("prior length does not match the dataset")
    counts = sample_releases(data.counts + prior.alpha, 1.0, 1.0, data.total,
                             rng, stream_ids)
    provenance = Provenance(
        method=PriorModel.MULTINOMIAL_DIRICHLET.value,
        epsilon=md_implied_epsilon(prior.alpha, data.total),
        seed=rng.seed,
        strategy="dirichlet-multinomial",
    )
    return counts, provenance


def md_synthesize(data: CountDataset, prior: PriorSpec, rng: RngStream) -> SyntheticDataset:
    """Draw one synthetic dataset on ``rng`` from where it stands: weights
    from the Dirichlet posterior, then a multinomial allocation of the fixed
    total."""
    counts, provenance = md_releases(data, prior, rng)
    return SyntheticDataset(counts=counts[0], total=data.total, provenance=provenance)
