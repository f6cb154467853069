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
from scipy.special import gammaln

from .core import (
    CountDataset,
    PriorModel,
    PriorSpec,
    Provenance,
    RngStream,
    SyntheticDataset,
    sample_dirichlet,
    sample_multinomial,
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
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise DomainError("epsilon must be finite")
    z_total = int(z_total)
    if z_total < 1:
        raise DomainError("z_total must be a positive integer")
    return MdCalibration(epsilon=float(epsilon), z_total=z_total,
                         alpha_min=z_total / math.expm1(epsilon))


def md_implied_epsilon(alpha, z_total: int) -> float:
    """The budget certified by a given prior: ln(1 + z_total / min alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise DomainError("alpha must be positive")
    return math.log1p(int(z_total) / float(alpha.min()))


def _checked_triple(z, y, alpha):
    z = np.asarray(z, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if (y.shape != alpha.shape or y.ndim != 1 or z.ndim not in (1, 2)
            or z.shape[-1] != y.size):
        raise UsageError("y, alpha must be 1-d vectors of equal length and z "
                         "one such vector or a (k, I) batch of them")
    if np.any(z < 0) or np.any(y < 0):
        raise DomainError("counts must be non-negative")
    if np.any(alpha <= 0):
        raise DomainError("alpha must be positive")
    if np.any(z.sum(axis=-1) != y.sum()):
        raise UsageError("z must have the same total as y")
    return z, y, alpha


def md_log_pmf(z, y, alpha) -> float | np.ndarray:
    """Log of the collapsed predictive: the probability of allocation ``z``
    after integrating the multinomial weights against their Dirichlet
    posterior given ``y``. A (k, I) batch of allocations gives k values."""
    z, y, alpha = _checked_triple(z, y, alpha)
    z_total = int(y.sum())
    ya = y + alpha
    out = (
        gammaln(z_total + 1)
        - gammaln(z + 1.0).sum(axis=-1)
        + gammaln(ya.sum())
        - gammaln(ya).sum()
        + gammaln(z + ya).sum(axis=-1)
        - gammaln(z_total + ya.sum())
    )
    return float(out) if z.ndim == 1 else out


def neighbor_indices(y, x) -> tuple[int, int]:
    """Indices (decremented, incremented) for a valid neighbor pair, i.e.
    ``x`` equals ``y`` with one event moved between two groups."""
    y = np.asarray(y, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if y.shape != x.shape or y.ndim != 1:
        raise UsageError("x and y must be 1-d vectors of equal length")
    if np.any(x < 0) or np.any(y < 0):
        raise UsageError("neighbor vectors must be non-negative")
    diff = x - y
    if x.sum() != y.sum() or np.abs(diff).sum() != 2:
        raise UsageError("x must differ from y by moving exactly one event")
    dec = int(np.where(diff == -1)[0][0])
    inc = int(np.where(diff == 1)[0][0])
    return dec, inc


# libm's log elementwise: numpy's vectorised log can round differently in the
# last bit, and a batch must reproduce its single-allocation ratios exactly
_libm_log = np.frompyfunc(math.log, 1, 1)


def md_log_ratio(z, y, x, alpha) -> float | np.ndarray:
    """Exact log ratio ln p(z|y) - ln p(z|x) for neighboring y, x; a (k, I)
    batch of allocations gives k ratios.

    All gamma functions cancel down to four logarithms, which keeps the
    value exact to float rounding even when the pmfs themselves underflow.
    """
    z, y, alpha = _checked_triple(z, y, alpha)
    x = np.asarray(x, dtype=np.int64)
    dec, inc = neighbor_indices(y, x)
    # Arguments are built from the elementwise minimum of the pair and the
    # two partial sums are grouped, so swapping the roles of y and x
    # reproduces the identical four floats and negates the result bit-exactly.
    base_dec = alpha[dec] + min(y[dec], x[dec])
    base_inc = alpha[inc] + min(y[inc], x[inc])
    positive = math.log(base_inc) + _libm_log(z[..., dec] + base_dec)
    negative = math.log(base_dec) + _libm_log(z[..., inc] + base_inc)
    out = positive - negative
    return float(out) if z.ndim == 1 else out.astype(np.float64)


def md_synthesize(data: CountDataset, prior: PriorSpec, rng: RngStream) -> SyntheticDataset:
    """Draw one synthetic dataset: weights from the Dirichlet posterior,
    then a multinomial allocation of the fixed total."""
    if prior.mode is not PriorModel.MULTINOMIAL_DIRICHLET:
        raise UsageError("md_synthesize requires a multinomial-Dirichlet prior")
    if prior.alpha.size != data.n_groups:
        raise UsageError("prior length does not match the dataset")
    theta = sample_dirichlet(data.counts + prior.alpha, rng)
    counts = sample_multinomial(data.total, theta, rng)
    provenance = Provenance(
        method=PriorModel.MULTINOMIAL_DIRICHLET.value,
        epsilon=md_implied_epsilon(prior.alpha, data.total),
        seed=rng.seed,
        strategy="dirichlet-multinomial",
    )
    return SyntheticDataset(counts=counts, total=data.total, provenance=provenance)
