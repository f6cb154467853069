"""Domain types, seeded random streams, and log-probability primitives.

Everything downstream (both synthesizers, the audits, the simulation study)
builds on the pieces here: an immutable count dataset, a prior specification,
a counter-based random stream that makes every draw reproducible from a
(seed, stream_id) pair, and the handful of special-function kernels the
conjugate models need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from .errors import DomainError, UsageError

_MASK64 = (1 << 64) - 1

# Positive floor used to keep gamma/Dirichlet draws inside the open support;
# adding it never changes a float sum of order one.
_FLOOR = float(np.finfo(np.float64).tiny)


def _mix64(value: int, salt: int) -> int:
    # splitmix64 finalizer; decorrelates derived stream ids
    x = (value + 0x9E3779B97F4A7C15 * (salt + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Hands a fixed 128-bit key to Philox as its seed sequence, so the
    generator is built from (seed, stream_id) alone: Philox(key=...) would
    also draw OS entropy for a seed sequence it never uses."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise UsageError("a Philox key is two 64-bit words")
        return self.key


class RngStream:
    """Counter-based random stream.

    Identical (seed, stream_id) pairs yield identical draw sequences, on any
    machine and regardless of what other streams exist, so replicates and
    synthesis workers can be fanned out in any order. A stream is owned by
    exactly one consumer at a time; derive independent substreams with
    :meth:`child` instead of sharing.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def child(self, *indices: int) -> "RngStream":
        """Derive a decorrelated substream from integer indices."""
        sid = self.stream_id
        for position, index in enumerate(indices):
            sid = _mix64(sid ^ (int(index) & _MASK64), position)
        return RngStream(self.seed, sid)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class PriorModel(str, Enum):
    MULTINOMIAL_DIRICHLET = "multinomial-dirichlet"
    POISSON_GAMMA = "poisson-gamma"


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _as_count_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(np.asarray(arr, dtype=np.float64))
        if not (np.asarray(arr, dtype=np.float64) == rounded).all():
            raise DomainError(f"{name} must hold integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise DomainError(f"{name} must be non-negative")
    return arr


@dataclass(frozen=True)
class CountDataset:
    """Observed group counts with their populations and labels.

    ``total`` is the publicly known event total, fixed across any synthetic
    release generated from this dataset.
    """

    counts: np.ndarray
    populations: np.ndarray
    group_ids: tuple[str, ...]
    state_ids: tuple[str, ...] | None
    total: int

    def __post_init__(self):
        counts = _as_count_vector(self.counts, "counts")
        populations = _as_float_vector(self.populations, "populations")
        if (populations <= 0).any():
            raise DomainError("populations must be positive")
        if counts.size < 2:
            raise DomainError("a dataset needs at least two groups")
        if populations.size != counts.size:
            raise DomainError("counts and populations must have equal length")
        group_ids = tuple(str(g) for g in self.group_ids)
        if len(group_ids) != counts.size:
            raise DomainError("group_ids length must match counts")
        if len(set(group_ids)) != len(group_ids):
            raise DomainError("group_ids must be unique")
        state_ids = self.state_ids
        if state_ids is not None:
            state_ids = tuple(str(s) for s in state_ids)
            if len(state_ids) != counts.size:
                raise DomainError("state_ids length must match counts")
        if int(self.total) != int(counts.sum()):
            raise DomainError("total must equal the sum of counts")
        counts.setflags(write=False)
        populations.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "populations", populations)
        object.__setattr__(self, "group_ids", group_ids)
        object.__setattr__(self, "state_ids", state_ids)
        object.__setattr__(self, "total", int(self.total))

    @classmethod
    def from_counts(cls, counts, populations, group_ids=None, state_ids=None) -> "CountDataset":
        counts = _as_count_vector(counts, "counts")
        if group_ids is None:
            group_ids = tuple(f"g{i:04d}" for i in range(counts.size))
        return cls(
            counts=counts,
            populations=populations,
            group_ids=tuple(group_ids),
            state_ids=None if state_ids is None else tuple(state_ids),
            total=int(counts.sum()),
        )

    @property
    def n_groups(self) -> int:
        return int(self.counts.size)

    def crude_rates(self) -> np.ndarray:
        return self.counts / self.populations

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountDataset):
            return NotImplemented
        return (
            np.array_equal(self.counts, other.counts)
            and np.array_equal(self.populations, other.populations)
            and self.group_ids == other.group_ids
            and self.state_ids == other.state_ids
            and self.total == other.total
        )


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters for either synthesizer.

    For the Poisson-gamma mode, ``b`` is tied to ``a`` through the smoothing
    targets: b_i = a_i / target_rate_i whenever targets are given.
    """

    mode: PriorModel
    alpha: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    target_rates: np.ndarray | None = None

    def __post_init__(self):
        if self.mode is PriorModel.MULTINOMIAL_DIRICHLET:
            if self.alpha is None:
                raise DomainError("multinomial-Dirichlet prior requires alpha")
            alpha = _as_float_vector(self.alpha, "alpha")
            if (alpha <= 0).any():
                raise DomainError("alpha must be positive")
            alpha.setflags(write=False)
            object.__setattr__(self, "alpha", alpha)
        elif self.mode is PriorModel.POISSON_GAMMA:
            if self.a is None or self.b is None:
                raise DomainError("Poisson-gamma prior requires a and b")
            a = _as_float_vector(self.a, "a")
            b = _as_float_vector(self.b, "b")
            if a.size != b.size:
                raise DomainError("a and b must have equal length")
            if (a <= 0).any() or (b <= 0).any():
                raise DomainError("a and b must be positive")
            a.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            if self.target_rates is not None:
                rates = _as_float_vector(self.target_rates, "target_rates")
                if (rates <= 0).any():
                    raise DomainError("target_rates must be positive")
                if rates.size != a.size or not np.array_equal(b, a / rates):
                    raise DomainError("b must equal a / target_rates exactly")
                rates.setflags(write=False)
                object.__setattr__(self, "target_rates", rates)
        else:
            raise DomainError(f"unknown prior mode {self.mode!r}")

    @classmethod
    def multinomial_dirichlet(cls, alpha) -> "PriorSpec":
        return cls(mode=PriorModel.MULTINOMIAL_DIRICHLET, alpha=np.asarray(alpha, dtype=float))

    @classmethod
    def poisson_gamma(cls, a, b=None, target_rates=None) -> "PriorSpec":
        a = np.asarray(a, dtype=float)
        if (b is None) == (target_rates is None):
            raise UsageError("give exactly one of b or target_rates")
        if b is None:
            target_rates = np.asarray(target_rates, dtype=float)
            b = a / target_rates
        return cls(mode=PriorModel.POISSON_GAMMA, a=a, b=np.asarray(b, dtype=float),
                   target_rates=None if target_rates is None else np.asarray(target_rates, dtype=float))


@dataclass(frozen=True)
class Provenance:
    """How a synthetic dataset was produced: mechanism, the privacy budget
    certified by the priors actually used, and the stream that drew it."""

    method: str
    epsilon: float
    seed: int
    strategy: str


@dataclass(frozen=True)
class SyntheticDataset:
    counts: np.ndarray
    total: int
    provenance: Provenance

    def __post_init__(self):
        counts = _as_count_vector(self.counts, "counts")
        if int(counts.sum()) != int(self.total):
            raise DomainError("synthetic counts must sum to the stated total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))


def sample_gamma(shape, rate, rng: RngStream, size=None):
    """Draw from Gamma(shape, rate) with mean shape/rate.

    Valid for every shape > 0; draws are floored at the smallest positive
    normal float so the open support (0, inf) is preserved.
    """
    shape_arr = np.asarray(shape, dtype=np.float64)
    rate_arr = np.asarray(rate, dtype=np.float64)
    if not ((shape_arr > 0).all() and (rate_arr > 0).all()):
        raise DomainError("gamma shape and rate must be positive")
    draws = rng.generator.gamma(shape_arr, 1.0 / rate_arr, size=size)
    draws = np.maximum(draws, _FLOOR)
    if np.ndim(draws) == 0:
        return float(draws)
    return draws


def sample_dirichlet(alphas, rng: RngStream) -> np.ndarray:
    """Draw a probability vector from Dirichlet(alphas).

    Implemented as normalized gamma draws, floored at the smallest positive
    normal float so every component is strictly positive (draws with very
    small alphas would otherwise underflow to an exact zero).
    """
    alphas = _as_float_vector(alphas, "alphas")
    if (alphas <= 0).any():
        raise DomainError("Dirichlet parameters must be positive")
    raw = np.maximum(rng.generator.gamma(alphas), _FLOOR)
    return raw / raw.sum()


def sample_multinomial(total: int, probs, rng: RngStream) -> np.ndarray:
    """Allocate ``total`` events across cells with the given probabilities.

    The output always sums to ``total`` exactly.
    """
    total = int(total)
    if total < 0:
        raise DomainError("total must be non-negative")
    probs = _as_float_vector(probs, "probs")
    if (probs < 0).any():
        raise DomainError("probabilities must be non-negative")
    psum = probs.sum()
    if abs(psum - 1.0) > 1e-9:
        raise DomainError(f"probabilities must sum to 1 within 1e-9, got {psum!r}")
    return rng.generator.multinomial(total, probs / psum).astype(np.int64)


def negbin_log_pmf(z, r: float, p: float):
    """Log pmf of the negative binomial with ``r`` successes-to-go and
    per-event probability ``p``:

        ln [ Gamma(z + r) / (z! Gamma(r)) * p^z * (1 - p)^r ]

    Supports scalar or vector ``z``.
    """
    if not (r > 0):
        raise DomainError("r must be positive")
    if not (0.0 < p < 1.0):
        raise DomainError("p must lie strictly between 0 and 1")
    z_arr = _as_count_vector(np.atleast_1d(z), "z")
    out = (
        special.gammaln(z_arr + r)
        - special.gammaln(z_arr + 1.0)
        - special.gammaln(r)
        + z_arr * math.log(p)
        + r * math.log1p(-p)
    )
    if np.ndim(z) == 0:
        return float(out[0])
    return out
