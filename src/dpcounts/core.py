"""Domain types, seeded random streams, and log-probability primitives.

Everything downstream (both synthesizers, the audits, the simulation study)
builds on the pieces here: an immutable count dataset, a prior specification,
a counter-based random stream that makes every draw reproducible from a
(seed, stream_id) pair, the samplers with the one release kernel both
synthesizers draw through, and the one allocation kernel both conjugate laws
are built on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, UsageError

_MASK64 = (1 << 64) - 1

# Positive floor used to keep gamma/Dirichlet draws inside the open support;
# adding it never changes a float sum of order one.
_FLOOR = float(np.finfo(np.float64).tiny)


def _mix64(value, salt: int):
    # splitmix64 finalizer; decorrelates derived stream ids. ``value`` is a
    # Python int or a uint64 array of at least one dimension, where the
    # arithmetic wraps silently (on numpy scalars it would warn)
    x = (value + ((0x9E3779B97F4A7C15 * (salt + 1)) & _MASK64)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


# a Philox counter and its buffer of four 64-bit words, both zero at the
# start of a stream; the buffer is empty when its position is its length
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)


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
    releases can be drawn in any order. A stream is owned by
    exactly one consumer at a time; derive independent substreams with
    :meth:`child` instead of sharing.

    One generator holds one stream at a time. :meth:`rekey` moves this
    object, generator included, to the start of another stream of the same
    seed, so a loop over many streams can draw them all through one Philox
    instead of building a generator per stream; :meth:`child_ids` gives the
    stream ids of many children at once.
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

    def child_ids(self, *indices) -> np.ndarray:
        """The stream ids of ``child(*i)`` for every index tuple i of the
        broadcast integer index arrays, as a uint64 array of their broadcast
        shape. A negative index wraps modulo 2**64, as in :meth:`child`."""
        arrays = [np.asarray(index) for index in indices]
        if any(arr.dtype.kind not in "iu" for arr in arrays):
            raise UsageError("stream indices must be integer arrays")
        shape = np.broadcast_shapes(*(arr.shape for arr in arrays))
        sid = np.full(shape, self.stream_id, dtype=np.uint64).reshape(-1)
        for position, arr in enumerate(arrays):
            index = np.broadcast_to(arr, shape).astype(np.uint64).reshape(-1)
            sid = _mix64(sid ^ index, position)
        return sid.reshape(shape)

    def rekey(self, stream_id: int) -> None:
        """Make this the stream (seed, stream_id) from its start: Philox key
        (seed, stream_id), counter 0 and an empty buffer, so the generator
        draws what a fresh ``RngStream(seed, stream_id)`` would."""
        self.stream_id = int(stream_id) & _MASK64
        self._generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": (self.seed, self.stream_id)},
            "buffer": _PHILOX_ZEROS, "buffer_pos": _PHILOX_ZEROS.size,
            "has_uint32": 0, "uinteger": 0,
        }

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


class PriorModel(str, Enum):
    MULTINOMIAL_DIRICHLET = "multinomial-dirichlet"
    POISSON_GAMMA = "poisson-gamma"


def _checked_positive(values, name: str) -> np.ndarray:
    """``values`` as a float64 array of any shape, every entry checked to be
    finite and positive: NaN and +-inf are refused with a DomainError that
    names ``name`` and carries the flat index of the first entry refused.
    This is the one check of every positive parameter (prior weights,
    strengths, rates, populations)."""
    arr = np.asarray(values, dtype=np.float64)
    # a NaN makes both extremes NaN, and every comparison with NaN is false
    if arr.size and not (arr.min() > 0 and arr.max() < np.inf):
        raise DomainError(f"{name} must be finite and positive",
                          index=int(np.argmax(~((arr > 0) & (arr < np.inf)))))
    return arr


def _positive_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    return _checked_positive(arr, name)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy, so freezing a field never reaches the caller's
    array."""
    arr = arr.copy()
    arr.setflags(write=False)
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
    arr = arr.astype(np.int64)  # always a copy, so callers may freeze it
    if arr.min() < 0:
        raise DomainError(f"{name} must be non-negative", index=int(np.argmax(arr < 0)))
    return arr


@dataclass(frozen=True)
class CountDataset:
    """Observed group counts with their populations and labels.

    ``total`` is the publicly known event total, fixed across any synthetic
    release generated from this dataset. Every rule on a dataset is checked
    here; a refusal that one group causes carries that group's position as
    the DomainError's ``index``, the first offending group for each rule.
    """

    counts: np.ndarray
    populations: np.ndarray
    group_ids: tuple[str, ...]
    state_ids: tuple[str, ...] | None
    total: int

    def __post_init__(self):
        counts = _as_count_vector(self.counts, "counts")
        populations = _positive_vector(self.populations, "populations")
        with np.errstate(over="ignore"):
            if not np.isfinite(populations.sum()):
                raise DomainError("populations must have a finite sum")
        if counts.size < 2:
            raise DomainError("a dataset needs at least two groups")
        if populations.size != counts.size:
            raise DomainError("counts and populations must have equal length")
        group_ids = tuple(map(str, self.group_ids))
        if len(group_ids) != counts.size:
            raise DomainError("group_ids length must match counts")
        if len(set(group_ids)) != len(group_ids):
            first = {gid: k for k, gid in reversed(list(enumerate(group_ids)))}
            repeat = next(k for k, gid in enumerate(group_ids) if first[gid] != k)
            raise DomainError(f"duplicate group_id {group_ids[repeat]!r}", index=repeat)
        state_ids = self.state_ids
        if state_ids is not None:
            state_ids = tuple(map(str, state_ids))
            if len(state_ids) != counts.size:
                raise DomainError("state_ids length must match counts")
        if int(self.total) != int(counts.sum()):
            raise DomainError("total must equal the sum of counts")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "populations", _frozen(populations))
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
            alpha = _positive_vector(self.alpha, "alpha")
            object.__setattr__(self, "alpha", _frozen(alpha))
        elif self.mode is PriorModel.POISSON_GAMMA:
            if self.a is None or self.b is None:
                raise DomainError("Poisson-gamma prior requires a and b")
            a = _positive_vector(self.a, "a")
            b = _positive_vector(self.b, "b")
            if a.size != b.size:
                raise DomainError("a and b must have equal length")
            object.__setattr__(self, "a", _frozen(a))
            object.__setattr__(self, "b", _frozen(b))
            if self.target_rates is not None:
                rates = _positive_vector(self.target_rates, "target_rates")
                if rates.size != a.size or not np.array_equal(b, a / rates):
                    raise DomainError("b must equal a / target_rates exactly")
                object.__setattr__(self, "target_rates", _frozen(rates))
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


# the largest budget whose e^eps is a finite float, about 709.7827
_MAX_EPSILON = math.log(sys.float_info.max)


def _checked_epsilon(epsilon) -> float:
    """A privacy budget as a float, checked to be positive and finite, with
    e^eps a finite float so calibration can form it."""
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise DomainError("epsilon must be finite")
    if epsilon > _MAX_EPSILON:
        raise DomainError(f"epsilon must be at most {_MAX_EPSILON!r}, "
                          "where e^epsilon is still a finite float")
    return epsilon


def _check_gamma_args(shape, rate) -> tuple[np.ndarray, np.ndarray]:
    return _checked_positive(shape, "gamma shape"), _checked_positive(rate, "gamma rate")


def sample_gamma(shape, rate, rng: RngStream, size=None):
    """Draw from Gamma(shape, rate) with mean shape/rate.

    Valid for every shape > 0; draws are floored at the smallest positive
    normal float so the open support (0, inf) is preserved. numpy's
    ``gamma(shape, scale)`` is ``scale * standard_gamma(shape)``, so this
    draws exactly its values, through the one-parameter sampler.
    """
    shape_arr, rate_arr = _check_gamma_args(shape, rate)
    if size is None:
        size = np.broadcast_shapes(shape_arr.shape, rate_arr.shape)
    draws = rng.generator.standard_gamma(shape_arr, size=size) * (1.0 / rate_arr)
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
    alphas = _positive_vector(alphas, "alphas")
    raw = np.maximum(rng.generator.standard_gamma(alphas), _FLOOR)
    return raw / raw.sum()


def sample_multinomial(total: int, probs, rng: RngStream) -> np.ndarray:
    """Allocate ``total`` events across cells with the given probabilities.

    The output always sums to ``total`` exactly.
    """
    total = int(total)
    if total < 0:
        raise DomainError("total must be non-negative")
    return rng.generator.multinomial(total, _checked_probs(probs)).astype(np.int64)


def _row_streams(rng: RngStream, stream_ids):
    """Yield ``rng`` once per release row: re-keyed to each of
    ``stream_ids`` in turn, or once from where it stands when there are
    none."""
    if stream_ids is None:
        yield rng
        return
    for stream_id in np.asarray(stream_ids, dtype=np.uint64).tolist():
        rng.rekey(stream_id)
        yield rng


def sample_releases(shapes, scale, weights, total: int, rng: RngStream,
                    stream_ids=None) -> np.ndarray:
    """Draw synthetic releases of ``total`` events as a (rows, I) int64
    count matrix, every row by the same step: rates
    ``standard_gamma(shapes) * scale``, floored at the smallest positive
    normal float, times ``weights`` and normalised, then one multinomial
    allocation of ``total``.

    Row k is drawn on stream ``stream_ids[k]`` of ``rng``'s seed, through
    ``rng`` itself, re-keyed to each id in turn; without ``stream_ids``, one
    row is drawn on ``rng`` from where it stands. The multinomial-Dirichlet
    law is scale and weights 1.0 (multiplying by 1.0 is exact); the
    Poisson-gamma law is scale 1/(n + b) and weights n. The arguments are
    checked once, each row's cell probabilities as ``sample_multinomial``
    checks them, and the row totals once on the whole matrix.
    """
    shapes = _positive_vector(shapes, "shapes")
    scale = _checked_positive(scale, "scale")
    weights = np.asarray(weights, dtype=np.float64)
    total = int(total)
    if total < 0:
        raise DomainError("total must be non-negative")
    counts = np.empty((1 if stream_ids is None else len(stream_ids), shapes.size),
                      dtype=np.int64)
    for row, stream in zip(counts, _row_streams(rng, stream_ids)):
        rates = np.maximum(stream.generator.standard_gamma(shapes) * scale, _FLOOR)
        rates *= weights
        row[:] = stream.generator.multinomial(total, _checked_probs(rates / rates.sum()))
    if (counts.sum(axis=1) != total).any():
        raise DomainError("synthetic counts must sum to the stated total")
    return counts


def _checked_probs(probs) -> np.ndarray:
    """Cell probabilities as sample_multinomial draws with: checked to be
    finite, non-negative and to sum to 1 within 1e-9, then divided by their
    sum."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise DomainError("probs must be a nonempty 1-d vector")
    if not probs.min() >= 0:  # a NaN too
        raise DomainError("probabilities must be finite and non-negative")
    psum = probs.sum()
    if not abs(psum - 1.0) <= 1e-9:  # an infinite entry too
        raise DomainError(f"probabilities must sum to 1 within 1e-9, got {psum!r}")
    return probs / psum


def _allocations(z_total: int) -> np.ndarray:
    """Every two-group allocation (z1, z_total - z1), z1 = 0..z_total; with
    the total fixed, also every dataset, in the order of its first count."""
    z1 = np.arange(z_total + 1)
    return np.stack([z1, z_total - z1], axis=1)


# libm's lgamma elementwise; it raises OverflowError where ln Gamma is too
# large for a float
_libm_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _log_gamma(x) -> np.ndarray:
    """ln Gamma(x) elementwise, as a float64 array, for positive x. An
    argument whose ln Gamma overflows a float is refused with DomainError;
    an infinite argument gives inf and a NaN gives NaN, for the caller's
    finiteness check."""
    try:
        return np.asarray(_libm_lgamma(x), dtype=np.float64)
    except OverflowError:
        raise DomainError("ln Gamma overflows a float at these prior parameters") from None


def _log_sum_exp(x) -> np.ndarray:
    """ln sum exp(x) over the last axis, shifted by each row's maximum so
    that no exp overflows. An infinite or NaN entry gives a non-finite
    result, for the caller's finiteness check."""
    top = np.max(x, axis=-1)
    return np.log(np.exp(x - top[..., None]).sum(axis=-1)) + top


def _allocation_terms(z, c) -> np.ndarray:
    """sum_i [ln Gamma(z_i + c_i) - ln z_i!] over the last axis, the part of
    ln p(z | y) that depends on z under both conjugate laws: c = y + alpha
    (multinomial-Dirichlet) or c = y + a (Poisson-gamma). Arrays z and c
    broadcast, so allocations against a stack of datasets give a table.
    Groups are added one at a time, in order, so the rounding does not
    depend on how numpy splits a reduction."""
    out = 0.0
    for i in range(z.shape[-1]):
        out = out + _log_gamma(z[..., i] + c[..., i]) - _log_gamma(z[..., i] + 1.0)
    return out
