"""Exhaustive privacy audits and bound-accuracy sweeps.

Small two-group instances are small enough to check the privacy definition
itself: enumerate every dataset with the public total, every neighbor, and
every synthetic allocation, and compare the worst absolute log ratio against
the target budget. Each ratio is computed two independent ways (pmf
difference and the cancelled closed form) and, for integer prior strengths,
a third time in exact rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import exact_math
from .dirichlet_mult import md_log_pmf, md_log_ratio
from .errors import DomainError, UsageError
from .poisson_gamma import _normalized_pair_terms, normalizer_ratio_bound, structure_ratio

AUDIT_SLACK = 1e-9        # numerical slack allowed on the budget comparison
CROSS_CHECK_TOL = 1e-10   # agreement required between ratio evaluation routes
ENUMERATION_CAP = 12      # largest total audited exhaustively


@dataclass(frozen=True)
class Witness:
    y: tuple[int, ...]
    x: tuple[int, ...]
    z: tuple[int, ...]


@dataclass(frozen=True)
class AuditReport:
    epsilon_target: float
    max_abs_log_ratio: float
    witness: Witness
    satisfied: bool
    instances_checked: int

    def __post_init__(self):
        expected = self.max_abs_log_ratio <= self.epsilon_target + AUDIT_SLACK
        if self.satisfied != expected:
            raise DomainError("satisfied flag inconsistent with the recorded maximum")


def enumerate_neighbors(y_total: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All ordered (y, x) neighbor pairs of two-group datasets with the given
    total: both transposition directions, never leaving a negative entry."""
    if y_total < 1:
        raise DomainError("y_total must be at least 1")
    pairs = []
    for y1 in range(y_total + 1):
        y = (y1, y_total - y1)
        if y[0] > 0:
            pairs.append((y, (y[0] - 1, y[1] + 1)))
        if y[1] > 0:
            pairs.append((y, (y[0] + 1, y[1] - 1)))
    return pairs


def _audit(epsilon: float, y_total: int, log_ratios) -> AuditReport:
    """The enumeration every route shares: walk each ordered neighbor pair
    once, take the row ``log_ratios(y, x)`` of ln p(z|y) - ln p(z|x) over
    z1 = 0..y_total, and keep the first largest |value| in (pair, z1) order."""
    best = None
    checked = 0
    for y, x in enumerate_neighbors(y_total):
        row = np.abs(log_ratios(y, x))
        z1 = int(np.argmax(row))
        if best is None or row[z1] > best[0]:
            best = (float(row[z1]), Witness(y=y, x=x, z=(z1, y_total - z1)))
        checked += row.size
    max_ratio, witness = best
    return AuditReport(
        epsilon_target=float(epsilon),
        max_abs_log_ratio=max_ratio,
        witness=witness,
        satisfied=max_ratio <= epsilon + AUDIT_SLACK,
        instances_checked=checked,
    )


def _cross_check(value, other) -> None:
    if np.any(np.abs(value - other) > CROSS_CHECK_TOL):
        raise ArithmeticError("ratio evaluation routes disagree")


def _allocations(z_total: int) -> np.ndarray:
    """Every two-group allocation (z1, z_total - z1), z1 = 0..z_total."""
    z1 = np.arange(z_total + 1)
    return np.stack([z1, z_total - z1], axis=1)


def _moved(y, x) -> tuple[int, int]:
    """(decremented, incremented) group of a two-group neighbor pair."""
    return (0, 1) if x[0] == y[0] - 1 else (1, 0)


def _md_route(alpha, y_total: int):
    """Cancelled-form md ratios, checked against pmf differences."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (2,):
        raise UsageError("exhaustive audit runs on two groups")
    z = _allocations(y_total)
    log_pmf = functools.cache(lambda y: md_log_pmf(z, y, alpha))

    def log_ratios(y, x):
        direct = md_log_ratio(z, y, x, alpha)
        _cross_check(direct, log_pmf(y) - log_pmf(x))
        return direct

    return log_ratios


def _pg2_route(a, b, n, y_total: int):
    """Differences of the conditional log pmf tables, checked against the
    cancelled form through the normalizers."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if a.shape != (2,) or b.shape != (2,) or n.shape != (2,):
        raise UsageError("exhaustive audit runs on two groups")
    if np.any(a <= 0):
        raise DomainError("a must be positive")
    z = _allocations(y_total).T
    log_r1 = math.log(structure_ratio(0, n, b))

    @functools.cache
    def tables(y):
        """(conditional log pmf over z1, log normalizer) of dataset y."""
        return _normalized_pair_terms(np.array(y, dtype=np.float64), a,
                                      log_r1, y_total)

    def log_ratios(y, x):
        (pmf_y, log_c_y), (pmf_x, log_c_x) = tables(y), tables(x)
        dec, inc = _moved(y, x)
        via_pmf = pmf_y - pmf_x
        cancelled = (log_c_x - log_c_y
                     + np.log(z[dec] + y[dec] + a[dec] - 1)
                     - np.log(z[inc] + y[inc] + a[inc]))
        _cross_check(via_pmf, cancelled)
        return via_pmf

    return log_ratios


def _pg2_exact_route(a_int, b, n, y_total: int):
    """Exact rational ratios, logged only at the end."""
    a_int = [int(v) for v in np.asarray(a_int)]
    b_frac = [Fraction(float(v)) for v in np.asarray(b, dtype=np.float64)]
    n_frac = [Fraction(float(v)) for v in np.asarray(n, dtype=np.float64)]
    if len(a_int) != 2 or len(b_frac) != 2 or len(n_frac) != 2:
        raise UsageError("exhaustive audit runs on two groups")
    if min(a_int) < 1:
        raise DomainError("exact audit requires integer a >= 1")
    r1 = (b_frac[1] / n_frac[1] + 2) / (b_frac[0] / n_frac[0] + 2)
    allocations = _allocations(y_total).tolist()
    normalizer = functools.cache(
        lambda y: exact_math.exact_normalizer(y, a_int, r1, y_total))

    def log_ratios(y, x):
        c_ratio = normalizer(x) / normalizer(y)
        dec, inc = _moved(y, x)
        ratios = (c_ratio * Fraction(z[dec] + y[dec] + a_int[dec] - 1,
                                     z[inc] + y[inc] + a_int[inc])
                  for z in allocations)
        return np.array([math.log(r.numerator) - math.log(r.denominator)
                         for r in ratios])

    return log_ratios


def audit_synthesizer(mechanism: str, epsilon: float, y_total: int, *,
                      alpha=None, a=None, b=None, populations=None,
                      exact: bool = False) -> AuditReport:
    """Exhaustively audit a calibrated mechanism on two groups.

    ``mechanism`` is 'md' (needs alpha) or 'pg2' (needs a, b, populations).
    ``exact=True`` switches the pg2 route to arbitrary-precision rationals,
    which requires integer a. Totals above the enumeration cap are refused.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise DomainError("epsilon must be finite")
    y_total = int(y_total)
    if y_total < 1:
        raise DomainError("y_total must be at least 1")
    if y_total > ENUMERATION_CAP:
        raise UsageError(f"exhaustive audit capped at y_total <= {ENUMERATION_CAP}")
    if mechanism == "md":
        if alpha is None:
            raise UsageError("md audit requires alpha")
        route = _md_route(alpha, y_total)
    elif mechanism == "pg2":
        if a is None or b is None or populations is None:
            raise UsageError("pg2 audit requires a, b, populations")
        route = (_pg2_exact_route if exact else _pg2_route)(a, b, populations, y_total)
    else:
        raise UsageError(f"unknown mechanism {mechanism!r}")
    return _audit(epsilon, y_total, route)


@dataclass(frozen=True)
class BoundInstance:
    y: tuple[int, int]
    a: tuple[int, int]
    r: Fraction
    z_total: int


@dataclass(frozen=True)
class BoundAccuracyRow:
    instance: BoundInstance
    exact_abs_log_ratio: float
    bound: float
    slack: float


@dataclass(frozen=True)
class BoundSweepResult:
    rows: tuple[BoundAccuracyRow, ...]
    skipped: tuple[tuple[BoundInstance, str], ...]

    def slack_summary(self) -> dict:
        slacks = np.array([row.slack for row in self.rows])
        return {
            "count": int(slacks.size),
            "min": float(slacks.min()),
            "median": float(np.median(slacks)),
            "max": float(slacks.max()),
        }


def default_bound_grid(max_a: int = 4, max_y_total: int = 8,
                       r_values: Sequence = (Fraction(1, 3), Fraction(1, 2),
                                             Fraction(1), Fraction(3, 2))) -> list[BoundInstance]:
    grid = []
    for z_total in range(1, max_y_total + 1):
        for y1 in range(z_total + 1):
            for a1 in range(1, max_a + 1):
                for a2 in range(1, max_a + 1):
                    for r in r_values:
                        grid.append(BoundInstance(y=(y1, z_total - y1),
                                                  a=(a1, a2), r=Fraction(r),
                                                  z_total=z_total))
    return grid


def bound_accuracy_sweep(instances: Iterable[BoundInstance]) -> BoundSweepResult:
    """Compare the exact normalizer log ratio against its closed-form upper
    bound on each instance that satisfies the bound's ordering condition.

    The decremented group is the one with the smaller a + y; instances with a
    tie, with a + y <= 1 on the small side, or whose decrement would go
    negative are skipped with a reason rather than silently dropped.
    """
    rows = []
    skipped = []
    for inst in instances:
        y = inst.y
        a = inst.a
        totals = (a[0] + y[0], a[1] + y[1])
        if totals[0] == totals[1]:
            skipped.append((inst, "ordering condition is a tie"))
            continue
        i = 0 if totals[0] < totals[1] else 1
        other = 1 - i
        if totals[i] <= 1:
            skipped.append((inst, "small side has a + y <= 1"))
            continue
        if y[i] == 0:
            skipped.append((inst, "decrement would leave a negative count"))
            continue
        x = list(y)
        x[i] -= 1
        x[other] += 1
        r1 = Fraction(inst.r)
        c_y = exact_math.exact_normalizer(y, a, r1, inst.z_total)
        c_x = exact_math.exact_normalizer(tuple(x), a, r1, inst.z_total)
        ratio = c_x / c_y
        exact_value = abs(math.log(ratio.numerator) - math.log(ratio.denominator))
        r_i = r1 if i == 0 else 1 / r1
        ordered_y = (y[i], y[other])
        ordered_a = (a[i], a[other])
        bound = normalizer_ratio_bound(ordered_y, ordered_a, float(r_i), inst.z_total)
        rows.append(BoundAccuracyRow(
            instance=inst,
            exact_abs_log_ratio=exact_value,
            bound=bound,
            slack=bound - exact_value,
        ))
    return BoundSweepResult(rows=tuple(rows), skipped=tuple(skipped))
