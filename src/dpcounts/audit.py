"""Exhaustive privacy audits and bound-accuracy sweeps.

Small two-group instances are small enough to check the privacy definition
itself: enumerate every dataset with the public total, every neighbor, and
every synthetic allocation, and compare the worst absolute log ratio against
the target budget. Each route fills one table of ln p(z|y) - ln p(z|x), a row
per ordered neighbor pair and a column per allocation, and one engine reads
the worst entry off it. The float routes compute every ratio two independent
ways: the cancelled closed form, and log pmf differences read off one
(dataset x allocation) call of core's shared allocation kernel. For integer
prior strengths the exact route forms each ratio as a reduced integer
fraction of exact normalizers and logs it at the end. It reduces each
neighbor pair's normalizer ratio once and multiplies each entry's small
factor into it through gcds of one big and one small integer; since a
fraction has one lowest-terms form, the logged integers are those of one
full gcd per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import exact_math
from .core import _allocations, _checked_positive
from .dirichlet_mult import md_log_pmf, md_log_ratio
from .errors import DomainError, UsageError
from .poisson_gamma import _normalized_pair_terms, normalizer_ratio_bound, structure_ratio

AUDIT_SLACK = 1e-9        # numerical slack allowed on the budget comparison
CROSS_CHECK_TOL = 1e-10   # agreement required between ratio evaluation routes
ENUMERATION_CAP = 12      # largest total audited exhaustively
EXACT_STRENGTH_CAP = 10_000  # largest prior strength the exact route takes


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


def _audit(epsilon: float, y_total: int, table: np.ndarray) -> AuditReport:
    """The check every route shares: ``table`` holds ln p(z|y) - ln p(z|x)
    with one row per ordered neighbor pair, in `enumerate_neighbors` order,
    and one column per z1 = 0..y_total. The witness is the first largest
    |value| in (pair, z1) order."""
    table = np.abs(table)
    pair, z1 = divmod(int(np.argmax(table)), table.shape[1])
    y, x = enumerate_neighbors(y_total)[pair]
    max_ratio = float(table[pair, z1])
    return AuditReport(
        epsilon_target=float(epsilon),
        max_abs_log_ratio=max_ratio,
        witness=Witness(y=y, x=x, z=(z1, y_total - z1)),
        satisfied=max_ratio <= epsilon + AUDIT_SLACK,
        instances_checked=table.size,
    )


def _cross_check(value, other) -> None:
    # written so that a NaN, which no comparison holds for, disagrees
    if not np.all(np.abs(value - other) <= CROSS_CHECK_TOL):
        raise ArithmeticError("ratio evaluation routes disagree")


def _pairs(y_total: int) -> np.ndarray:
    """`enumerate_neighbors` as two (P, 2) stacks, y and x."""
    return np.array(enumerate_neighbors(y_total)).transpose(1, 0, 2)


def _md_table(alpha, y_total: int) -> np.ndarray:
    """Cancelled-form md ratios, checked against pmf differences."""
    z = _allocations(y_total)
    y, x = _pairs(y_total)
    table = md_log_ratio(z, y, x, alpha).T
    log_pmf = md_log_pmf(z, z, alpha)
    _cross_check(table, log_pmf[y[:, 0]] - log_pmf[x[:, 0]])
    return table


def _pg2_table(a, b, n, y_total: int) -> np.ndarray:
    """Differences of the conditional log pmf tables, checked against the
    cancelled form through the normalizers."""
    z = _allocations(y_total)
    log_pmf, log_c = _normalized_pair_terms(z, a, math.log(structure_ratio(0, n, b)), y_total)
    y, x = _pairs(y_total)
    table = log_pmf[y[:, 0]] - log_pmf[x[:, 0]]
    # each pair's (decremented, incremented) group, as a column
    dec = (x[:, :1] > y[:, :1]).astype(np.intp)
    inc = 1 - dec
    cancelled = (log_c[x[:, :1]] - log_c[y[:, :1]]
                 # the integers summed first: z + y - 1 + a keeps a tiny a,
                 # which (z + y + a) - 1 rounds away where z + y = 1
                 + np.log(z.T[dec[:, 0]] + np.take_along_axis(y, dec, 1) - 1 + a[dec])
                 - np.log(z.T[inc[:, 0]] + np.take_along_axis(y, inc, 1) + a[inc]))
    _cross_check(table, cancelled)
    return table


def _pg2_exact_table(a_int, b, n, y_total: int) -> np.ndarray:
    """Exact rational ratios, each in lowest terms and logged only at the end.

    Each neighbor pair's normalizer ratio C(x)/C(y) is reduced once, as one
    Fraction division, to a coprime num/den. Each entry's small factor
    top/bottom = (z_dec + y_dec + a_dec - 1)/(z_inc + y_inc + a_inc) is
    reduced by its own gcd and then multiplied in through the two cross gcds
    gcd(num, bottom) and gcd(top, den) (Knuth, TAOCP vol. 2, 4.5.1), each of
    a big and a small integer. A fraction has one lowest-terms form, so the
    integers logged are those a full gcd of num*top and den*bottom gives.
    """
    a_int = [int(v) for v in a_int]
    b_frac = [Fraction(float(v)) for v in b]
    n_frac = [Fraction(float(v)) for v in n]
    r1 = (b_frac[1] / n_frac[1] + 2) / (b_frac[0] / n_frac[0] + 2)
    allocations = _allocations(y_total).tolist()
    normalizer = [exact_math.exact_normalizer(data, a_int, r1, y_total)
                  for data in allocations]
    table = []
    for y, x in enumerate_neighbors(y_total):
        dec = int(x[0] > y[0])
        inc = 1 - dec
        ratio = normalizer[x[0]] / normalizer[y[0]]
        num, den = ratio.numerator, ratio.denominator
        row = []
        for z in allocations:
            top = z[dec] + y[dec] + a_int[dec] - 1
            bottom = z[inc] + y[inc] + a_int[inc]
            g = math.gcd(top, bottom)
            top, bottom = top // g, bottom // g
            g_num, g_den = math.gcd(num, bottom), math.gcd(top, den)
            row.append(math.log(num // g_num * (top // g_den))
                       - math.log(den // g_den * (bottom // g_num)))
        table.append(row)
    return np.array(table)


def _two_groups(values, name: str) -> np.ndarray:
    arr = _checked_positive(values, name)
    if arr.shape != (2,):
        raise UsageError("exhaustive audit runs on two groups")
    return arr


def audit_synthesizer(mechanism: str, epsilon: float, y_total: int, *,
                      alpha=None, a=None, b=None, populations=None,
                      exact: bool = False) -> AuditReport:
    """Exhaustively audit a calibrated mechanism on two groups.

    ``mechanism`` is 'md' (needs alpha) or 'pg2' (needs a, b, populations).
    Each is checked here, for every route: two entries, finite and positive.
    ``exact=True`` switches the pg2 route to arbitrary-precision rationals,
    which requires integer a (integral floats such as 3.0 count) up to
    EXACT_STRENGTH_CAP; any other a is refused with DomainError. Totals
    above the enumeration cap are refused.
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
        table = _md_table(_two_groups(alpha, "alpha"), y_total)
    elif mechanism == "pg2":
        if a is None or b is None or populations is None:
            raise UsageError("pg2 audit requires a, b, populations")
        # the exact integers, and the route's cost, grow without bound in a
        if exact and not all(float(v).is_integer() and v <= EXACT_STRENGTH_CAP
                             for v in np.ravel(a)):
            raise DomainError(f"exact audit requires integer a <= {EXACT_STRENGTH_CAP}")
        table = (_pg2_exact_table if exact else _pg2_table)(
            _two_groups(a, "a"), _two_groups(b, "b"), _two_groups(populations, "populations"),
            y_total)
    else:
        raise UsageError(f"unknown mechanism {mechanism!r}")
    return _audit(epsilon, y_total, table)


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
