"""Output checks. Each returns a list of problems; an empty list means pass.

They read the program's outputs as a user would (the files it wrote, the
reports it returned) and never call into the package, so a defect in the
package cannot hide a defect in its output.
"""

from __future__ import annotations

import json
import math

RELEASE_HEADER = "group_id,replicate,z"
STUDY_HEADER = "scenario,method,epsilon,metric,value,lo,hi"
STUDY_METRICS = ("rmse", "urban_rate", "rural_rate", "region_contrast")


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def check_release(csv_text: str, group_ids, total: int, m: int) -> list[str]:
    """A synthesize table: every replicate lists the input's groups in input
    order, with non-negative integer counts summing to the public total."""
    lines = _data_lines(csv_text)
    if not lines or lines[0] != RELEASE_HEADER:
        return [f"release header is not {RELEASE_HEADER!r}"]
    rows = lines[1:]
    n_groups = len(group_ids)
    if len(rows) != n_groups * m:
        return [f"release has {len(rows)} rows, expected {n_groups * m}"]
    problems = []
    for rep in range(m):
        block = rows[rep * n_groups:(rep + 1) * n_groups]
        replicate_sum = 0
        for gid, row in zip(group_ids, block):
            cells = row.split(",")
            if len(cells) != 3 or cells[0] != gid or cells[1] != str(rep):
                problems.append(f"replicate {rep}: row {row!r} does not match group {gid}")
                break
            if not cells[2].isdigit():
                problems.append(f"replicate {rep}: count {cells[2]!r} is not a "
                                "non-negative integer")
                break
            replicate_sum += int(cells[2])
        else:
            if replicate_sum != total:
                problems.append(f"replicate {rep} sums to {replicate_sum}, not {total}")
    return problems


def check_provenance(json_text: str, m: int, total: int) -> list[str]:
    """The provenance sidecar certifies no more than the requested budget."""
    try:
        result = json.loads(json_text)["result"]
        certified = float(result["epsilon_certified"])
        requested = float(result["epsilon_requested"])
    except (ValueError, KeyError, TypeError) as err:
        return [f"provenance unreadable: {err!r}"]
    problems = []
    if not certified <= requested + 1e-9:
        problems.append(f"certified epsilon {certified!r} exceeds requested {requested!r}")
    if result.get("m_datasets") != m or result.get("total") != total:
        problems.append("provenance m_datasets or total does not match the request")
    return problems


def check_study(csv_text: str, n_results: int = 60) -> list[str]:
    """A simulate table: ``n_results`` (scenario, method, epsilon) results,
    each with every metric once and finite values (and finite bands for
    rMSE)."""
    lines = _data_lines(csv_text)
    if not lines or lines[0] != STUDY_HEADER:
        return [f"study header is not {STUDY_HEADER!r}"]
    seen: dict[tuple, set] = {}
    problems = []
    for row in lines[1:]:
        cells = row.split(",")
        if len(cells) != 7:
            problems.append(f"study row {row!r} does not have 7 cells")
            continue
        scenario, method, epsilon, metric, value, lo, hi = cells
        metrics = seen.setdefault((scenario, method, epsilon), set())
        if metric not in STUDY_METRICS or metric in metrics:
            problems.append(f"study row {row!r} has an unknown or repeated metric")
        metrics.add(metric)
        numbers = [value] + ([lo, hi] if metric == "rmse" else [])
        try:
            finite = all(math.isfinite(float(cell)) for cell in numbers)
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"study row {row!r} is not finite")
    complete = [key for key, metrics in seen.items() if len(metrics) == len(STUDY_METRICS)]
    if len(seen) != n_results or len(complete) != n_results:
        problems.append(f"study has {len(complete)} complete results of "
                        f"{len(seen)}, expected {n_results}")
    return problems


def check_identical(first: bytes, second: bytes, what: str) -> list[str]:
    if first == second:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b),
              min(len(first), len(second)))
    return [f"{what} differs at byte {at} ({len(first)} vs {len(second)} bytes)"]


def check_md_worst_ratio(max_abs_log_ratio: float, alpha: float, z_total: int,
                         tol: float = 1e-12) -> list[str]:
    """The md audit attains its closed-form worst case ln((T + alpha) / alpha)."""
    expected = math.log((z_total + alpha) / alpha)
    if abs(max_abs_log_ratio - expected) <= tol:
        return []
    return [f"md worst ratio {max_abs_log_ratio!r} is not ln((T+a)/a) = {expected!r}"]


def check_routes_agree(float_value: float, exact_value: float,
                       tol: float = 1e-9) -> list[str]:
    """The float audit at the integer prior matches the exact rational audit."""
    if abs(float_value - exact_value) <= tol:
        return []
    return [f"float route {float_value!r} and exact route {exact_value!r} differ"]


def check_identities(equal_flags) -> list[str]:
    flags = list(equal_flags)
    failed = sum(1 for flag in flags if not flag)
    return [f"{failed} of {len(flags)} convolution identities failed"] if failed else []
