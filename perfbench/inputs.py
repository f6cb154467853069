"""Seeded county-scale input generator.

Writes counts CSVs in the ``group_id,state_id,population,count`` schema that
``dpcounts synthesize`` reads: about 3142 groups in 51 states, log-normal
populations summing to about 3.3e8, and a fixed event total allocated by a
multinomial over population times a log-normal rate with a state component.
The same (seed, index) pair always gives the same file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

COUNTS_HEADER = "group_id,state_id,population,count"


def county_rows(seed: int, index: int, n_groups: int = 3142, n_states: int = 51,
                population_total: float = 3.3e8, total: int = 10_000,
                pop_sigma: float = 1.4, rate_sigma: float = 0.3) -> list[tuple]:
    """Rows ``(group_id, state_id, population, count)`` of one generated file."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    # every state gets at least one group; the rest follow uneven state sizes
    shares = gen.dirichlet(np.full(n_states, 2.0))
    sizes = gen.multinomial(n_groups - n_states, shares) + 1
    state = np.repeat(np.arange(n_states), sizes)
    raw = np.exp(pop_sigma * gen.standard_normal(n_groups))
    populations = np.maximum(np.rint(raw * (population_total / raw.sum())), 1.0)
    u = gen.standard_normal(n_states)[state] + gen.standard_normal(n_groups)
    rates = np.exp(rate_sigma * u / np.sqrt(2.0))
    weights = populations * rates
    counts = gen.multinomial(total, weights / weights.sum())
    county = np.zeros(n_groups, dtype=np.int64)
    for s in range(n_states):
        county[state == s] = 2 * np.arange(1, sizes[s] + 1) - 1
    return [(f"{state[i] + 1:02d}{county[i]:03d}", f"s{state[i] + 1:02d}",
             int(populations[i]), int(counts[i])) for i in range(n_groups)]


def write_counts_csv(path: Path, rows) -> None:
    lines = [COUNTS_HEADER]
    lines.extend(f"{gid},{sid},{pop},{count}" for gid, sid, pop, count in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
