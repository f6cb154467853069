"""Command-line interface and file formats.

Subcommands: calibrate, synthesize, audit, simulate, lemma-check,
bound-sweep. Counts are exchanged as CSV with the header
``group_id,state_id,population,count``; study tables and verification tables
are long-format CSV; calibrations, audit reports, and provenance are JSON.
Every output embeds the tool version, the full effective configuration, and
the master seed, and re-running an embedded configuration reproduces the
file byte for byte.

Exit codes: 0 success or all checks passed; 1 a verification failed (audit
unsatisfied, identity mismatch, negative slack); 2 infeasible budget;
3 I/O, parse or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .audit import audit_synthesizer, bound_accuracy_sweep, default_bound_grid
from .core import CountDataset, PriorSpec, RngStream
from .dirichlet_mult import calibrate_md, md_synthesize
from .errors import CsvParseError, DpcountsError, InfeasibleBudgetError, UsageError
from .exact_math import check_convolution_identity
from .poisson_gamma import (
    SynthesisStrategy,
    TargetRule,
    calibrate_pg,
    pg_synthesize,
    sanitize_state_rates,
)
from .simstudy import PopMode, RateMode, StudyConfig, run_study

SEED_ENV_VAR = "DPCOUNTS_SEED"
DEFAULT_SEED = 20260808

COUNTS_HEADER = ["group_id", "state_id", "population", "count"]

_SCENARIO_NAMES = {
    "uniform-uniform": (PopMode.UNIFORM, RateMode.UNIFORM),
    "hetero-n": (PopMode.HETEROGENEOUS, RateMode.UNIFORM),
    "hetero-rate": (PopMode.UNIFORM, RateMode.HETEROGENEOUS),
    "hetero-both": (PopMode.HETEROGENEOUS, RateMode.HETEROGENEOUS),
}


@dataclass
class RunConfig:
    command: str
    output_path: str | None = None
    input_path: str | None = None
    epsilon: float | None = None
    method: str | None = None
    m_datasets: int = 1
    seed: int = DEFAULT_SEED
    # audit knobs
    y_total: int | None = None
    alpha: str | None = None
    a: str | None = None
    populations: str | None = None
    target_rates: str | None = None
    exact: bool = False
    # synthesis knobs
    target_rule: str = "national"
    state_noise_epsilon: float | None = None
    # simulate knobs
    scenarios: str = "uniform-uniform,hetero-n,hetero-rate,hetero-both"
    n_groups: int = 200
    sim_y_total: int = 1000
    n_total: float = 10_000_000.0
    replicates: int = 50
    epsilons: str = "0.5,1,2,4,8"
    workers: int = 1
    # lemma-check knobs
    max_c: int = 4
    max_z: int = 10
    points: int = 5
    # bound-sweep knobs
    max_a: int = 4
    max_y_total: int = 8
    r_values: str = "1/3,1/2,1,3/2"


def ingest_counts(path) -> CountDataset:
    """Parse a counts CSV, validating as it goes; parse errors carry the
    offending 1-based line number."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise CsvParseError(f"cannot read {path}: {err}") from err
    lines = [(line_no, line) for line_no, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.startswith("#")]
    if not lines:
        raise CsvParseError("empty file", line=1)
    # One reader over the kept lines. A row that reads past its own line holds
    # a quote left open; the empty line appended makes that true of the last.
    reader = csv.reader([line for _, line in lines] + [""])
    rows = []
    seen = set()
    for k, ((line_no, _), row) in enumerate(zip(lines, reader)):
        if reader.line_num > k + 1:
            raise CsvParseError("unclosed quote", line=line_no)
        if k == 0:
            if [h.strip() for h in row] != COUNTS_HEADER:
                raise CsvParseError(f"header must be {','.join(COUNTS_HEADER)}",
                                    line=line_no)
            continue
        if len(row) != 4:
            raise CsvParseError("expected 4 columns", line=line_no)
        group_id, state_id, pop_text, count_text = map(str.strip, row)
        if not group_id:
            raise CsvParseError("empty group_id", line=line_no)
        if group_id in seen:
            raise CsvParseError(f"duplicate group_id {group_id!r}", line=line_no)
        seen.add(group_id)
        try:
            population = float(pop_text)
        except ValueError:
            raise CsvParseError(f"population {pop_text!r} is not a number", line=line_no)
        if not population > 0:
            raise CsvParseError("population must be positive", line=line_no)
        try:
            count = int(count_text)
        except ValueError:
            raise CsvParseError(f"count {count_text!r} is not an integer", line=line_no)
        if count < 0:
            raise CsvParseError("count must be non-negative", line=line_no)
        rows.append((group_id, state_id, population, count))
    if len(rows) < 2:
        raise CsvParseError("need at least two data rows", line=lines[-1][0])
    group_ids, state_ids, populations, counts = zip(*rows)
    return CountDataset.from_counts(counts, populations, group_ids=group_ids,
                                    state_ids=state_ids)


def write_counts(dataset: CountDataset, path) -> None:
    lines = [",".join(COUNTS_HEADER)]
    states = dataset.state_ids or [""] * dataset.n_groups
    for gid, sid, pop, count in zip(dataset.group_ids, states,
                                    dataset.populations, dataset.counts):
        lines.append(f"{gid},{sid},{float(pop)!r},{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Execution-only knobs excluded from embedded configs so outputs stay
# byte-identical across worker counts.
_NON_SEMANTIC_KEYS = {"workers"}


def _config_payload(config: RunConfig) -> dict:
    return {k: v for k, v in dataclasses.asdict(config).items()
            if v is not None and k not in _NON_SEMANTIC_KEYS}


def _meta(config: RunConfig) -> dict:
    return {"tool_version": __version__, "seed": config.seed,
            "config": _config_payload(config)}


def _write_json(path, config: RunConfig, payload: dict) -> None:
    doc = {"meta": _meta(config), "result": payload}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _write_table(path, config: RunConfig, header: list[str], body: list[str]) -> None:
    """Write a long-format CSV table as UTF-8 text.

    The bytes are three comment lines, ``# tool_version=<version>``,
    ``# seed=<seed>`` and ``# config=<effective config as JSON with sorted
    keys>``, then the header cells joined by commas, then ``body``; every line
    ends in a single ``\\n``. Each item of ``body`` is already formatted: one
    row, or a block of rows joined by ``\\n`` with no trailing newline.
    """
    lines = [f"# tool_version={__version__}",
             f"# seed={config.seed}",
             f"# config={json.dumps(_config_payload(config), sort_keys=True)}",
             ",".join(header),
             *body]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_row(cells) -> str:
    """One table row: ``str`` of each cell, empty for None, joined by commas."""
    return ",".join("" if cell is None else str(cell) for cell in cells)


def _release_block(group_ids, replicate: int, counts: np.ndarray) -> str:
    """One replicate of a synthesize table: a ``group_id,replicate,z`` row
    per group, in input order."""
    tail = f",{replicate},"
    return "\n".join([gid + tail + str(z) for gid, z in zip(group_ids, counts.tolist())])


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=np.float64)
    except ValueError:
        raise UsageError(f"{name} must be a comma-separated list of numbers")


def _parse_fractions(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _resolve_rule(config: RunConfig) -> TargetRule:
    try:
        return TargetRule(config.target_rule)
    except ValueError:
        raise UsageError(f"unknown target rule {config.target_rule!r}")


def _pg_targets(config: RunConfig, data: CountDataset, rng: RngStream):
    rule = _resolve_rule(config)
    if config.target_rates is not None:
        return _parse_vector(config.target_rates, "target_rates"), TargetRule.CUSTOM
    if rule is TargetRule.STATE_AVERAGE and config.state_noise_epsilon is not None:
        sanitized = sanitize_state_rates(data, config.state_noise_epsilon, rng)
        return sanitized, TargetRule.CUSTOM
    return None, rule


def _cmd_calibrate(config: RunConfig) -> int:
    if config.method == "md":
        if config.y_total is not None:
            z_total = config.y_total
        elif config.input_path is not None:
            z_total = ingest_counts(config.input_path).total
        else:
            raise UsageError("md calibration requires --z-total or --input")
        cal = calibrate_md(config.epsilon, z_total)
        _write_json(config.output_path, config, {
            "method": "md",
            "epsilon": cal.epsilon,
            "z_total": cal.z_total,
            "alpha_min": cal.alpha_min,
        })
        return 0
    if config.method in ("pg-national", "pg-state", "pg-custom"):
        if config.input_path is None:
            raise UsageError("pg calibration requires --input")
        data = ingest_counts(config.input_path)
        rng = RngStream(config.seed).child(7)
        config.target_rule = {"pg-national": "national", "pg-state": "state",
                              "pg-custom": "custom"}[config.method]
        targets, rule = _pg_targets(config, data, rng)
        cal = calibrate_pg(config.epsilon, data, target_rates=targets, rule=rule)
        _write_json(config.output_path, config, {
            "method": config.method,
            "epsilon": cal.epsilon,
            "z_total": cal.z_total,
            "y_total": cal.y_total,
            "a_min": [float(v) for v in cal.a_min],
            "nu": [float(v) for v in cal.nu],
            "r": [float(v) for v in cal.r],
            "target_rates": [float(v) for v in cal.target_rates],
            "iterations": cal.iterations,
            "converged": cal.converged,
        })
        return 0
    raise UsageError(f"unknown calibrate method {config.method!r}")


def _cmd_synthesize(config: RunConfig) -> int:
    if config.m_datasets < 1:
        raise UsageError("--m must be at least 1")
    data = ingest_counts(config.input_path)
    rng = RngStream(config.seed)
    if config.method == "md":
        alpha_min = calibrate_md(config.epsilon, data.total).alpha_min
        prior = PriorSpec.multinomial_dirichlet(np.full(data.n_groups, alpha_min))

        def draw(stream):
            return md_synthesize(data, prior, stream)
    elif config.method in ("pg-exact2", "pg-multinomial"):
        targets, rule = _pg_targets(config, data, rng.child(8))
        cal = calibrate_pg(config.epsilon, data, target_rates=targets, rule=rule)
        prior = cal.prior()
        strategy = (SynthesisStrategy.EXACT_PAIR if config.method == "pg-exact2"
                    else SynthesisStrategy.LAMBDA_MULTINOMIAL)

        def draw(stream):
            return pg_synthesize(data, prior, strategy, stream)
    else:
        raise UsageError(f"unknown synthesize method {config.method!r}")
    blocks = []
    for m in range(config.m_datasets):
        synth = draw(rng.child(100, m))
        blocks.append(_release_block(data.group_ids, m, synth.counts))
    provenance = synth.provenance
    _write_table(config.output_path, config, ["group_id", "replicate", "z"], blocks)
    sidecar = Path(config.output_path).with_suffix(".provenance.json")
    _write_json(sidecar, config, {
        "method": provenance.method,
        "strategy": provenance.strategy,
        "epsilon_certified": provenance.epsilon,
        "epsilon_requested": config.epsilon,
        "m_datasets": config.m_datasets,
        "total": data.total,
    })
    return 0


def _cmd_audit(config: RunConfig) -> int:
    if config.method == "md":
        if config.alpha is not None:
            alpha = _parse_vector(config.alpha, "alpha")
            if alpha.size == 1:
                alpha = np.repeat(alpha, 2)
        else:
            alpha = np.repeat(calibrate_md(config.epsilon, config.y_total).alpha_min, 2)
        report = audit_synthesizer("md", config.epsilon, config.y_total, alpha=alpha)
        params: dict = {"alpha": [float(v) for v in alpha]}
    elif config.method == "pg2":
        populations = (np.array([1.0, 1.0]) if config.populations is None
                       else _parse_vector(config.populations, "populations"))
        if config.target_rates is not None:
            targets = _parse_vector(config.target_rates, "target_rates")
        else:
            targets = np.full(2, max(config.y_total, 1) / populations.sum())
        if config.a is not None:
            a = _parse_vector(config.a, "a")
        else:
            counts = np.array([config.y_total, 0])
            data = CountDataset.from_counts(counts, populations)
            a = calibrate_pg(config.epsilon, data, target_rates=targets,
                             rule=TargetRule.CUSTOM).a_min
        b = a / targets
        report = audit_synthesizer("pg2", config.epsilon, config.y_total,
                                   a=a, b=b, populations=populations,
                                   exact=config.exact)
        params = {"a": [float(v) for v in a], "b": [float(v) for v in b],
                  "populations": [float(v) for v in populations]}
    else:
        raise UsageError(f"unknown audit method {config.method!r}")
    _write_json(config.output_path, config, {
        "mechanism": config.method,
        "epsilon_target": report.epsilon_target,
        "max_abs_log_ratio": report.max_abs_log_ratio,
        "satisfied": report.satisfied,
        "instances_checked": report.instances_checked,
        "witness": {"y": list(report.witness.y), "x": list(report.witness.x),
                    "z": list(report.witness.z)},
        "params": params,
    })
    return 0 if report.satisfied else 1


def _cmd_simulate(config: RunConfig) -> int:
    ingested = None
    if config.input_path is not None:
        ingested = ingest_counts(config.input_path)
    names = [s.strip() for s in config.scenarios.split(",") if s.strip()]
    try:
        scenario_pairs = tuple(_SCENARIO_NAMES[name] for name in names)
    except KeyError as err:
        raise UsageError(f"unknown scenario {err.args[0]!r}; choices: "
                         f"{', '.join(_SCENARIO_NAMES)}")
    study = StudyConfig(
        n_groups=config.n_groups,
        y_total=config.sim_y_total,
        n_total=config.n_total,
        n_replicates=config.replicates,
        epsilons=tuple(float(e) for e in config.epsilons.split(",")),
        scenarios=scenario_pairs,
        seed=config.seed,
        n_workers=config.workers,
        ingested=ingested,
    )
    rows = []
    for res in run_study(study):
        key = [res.scenario, res.method.value, res.epsilon]
        rows.append(_format_row(key + ["rmse", res.rmse_mean, res.rmse_lo, res.rmse_hi]))
        rows.append(_format_row(key + ["urban_rate", res.urban_rate, None, None]))
        rows.append(_format_row(key + ["rural_rate", res.rural_rate, None, None]))
        rows.append(_format_row(key + ["region_contrast", res.region_contrast,
                                       None, None]))
    _write_table(config.output_path, config,
                 ["scenario", "method", "epsilon", "metric", "value", "lo", "hi"],
                 rows)
    return 0


def _cmd_lemma_check(config: RunConfig) -> int:
    rng = RngStream(config.seed).child(42)
    gen = rng.generator
    rows = []
    all_equal = True
    for c1 in range(1, config.max_c + 1):
        for c2 in range(1, config.max_c + 1):
            for z_total in range(1, config.max_z + 1):
                for _ in range(config.points):
                    p = Fraction(int(gen.integers(1, 100)), int(gen.integers(1, 100)))
                    q = Fraction(int(gen.integers(1, 100)), int(gen.integers(1, 100)))
                    check = check_convolution_identity(c1, c2, z_total, p, q)
                    all_equal &= check.equal
                    rows.append(_format_row([c1, c2, z_total, p, q,
                                             check.lhs, check.equal]))
    _write_table(config.output_path, config,
                 ["c1", "c2", "z_total", "p", "q", "value", "equal"], rows)
    return 0 if all_equal else 1


def _cmd_bound_sweep(config: RunConfig) -> int:
    grid = default_bound_grid(max_a=config.max_a, max_y_total=config.max_y_total,
                              r_values=_parse_fractions(config.r_values))
    sweep = bound_accuracy_sweep(grid)
    rows = []
    for row in sweep.rows:
        inst = row.instance
        rows.append(_format_row([inst.y[0], inst.y[1], inst.a[0], inst.a[1], inst.r,
                                 inst.z_total, row.exact_abs_log_ratio, row.bound,
                                 row.slack]))
    _write_table(config.output_path, config,
                 ["y1", "y2", "a1", "a2", "r", "z_total",
                  "exact_abs_log_ratio", "bound", "slack"], rows)
    summary = sweep.slack_summary()
    summary["skipped"] = len(sweep.skipped)
    _write_json(Path(config.output_path).with_suffix(".summary.json"), config, summary)
    ok = all(row.slack >= -1e-12 for row in sweep.rows)
    return 0 if ok else 1


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "synthesize": _cmd_synthesize,
    "audit": _cmd_audit,
    "simulate": _cmd_simulate,
    "lemma-check": _cmd_lemma_check,
    "bound-sweep": _cmd_bound_sweep,
}


# Checked by run, so a config file or a programmatic RunConfig can supply
# any of these.
_REQUIRED = {
    "calibrate": ("method", "epsilon", "output_path"),
    "synthesize": ("method", "epsilon", "input_path", "output_path"),
    "audit": ("method", "epsilon", "y_total", "output_path"),
    "simulate": ("output_path",),
    "lemma-check": ("output_path",),
    "bound-sweep": ("output_path",),
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        for key in _REQUIRED[config.command]:
            if getattr(config, key) is None:
                flag = {"output_path": "--output", "input_path": "--input",
                        "y_total": "--y-total"}.get(key, f"--{key}")
                raise UsageError(f"{config.command} requires {flag} "
                                 f"(flag or config file)")
        return _COMMANDS[config.command](config)
    except InfeasibleBudgetError as err:
        print(f"error: infeasible budget: {err}", file=sys.stderr)
        return 2
    except (CsvParseError, OSError, DpcountsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", dest="output_path", help="output file path")
    sub.add_argument("--seed", type=int,
                     help=f"master seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sub.add_argument("--config", help="key=value config file; command-line flags win")


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for infeasible budgets; command-line mistakes
    # are reported like other input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Subparsers suppress unset flags so that precedence is simply
    # dataclass defaults < config file < explicit flags.
    parser = _Parser(
        prog="dpcounts",
        description="Differentially private synthetic count data: calibrate, "
                    "synthesize, audit, simulate.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_text):
        return subs.add_parser(name, help=help_text,
                               argument_default=argparse.SUPPRESS)

    cal = sub("calibrate", "solve prior hyperparameters for a budget")
    cal.add_argument("--method",
                     choices=["md", "pg-national", "pg-state", "pg-custom"])
    cal.add_argument("--epsilon", type=float)
    cal.add_argument("--z-total", type=int, dest="y_total")
    cal.add_argument("--input", dest="input_path")
    cal.add_argument("--target-rates", dest="target_rates")
    cal.add_argument("--state-noise-epsilon", type=float, dest="state_noise_epsilon")
    _add_common(cal)

    syn = sub("synthesize", "generate synthetic count releases")
    syn.add_argument("--method",
                     choices=["md", "pg-exact2", "pg-multinomial"])
    syn.add_argument("--epsilon", type=float)
    syn.add_argument("--input", dest="input_path")
    syn.add_argument("--m", type=int, dest="m_datasets",
                     help="number of synthetic releases (default 1)")
    syn.add_argument("--target-rule", dest="target_rule",
                     choices=["national", "state", "custom"])
    syn.add_argument("--target-rates", dest="target_rates")
    syn.add_argument("--state-noise-epsilon", type=float, dest="state_noise_epsilon")
    _add_common(syn)

    aud = sub("audit", "exhaustively verify the privacy guarantee")
    aud.add_argument("--method", choices=["md", "pg2"])
    aud.add_argument("--epsilon", type=float)
    aud.add_argument("--y-total", type=int, dest="y_total")
    aud.add_argument("--alpha",
                     help="MD prior weight (scalar or pair); default: calibrated minimum")
    aud.add_argument("--a", help="PG prior strengths (pair)")
    aud.add_argument("--populations", help="PG populations (pair)")
    aud.add_argument("--target-rates", dest="target_rates")
    aud.add_argument("--exact", action="store_true",
                     help="exact rational arithmetic (integer a only)")
    _add_common(aud)

    sim = sub("simulate", "run the four-scenario utility study")
    sim.add_argument("--input", dest="input_path",
                     help="counts CSV; replaces generated scenarios with "
                          "replicates of the ingested truth")
    sim.add_argument("--scenarios")
    sim.add_argument("--n-groups", type=int, dest="n_groups")
    sim.add_argument("--y-total", type=int, dest="sim_y_total")
    sim.add_argument("--n-total", type=float, dest="n_total")
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--epsilons")
    sim.add_argument("--workers", type=int,
                     help="forked worker processes for the replicates, at "
                          "most the usable CPUs; results do not depend on it")
    _add_common(sim)

    lem = sub("lemma-check", "exact verification of the normalizer "
              "closed-form identity")
    lem.add_argument("--max-c", type=int, dest="max_c")
    lem.add_argument("--max-z", type=int, dest="max_z")
    lem.add_argument("--points", type=int)
    _add_common(lem)

    bnd = sub("bound-sweep", "exact normalizer ratios against their "
              "closed-form bound")
    bnd.add_argument("--max-a", type=int, dest="max_a")
    bnd.add_argument("--max-y-total", type=int, dest="max_y_total")
    bnd.add_argument("--r-values", dest="r_values")
    _add_common(bnd)

    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CsvParseError(f"expected key=value, got {line!r}", line=line_no)
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# How config-file text is cast for fields whose dataclass default is None.
_FIELD_CASTS = {
    "input_path": str, "output_path": str, "epsilon": float, "method": str,
    "y_total": int, "alpha": str, "a": str, "populations": str,
    "target_rates": str, "state_noise_epsilon": float,
}


def config_from_args(argv=None) -> RunConfig:
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    config_path = values.pop("config", None)
    file_values = _load_config_file(config_path) if config_path else {}

    seed = values.pop("seed", None)
    if seed is None and "seed" in file_values:
        seed = int(file_values.pop("seed"))
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, DEFAULT_SEED))

    config = RunConfig(command=values.pop("command"), seed=seed)
    for key, text in file_values.items():
        if key == "command" or not hasattr(config, key):
            raise UsageError(f"config key {key!r} not settable from a file")
        current = getattr(config, key)
        if isinstance(current, bool):
            setattr(config, key, text.lower() in ("1", "true", "yes"))
        elif current is None:
            setattr(config, key, _FIELD_CASTS.get(key, str)(text))
        else:
            setattr(config, key, type(current)(text))
    for key, value in values.items():
        setattr(config, key, value)
    return config


def main(argv=None) -> None:
    try:
        config = config_from_args(argv)
    except DpcountsError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(3)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
