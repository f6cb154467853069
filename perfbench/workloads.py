"""The benchmark's workloads.

Each workload runs closed-loop ops from one process. An op has a timed part,
:meth:`call`, which only invokes the program, and an untimed part,
:meth:`check`, which verifies what the program produced. Every op derives its
own seed from the workload seed, so no op repeats an earlier op's inputs.
Ops come in rounds of ``cycle`` ops so that a run always holds whole cycles
of the op kinds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
from inputs import county_rows, write_counts_csv

# Imported by run.py after it has put the checkout's src/ on sys.path.
from dpcounts import audit, cli, core, dirichlet_mult, exact_math, poisson_gamma


def op_seed(seed: int, op: int) -> int:
    """A seed for op ``op`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, op]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


class Workload:
    name = ""
    unit = ""            # what one work unit is
    cycle = 1            # op kinds per round
    tail_pct = None      # percentile reported as op_tail_s, if any

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        """Make this run's inputs (untimed)."""

    def call(self, op: int):
        """Run op ``op`` against the program; returns what check() reads."""
        raise NotImplementedError

    def check(self, op: int, artifact) -> tuple[float, list[str], dict]:
        """Verify op ``op``; returns (work units, problems, counts)."""
        raise NotImplementedError

    def closing(self) -> list[str] | None:
        """Checks made once after the timed loop, counted as one more op;
        None when the workload has none."""
        return None

    def notes(self) -> dict:
        """Outputs worth recording that are not failures."""
        return {}


class CountyRelease(Workload):
    """``dpcounts synthesize`` at county scale, in process, m = 20."""

    name = "county-release"
    unit = "released group counts"
    cycle = 3
    tail_pct = 85
    n_files = 4
    m = 20
    epsilon = 1.0
    kinds = (
        {"method": "md"},
        {"method": "pg-multinomial"},
        {"method": "pg-multinomial", "target_rule": "state", "state_noise_epsilon": 0.5},
    )

    def setup(self) -> None:
        # Several distinct files, rotated with a period coprime to the op
        # cycle, so a cache of parsed input cannot help the way it would not
        # help a one-process-per-command user.
        self.files = []
        for index in range(self.n_files):
            rows = county_rows(self.seed, index)
            path = self.workdir / f"counts{index}.csv"
            write_counts_csv(path, rows)
            self.files.append((path, [row[0] for row in rows], sum(r[3] for r in rows)))
        self.output = self.workdir / "release.csv"
        self.sidecar = self.output.with_suffix(".provenance.json")
        self.first = None

    def _config(self, op: int) -> cli.RunConfig:
        path = self.files[op % self.n_files][0]
        return cli.RunConfig(command="synthesize", input_path=str(path),
                             output_path=str(self.output), epsilon=self.epsilon,
                             m_datasets=self.m, seed=op_seed(self.seed, op),
                             **self.kinds[op % self.cycle])

    def call(self, op: int):
        return cli.run(self._config(op))

    def _read(self) -> tuple[bytes, bytes]:
        return self.output.read_bytes(), self.sidecar.read_bytes()

    def check(self, op: int, artifact):
        if artifact != 0:
            return 0, [f"synthesize exited {artifact}"], {}
        table, sidecar = self._read()
        _, group_ids, total = self.files[op % self.n_files]
        problems = checks.check_release(table.decode("utf-8"), group_ids, total, self.m)
        problems += checks.check_provenance(sidecar.decode("utf-8"), self.m, total)
        if op == 0:
            self.first = (table, sidecar)
        return (len(group_ids) * self.m, problems,
                {"cli.bytes_written": len(table) + len(sidecar)})

    def closing(self) -> list[str]:
        if self.first is None:
            return ["op 0 produced no output to rerun"]
        code = cli.run(self._config(0))
        if code != 0:
            return [f"rerun of op 0 exited {code}"]
        table, sidecar = self._read()
        return (checks.check_identical(self.first[0], table, "rerun release table")
                + checks.check_identical(self.first[1], sidecar, "rerun provenance"))


class UtilityStudy(Workload):
    """``dpcounts simulate`` with its defaults, in process."""

    name = "utility-study"
    unit = "replicate evaluations"
    workers = 1
    methods = 3   # md, pg-national, pg-state

    def setup(self) -> None:
        self.output = self.workdir / "study.csv"
        self.first = None
        defaults = cli.RunConfig(command="simulate")
        self.n_results = (len(defaults.scenarios.split(",")) * self.methods
                          * len(defaults.epsilons.split(",")))
        self.work = self.n_results * defaults.replicates

    def _config(self, op: int, workers: int) -> cli.RunConfig:
        return cli.RunConfig(command="simulate", output_path=str(self.output),
                             seed=op_seed(self.seed, op), workers=workers)

    def call(self, op: int):
        return cli.run(self._config(op, self.workers))

    def check(self, op: int, artifact):
        if artifact != 0:
            return 0, [f"simulate exited {artifact}"], {}
        table = self.output.read_bytes()
        problems = checks.check_study(table.decode("utf-8"), self.n_results)
        if op == 0:
            self.first = table
        return self.work, problems, {"cli.bytes_written": len(table)}

    def closing(self) -> list[str]:
        # A rerun with the other worker count must reproduce op 0 byte for
        # byte: outputs may not depend on reruns or on --workers.
        if self.first is None:
            return ["op 0 produced no output to rerun"]
        other = 2 if self.workers == 1 else 1
        code = cli.run(self._config(0, other))
        if code != 0:
            return [f"rerun of op 0 with --workers {other} exited {code}"]
        return checks.check_identical(self.first, self.output.read_bytes(),
                                      f"study rerun with --workers {other}")


class UtilityStudyW2(UtilityStudy):
    name = "utility-study-w2"
    workers = 2


class AuditCap(Workload):
    """Exhaustive audits at the enumeration cap and the lemma-check identities."""

    name = "audit-cap"
    unit = "log ratios checked"
    y_total = 12
    epsilons = (math.log(2.0), 1.0, 2.0, 3.0, 7.0)
    # (populations, targets); None means national targets y_total / sum(n)
    structures = (((2.0, 2.0), None), ((1.0, 4.0), (0.8, 0.25)))
    # lemma-check defaults: c1, c2 in 1..4, z_total in 1..10, 5 points each
    max_c, max_z, points = 4, 10, 5
    # Each op scales every epsilon and the custom targets by 1 + u * jitter,
    # u uniform from the op seed, so no op repeats an earlier op's audit
    # inputs; the closed forms and instance counts the checks use still hold.
    jitter = 1e-3

    def setup(self) -> None:
        self.unsatisfied = []

    def call(self, op: int):
        T = self.y_total
        gen = np.random.Generator(np.random.PCG64(op_seed(self.seed, op)))
        results = []
        for eps in self.epsilons:
            eps *= 1.0 + self.jitter * gen.random()
            alpha = dirichlet_mult.calibrate_md(eps, T).alpha_min
            report = audit.audit_synthesizer("md", eps, T, alpha=np.array([alpha, alpha]))
            results.append(("md", eps, alpha, report))
            for populations, targets in self.structures:
                n = np.array(populations)
                if targets is None:
                    lam = np.full(2, T / n.sum())
                else:
                    lam = np.array(targets) * (1.0 + self.jitter * gen.random(2))
                data = core.CountDataset.from_counts([T, 0], n)
                cal = poisson_gamma.calibrate_pg(eps, data, target_rates=lam,
                                                 rule=poisson_gamma.TargetRule.CUSTOM)
                a_int = poisson_gamma.integer_prior_strength(cal, n)
                at_min = audit.audit_synthesizer("pg2", eps, T, a=cal.a_min,
                                                 b=cal.a_min / lam, populations=n)
                at_int = audit.audit_synthesizer("pg2", eps, T, a=a_int.astype(float),
                                                 b=a_int / lam, populations=n)
                exact = audit.audit_synthesizer("pg2", eps, T, a=a_int, b=a_int / lam,
                                                populations=n, exact=True)
                results.append(("pg2", eps, populations, (at_min, at_int, exact)))
        identities = []
        for c1 in range(1, self.max_c + 1):
            for c2 in range(1, self.max_c + 1):
                for z_total in range(1, self.max_z + 1):
                    for _ in range(self.points):
                        p = Fraction(int(gen.integers(1, 100)), int(gen.integers(1, 100)))
                        q = Fraction(int(gen.integers(1, 100)), int(gen.integers(1, 100)))
                        identities.append(exact_math.check_convolution_identity(
                            c1, c2, z_total, p, q).equal)
        return results, identities

    def check(self, op: int, artifact):
        results, identities = artifact
        problems = checks.check_identities(identities)
        if len(identities) != self.max_c ** 2 * self.max_z * self.points:
            problems.append(f"{len(identities)} identities checked")
        work = 0
        for kind, eps, param, reports in results:
            if kind == "md":
                problems += checks.check_md_worst_ratio(reports.max_abs_log_ratio,
                                                        param, self.y_total)
                routes = {"calibrated alpha": reports}
            else:
                problems += checks.check_routes_agree(reports[1].max_abs_log_ratio,
                                                      reports[2].max_abs_log_ratio)
                routes = dict(zip(("a_min", "integer a", "exact at integer a"), reports))
            for route, report in routes.items():
                work += report.instances_checked
                if op == 0 and not report.satisfied:
                    self.unsatisfied.append({"mechanism": kind, "epsilon": eps,
                                             "params": param, "route": route,
                                             "max_abs_log_ratio": report.max_abs_log_ratio})
        return work, problems, {}

    def notes(self) -> dict:
        return {"unsatisfied_audits_in_op0": self.unsatisfied}


WORKLOADS = {w.name: w for w in (CountyRelease, UtilityStudy, UtilityStudyW2, AuditCap)}
