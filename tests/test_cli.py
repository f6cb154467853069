import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

import dpcounts.cli as cli
import dpcounts.exact_math as exact_math
from dpcounts.audit import audit_synthesizer
from dpcounts.cli import RunConfig, config_from_args, ingest_counts, run, write_counts
from dpcounts.core import (CountDataset, RngStream, sample_dirichlet, sample_gamma,
                           sample_multinomial)
from dpcounts.dirichlet_mult import calibrate_md, md_implied_epsilon
from dpcounts.errors import CsvParseError, InfeasibleBudgetError
from dpcounts.poisson_gamma import (TargetRule, calibrate_pg, conditional_log_pmf_all,
                                    pg_implied_epsilon, sample_pair_allocation,
                                    sanitize_state_rates)


MINIMAL_CSV = """group_id,state_id,population,count
c1,s1,100.0,3
c2,s1,200.0,7
c3,s2,400.0,2
"""


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(MINIMAL_CSV)
    return path


class TestIngest:
    def test_minimal_file(self, counts_file):
        data = ingest_counts(counts_file)
        assert data.n_groups == 3
        assert data.total == 12
        assert data.group_ids == ("c1", "c2", "c3")
        assert data.state_ids == ("s1", "s1", "s2")

    def test_round_trip(self, tmp_path):
        data = CountDataset.from_counts([5, 9], [10.5, 20.25],
                                        group_ids=["a", "b"],
                                        state_ids=["s1", "s2"])
        path = tmp_path / "echo.csv"
        write_counts(data, path)
        assert ingest_counts(path) == data

    def test_round_trip_quotes_ids(self, tmp_path):
        data = CountDataset.from_counts([5, 9, 1], [10.5, 20.25, 3.0],
                                        group_ids=["b,x", 'c"q', "plain"],
                                        state_ids=["s1", "s,2", 's"3'])
        path = tmp_path / "echo.csv"
        write_counts(data, path)
        assert ingest_counts(path) == data
        rows = list(csv.reader(path.read_text().splitlines()))
        assert [len(row) for row in rows] == [4] * 4

    @pytest.mark.parametrize("text", ["plain", "b,x", 'c"q', '"', ",", "a\nb", "a\rb",
                                      " spaced ", ""])
    def test_cells_are_quoted_as_csv_writes_them(self, text):
        # the default dialect, whose line terminator holds both line breaks
        buffer = io.StringIO()
        csv.writer(buffer).writerow([text, "end"])
        assert buffer.getvalue() == cli._csv_cell(text) + ",end\r\n"

    @pytest.mark.parametrize("row,fragment", [
        ("c9,s1,100.0,-1", "non-negative"),
        ("c9,s1,0.0,1", "positive"),
        ("c9,s1,abc,1", "not a number"),
        ("c9,s1,100.0,1.5", "not an integer"),
        ("c1,s1,100.0,1", "duplicate"),
        ("c9,s1,100.0", "4 columns"),
    ])
    def test_bad_row_names_line(self, tmp_path, row, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(MINIMAL_CSV + row + "\n")
        with pytest.raises(CsvParseError) as err:
            ingest_counts(path)
        assert fragment in str(err.value)
        assert "line 5" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,pop,count\nc1,1,1\n")
        with pytest.raises(CsvParseError) as err:
            ingest_counts(path)
        assert "line 1" in str(err.value)

    def test_quoted_comma_is_one_field(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(MINIMAL_CSV + '"b,x",s2,50.0,1\n')
        assert ingest_counts(path).group_ids[-1] == "b,x"

    @pytest.mark.parametrize("text", [
        MINIMAL_CSV.replace("c1,s1,", 'c1,"s1,'),
        MINIMAL_CSV.replace("c1,s1,100.0,3", 'c1,s1,100.0,"3'),
        MINIMAL_CSV.replace("c3,s2,400.0,2", 'c3,s2,400.0,"2').rstrip("\n"),
    ], ids=["three-cells", "four-cells", "last-line"])
    def test_unclosed_quote_names_its_own_line(self, tmp_path, text):
        # the open quote must not swallow the lines after it
        path = tmp_path / "open.csv"
        path.write_text(text)
        line = 1 + next(k for k, row in enumerate(text.splitlines()) if '"' in row)
        with pytest.raises(CsvParseError) as err:
            ingest_counts(path)
        assert err.value.line == line
        assert "unclosed quote" in str(err.value)

    def test_skipped_lines_keep_line_numbers(self, tmp_path):
        text = ("# comment\n\ngroup_id,state_id,population,count\n   \n"
                "c1,s1,100.0,3\n# c2,s1,1.0,1\nc2,s1,200.0,7\n\nc1,s2,5.0,1\n")
        path = tmp_path / "gaps.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError) as err:
            ingest_counts(path)
        assert "duplicate group_id 'c1'" in str(err.value)
        assert err.value.line == 9
        path.write_text(text.replace("c1,s2", "c3,s2"))
        data = ingest_counts(path)
        assert data.group_ids == ("c1", "c2", "c3")
        assert data.total == 11


def run_cli(argv):
    return run(config_from_args(argv))


class TestCalibrateCommand:
    def test_md_large_total(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--method", "md", "--epsilon", "7",
                        "--z-total", "10000", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["alpha_min"] == pytest.approx(9.127142532217338)
        assert doc["meta"]["tool_version"]

    def test_pg_from_file(self, tmp_path, counts_file):
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--method", "pg-state", "--epsilon", "2",
                        "--input", str(counts_file), "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())["result"]
        assert doc["converged"]
        assert len(doc["a_min"]) == 3
        assert all(nu < math.exp(2.0) for nu in doc["nu"])

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--method", "md", "--epsilon", "1.5",
                "--z-total", "50", "--output", str(out), "--seed", "3"]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first


class TestAuditCommand:
    def test_spec_style_invocation(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "md",
                        "--epsilon", repr(math.log(3.0)),
                        "--y-total", "2", "--alpha", "1", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())["result"]
        assert doc["satisfied"]
        assert doc["max_abs_log_ratio"] == pytest.approx(math.log(3.0))

    def test_unsatisfied_exits_one(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "md", "--epsilon", "0.5",
                        "--y-total", "2", "--alpha", "1", "--output", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["result"]["satisfied"] is False

    def test_pg_defaults_to_calibrated_prior(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "pg2", "--epsilon", "1.0",
                        "--y-total", "4", "--populations", "1,4",
                        "--target-rates", "0.8,0.25", "--output", str(out)])
        assert code == 0

    @pytest.mark.parametrize("epsilon", ["18", "40", "200", "700", "709.78"])
    def test_pg_audit_at_large_budgets(self, tmp_path, epsilon, capsys):
        # the calibrated a is tiny here: the cancelled route must keep it
        # where z + y = 1, or the two routes disagree (at 709.78, log(0))
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "pg2", "--epsilon", epsilon,
                        "--y-total", "4", "--populations", "1,4",
                        "--target-rates", "0.8,0.25", "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["result"]["satisfied"] is True

    def test_pg_exact_route(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "pg2", "--epsilon", "2.0",
                        "--y-total", "3", "--a", "3,2", "--populations", "1,2",
                        "--target-rates", "1,1", "--exact", "--output", str(out)])
        assert code == 0

    def test_pg_exact_audits_the_rounded_up_calibrated_strength(self, tmp_path):
        # the README example: the calibrated a = 2.67 is audited at a = 3,
        # and the file records the strength that was audited
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "pg2", "--epsilon", "1", "--y-total", "4",
                        "--populations", "1,4", "--target-rates", "0.8,0.25",
                        "--exact", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())["result"]
        assert doc["satisfied"] is True
        assert doc["max_abs_log_ratio"] == pytest.approx(0.9015956378104164, abs=1e-12)
        assert doc["params"]["a"] == [3.0, 3.0]
        assert doc["params"]["b"] == [3.75, 12.0]

    def test_dominant_group_is_audited(self, tmp_path, capsys):
        # each complement is the other group, not a total that cancels
        out = tmp_path / "audit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["audit", "--method", "pg2", "--epsilon", "1", "--y-total", "4",
                            "--populations", "1e16,1", "--a", "2,2", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["result"]["satisfied"] is False

    @pytest.mark.parametrize("argv", [
        ["--method", "pg2", "--populations", "1,4", "--target-rates", "0.8,0.25",
         "--a", "2.9,2.9"],
        ["--method", "md"],
    ], ids=["pg2-fractional-a", "md"])
    def test_exact_refusals_exit_three_and_write_nothing(self, tmp_path, argv, capsys):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--epsilon", "1", "--y-total", "4", "--exact",
                        "--output", str(out)] + argv)
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


RELEASE_CSV = """group_id,state_id,population,count
01001,s01,1200.0,4
01003,s01,800.0,2
02013,s02,1500.0,5
02016,s02,500.0,1
"""

PAIR_CSV = """group_id,state_id,population,count
01001,s01,10.0,4
01003,s02,30.0,6
"""


class TestSynthesizeCommand:
    def test_md_release_set(self, tmp_path, counts_file):
        out = tmp_path / "synthetic.csv"
        code = run_cli(["synthesize", "--method", "md", "--epsilon", "2",
                        "--input", str(counts_file), "--m", "3",
                        "--output", str(out), "--seed", "9"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "group_id,replicate,z"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 9
        for m in range(3):
            total = sum(int(z) for g, rep, z in body if rep == str(m))
            assert total == 12
        sidecar = json.loads((tmp_path / "synthetic.provenance.json").read_text())
        assert sidecar["result"]["method"] == "multinomial-dirichlet"

    def test_pg_exact_pair(self, tmp_path):
        # two groups take the exact route: inverse CDF over the conditional pmf
        src = tmp_path / "pair.csv"
        src.write_text(PAIR_CSV)
        out = tmp_path / "synthetic.csv"
        code = run_cli(["synthesize", "--method", "pg-multinomial", "--epsilon", "1",
                        "--input", str(src), "--seed", "5", "--output", str(out)])
        assert code == 0
        data = ingest_counts(src)
        prior = calibrate_pg(1.0, data).prior()
        log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                          data.populations, data.total)
        z1 = sample_pair_allocation(log_pmf, RngStream(5).child(100, 0))
        assert out.read_text().splitlines()[4:] == [f"01001,0,{z1}", f"01003,0,{10 - z1}"]
        result = json.loads(out.with_suffix(".provenance.json").read_text())["result"]
        assert result["strategy"] == "exact-enumeration-2"

    @pytest.mark.parametrize("epsilon,audited", [(0.5, 0.49998), (1.0, 0.99997),
                                                 (2.0, 1.99994)])
    def test_two_group_counterexample_ships_the_certified_law(self, tmp_path, epsilon,
                                                             audited):
        # the rate-then-multinomial law reaches a log ratio of 7.25 on this
        # file at epsilon 2; the exact pair law is what the audit certifies
        src = tmp_path / "pair.csv"
        src.write_text("group_id,state_id,population,count\n"
                       "a,s1,298.0,5\nb,s2,3900000.0,1\n")
        out = tmp_path / "release.csv"
        seed, m = 17, 4
        assert run_cli(["synthesize", "--method", "pg-multinomial",
                        "--epsilon", str(epsilon), "--m", str(m), "--seed", str(seed),
                        "--input", str(src), "--output", str(out)]) == 0
        result = json.loads(out.with_suffix(".provenance.json").read_text())["result"]
        assert result["strategy"] == "exact-enumeration-2"
        data = ingest_counts(src)
        prior = calibrate_pg(epsilon, data).prior()
        log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                          data.populations, data.total)
        body = out.read_text().splitlines()[4:]
        for k in range(m):
            z1 = sample_pair_allocation(log_pmf, RngStream(seed).child(100, k))
            assert body[2 * k:2 * k + 2] == [f"a,{k},{z1}", f"b,{k},{6 - z1}"]
        report = audit_synthesizer("pg2", epsilon, 6, a=prior.a, b=prior.b,
                                   populations=data.populations)
        assert report.satisfied
        assert report.max_abs_log_ratio == pytest.approx(audited, abs=1e-5)

    def test_reproducible_across_runs(self, tmp_path, counts_file):
        out = tmp_path / "synthetic.csv"
        argv = ["synthesize", "--method", "pg-multinomial", "--epsilon", "1",
                "--input", str(counts_file), "--m", "2", "--output", str(out),
                "--seed", "4"]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("method,extra,noise", [
        ("md", [], 0.0),
        ("pg-multinomial", [], 0.0),
        ("pg-multinomial", ["--target-rule", "state", "--state-noise-epsilon", "0.5"], 0.5),
        # national targets draw no noise, so the flag alone costs nothing
        ("pg-multinomial", ["--state-noise-epsilon", "0.5"], 0.0),
    ], ids=["md", "pg-national", "pg-state-noise", "pg-national-noise-flag"])
    def test_provenance_states_the_file_budget(self, tmp_path, method, extra, noise):
        src = tmp_path / "counts.csv"
        src.write_text(RELEASE_CSV)
        out = tmp_path / "release.csv"
        assert run_cli(["synthesize", "--method", method, "--epsilon", "1",
                        "--input", str(src), "--m", "4", "--output", str(out), *extra]) == 0
        result = json.loads(out.with_suffix(".provenance.json").read_text())["result"]
        # epsilon_certified stays the budget of one release
        assert 0 < result["epsilon_certified"] <= 1.0
        assert result["epsilon_file"] == 4 * result["epsilon_certified"] + 2 * noise
        rule = result["epsilon_file_rule"]
        assert rule.endswith("by basic sequential composition (Dwork & Roth 2014, Section 3.5)")
        assert ("+ 2 * state_noise_epsilon" in rule) == (noise > 0)

    def test_failed_sidecar_write_leaves_no_table(self, tmp_path, counts_file, capsys):
        # the provenance file cannot be written: no table may appear without it
        out = tmp_path / "out.csv"
        out.with_suffix(".provenance.json").mkdir()
        code = run_cli(["synthesize", "--method", "md", "--epsilon", "1",
                        "--input", str(counts_file), "--output", str(out)])
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv",
                                                              "out.provenance.json"]

    def test_ids_that_need_quoting_are_quoted(self, tmp_path):
        src = tmp_path / "counts.csv"
        src.write_text('group_id,state_id,population,count\n"b,x",s1,100.0,3\n'
                       '"c""q",s1,200.0,7\nplain,s2,400.0,2\n')
        out = tmp_path / "release.csv"
        assert run_cli(["synthesize", "--method", "md", "--epsilon", "1",
                        "--input", str(src), "--m", "2", "--output", str(out)]) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        rows = list(csv.reader(body))
        assert rows[0] == ["group_id", "replicate", "z"]
        assert [len(row) for row in rows] == [3] * 7
        assert [(gid, rep) for gid, rep, _ in rows[1:]] == [
            (gid, str(rep)) for rep in range(2) for gid in ("b,x", 'c"q', "plain")]
        assert sum(int(z) for _, _, z in rows[1:4]) == 12
        assert body[1] == '"b,x",0,' + rows[1][2]
        assert body[2] == '"c""q",0,' + rows[2][2]

    # ids name the release route: the exact pair route at two groups, rates
    # and one multinomial at more
    @pytest.mark.parametrize("csv_text", [PAIR_CSV, RELEASE_CSV],
                             ids=["pg-exact2", "pg-multinomial"])
    def test_state_targets_without_noise_are_refused(self, tmp_path, capsys, csv_text):
        # raw state rates leak the confidential state totals: fail closed
        src = tmp_path / "counts.csv"
        src.write_text(csv_text)
        code = run_cli(["synthesize", "--method", "pg-multinomial", "--epsilon", "1",
                        "--input", str(src), "--target-rule", "state",
                        "--output", str(tmp_path / "release.csv")])
        assert code == 3
        assert "--state-noise-epsilon" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv"]


class TestReleaseFormat:
    @pytest.mark.parametrize("method,extra,csv_text", [
        ("md", [], RELEASE_CSV),
        ("pg-multinomial", [], RELEASE_CSV),
        ("pg-multinomial", ["--target-rule", "state", "--state-noise-epsilon", "0.5"],
         RELEASE_CSV),
        ("pg-multinomial", [], PAIR_CSV),  # the exact pair route
    ], ids=["md", "pg-national", "pg-state-noise", "pg-exact2"])
    def test_every_body_line_is_group_replicate_count(self, tmp_path, method, extra,
                                                      csv_text):
        src = tmp_path / "counts.csv"
        src.write_text(csv_text)
        out = tmp_path / "release.csv"
        m = 3
        code = run_cli(["synthesize", "--method", method, "--epsilon", "1",
                        "--input", str(src), "--m", str(m), "--seed", "11",
                        "--output", str(out), *extra])
        assert code == 0
        data = ingest_counts(src)
        assert data.group_ids[0] == "01001"
        text = out.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text[:-1].split("\n")
        assert lines[0].startswith("# tool_version=")
        assert lines[1] == "# seed=11"
        assert json.loads(lines[2].removeprefix("# config="))["method"] == method
        assert lines[3] == "group_id,replicate,z"
        body = lines[4:]
        assert len(body) == m * data.n_groups
        for rep in range(m):
            block = body[rep * data.n_groups:(rep + 1) * data.n_groups]
            counts = [int(line.rsplit(",", 1)[1]) for line in block]
            assert block == [f"{gid},{rep},{z}" for gid, z in zip(data.group_ids, counts)]
            assert sum(counts) == data.total


class TestReleaseKernel:
    """Every block of a synthesize table against a per-release reference,
    drawn with the public samplers on stream (100, k) of the seed."""

    CUSTOM_RATES = np.array([0.004, 0.002, 0.003, 0.001])

    def _reference(self, method, data, seed, epsilon):
        """The certified budget and a function drawing one release on a
        stream."""
        if method == "md":
            alpha = np.full(data.n_groups, calibrate_md(epsilon, data.total).alpha_min)

            def release(stream):
                theta = sample_dirichlet(data.counts + alpha, stream)
                return sample_multinomial(data.total, theta, stream)
            return md_implied_epsilon(alpha, data.total), release
        targets, rule = {
            "pg-national": (None, TargetRule.DEFAULT_NATIONAL),
            "pg-custom": (self.CUSTOM_RATES, TargetRule.CUSTOM),
            "pg-state-noise": (sanitize_state_rates(data, 0.5, RngStream(seed).child(8)),
                               TargetRule.CUSTOM),
            "pg-exact2": (None, TargetRule.DEFAULT_NATIONAL),
        }[method]
        prior = calibrate_pg(epsilon, data, target_rates=targets, rule=rule).prior()
        certified = pg_implied_epsilon(data.populations, prior.a, prior.b,
                                       data.total, data.total)
        if method == "pg-exact2":
            log_pmf = conditional_log_pmf_all(data.counts, prior.a, prior.b,
                                              data.populations, data.total)

            def release(stream):
                z1 = sample_pair_allocation(log_pmf, stream)
                return np.array([z1, data.total - z1])
            return certified, release

        def release(stream):
            rates = sample_gamma(data.counts + prior.a, data.populations + prior.b, stream)
            weights = data.populations * rates
            return sample_multinomial(data.total, weights / weights.sum(), stream)
        return certified, release

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("method,extra", [
        ("md", []),
        ("pg-national", []),
        ("pg-custom", ["--target-rule", "custom",
                       "--target-rates", "0.004,0.002,0.003,0.001"]),
        ("pg-state-noise", ["--target-rule", "state", "--state-noise-epsilon", "0.5"]),
        ("pg-exact2", []),
    ])
    def test_blocks_match_the_per_release_reference(self, tmp_path, method, extra, m):
        src = tmp_path / "counts.csv"
        src.write_text(PAIR_CSV if method == "pg-exact2" else RELEASE_CSV)
        out = tmp_path / "release.csv"
        seed, epsilon = 23, 1.0
        cli_method = "md" if method == "md" else "pg-multinomial"
        assert run_cli(["synthesize", "--method", cli_method, "--epsilon", str(epsilon),
                        "--input", str(src), "--m", str(m), "--seed", str(seed),
                        "--output", str(out), *extra]) == 0
        data = ingest_counts(src)
        certified, release = self._reference(method, data, seed, epsilon)
        body = out.read_text().splitlines()[4:]
        assert len(body) == m * data.n_groups
        for k in range(m):
            z = release(RngStream(seed).child(100, k))
            block = body[k * data.n_groups:(k + 1) * data.n_groups]
            assert block == [f"{gid},{k},{count}"
                             for gid, count in zip(data.group_ids, z.tolist())]
        result = json.loads(out.with_suffix(".provenance.json").read_text())["result"]
        assert result["epsilon_certified"] == certified


class TestSimulateCommand:
    def test_small_study_and_worker_independence(self, tmp_path):
        out = tmp_path / "study.csv"
        base = ["simulate", "--scenarios", "uniform-uniform",
                "--n-groups", "12", "--y-total", "60", "--replicates", "4",
                "--epsilons", "1,4", "--seed", "2", "--output", str(out)]
        assert run_cli(base + ["--workers", "1"]) == 0
        serial = out.read_bytes()
        assert run_cli(base + ["--workers", "3"]) == 0
        assert out.read_bytes() == serial
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "scenario,method,epsilon,metric,value,lo,hi"
        assert len(lines) == 1 + 3 * 2 * 4

    def test_ingested_input(self, tmp_path, counts_file):
        out = tmp_path / "study.csv"
        code = run_cli(["simulate", "--input", str(counts_file),
                        "--replicates", "3", "--epsilons", "1",
                        "--output", str(out)])
        assert code == 0
        assert "ingested" in out.read_text()


class TestVerificationCommands:
    def test_lemma_check_passes(self, tmp_path):
        out = tmp_path / "lemma.csv"
        code = run_cli(["lemma-check", "--max-c", "2", "--max-z", "3",
                        "--points", "2", "--output", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "c1,c2,z_total,p,q,value,equal"
        assert len(lines) == 1 + 2 * 2 * 3 * 2
        assert all(line.endswith("True") for line in lines[1:])

    def test_lemma_check_fails_on_a_wrong_closed_form(self, tmp_path, monkeypatch):
        def off_by_one(c1, c2, z_total, p, q):
            return exact_math.convolution_sum(c1, c2, z_total, p, q) + 1

        monkeypatch.setattr(exact_math, "convolution_closed_form", off_by_one)
        out = tmp_path / "lemma.csv"
        code = run_cli(["lemma-check", "--max-c", "2", "--max-z", "2",
                        "--points", "1", "--output", str(out)])
        assert code == 1
        rows = list(csv.DictReader(l for l in out.read_text().splitlines()
                                   if not l.startswith("#")))
        assert len(rows) == 2 * 2 * 2
        assert {row["equal"] for row in rows} == {"False"}

    def test_bound_sweep_passes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["bound-sweep", "--max-a", "2", "--max-y-total", "3",
                        "--output", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert summary["result"]["min"] >= -1e-12


class TestErrorsAndConfig:
    def test_missing_input_exits_three(self, tmp_path):
        code = run_cli(["calibrate", "--method", "pg-national", "--epsilon", "1",
                        "--input", str(tmp_path / "nope.csv"),
                        "--output", str(tmp_path / "o.json")])
        assert code == 3

    def test_parse_error_exits_three(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("group_id,state_id,population,count\nc1,s1,1.0,-2\nc2,s1,1.0,1\n")
        code = run_cli(["calibrate", "--method", "pg-national", "--epsilon", "1",
                        "--input", str(bad), "--output", str(tmp_path / "o.json")])
        assert code == 3

    def test_infeasible_budget_exits_two(self, tmp_path, counts_file, monkeypatch):
        def explode(*args, **kwargs):
            raise InfeasibleBudgetError("forced")
        monkeypatch.setattr(cli, "calibrate_pg", explode)
        code = run_cli(["calibrate", "--method", "pg-national", "--epsilon", "1",
                        "--input", str(counts_file),
                        "--output", str(tmp_path / "o.json")])
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=7\ny_total=10000\nseed=12\n")
        out = tmp_path / "cal.json"
        code = run_cli(["calibrate", "--method", "md", "--config", str(cfg),
                        "--epsilon", "1.0", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        # flag beats file for epsilon; file supplies the total and seed
        assert doc["result"]["epsilon"] == 1.0
        assert doc["result"]["z_total"] == 10000
        assert doc["meta"]["seed"] == 12

    def test_usage_error_exits_three(self, tmp_path, capsys):
        # the pair route is chosen by the group count, not by a method
        (tmp_path / "pair.csv").write_text(PAIR_CSV)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["synthesize", "--method", "pg-exact2", "--epsilon", "1",
                      "--input", str(tmp_path / "pair.csv"),
                      "--output", str(tmp_path / "o.csv")])
        assert exit_.value.code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'md', 'pg-multinomial'" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.csv"]

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--method", "md", "--epsilon", "inf", "--z-total", "10"],
        ["audit", "--method", "md", "--epsilon", "inf", "--y-total", "2", "--alpha", "1"],
    ], ids=["calibrate", "audit"])
    def test_infinite_budget_exits_three_and_writes_nothing(self, tmp_path, argv, capsys):
        out = tmp_path / "o.json"
        assert run_cli(argv + ["--output", str(out)]) == 3
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--method", "md", "--z-total", "10", "--epsilon"],
        ["simulate", "--scenarios", "uniform-uniform", "--n-groups", "12", "--y-total", "60",
         "--replicates", "2", "--epsilons"],
    ], ids=["calibrate", "simulate"])
    @pytest.mark.parametrize("epsilon,code", [("709.78", 0), ("709.79", 3), ("1e308", 3)])
    def test_budget_refused_where_its_exp_overflows(self, tmp_path, argv, epsilon, code,
                                                    capsys):
        # e^eps is a finite float up to ln(max float) = 709.7827...
        out = tmp_path / "o.out"
        budgets = epsilon if argv[0] == "calibrate" else f"1,{epsilon}"
        assert run_cli(argv + [budgets, "--output", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert out.exists() and err == ""
        else:
            assert err.splitlines() == [
                "error: epsilon must be at most 709.782712893384, "
                "where e^epsilon is still a finite float"]
            assert not out.exists()

    @pytest.mark.parametrize("config", [
        RunConfig(command="lemma-check"),
        RunConfig(command="calibrate", method="md", epsilon=1.0, y_total=5),
    ], ids=["lemma-check", "calibrate"])
    def test_run_checks_required_fields(self, config, capsys):
        assert run(config) == 3
        assert "requires --output" in capsys.readouterr().err

    def test_bad_flag_exits_three(self, capsys):
        with pytest.raises(SystemExit) as err:
            config_from_args(["audit", "--method", "nope"])
        assert err.value.code == 3
        capsys.readouterr()

    def test_env_var_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        out = tmp_path / "cal.json"
        run_cli(["calibrate", "--method", "md", "--epsilon", "1",
                 "--z-total", "5", "--output", str(out)])
        assert json.loads(out.read_text())["meta"]["seed"] == 777

    def test_embedded_config_reproduces_output(self, tmp_path):
        out = tmp_path / "audit.json"
        argv = ["audit", "--method", "md", "--epsilon", "1.2", "--y-total", "3",
                "--alpha", "4.5", "--output", str(out), "--seed", "21"]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        embedded = json.loads(first)["meta"]["config"]
        config = RunConfig(**embedded)
        assert run(config) == 0
        assert out.read_bytes() == first


_SMALL_STUDY = ["--scenarios", "uniform-uniform", "--n-groups", "12", "--y-total", "60",
                "--replicates", "2"]
_PG2_AUDIT = ["audit", "--method", "pg2", "--epsilon", "1", "--y-total", "4"]


@pytest.mark.parametrize("argv,code", [
    # a pg budget whose e^eps rounds to 1 is infeasible
    (["calibrate", "--method", "pg-national", "--epsilon", "1e-16", "--input", "{counts}"], 2),
    (["synthesize", "--method", "pg-multinomial", "--epsilon", "1e-16",
      "--input", "{counts}"], 2),
    (["audit", "--method", "pg2", "--epsilon", "1e-16", "--y-total", "4",
      "--populations", "1,4", "--target-rates", "0.8,0.25"], 2),
    (["simulate", "--epsilons", "1e-16"] + _SMALL_STUDY, 2),
    # populations whose total overflows
    (["synthesize", "--method", "pg-multinomial", "--epsilon", "1", "--input", "{huge}"], 3),
    (["simulate", "--epsilons", "0.5,abc"] + _SMALL_STUDY, 3),
    (["simulate", "--epsilons", ""] + _SMALL_STUDY, 3),
    (["simulate", "--scenarios", ""], 3),
    (_PG2_AUDIT + ["--a", "1,2,3"], 3),
    (_PG2_AUDIT + ["--populations", "1,4", "--target-rates", "1,2,3", "--a", "2,2"], 3),
    (["bound-sweep", "--r-values", "abc"], 3),
    (["bound-sweep", "--r-values", "0"], 3),
    (["bound-sweep", "--r-values", "1/0"], 3),
    (["bound-sweep", "--max-a", "0"], 3),
    (["bound-sweep", "--max-y-total", "0"], 3),
    (["lemma-check", "--max-c", "0"], 3),
    (["lemma-check", "--max-z", "0"], 3),
    (["lemma-check", "--points", "0"], 3),
    (["lemma-check", "--max-c", "abc"], 3),
    # non-finite prior parameters and targets, refused where they enter
    (["audit", "--method", "md", "--epsilon", "1", "--y-total", "4", "--alpha", "nan"], 3),
    (["audit", "--method", "md", "--epsilon", "1", "--y-total", "4", "--alpha", "inf"], 3),
    (_PG2_AUDIT + ["--a", "nan,2"], 3),
    (_PG2_AUDIT + ["--a", "inf,2"], 3),
    (_PG2_AUDIT + ["--a", "inf,2", "--exact"], 3),
    # integer strengths above the exact route's cap
    (_PG2_AUDIT + ["--a", "1e308,1e308", "--exact"], 3),
    (_PG2_AUDIT + ["--a", "10001,2", "--exact"], 3),
    # finite parameters whose log normalizers, or b = a / target, are not finite
    (_PG2_AUDIT + ["--a", "1e308,1e308"], 3),
    (["audit", "--method", "md", "--epsilon", "1", "--y-total", "4", "--alpha", "1e308"], 3),
    (_PG2_AUDIT + ["--a", "1e308,1", "--target-rates", "0.1,1"], 3),
    (_PG2_AUDIT + ["--target-rates", "nan,1"], 3),
    (["calibrate", "--method", "pg-custom", "--epsilon", "1", "--input", "{counts}",
      "--target-rates", "nan,1,1"], 3),
    (["synthesize", "--method", "pg-multinomial", "--epsilon", "1", "--input", "{counts}",
      "--target-rates", "nan,1,1"], 3),
    (["synthesize", "--method", "md", "--epsilon", "1", "--input", "{inf}"], 3),
    # sums and quotients of finite parameters that overflow, refused where
    # they are formed: the b total, the population total, b / population
    (_PG2_AUDIT + ["--a", "1e308,1e308", "--target-rates", "1,1"], 3),
    (_PG2_AUDIT + ["--populations", "1e308,1e308"], 3),
    (_PG2_AUDIT + ["--populations", "1,1e-320", "--a", "2,2"], 3),
    (_PG2_AUDIT + ["--target-rates", "0,1", "--a", "2,2"], 3),
    # a log normalizer whose terms each are finite but whose sum is not
    (_PG2_AUDIT + ["--a", "2e305,2e305"], 3),
    # subnormal targets, whose b = a / target is not a finite float
    (["calibrate", "--method", "pg-custom", "--epsilon", "1", "--input", "{counts}",
      "--target-rates", "1e-320,1,1"], 3),
    (["synthesize", "--method", "pg-multinomial", "--epsilon", "1", "--input", "{counts}",
      "--target-rates", "1e-320,1,1"], 3),
    # a tiny normal target: b overflows before any strength meets the budget
    (["calibrate", "--method", "pg-custom", "--epsilon", "0.01", "--input", "{counts}",
      "--target-rates", "1e-305,1,1"], 2),
], ids=["calibrate-tiny-eps", "synthesize-tiny-eps", "audit-tiny-eps", "simulate-tiny-eps",
        "overflowing-populations", "simulate-bad-epsilons", "simulate-no-epsilons",
        "simulate-no-scenarios", "audit-three-a", "audit-three-targets", "r-values-text",
        "r-values-zero", "r-values-zero-denominator", "max-a-zero", "max-y-total-zero",
        "max-c-zero", "max-z-zero", "points-zero", "max-c-text", "md-alpha-nan",
        "md-alpha-inf", "pg2-a-nan", "pg2-a-inf", "pg2-exact-a-inf", "pg2-exact-a-huge",
        "pg2-exact-a-above-cap", "pg2-a-huge", "md-alpha-huge",
        "pg2-b-overflows", "pg2-targets-nan", "calibrate-targets-nan",
        "synthesize-targets-nan", "infinite-population", "pg2-b-total-overflows",
        "pg2-population-total-overflows", "pg2-b-over-population-overflows",
        "pg2-target-zero", "pg2-terms-overflow", "calibrate-targets-subnormal",
        "synthesize-targets-subnormal", "calibrate-b-overflows-in-bracket"])
def test_bad_input_fails_closed(tmp_path, capsys, argv, code):
    # one error line and the exit code, no traceback, no warning and no
    # output file
    (tmp_path / "counts.csv").write_text(MINIMAL_CSV)
    (tmp_path / "huge.csv").write_text("group_id,state_id,population,count\n"
                                       "a,s1,1e308,3\nb,s2,1e308,4\n")
    (tmp_path / "inf.csv").write_text(MINIMAL_CSV.replace("200.0", "inf"))
    names_line = "{inf}" in argv  # the refused population's line is named
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [arg.format(counts=tmp_path / "counts.csv", huge=tmp_path / "huge.csv",
                       inf=tmp_path / "inf.csv")
            for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--output", str(out_dir / "result.out")])
    assert exit_.value.code == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    if names_line:
        assert err.startswith("error: line 3: ")
    assert list(out_dir.iterdir()) == []
