import json
import math

import numpy as np
import pytest

import dpcounts.cli as cli
from dpcounts.cli import RunConfig, config_from_args, ingest_counts, run, write_counts
from dpcounts.core import CountDataset
from dpcounts.errors import CsvParseError, InfeasibleBudgetError


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

    def test_pg_exact_route(self, tmp_path):
        out = tmp_path / "audit.json"
        code = run_cli(["audit", "--method", "pg2", "--epsilon", "2.0",
                        "--y-total", "3", "--a", "3,2", "--populations", "1,2",
                        "--target-rates", "1,1", "--exact", "--output", str(out)])
        assert code == 0


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
        src = tmp_path / "pair.csv"
        src.write_text("group_id,state_id,population,count\n"
                       "a,s1,10.0,4\nb,s2,30.0,6\n")
        out = tmp_path / "synthetic.csv"
        code = run_cli(["synthesize", "--method", "pg-exact2", "--epsilon", "1",
                        "--input", str(src), "--output", str(out)])
        assert code == 0

    def test_reproducible_across_runs(self, tmp_path, counts_file):
        out = tmp_path / "synthetic.csv"
        argv = ["synthesize", "--method", "pg-multinomial", "--epsilon", "1",
                "--input", str(counts_file), "--m", "2", "--output", str(out),
                "--seed", "4"]
        assert run_cli(argv) == 0
        first = out.read_bytes()
        assert run_cli(argv) == 0
        assert out.read_bytes() == first


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


class TestReleaseFormat:
    @pytest.mark.parametrize("method,extra,csv_text", [
        ("md", [], RELEASE_CSV),
        ("pg-multinomial", [], RELEASE_CSV),
        ("pg-multinomial", ["--target-rule", "state", "--state-noise-epsilon", "0.5"],
         RELEASE_CSV),
        ("pg-exact2", [], PAIR_CSV),
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

    def test_usage_error_exits_three(self, tmp_path, counts_file):
        code = run_cli(["synthesize", "--method", "pg-exact2", "--epsilon", "1",
                        "--input", str(counts_file),
                        "--output", str(tmp_path / "o.csv")])
        assert code == 3  # exact pair synthesis needs exactly two groups

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--method", "md", "--epsilon", "inf", "--z-total", "10"],
        ["audit", "--method", "md", "--epsilon", "inf", "--y-total", "2", "--alpha", "1"],
    ], ids=["calibrate", "audit"])
    def test_infinite_budget_exits_three_and_writes_nothing(self, tmp_path, argv, capsys):
        out = tmp_path / "o.json"
        assert run_cli(argv + ["--output", str(out)]) == 3
        assert "epsilon must be finite" in capsys.readouterr().err
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
