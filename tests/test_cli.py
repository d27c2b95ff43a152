import csv
import json
import io

import numpy as np
import pytest

from exptests import cli, nulldist
from exptests.core import RngStream, read_sample
from exptests.errors import NumericsError
from exptests.nulldist import calibrate_critical_value, p_value_mc
from exptests.statistics import StatisticId, evaluate


def run(argv, capsys):
    code = cli.run_command(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def sample_file(tmp_path):
    gen = np.random.default_rng(8)
    p = tmp_path / "sample.txt"
    p.write_text("# synthetic data\n"
                 + "\n".join(f"{v:.10f}" for v in gen.exponential(size=25))
                 + "\n")
    return str(p)


class TestTestSubcommand:
    def test_runs_and_reports(self, sample_file, capsys):
        code, out, err = run(["test", "--stat", "MD", "--a", "1",
                              "--input", sample_file, "--seed", "5",
                              "--threads", "1"], capsys)
        assert code == 0
        assert "seed: 5" in err
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["statistic"] == "MD"
        assert 0.0 < float(row["p_value"]) <= 1.0
        assert float(row["value"]) > 0

    def test_requires_input(self, capsys):
        code, _, err = run(["test", "--stat", "MD", "--a", "1"], capsys)
        assert code == 1
        assert "error" in err

    def test_rejects_a_list(self, sample_file, capsys):
        code, _, _ = run(["test", "--stat", "MD", "--a", "1,2",
                          "--input", sample_file], capsys)
        assert code == 1


class TestTestSubcommandNullRun:
    """`test` simulates the null once and reads the critical value and the
    p-value off that array; both equal the two-step library results."""

    SEED = 31

    @pytest.fixture(scope="class")
    def sample50(self, tmp_path_factory):
        gen = np.random.default_rng(50)
        p = tmp_path_factory.mktemp("data") / "sample50.txt"
        p.write_text("\n".join(repr(float(v))
                               for v in gen.exponential(size=50)) + "\n")
        return str(p)

    @pytest.mark.parametrize("name,a", [("MD", 1.0), ("LD", 1.0), ("AD", None),
                                        ("HM1", 1.0)])
    def test_matches_calibration_then_p_value(self, sample50, capsys, name, a):
        stat = StatisticId(name, a)
        x = read_sample(sample50)
        cal = calibrate_critical_value(stat, x.size, 0.05, 10_000,
                                       RngStream(self.SEED))
        p = p_value_mc(stat, x, 10_000, RngStream(self.SEED))
        argv = ["test", "--stat", name, "--input", sample50,
                "--seed", str(self.SEED)] + ([] if a is None else ["--a", f"{a:g}"])
        for threads in ("1", "2"):
            code, out, _ = run(argv + ["--threads", threads], capsys)
            assert code == 0
            row = next(csv.DictReader(io.StringIO(out)))
            assert row["value"] == repr(evaluate(stat, x).value)
            assert float(row["critical_value"]) == cal.critical_values[0.05]
            assert float(row["p_value"]) == p

    def test_one_null_simulation(self, sample50, capsys, monkeypatch):
        calls = []
        simulate = nulldist.simulate_null_statistics

        def counted(*args, **kwargs):
            calls.append(args[2])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(nulldist, "simulate_null_statistics", counted)
        code, _, _ = run(["test", "--stat", "MD", "--a", "1", "--input",
                          sample50, "--seed", "3", "--threads", "1"], capsys)
        assert code == 0
        assert calls == [10_000]

    @pytest.mark.parametrize("extra", [["--replicates", "5000"],
                                       ["--alpha", "1.5"]])
    def test_keeps_calibration_input_checks(self, sample50, capsys, extra):
        code, _, err = run(["test", "--stat", "MD", "--a", "1", "--input",
                            sample50, "--seed", "3", "--threads", "1"] + extra,
                           capsys)
        assert code == 1
        assert "error" in err


class TestCritvalSubcommand:
    def test_csv_columns_and_determinism(self, capsys):
        argv = ["critval", "--stat", "LD", "--a", "0.5,2", "--n", "15",
                "--replicates", "10000", "--seed", "9", "--threads", "1"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert len(rows) == 2
        assert {r["a"] for r in rows} == {"0.5", "2.0"}

    def test_thread_count_invariant(self, capsys):
        base = ["critval", "--stat", "MD", "--a", "1", "--n", "20",
                "--replicates", "10000", "--seed", "9"]
        _, out1, _ = run(base + ["--threads", "1"], capsys)
        _, out2, _ = run(base + ["--threads", "4"], capsys)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run(["critval", "--stat", "MD", "--a", "1", "--n",
                            "12", "--replicates", "10000", "--seed", "1",
                            "--threads", "1", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["statistic"] == "MD"

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "cal.csv"
        code, out, _ = run(["critval", "--stat", "MD", "--a", "1", "--n",
                            "12", "--replicates", "10000", "--seed", "1",
                            "--threads", "1", "--output", str(dest)], capsys)
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("statistic,")


class TestPowerSubcommand:
    def test_calibration_roundtrip_matches_in_process(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.csv"
        common = ["--stat", "MD", "--a", "1", "--n", "15",
                  "--replicates", "10000", "--seed", "77", "--threads", "1"]
        code, _, _ = run(["critval", *common, "--output", str(cal_path)],
                         capsys)
        assert code == 0
        power_args = ["power", *common, "--family", "gamma", "--theta", "1"]
        code1, out_file, _ = run(power_args + ["--input", str(cal_path)],
                                 capsys)
        code2, out_direct, _ = run(power_args, capsys)
        assert code1 == code2 == 0
        assert out_file == out_direct

    def test_input_is_loaded_once(self, tmp_path, capsys, monkeypatch):
        # one calibration file serves every --a value: it is read once
        cal_path = tmp_path / "cal.csv"
        common = ["--stat", "MD", "--a", "0.5,1,2", "--n", "10",
                  "--replicates", "10000", "--seed", "3", "--threads", "1"]
        assert run(["critval", *common, "--output", str(cal_path)], capsys)[0] == 0
        loads = []
        load = nulldist.load_calibrations
        monkeypatch.setattr(nulldist, "load_calibrations",
                            lambda path: loads.append(path) or load(path))
        code, out, _ = run(["power", *common, "--family", "gamma", "--theta", "1",
                            "--input", str(cal_path)], capsys)
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 3
        assert loads == [str(cal_path)]

    def test_missing_calibration_in_input(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.csv"
        run(["critval", "--stat", "MD", "--a", "1", "--n", "15",
             "--replicates", "10000", "--seed", "77", "--threads", "1",
             "--output", str(cal_path)], capsys)
        code, _, err = run(["power", "--stat", "MD", "--a", "2", "--n", "15",
                            "--replicates", "10000", "--seed", "77",
                            "--family", "gamma", "--theta", "1",
                            "--input", str(cal_path)], capsys)
        assert code == 1
        assert "no calibration" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run(["power", "--stat", "MD", "--a", "1", "--n", "10",
                          "--replicates", "10000", "--seed", "1",
                          "--family", "nope", "--theta", "1"], capsys)
        assert code == 1


class TestFileErrors:
    """A file that cannot be read or written, or a CSV without a column the
    loader reads, is invalid input: exit 1 with an `error:` line, no traceback."""

    @staticmethod
    def _check(code, err, *words):
        assert code == 1
        assert "Traceback" not in err
        # the Monte Carlo subcommands echo their seed before anything fails
        lines = [line for line in err.splitlines() if not line.startswith("seed: ")]
        assert lines and lines[0].startswith("error:"), err
        for word in words:
            assert word in lines[0], (word, err)

    POWER = ["power", "--stat", "MD", "--a", "1", "--n", "15", "--replicates",
             "10000", "--seed", "77", "--threads", "1", "--family", "gamma",
             "--theta", "1"]

    def test_missing_test_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(["test", "--stat", "AD", "--input", missing,
                              "--seed", "1", "--threads", "1"], capsys)
        assert out == ""
        self._check(code, err, missing)

    def test_missing_power_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(self.POWER + ["--input", missing], capsys)
        assert out == ""
        self._check(code, err, missing)

    def test_output_into_missing_directory(self, tmp_path, capsys):
        dest = str(tmp_path / "nodir" / "eff.csv")
        code, out, err = run(["efficiency", "--stat", "EP", "--family",
                              "weibull", "--output", dest], capsys)
        assert out == ""
        self._check(code, err, dest)

    def test_calibration_without_seed_column(self, tmp_path, capsys):
        path = tmp_path / "cal.csv"
        path.write_text("statistic,a,n,alpha,critical_value,se,replicates\n"
                        "MD,1.0,15,0.05,0.0123,0.0021794494717703367,10000\n")
        code, out, err = run(self.POWER + ["--input", str(path)], capsys)
        assert out == ""
        self._check(code, err, str(path), "'seed'")

    CAL_HEADER = "statistic,a,n,alpha,critical_value,se,replicates,seed,stream,key\n"

    def test_calibration_cell_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "cal.csv"
        path.write_text(self.CAL_HEADER
                        + "MD,1.0,15,0.05,0.0123,0.0021794494717703367,10000,7,0,\n"
                        + "MD,1.0,15,0.01,abc,0.0009949874371066199,10000,7,0,\n")
        code, out, err = run(self.POWER + ["--input", str(path)], capsys)
        assert out == ""
        self._check(code, err, f"{path}:3: column 'critical_value'", "'abc'")

    def test_short_calibration_row(self, tmp_path, capsys):
        path = tmp_path / "cal.csv"
        path.write_text(self.CAL_HEADER + "MD,1.0,15,0.05,0.0123\n")
        code, out, err = run(self.POWER + ["--input", str(path)], capsys)
        assert out == ""
        self._check(code, err, f"{path}:2: column 'se'")

    @pytest.mark.parametrize("row, words", [
        ("MD,1.0,15,0.01,0.02,0.0009949874371066199,10000,-4,0,", ("non-negative ints",)),
        ("MD,-1.0,15,0.01,0.02,0.0009949874371066199,10000,7,0,", ("tuning parameter a", "-1.0")),
        ("XY,1.0,15,0.01,0.02,0.0009949874371066199,10000,7,0,", ("unknown statistic", "'XY'")),
    ])
    def test_calibration_cell_out_of_range(self, tmp_path, capsys, row, words):
        # a cell that parses but that the row's object rejects is named by line
        path = tmp_path / "cal.csv"
        path.write_text(self.CAL_HEADER
                        + "MD,1.0,15,0.05,0.0123,0.0021794494717703367,10000,7,0,\n"
                        + row + "\n")
        code, out, err = run(self.POWER + ["--input", str(path)], capsys)
        assert out == ""
        self._check(code, err, f"{path}:3: ", *words)

    def test_repeated_calibration_row(self, tmp_path, capsys):
        # two critical values for one alpha: neither is used
        path = tmp_path / "cal.csv"
        path.write_text(self.CAL_HEADER
                        + "MD,1.0,15,0.05,0.01,0.0021794494717703367,10000,7,0,\n"
                        + "MD,1.0,15,0.05,0.99,0.0021794494717703367,10000,7,0,\n")
        code, out, err = run(self.POWER + ["--input", str(path)], capsys)
        assert out == ""
        self._check(code, err, f"{path}:3: ", "repeats", "alpha=0.05")


# one run of each subcommand (`test` also takes --input)
SUBCOMMAND_ARGV = [
    ["test", "--stat", "MD", "--a", "1", "--seed", "5", "--threads", "1"],
    ["critval", "--stat", "LD", "--a", "1,2", "--n", "12", "--seed", "5",
     "--threads", "1"],
    ["power", "--stat", "MD", "--a", "1", "--family", "uniform", "--n", "12",
     "--seed", "5", "--threads", "1"],
    ["efficiency", "--stat", "EP", "--family", "weibull"],
    ["eigen", "--a", "0.5,1"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV,
                         ids=lambda v: v[0] if isinstance(v, list) else v)
def test_output_file_holds_the_stdout_bytes(argv, fmt, sample_file, tmp_path, capsys):
    """Every subcommand writes the same table to --output as to stdout."""
    if argv[0] == "test":
        argv = argv + ["--input", sample_file]
    argv = argv + ["--format", fmt]
    code, out, _ = run(argv, capsys)
    dest = tmp_path / f"table.{fmt}"
    code_file, out_file, _ = run(argv + ["--output", str(dest)], capsys)
    assert code == code_file == 0
    assert out_file == ""
    assert dest.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda v: v[0])
def test_json_cells_are_the_csv_cells(argv, sample_file, capsys):
    """--format json writes every cell as the string of its CSV cell, so that
    each row object has the same cells as its CSV row."""
    if argv[0] == "test":
        argv = argv + ["--input", sample_file]
    code_csv, out_csv, _ = run(argv, capsys)
    code_json, out_json, _ = run(argv + ["--format", "json"], capsys)
    assert code_csv == code_json == 0
    rows = json.loads(out_json)
    assert all(isinstance(v, str) for row in rows for v in row.values())
    assert rows == list(csv.DictReader(io.StringIO(out_csv)))


class TestEfficiencySubcommand:
    def test_reports_rows(self, capsys):
        code, out, _ = run(["efficiency", "--stat", "EP",
                            "--family", "weibull"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert abs(float(row["efficiency"]) - 0.876) < 0.02

    def test_reports_b_coeff_and_flag_after_efficiency(self, capsys):
        from exptests import slopes
        from exptests.statistics import StatisticId
        code, out, _ = run(["efficiency", "--stat", "KS",
                            "--family", "weibull"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["statistic", "a", "family", "a_T", "c_coeff",
                          "lrt_coeff", "efficiency", "b_coeff", "flagged"]
        row = next(csv.DictReader(io.StringIO(out)))
        rep = slopes.efficiency(StatisticId("KS"), "weibull")
        assert float(row["b_coeff"]) == rep.b_coeff
        assert row["flagged"] == "False"

    def test_unconverged_eigenvalue_ladder_exits_2(self, capsys):
        # HM1's lambda1 at a = 0.1 does not settle by 40 points per panel:
        # the diagnostic and the ladder's trace, no table and no traceback
        code, out, err = run(["efficiency", "--stat", "HM1", "--a", "0.1",
                              "--family", "weibull"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical diagnostic failure: Nystrom ladder")
        assert "did not converge: ((" in err

    def test_a_written_exactly(self, capsys):
        # two tuning parameters that agree to six digits give two rows
        rows = []
        for a in ("0.1234567", "0.1234571"):
            code, out, _ = run(["efficiency", "--stat", "MD", "--a", a,
                                "--family", "gamma"], capsys)
            assert code == 0
            rows.append(next(csv.DictReader(io.StringIO(out))))
        assert rows[0]["a"] != rows[1]["a"]
        assert [float(r["a"]) for r in rows] == [0.1234567, 0.1234571]

    def test_requires_family(self, capsys):
        code, _, _ = run(["efficiency", "--stat", "EP"], capsys)
        assert code == 1


class TestEigenSubcommand:
    def test_emits_trace(self, capsys):
        code, out, _ = run(["eigen", "--a", "1"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        methods = {r["method"] for r in rows}
        assert methods == {"covariance-nystrom", "x-nystrom", "final",
                           "route-disagreement"}

    def test_route_disagreement_row(self, capsys):
        code, out, _ = run(["eigen", "--a", "0.5,1", "--format", "json"],
                           capsys)
        assert code == 0
        rows = json.loads(out)
        for a in ("0.5", "1.0"):
            by = {r["method"]: float(r["delta1"]) for r in rows if r["a"] == a}
            check, final = by["x-nystrom"], by["final"]
            assert by["route-disagreement"] == abs(check - final) / final
            assert by["route-disagreement"] <= 1e-12

    def test_requires_a(self, capsys):
        code, _, _ = run(["eigen"], capsys)
        assert code == 1

    def test_numerics_failure_exit_code(self, capsys, monkeypatch):
        from exptests import nulldist

        def boom(a):
            raise NumericsError("ladder did not converge", trace=())

        monkeypatch.setattr(cli.nulldist, "largest_eigenvalue_delta1", boom)
        code, _, err = run(["eigen", "--a", "1"], capsys)
        assert code == 2
        assert "numerical" in err


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert cli.run_command(["frobnicate"]) == 1

    def test_bad_a_value(self, sample_file, capsys):
        code, _, _ = run(["test", "--stat", "MD", "--a", "x",
                          "--input", sample_file], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["eigen", "--a", ","],
        ["critval", "--stat", "MD", "--a", ", ", "--n", "5", "--seed", "1"]])
    def test_empty_a_list(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == "" and "--a expects a number" in err

    @pytest.mark.parametrize("argv", [
        ["test", "--stat", "MD", "--a", "inf", "--seed", "1", "--threads", "1"],
        ["eigen", "--a", "inf"],
        ["efficiency", "--stat", "LD", "--a", "inf", "--family", "weibull"],
        ["critval", "--stat", "MP", "--a", "nan", "--n", "5", "--seed", "1"]])
    def test_nonfinite_a(self, argv, sample_file, capsys):
        if argv[0] == "test":
            argv = argv + ["--input", sample_file]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == "" and "Traceback" not in err
        assert "error: tuning parameter a must be a positive finite real" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one(self, threads, capsys):
        code, out, err = run(["critval", "--stat", "MD", "--a", "1", "--n", "5",
                              "--seed", "1", "--threads", threads], capsys)
        assert code == 1
        assert out == "" and "threads must be at least 1" in err

    def test_seed_randomized_when_absent(self, capsys):
        code, out, err = run(["critval", "--stat", "EP", "--n", "5",
                              "--replicates", "10000", "--threads", "1"],
                             capsys)
        assert code == 0
        assert "seed:" in err

    def test_deterministic_subcommands_take_no_seed(self, capsys):
        code, _, err = run(["efficiency", "--stat", "MO", "--family", "gamma"],
                           capsys)
        assert code == 0 and "seed" not in err
        for argv in (["efficiency", "--stat", "MO", "--family", "gamma"],
                     ["eigen", "--a", "1"]):
            code, _, err = run(argv + ["--seed", "1"], capsys)
            assert code == 1 and "unrecognized arguments: --seed" in err
        # every subcommand rejects each option its handler does not read
        base = {"test": ["--stat", "MD", "--input", "data.txt"],
                "critval": ["--stat", "MD", "--n", "5"],
                "power": ["--stat", "MD", "--family", "gamma", "--n", "5"],
                "efficiency": ["--stat", "MO", "--family", "gamma"],
                "eigen": ["--a", "1"]}
        reads = {"test": "stat a alpha replicates seed threads input",
                 "critval": "stat a n alpha replicates seed threads",
                 "power": "stat a family theta n alpha replicates seed "
                          "threads input",
                 "efficiency": "stat a family", "eigen": "a"}
        options = set(reads["power"].split())  # power reads every option
        for name, argv in base.items():
            for opt in sorted(options - set(reads[name].split())):
                code, _, err = run([name, *argv, f"--{opt}", "1"], capsys)
                assert code == 1, (name, opt)
                assert f"unrecognized arguments: --{opt} 1" in err, (name, opt)
