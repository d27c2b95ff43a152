import numpy as np
import pytest

from exptests import powersim
from exptests.core import RngStream
from exptests.errors import DomainError
from exptests.nulldist import calibrate_critical_value
from exptests.powersim import (DEFAULT_TUNING_GRID, POWER_COLUMNS,
                               bootstrap_select_a, estimate_power,
                               estimate_power_adaptive, load_power_table,
                               power_table_rows, write_power_table)
from exptests.statistics import StatisticId

SEED = 1729


@pytest.fixture(scope="module")
def md1_cal_n20():
    return calibrate_critical_value(StatisticId("MD", 1.0), 20,
                                    replicates=10_000, rng=RngStream(SEED))


class TestEstimatePower:
    def test_deterministic(self, md1_cal_n20):
        kw = dict(alpha=0.05, replicates=2000, calibration=md1_cal_n20)
        c1 = estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20,
                            rng=RngStream(7, 1), **kw)
        c2 = estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20,
                            rng=RngStream(7, 1), **kw)
        assert c1.power == c2.power

    def test_thread_invariant(self, md1_cal_n20):
        kw = dict(alpha=0.05, replicates=12_000, calibration=md1_cal_n20)
        c1 = estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20,
                            rng=RngStream(7, 1), threads=1, **kw)
        c2 = estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20,
                            rng=RngStream(7, 1), threads=3, **kw)
        assert c1.power == c2.power

    def test_blocks_streamed(self, md1_cal_n20, monkeypatch):
        # each block is counted before the next one is sampled, so memory
        # stays at one block whatever the replicate count
        calls = []

        def recording(tag, fn):
            def wrapped(*args, **kwargs):
                calls.append(tag)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(powersim, "sample_alternative",
                            recording("sample", powersim.sample_alternative))
        monkeypatch.setattr(powersim, "evaluate_many",
                            recording("evaluate", powersim.evaluate_many))
        estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20, 0.05, 12_000,
                       RngStream(7, 1), md1_cal_n20, threads=1)
        assert calls == ["sample", "evaluate"] * 3

    def test_size_under_null_alternative(self, md1_cal_n20):
        # gamma(theta=0) is Exp(1): rejection rate must be close to alpha
        cell = estimate_power(StatisticId("MD", 1.0), "gamma", 0.0, 20, 0.05,
                              10_000, RngStream(11, 1), md1_cal_n20)
        assert 0.035 <= cell.power <= 0.065

    def test_power_grows_with_n(self):
        stat = StatisticId("MD", 1.0)
        powers = {}
        for n in (20, 50):
            cal = calibrate_critical_value(stat, n, replicates=10_000,
                                           rng=RngStream(SEED))
            powers[n] = estimate_power(stat, "gamma", 1.0, n, 0.05, 4000,
                                       RngStream(13, 1), cal).power
        assert powers[50] > powers[20] + 0.1

    def test_validation(self, md1_cal_n20):
        stat = StatisticId("MD", 1.0)
        with pytest.raises(DomainError):
            estimate_power(stat, "gamma", 1.0, 20, 0.05, 500,
                           RngStream(0), md1_cal_n20)
        with pytest.raises(DomainError):  # no calibration
            estimate_power(stat, "gamma", 1.0, 20, 0.05, 2000,
                           RngStream(0), None)
        with pytest.raises(DomainError):  # n mismatch
            estimate_power(stat, "gamma", 1.0, 50, 0.05, 2000,
                           RngStream(0), md1_cal_n20)
        with pytest.raises(DomainError):  # alpha not calibrated
            estimate_power(stat, "gamma", 1.0, 20, 0.01, 2000,
                           RngStream(0), md1_cal_n20)

    def test_missing_alpha_lists_the_calibrated_alphas(self, md1_cal_n20):
        with pytest.raises(DomainError, match=r"lacks alpha=0.1; available: \[0.05\]$"):
            estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20, 0.1, 2000,
                           RngStream(0), md1_cal_n20)

    def test_theta_cleared_for_fixed_families(self, md1_cal_n20):
        cell = estimate_power(StatisticId("MD", 1.0), "uniform", None, 20,
                              0.05, 2000, RngStream(5, 1), md1_cal_n20)
        assert cell.theta is None


@pytest.fixture(scope="module")
def cals():
    out = {}
    for a in (0.5, 1.0, 2.0):
        out[a] = calibrate_critical_value(StatisticId("MD", a), 15,
                                          replicates=10_000,
                                          rng=RngStream(SEED))
    return out


class TestBootstrapSelection:
    def test_singleton_grid(self, cals, gen):
        x = gen.exponential(size=15)
        sel = bootstrap_select_a("MD", x, [1.0], 200, 0.05, RngStream(21),
                                 {1.0: cals[1.0]})
        assert sel.selected_a == 1.0
        assert len(sel.scores) == 1

    def test_tie_goes_to_smallest(self, cals, gen):
        import dataclasses
        x = gen.exponential(size=15)
        # impossible thresholds force all scores to zero: tie
        blocked = {a: dataclasses.replace(
            cals[a], critical_values={0.05: np.inf}) for a in cals}
        sel = bootstrap_select_a("MD", x, list(cals), 200, 0.05,
                                 RngStream(22), blocked)
        assert sel.selected_a == min(cals)
        assert sel.scores == (0.0, 0.0, 0.0)

    def test_validation(self, cals, gen):
        x = gen.exponential(size=15)
        with pytest.raises(DomainError):
            bootstrap_select_a("MD", x, [], 200, 0.05, RngStream(0), cals)
        with pytest.raises(DomainError):
            bootstrap_select_a("MD", x, [-1.0], 200, 0.05, RngStream(0), cals)
        with pytest.raises(DomainError):
            bootstrap_select_a("MD", x, [1.0], 50, 0.05, RngStream(0), cals)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_entry_named_by_sample_index(self, cals, gen, bad):
        x = gen.exponential(size=15)
        x[9] = bad
        with pytest.raises(DomainError, match="index 9"):
            bootstrap_select_a("MD", x, [1.0], 200, 0.05, RngStream(0), cals)

    def test_rejects_2d_sample(self, cals, gen):
        x = gen.exponential(size=(3, 15))
        with pytest.raises(DomainError, match="1-D"):
            bootstrap_select_a("MD", x, [1.0], 200, 0.05, RngStream(0), cals)

    def test_deterministic(self, cals, gen):
        x = gen.exponential(size=15)
        s1 = bootstrap_select_a("MD", x, list(cals), 200, 0.05,
                                RngStream(23), cals)
        s2 = bootstrap_select_a("MD", x, list(cals), 200, 0.05,
                                RngStream(23), cals)
        assert s1 == s2


class TestAdaptivePower:
    def test_adaptive_near_fixed_best(self):
        # data-driven tuning against Uniform at n=20 should land in the
        # vicinity of the best fixed-parameter power (loose Monte Carlo band)
        grid = DEFAULT_TUNING_GRID
        cals = {a: calibrate_critical_value(StatisticId("MD", a), 20,
                                            replicates=10_000,
                                            rng=RngStream(SEED))
                for a in grid}
        cell = estimate_power_adaptive("MD", "uniform", None, 20, 0.05,
                                       400, RngStream(31, 1), cals,
                                       grid=grid, B=200)
        assert 0.60 <= cell.power <= 0.85

    @pytest.fixture(scope="class")
    def md_cals_n10(self):
        return {a: calibrate_critical_value(StatisticId("MD", a), 10,
                                            replicates=10_000,
                                            rng=RngStream(SEED))
                for a in (0.5, 2.0)}

    def test_adaptive_deterministic(self, md_cals_n10):
        kw = dict(grid=(0.5, 2.0), B=200)
        c1 = estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 150,
                                     RngStream(32, 1), md_cals_n10, **kw)
        c2 = estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 150,
                                     RngStream(32, 1), md_cals_n10, **kw)
        assert c1.power == c2.power

    def test_adaptive_cell_names_its_grid(self, md_cals_n10, tmp_path):
        # a is chosen per replicate, so the row gives the grid, not one a
        cell = estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 150,
                                       RngStream(32, 1), md_cals_n10,
                                       grid=(2.0, 0.5), B=200)
        assert cell.grid == (0.5, 2.0)
        (row,) = power_table_rows([cell])
        assert (row["a"], row["grid"]) == ("", "0.5 2.0")
        path = tmp_path / "power.csv"
        write_power_table(path, [cell])
        assert load_power_table(path) == [cell]

    @pytest.fixture(scope="class")
    def md1_cal_n10(self):
        return {1.0: calibrate_critical_value(StatisticId("MD", 1.0), 10,
                                              replicates=10_000,
                                              rng=RngStream(SEED))}

    @pytest.mark.parametrize("replicates", [0, -3])
    def test_adaptive_rejects_no_replicates(self, md1_cal_n10, replicates):
        with pytest.raises(DomainError, match="replicate"):
            estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, replicates,
                                    RngStream(33, 1), md1_cal_n10,
                                    grid=(1.0,), B=200)

    @pytest.mark.parametrize("B", [0, -1])
    def test_adaptive_rejects_no_bootstrap_resamples(self, md1_cal_n10, B):
        with pytest.raises(DomainError, match="B >= 1"):
            estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 100,
                                    RngStream(33, 1), md1_cal_n10,
                                    grid=(1.0,), B=B)


    def test_adaptive_draws_the_blocks_of_estimate_power(self, md1_cal_n10,
                                                         monkeypatch):
        # the replicates come from the fixed blocks of estimate_power
        # (block k from substream k), not from chunks sized by B and n
        draws = []
        sample = powersim.sample_alternative

        def recording(fam, theta, shape, rng):
            draws.append((rng, shape))
            return sample(fam, theta, shape, rng)

        monkeypatch.setattr(powersim, "sample_alternative", recording)
        rng = RngStream(34, 1)
        estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 10, 0.05, 1200,
                       rng, md1_cal_n10[1.0])
        fixed, draws[:] = list(draws), []
        estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 1200, rng,
                                md1_cal_n10, grid=(1.0,), B=200)
        assert draws == fixed == [(rng.substream(0), (1200, 10))]

    @pytest.mark.parametrize("grid", [(), (0.0,), (1.0, -2.0)])
    def test_adaptive_rejects_bad_grid(self, md1_cal_n10, grid):
        with pytest.raises(DomainError, match="tuning grid"):
            estimate_power_adaptive("MD", "gamma", 1.0, 10, 0.05, 100,
                                    RngStream(33, 1), md1_cal_n10,
                                    grid=grid, B=200)


class TestPowerTables:
    def test_rows_and_csv(self, tmp_path, md1_cal_n20):
        cell = estimate_power(StatisticId("MD", 1.0), "gamma", 1.0, 20, 0.05,
                              2000, RngStream(41, 1), md1_cal_n20)
        rows = power_table_rows([cell])
        assert list(rows[0]) == list(POWER_COLUMNS)
        assert rows[0]["percent"] == int(round(100 * cell.power))
        path = tmp_path / "power.csv"
        write_power_table(path, [cell])
        text = path.read_text().splitlines()
        assert text[0] == ",".join(POWER_COLUMNS)
        assert len(text) == 2

    def test_roundtrip_keeps_stream_and_key(self, tmp_path, md1_cal_n20):
        # `exptests power` simulates on stream 1: the CSV must say so
        cells = [estimate_power(StatisticId("MD", 1.0), fam, theta, 20, 0.05,
                                1000, rng, md1_cal_n20)
                 for fam, theta, rng in (("gamma", 1.0, RngStream(7, stream=1)),
                                         ("uniform", None,
                                          RngStream(7, stream=1).substream(3)))]
        path = tmp_path / "power.csv"
        write_power_table(path, cells)
        loaded = load_power_table(path)
        assert loaded[0].seed == RngStream(7, stream=1)
        assert [c.seed for c in loaded] == [c.seed for c in cells]
        assert loaded == cells

    def test_csv_without_stream_columns_loads_as_stream_zero(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("statistic,a,family,theta,n,alpha,power,se,replicates,"
                        "seed,percent\n"
                        "MD,1,gamma,1.0,20,0.05,0.5,0.01,2000,7,50\n")
        (got,) = load_power_table(path)
        assert got.seed == RngStream(7, stream=0, key=())
        assert got.statistic == StatisticId("MD", 1.0)
        assert got.grid is None
        assert got.power == 0.5

    def test_csv_without_a_read_column_is_a_domain_error(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("statistic,a,family,theta,n,alpha,power,se,replicates\n"
                        "MD,1,gamma,1.0,20,0.05,0.5,0.01,2000\n")
        with pytest.raises(DomainError) as info:
            load_power_table(path)
        assert str(info.value) == f"{path}: no 'seed' column"

    @pytest.mark.parametrize("row, column", [
        ("MD,1,,gamma,1.0,20,0.05,half,0.01,2000,7,0,,50", "power"),
        ("MD,,0.5 x,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50", "grid"),
        ("MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,1:b,50", "key"),
        ("MD,1,,gamma,1.0,20", "alpha"),
    ])
    def test_cell_that_does_not_parse_is_a_domain_error(self, tmp_path, row, column):
        # the good row on line 2 loads; the error names file, line and column
        path = tmp_path / "power.csv"
        good = "MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50"
        path.write_text(",".join(POWER_COLUMNS) + "\n" + good + "\n" + row + "\n")
        with pytest.raises(DomainError) as info:
            load_power_table(path)
        assert str(info.value).startswith(f"{path}:3: column {column!r}: ")

    def test_row_with_extra_cells_is_a_domain_error(self, tmp_path):
        # cells past the header's columns are an error, not silently dropped
        path = tmp_path / "power.csv"
        good = "MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50"
        path.write_text(",".join(POWER_COLUMNS) + "\n" + good + "\n" + good + ",x\n")
        with pytest.raises(DomainError) as info:
            load_power_table(path)
        assert str(info.value) == f"{path}:3: the row has 15 cells, the header 14"

    def test_repeated_header_column_is_rejected(self, tmp_path):
        # a column named twice is an error, not a silent win of its last cell
        path = tmp_path / "power.csv"
        path.write_text(",".join(POWER_COLUMNS) + ",power\n"
                        "MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50,0.9\n")
        with pytest.raises(DomainError) as info:
            load_power_table(path)
        assert str(info.value) == f"{path}: the header repeats 'power'"

    @pytest.mark.parametrize("row, words", [
        ("MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,-4,0,,50", "non-negative ints"),
        ("MD,-1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50", "tuning parameter a"),
        ("XY,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50", "unknown statistic"),
    ])
    def test_cell_out_of_range_names_its_line(self, tmp_path, row, words):
        # a cell that parses but that the row's object rejects
        path = tmp_path / "power.csv"
        good = "MD,1,,gamma,1.0,20,0.05,0.5,0.01,2000,7,0,,50"
        path.write_text(",".join(POWER_COLUMNS) + "\n" + good + "\n" + row + "\n")
        with pytest.raises(DomainError) as info:
            load_power_table(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert words in str(info.value)
