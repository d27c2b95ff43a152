import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from exptests.core import (RngStream, min_pair_weights, read_sample,
                           scale_sample)
from exptests.errors import DomainError
from exptests.nulldist import (CALIBRATION_COLUMNS, NullCalibration,
                               load_calibrations, save_calibrations)
from exptests.statistics import StatisticId


class TestMinPairWeights:
    def test_small_values(self):
        # n=2: minima counts over 4 ordered pairs are 3 and 1
        np.testing.assert_allclose(min_pair_weights(2), [0.75, 0.25])
        np.testing.assert_allclose(min_pair_weights(4),
                                   np.array([7, 5, 3, 1]) / 16.0)

    @given(st.integers(min_value=1, max_value=500))
    def test_sum_to_one_and_decreasing(self, n):
        w = min_pair_weights(n)
        assert w.size == n
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(np.diff(w) < 0) or n == 1

    def test_counts_minima_over_ordered_pairs(self, gen):
        y = gen.exponential(size=9)
        z = np.sort(y)
        w = min_pair_weights(y.size)
        t = 0.7
        direct = np.mean(np.exp(-2 * t * np.minimum(y[:, None], y[None, :])))
        weighted = np.dot(w, np.exp(-2 * t * z))
        assert abs(direct - weighted) < 1e-12

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            min_pair_weights(0)

    def test_cached_array_is_read_only(self):
        w = min_pair_weights(6)
        assert min_pair_weights(6) is w
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0
        np.testing.assert_array_equal(w, np.arange(11, 0, -2) / 36.0)


class TestScaleSample:
    def test_unit_mean_and_sorted(self, gen):
        x = gen.exponential(size=30) * 7.3
        s = scale_sample(x)
        assert abs(s.values.mean() - 1.0) < 1e-12
        assert np.all(np.diff(s.sorted_values) >= 0)
        assert s.n == 30
        assert s.min_weights.size == 30

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            scale_sample([])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_entry_rejected_with_index(self, bad):
        with pytest.raises(DomainError) as exc:
            scale_sample([1.0, 2.0, bad, 3.0])
        assert "index 2" in str(exc.value)


class TestReadSample:
    def test_reads_decimals_and_comments(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("# header\n1.5\n\n2.25\n# trailing\n0.125\n")
        np.testing.assert_allclose(read_sample(p), [1.5, 2.25, 0.125])

    def test_bad_line_reports_location(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("1.0\nnot-a-number\n")
        with pytest.raises(DomainError) as exc:
            read_sample(p)
        assert ":2:" in str(exc.value)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("# only comments\n")
        with pytest.raises(DomainError):
            read_sample(p)


class TestRngStream:
    def test_same_pair_reproduces(self):
        a = RngStream(42, 3).generator().random(5)
        b = RngStream(42, 3).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().random(5)
        b = RngStream(42, 1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_substream_deterministic_and_disjoint(self):
        root = RngStream(7)
        a1 = root.substream(0).generator().random(5)
        a2 = root.substream(0).generator().random(5)
        b = root.substream(1).generator().random(5)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_nested_substreams(self):
        root = RngStream(7)
        c1 = root.substream(0).substream(1).generator().random(3)
        c2 = root.substream(0).substream(1).generator().random(3)
        d = root.substream(1).substream(0).generator().random(3)
        np.testing.assert_array_equal(c1, c2)
        assert not np.array_equal(c1, d)

    def test_frozen(self):
        with pytest.raises(Exception):
            RngStream(1).seed = 2

    def test_identity_carries_spawn_key(self):
        a, b = RngStream(1).substream(0), RngStream(1).substream(1)
        assert a != b
        assert hash(a) != hash(b)
        assert a == RngStream(1).substream(0)
        assert hash(a) == hash(RngStream(1).substream(0))
        assert a.substream(2) != b.substream(2)
        assert "key=(0, 2)" in repr(a.substream(2))

    def test_generator_follows_seed_sequence_spawn_key(self):
        s = RngStream(7, stream=3).substream(2).substream(5)
        direct = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3, 2, 5)))
        np.testing.assert_array_equal(s.generator().random(4), direct.random(4))

    @pytest.mark.parametrize("args", [(-1,), (1.5,), ("7",), (7, -1), (7, 1.0),
                                      (7, 0, (2, -3)), (7, 0, (np.float64(2.0),))])
    def test_rejects_bad_identity_at_construction(self, args):
        with pytest.raises(DomainError, match="non-negative ints"):
            RngStream(*args)

    def test_accepts_numpy_ints(self):
        s = RngStream(np.int64(7), np.uint8(3), (np.int32(2),))
        assert s == RngStream(7, 3, (2,))
        np.testing.assert_array_equal(s.generator().random(3),
                                      RngStream(7, 3, (2,)).generator().random(3))

    @pytest.mark.parametrize("stream", [RngStream(0), RngStream(7, 3),
                                        RngStream(7, 3).substream(0).substream(12)])
    def test_csv_fields_round_trip(self, stream, tmp_path):
        # the stream cells of a calibration table read back as the stream
        cal = NullCalibration(statistic=StatisticId("MD", 1.0), n=20,
                              alphas=(0.05,), critical_values={0.05: 0.0123},
                              standard_errors={0.05: 0.0021794494717703367},
                              replicates=10_000, seed=stream)
        path = tmp_path / "cal.csv"
        save_calibrations(path, [cal])
        (loaded,) = load_calibrations(path)
        back = loaded.seed
        assert back == stream and hash(back) == hash(stream)

    def test_csv_row_with_negative_seed_is_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(",".join(CALIBRATION_COLUMNS) + "\n"
                        "MD,1.0,20,0.05,0.0123,0.0021794494717703367,10000,-4,,\n")
        with pytest.raises(DomainError, match="non-negative ints"):
            load_calibrations(path)
