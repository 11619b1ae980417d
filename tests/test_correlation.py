import csv
import io
import math
import random
import re

import pytest
from scipy import stats as scipy_stats

from convstruct.stats.bootstrap import StatsError
from convstruct.stats.correlation import (
    average_ranks,
    feature_correlations,
    read_features_csv,
    signed_rank_variance,
    spearman,
)


def naive_ranks(values):
    """Independent tie-averaged ranks: 1 + #smaller + (#equal - 1)/2."""
    return [
        1.0 + sum(1 for o in values if o < v) + (sum(1 for o in values if o == v) - 1) / 2.0
        for v in values
    ]


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(sum((a - mx) ** 2 for a in x))
    sy = math.sqrt(sum((b - my) ** 2 for b in y))
    return cov / (sx * sy)


class TestSpearman:
    def test_perfect_monotone(self):
        x = [1.0, 2.0, 5.0, 9.0, 12.0]
        rho, p = spearman(x, [v * 3 + 1 for v in x])
        assert rho == 1.0
        assert p == 0.0

    def test_perfect_inverse(self):
        x = [1.0, 2.0, 5.0, 9.0, 12.0]
        rho, p = spearman(x, [-v for v in x])
        assert rho == -1.0
        assert p == 0.0

    def test_matches_rank_then_pearson_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(5, 20)
            x = [rng.choice([1.0, 2.0, 3.0, rng.uniform(0, 10)]) for _ in range(n)]
            y = [rng.choice([1.0, 4.0, rng.uniform(0, 10)]) for _ in range(n)]
            try:
                rho, _ = spearman(x, y)
            except StatsError:
                continue  # constant vector drawn by chance
            expected = naive_pearson(naive_ranks(x), naive_ranks(y))
            assert rho == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy(self):
        rng = random.Random(7)
        x = [rng.uniform(0, 1) for _ in range(30)]
        y = [rng.uniform(0, 1) for _ in range(30)]
        rho, p = spearman(x, y)
        expected = scipy_stats.spearmanr(x, y)
        assert rho == pytest.approx(float(expected.statistic), abs=1e-12)
        assert p == pytest.approx(float(expected.pvalue), rel=1e-9)

    def test_tie_handling(self):
        assert list(average_ranks([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]

    def test_constant_vector_raises(self):
        with pytest.raises(StatsError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_raises(self):
        with pytest.raises(StatsError):
            spearman([1.0, 2.0], [2.0, 1.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(StatsError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(StatsError, match="non-finite"):
            spearman([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StatsError, match="non-finite"):
            spearman([1.0, 2.0, 3.0, 4.0], [bad, 2.0, 3.0, 4.0])


class TestFeatureCorrelations:
    ROWS = [{"clip_id": f"c{k}", "n_lines": str(k), "f1_speaker": str(10 + 2 * k)}
            for k in range(6)]

    def test_monotone_feature(self):
        (entry,) = feature_correlations(self.ROWS)["correlations"]
        assert (entry["rho"], entry["signed_r2"]) == (1.0, 100.0)

    @pytest.mark.parametrize("cell, message", [
        ("1_0", "not numeric: '1_0'"),
        (" 2 ", "not numeric: ' 2 '"),
        ("\u0661", "not numeric"),
        ("nan", "not finite: 'nan'"),
        ("inf", "not finite: 'inf'"),
        ("-Infinity", "not finite: '-Infinity'"),
    ])
    @pytest.mark.parametrize("column", ["n_lines", "f1_speaker"])
    def test_bad_cell_is_reported_not_ranked(self, cell, message, column):
        rows = [dict(row) for row in self.ROWS]
        rows[3][column] = cell
        (entry,) = feature_correlations(rows)["correlations"]
        assert set(entry) == {"target", "feature", "error"}
        assert entry["error"].startswith(f"features CSV row 4: column {column!r} is ")
        assert message in entry["error"]

    def test_each_column_is_parsed_once(self, monkeypatch):
        import convstruct.stats.correlation as correlation

        cells = []

        def counting(cell, kind=float):
            cells.append(cell)
            return kind(cell)

        monkeypatch.setattr(correlation, "_number", counting)
        rows = [{**row, "n_words": str(k * k), "f1_link": str(-k)}
                for k, row in enumerate(self.ROWS)]
        assert len(feature_correlations(rows)["correlations"]) == 4
        assert len(cells) == 4 * len(rows)


class TestReadFeaturesCsv:
    HEADER = "clip_id,n_lines,f1_speaker\n"

    def test_rows_are_dict_reader_rows(self):
        text = self.HEADER + "c0,0,10\n\nc1,1\n"
        rows = read_features_csv(io.StringIO(text))
        assert rows == list(csv.DictReader(io.StringIO(text)))
        assert rows[1] == {"clip_id": "c1", "n_lines": "1", "f1_speaker": None}

    @pytest.mark.parametrize("body, row, cells", [
        ("c0,0,10,99\nc1,1,12\nc2,2,14\n", 1, 4),
        ("c0,0,10\nc1,1,12\nc2,2,14,,\n", 3, 5),
    ])
    def test_a_row_longer_than_the_header_is_an_error(self, body, row, cells):
        with pytest.raises(StatsError, match=re.escape(
                f"features CSV row {row} has {cells} cells, but the header has 3")):
            read_features_csv(io.StringIO(self.HEADER + body))

    @pytest.mark.parametrize("header, repeated", [
        ("clip_id,n_lines,f1_speaker,n_lines", ["n_lines"]),
        ("clip_id,f1_a,x,f1_a,x", ["f1_a", "x"]),
    ])
    def test_a_repeated_header_column_is_an_error(self, header, repeated):
        with pytest.raises(StatsError, match=re.escape(
                f"features CSV header repeats column(s) {repeated}")):
            read_features_csv(io.StringIO(header + "\nc0,1,2,3,4\n"))

    def test_an_empty_file_has_no_rows(self):
        assert read_features_csv(io.StringIO("")) == []

    @pytest.mark.parametrize("text, where", [
        ("clip_id,n_lines,f1_speaker\nc0,0,10\nc1,1," + "9" * 140_000 + "\n", "row 2"),
        ("clip_id,n_lines,f1_" + "s" * 140_000 + "\nc0,0,10\n", "header"),
    ], ids=["row", "header"])
    def test_a_field_over_the_csv_limit_is_an_error(self, text, where):
        with pytest.raises(StatsError, match=f"features CSV {where} is unreadable: "
                                             f"field larger than field limit"):
            read_features_csv(io.StringIO(text))

    def test_text_that_is_not_utf8_is_an_error(self):
        handle = io.TextIOWrapper(io.BytesIO(self.HEADER.encode() + b"c0,0,\xff\n"),
                                  encoding="utf-8", newline="")
        with pytest.raises(StatsError, match="features CSV is not valid UTF-8"):
            read_features_csv(handle)


class TestSignedRankVariance:
    def test_reported_negative_correlation(self):
        assert signed_rank_variance(-0.23) == pytest.approx(-5.29)

    def test_zero(self):
        assert signed_rank_variance(0.0) == 0.0

    def test_perfect(self):
        assert signed_rank_variance(1.0) == 100.0
        assert signed_rank_variance(-1.0) == -100.0

    def test_out_of_range_raises(self):
        with pytest.raises(StatsError):
            signed_rank_variance(1.5)
