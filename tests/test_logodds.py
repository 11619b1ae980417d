import dataclasses
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstruct.stats import logodds
from convstruct.stats.bootstrap import StatsError
from convstruct.stats.logodds import (
    DEFAULT_GRID,
    TermCounts,
    calibrate_prior,
    logodds_report,
    tokenize,
    utterance_documents,
    weighted_logodds,
)

from conftest import random_clip


def count_tables(terms, shows, y_a, y_b, p=None):
    """TermCounts from explicit (show, term) tables, with no document entries;
    the background defaults to the pooled term frequency."""
    if p is None:
        p = (y_a.sum(axis=0) + y_b.sum(axis=0)) / (y_a.sum() + y_b.sum())
    return TermCounts(tuple(terms), tuple(shows), y_a, y_b, p,
                      doc_terms=np.empty((3, 0), dtype=np.int64),
                      doc_show=np.empty(0, dtype=np.int64),
                      doc_in_a=np.empty(0, dtype=bool))


def toy_counts():
    """Single show, two terms: group a = (8, 2), group b = (2, 8), p = (.5, .5)."""
    return count_tables(
        terms=("alpha", "beta"),
        shows=("s1",),
        y_a=np.array([[8.0, 2.0]]),
        y_b=np.array([[2.0, 8.0]]),
        p=np.array([0.5, 0.5]),
    )


def hand_zeta(y_a, n_a, y_b, n_b, alpha_t, alpha0):
    delta = math.log((y_a + alpha_t) / (n_a + alpha0 - y_a - alpha_t)) - math.log(
        (y_b + alpha_t) / (n_b + alpha0 - y_b - alpha_t)
    )
    sigma2 = 1.0 / (y_a + alpha_t) + 1.0 / (y_b + alpha_t)
    return delta, sigma2, delta / math.sqrt(sigma2)


class TestTokenize:
    def test_keeps_internal_apostrophes(self):
        assert tokenize("I've seen how's-it-going 3 times!") == [
            "i've", "seen", "how's", "it", "going", "3", "times"]

    def test_normalizes_curly_apostrophe(self):
        assert tokenize("I’ve") == ["i've"]

    def test_drops_leading_trailing_punctuation(self):
        assert tokenize("'tis... okay?") == ["tis", "okay"]


class TestWeightedLogodds:
    def test_identical_counts_score_zero(self):
        counts = count_tables(
            terms=("x", "y"), shows=("s",),
            y_a=np.array([[5.0, 5.0]]), y_b=np.array([[5.0, 5.0]]),
        )
        delta, _, zeta = weighted_logodds(counts, 2.0)
        assert np.all(delta == 0.0)
        assert np.all(zeta == 0.0)

    def test_matches_hand_arithmetic(self):
        delta, sigma2, zeta = weighted_logodds(toy_counts(), 2.0)
        for t, (y_a, y_b) in enumerate([(8.0, 2.0), (2.0, 8.0)]):
            d, s2, z = hand_zeta(y_a, 10.0, y_b, 10.0, alpha_t=1.0, alpha0=2.0)
            assert delta[0, t] == pytest.approx(d, abs=1e-12)
            assert sigma2[0, t] == pytest.approx(s2, abs=1e-12)
            assert zeta[0, t] == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("c_star", [float("nan"), float("inf"), 0.0, -2.0])
    def test_non_positive_or_non_finite_prior_raises(self, c_star):
        with pytest.raises(StatsError, match="prior strength must be positive and finite"):
            weighted_logodds(toy_counts(), c_star)

    def test_large_prior_shrinks_scores_monotonically(self):
        counts = toy_counts()
        magnitudes = []
        for c_star in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
            _, _, zeta = weighted_logodds(counts, c_star)
            magnitudes.append(abs(float(zeta[0, 0])))
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 0.05  # zeta shrinks like 1/sqrt(C*)

    def test_group_swap_negates_exactly(self):
        counts = toy_counts()
        delta, _, zeta = weighted_logodds(counts, 2.0)
        swapped = dataclasses.replace(counts, y_a=counts.y_b, y_b=counts.y_a)
        swapped_delta, _, swapped_zeta = weighted_logodds(swapped, 2.0)
        assert np.array_equal(swapped_delta, -delta)
        assert np.array_equal(swapped_zeta, -zeta)

    def test_nonpositive_prior_raises(self):
        with pytest.raises(StatsError):
            weighted_logodds(toy_counts(), 0.0)

    def test_bad_denominator_names_term(self):
        # group a in show s1 contains only the term "solo"
        counts = count_tables(
            terms=("solo", "other"), shows=("s1",),
            y_a=np.array([[10.0, 0.0]]), y_b=np.array([[5.0, 5.0]]),
            p=np.array([0.9, 0.1]),
        )
        # n_a + alpha0 - y_a - alpha_t = 10 + c - 10 - 0.9c = 0.1c > 0, fine;
        # shrink until the "other" column in group a is the problem instead
        bad = count_tables(
            terms=("solo",), shows=("s1",),
            y_a=np.array([[10.0]]), y_b=np.array([[5.0]]),
            p=np.array([1.0]),
        )
        with pytest.raises(StatsError, match="solo"):
            weighted_logodds(bad, 2.0)
        weighted_logodds(counts, 2.0)  # the two-term table is fine


def reference_zeta(y_a, y_b, p, c_star):
    """`_zeta_core` as its formulas read: a fresh array for every step, and
    NaN where a denominator is not positive."""
    alpha = c_star * p
    den_a = y_a.sum(axis=1, keepdims=True) + c_star - y_a - alpha
    den_b = y_b.sum(axis=1, keepdims=True) + c_star - y_b - alpha
    valid = (den_a > 0) & (den_b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (np.log(y_a + alpha) - np.log(den_a)) - (
            np.log(y_b + alpha) - np.log(den_b))
        sigma2 = 1.0 / (y_a + alpha) + 1.0 / (y_b + alpha)
        zeta = delta / np.sqrt(sigma2)
    return np.where(valid, delta, np.nan), sigma2, np.where(valid, zeta, np.nan)


class TestZetaCore:
    """The in-place `_zeta_core` gives the formulas' bits and writes no input."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shows=st.integers(1, 5),
           terms=st.integers(1, 30), c_star=st.floats(0.01, 1e5),
           uniform=st.booleans())
    def test_bitwise_equal_to_the_formulas(self, seed, shows, terms, c_star, uniform):
        rng = np.random.default_rng(seed)
        y_a, y_b = rng.poisson(rng.uniform(0, 4, size=2)[:, None, None],
                               (2, shows, terms)).astype(float)
        p = np.full(terms, 1.0 / terms) if uniform else rng.dirichlet(np.ones(terms))
        inputs = y_a.copy(), y_b.copy()
        found = logodds._zeta_core(y_a, y_b, p, c_star)
        expected = reference_zeta(y_a, y_b, p, c_star)
        assert [a.tobytes() for a in found] == [a.tobytes() for a in expected]
        assert np.array_equal(y_a, inputs[0]) and np.array_equal(y_b, inputs[1])

    def test_non_positive_denominator_is_nan(self):
        # one term holding its show's whole count: n + C - y - C is 0
        y_a, y_b, p = np.array([[3.0]]), np.array([[1.0]]), np.array([1.0])
        delta, sigma2, zeta = logodds._zeta_core(y_a, y_b, p, 1.0)
        assert np.isnan(delta).all() and np.isnan(zeta).all()
        assert sigma2.tobytes() == reference_zeta(y_a, y_b, p, 1.0)[1].tobytes()


class TestTermCounts:
    def test_from_documents_counts_and_background(self):
        docs = [
            ("s1", "a", tuple("aabb")),
            ("s1", "b", tuple("abbb")),
            ("s2", "a", tuple("aaab")),
            ("s2", "b", tuple("bbbb")),
        ]
        counts = TermCounts.from_documents(docs, min_count=1)
        assert counts.terms == ("a", "b")
        assert counts.shows == ("s1", "s2")
        assert counts.y_a.tolist() == [[2.0, 2.0], [3.0, 1.0]]
        assert counts.y_b.tolist() == [[1.0, 3.0], [0.0, 4.0]]
        assert counts.y_a.sum(axis=1).tolist() == [4.0, 4.0]
        assert float(counts.p.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_min_count_filters_rare_terms(self):
        docs = [("s", "a", ("common",) * 6 + ("rare",)),
                ("s", "b", ("common",) * 6)]
        counts = TermCounts.from_documents(docs, min_count=5)
        assert counts.terms == ("common",)
        # totals follow the kept vocabulary so counts still sum to totals
        assert counts.y_a.sum(axis=1).tolist() == [6.0]


documents = st.lists(
    st.tuples(st.sampled_from(["s1", "s2", "s3"]), st.sampled_from("ab"),
              st.lists(st.sampled_from(["x", "y", "z", "w", "v"]), max_size=8)),
    min_size=1, max_size=25)


class TestTermCountsProperty:
    @settings(max_examples=80, deadline=None)
    @given(docs=documents, min_count=st.integers(1, 4))
    def test_tables_equal_brute_force_counts(self, docs, min_count):
        pooled = Counter(t for _, _, tokens in docs for t in tokens)
        terms = sorted(t for t, c in pooled.items() if c >= min_count)
        if not terms:
            with pytest.raises(StatsError, match="minimum pooled count"):
                TermCounts.from_documents(docs, min_count=min_count)
            return
        shows = sorted({show for show, _, _ in docs})
        cells = {(s, g): Counter() for s in shows for g in "ab"}
        for show, group, tokens in docs:
            cells[show, group].update(tokens)
        counts = TermCounts.from_documents(docs, min_count=min_count)
        assert counts.terms == tuple(terms) and counts.shows == tuple(shows)
        for group, table in (("a", counts.y_a), ("b", counts.y_b)):
            assert table.tolist() == [[float(cells[s, group][t]) for t in terms]
                                      for s in shows]
        kept = np.array([pooled[t] for t in terms], dtype=np.float64)
        assert counts.p.tolist() == (kept / kept.sum()).tolist()


    @settings(max_examples=80, deadline=None)
    @given(docs=documents, min_count=st.integers(1, 4))
    def test_a_generator_counts_as_the_list(self, docs, min_count):
        try:
            expected = TermCounts.from_documents(docs, min_count=min_count)
        except StatsError as exc:
            with pytest.raises(StatsError, match=re.escape(str(exc))):
                TermCounts.from_documents((d for d in docs), min_count=min_count)
            return
        found = TermCounts.from_documents((d for d in docs), min_count=min_count)
        assert (found.terms, found.shows) == (expected.terms, expected.shows)
        for name in ("doc_terms", "doc_show", "doc_in_a", "y_a", "y_b", "p"):
            assert np.array_equal(getattr(found, name), getattr(expected, name)), name

    def test_document_entries_are_required(self):
        table = np.ones((1, 1))
        with pytest.raises(TypeError, match="doc_terms"):
            TermCounts(("t",), ("s",), table, table, np.ones(1))

    def test_no_documents_raises(self):
        for docs in ([], iter(())):
            with pytest.raises(StatsError, match="^no documents$"):
                TermCounts.from_documents(docs)


class TestUtteranceDocuments:
    """Documents come in clip id order: a list is sorted, a one-shot stream
    must already ascend."""

    @staticmethod
    def clips():
        return [random_clip(random.Random(k), f"c{k}", show_id=f"show{k % 2}")
                for k in range(4)]

    def test_yields_plain_tuples_of_show_group_and_tokens(self):
        clips = self.clips()
        expected = [(c.show_id, "a" if not r.side_participants else "b", tokenize(u.text))
                    for c in clips for u, r in zip(c.utterances, c.gold)]
        docs = list(utterance_documents(clips))
        assert docs == expected
        assert {type(d) for d in docs} == {tuple}
        assert {type(tokens) for _, _, tokens in docs} == {list}

    def test_a_list_in_any_order_is_sorted(self):
        clips = self.clips()
        expected = list(utterance_documents(clips))
        assert list(utterance_documents(clips[::-1])) == expected
        assert list(utterance_documents(iter(clips))) == expected

    def test_a_stream_out_of_clip_order_raises_at_the_late_clip(self):
        c0, c1, c2, c3 = self.clips()
        docs = utterance_documents(iter([c0, c2, c1, c3]))
        # the documents of c0 and c2 come before the order is found broken
        head = list(utterance_documents([c0, c2]))
        assert [next(docs) for _ in head] == head
        with pytest.raises(StatsError, match="clip 'c1' comes after clip 'c2'"):
            next(docs)

    def test_a_stream_may_repeat_a_clip_id(self):
        c0, c1, _, _ = self.clips()
        twice = [c0, c1, dataclasses.replace(c1, show_id="other")]
        assert list(utterance_documents(iter(twice))) == list(utterance_documents(twice))


def null_documents(rng, n_shows=4, docs_per_show=60, vocab=30, doc_len=15):
    """Both groups drawn from one multinomial: no real group signal."""
    weights = np.arange(1, vocab + 1, dtype=float)[::-1]
    probs = weights / weights.sum()
    terms = [f"t{k}" for k in range(vocab)]
    docs = []
    for s in range(n_shows):
        for d in range(docs_per_show):
            counts = rng.multinomial(doc_len, probs)
            tokens = []
            for t, c in zip(terms, counts):
                tokens.extend([t] * int(c))
            docs.append((f"show{s}", "a" if d % 2 == 0 else "b", tokens))
    return docs


def reference_null_tables(docs, counts, permutations, seed):
    """Every permuted (y_a, y_b) table, rebuilt from per-document Counters with
    the draws calibrate_prior makes: one child generator per permutation, one
    rng.permutation of a show's group labels per show, in show order."""
    column = {t: i for i, t in enumerate(counts.terms)}
    bags = [Counter(t for t in tokens if t in column) for _, _, tokens in docs]
    in_a = np.array([group == "a" for _, group, _ in docs])
    show_rows = [[i for i, (show, _, _) in enumerate(docs) if show == s]
                 for s in counts.shows]
    tables = []
    for child in np.random.SeedSequence(seed).spawn(permutations):
        rng = np.random.default_rng(child)
        y = {True: np.zeros(counts.y_a.shape), False: np.zeros(counts.y_a.shape)}
        for s, rows in enumerate(show_rows):
            for row, is_a in zip(rows, rng.permutation(in_a[rows])):
                for term, count in bags[row].items():
                    y[bool(is_a)][s, column[term]] += count
        tables.append((y[True], y[False]))
    return tables


def reference_c_star(tables, p, grid):
    best_c, best_gap = None, None
    for candidate in sorted(grid):
        zetas = np.concatenate([z[np.isfinite(z)] for z in (
            logodds._zeta_core(y_a, y_b, p, candidate)[2] for y_a, y_b in tables)])
        if zetas.size >= 2:
            gap = abs(float(zetas.std(ddof=1)) - 1.0)
            if best_gap is None or gap < best_gap:
                best_c, best_gap = candidate, gap
    return best_c


class TestCalibratePrior:
    @pytest.mark.parametrize("seed, grid, permutations", [
        (0, [1.0, 10.0, 100.0], 5),
        (7, list(DEFAULT_GRID), 3),
        (123, [900.0, 0.5, 40.0, 3.0], 7),
        (2024, [0.1, 0.2], 1),
    ])
    def test_matches_counter_reference(self, monkeypatch, seed, grid, permutations):
        rng = np.random.default_rng(seed)
        docs = null_documents(rng, n_shows=3, docs_per_show=21, vocab=12, doc_len=6)
        docs.append(("solo", "b", ("t0", "t1", "t1")))  # a one-document show
        counts = TermCounts.from_documents(docs, min_count=2)
        tables = reference_null_tables(docs, counts, permutations, seed)
        expected = reference_c_star(tables, counts.p, grid)

        scored = []
        core = logodds._zeta_core

        def recording(y_a, y_b, p, c_star):
            scored.append((c_star, y_a.copy(), y_b.copy()))
            return core(y_a, y_b, p, c_star)

        monkeypatch.setattr(logodds, "_zeta_core", recording)
        c_star = calibrate_prior(counts, grid, permutations=permutations, seed=seed)
        assert c_star == expected
        # each permuted table is scored by every candidate before the next is
        # drawn, so each candidate sees the tables in permutation order
        assert [c for c, _, _ in scored] == [c for _ in range(permutations)
                                             for c in sorted(grid)]
        for i, (_, y_a, y_b) in enumerate(scored):
            ref_a, ref_b = tables[i // len(grid)]
            assert np.array_equal(y_a, ref_a) and np.array_equal(y_b, ref_b)


    def test_single_candidate_grid(self):
        rng = np.random.default_rng(0)
        counts = TermCounts.from_documents(null_documents(rng), min_count=5)
        assert calibrate_prior(counts, [3.0], permutations=2, seed=0) == 3.0

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(1)
        counts = TermCounts.from_documents(null_documents(rng), min_count=5)
        grid = [1.0, 10.0, 100.0]
        first = calibrate_prior(counts, grid, permutations=5, seed=42)
        second = calibrate_prior(counts, grid, permutations=5, seed=42)
        assert first == second

    def test_null_corpus_calibrates_near_unit_sd(self):
        rng = np.random.default_rng(2)
        counts = TermCounts.from_documents(null_documents(rng), min_count=5)
        c_star = calibrate_prior(counts, np.logspace(0, 4, 9), permutations=8, seed=7)
        _, _, zeta = weighted_logodds(counts, c_star)
        sd = float(np.std(zeta[np.isfinite(zeta)], ddof=1))
        assert 0.85 <= sd <= 1.15

    def test_degenerate_corpus_raises(self):
        docs = [("s1", "a", ("word",) * 6), ("s2", "b", ("word",) * 6)]
        counts = TermCounts.from_documents(docs, min_count=1)
        with pytest.raises(StatsError, match="degenerate"):
            calibrate_prior(counts, [1.0], permutations=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_positive_or_non_finite_grid_value_raises(self, bad):
        rng = np.random.default_rng(3)
        counts = TermCounts.from_documents(null_documents(rng, 1, 4), min_count=1)
        with pytest.raises(StatsError, match="grid values must be positive and finite"):
            calibrate_prior(counts, [1.0, bad], permutations=2)

    def test_empty_grid_raises(self):
        rng = np.random.default_rng(3)
        counts = TermCounts.from_documents(null_documents(rng, 1, 4), min_count=1)
        with pytest.raises(StatsError):
            calibrate_prior(counts, [], permutations=2)

    def test_negative_seed_raises(self):
        rng = np.random.default_rng(3)
        counts = TermCounts.from_documents(null_documents(rng, 1, 4), min_count=1)
        with pytest.raises(StatsError, match="seed must be >= 0"):
            calibrate_prior(counts, [1.0], permutations=2, seed=-1)


class TestAnalysisPipeline:
    def test_aggregates_with_stouffer(self):
        docs = [("s1", "a", ("alpha",) * 8 + ("beta",) * 2 + ("gamma",) * 3),
                ("s1", "b", ("alpha",) * 2 + ("beta",) * 8 + ("gamma",) * 3),
                ("s2", "a", ("alpha",) * 6 + ("beta",) * 3 + ("gamma",) * 2),
                ("s2", "b", ("alpha",) * 1 + ("beta",) * 5 + ("gamma",) * 2)]
        report = logodds_report(docs, min_count=1, c_star=2.0)
        _, _, zeta = weighted_logodds(TermCounts.from_documents(docs, min_count=1), 2.0)
        assert report["shows"] == ["s1", "s2"]
        for t, term in enumerate(("alpha", "beta", "gamma")):
            assert report["z"][term] == float(zeta[:, t].sum() / np.sqrt(zeta.shape[0]))
        ranked = [term for term, _ in report["top_group_a"]]
        assert ranked[0] == "alpha"
        assert ranked[-1] == "beta"


class TestLogoddsReportTop:
    DOCS = [("s1", "a", ("alpha", "alpha", "beta", "gamma")),
            ("s1", "b", ("beta", "beta", "alpha", "gamma"))]

    def test_top_zero_lists_no_terms(self):
        report = logodds_report(self.DOCS, min_count=1, c_star=2.0, top=0)
        assert report["n_terms"] == 3
        assert report["top_group_a"] == [] and report["top_group_b"] == []

    def test_top_splits_the_ranking_from_both_ends(self):
        report = logodds_report(self.DOCS, min_count=1, c_star=2.0, top=1)
        assert [t for t, _ in report["top_group_a"]] == ["alpha"]
        assert [t for t, _ in report["top_group_b"]] == ["beta"]
        wide = logodds_report(self.DOCS, min_count=1, c_star=2.0, top=10)
        assert [t for t, _ in wide["top_group_b"]] == [
            t for t, _ in wide["top_group_a"]][::-1]

    def test_negative_top_raises(self):
        with pytest.raises(StatsError, match="top"):
            logodds_report(self.DOCS, min_count=1, c_star=2.0, top=-1)


def oracle_calibration(counts, grid, permutations, seed):
    """Calibration with every null table drawn and tabulated at once, every
    candidate's finite null z pooled, then one SD (not running moments).
    Returns C* and each candidate's gap |SD - 1|."""
    show_rows = [np.flatnonzero(counts.doc_show == s) for s in range(len(counts.shows))]
    labels = np.empty((permutations, counts.doc_in_a.size), dtype=bool)
    for row, child in zip(labels, np.random.SeedSequence(seed).spawn(permutations)):
        rng = np.random.default_rng(child)
        for rows in show_rows:
            row[rows] = rng.permutation(counts.doc_in_a[rows])
    # every permutation's group-a table at once, by unbuffered adds of the
    # labelled document-term entries into a (k, S, T) stack
    doc, term, count = counts.doc_terms
    rows, entries = np.nonzero(labels[:, doc])
    null_a = np.zeros((permutations, *counts.y_a.shape))
    np.add.at(null_a, (rows, counts.doc_show[doc[entries]], term[entries]),
              count[entries])
    totals = counts.y_a + counts.y_b
    best_c, best_gap, gaps = None, None, {}
    for candidate in sorted(float(c) for c in grid):
        pooled = np.concatenate([
            z[np.isfinite(z)] for z in (
                logodds._zeta_core(y_a, totals - y_a, counts.p, candidate)[2]
                for y_a in null_a)])
        if pooled.size < 2:
            continue
        gap = abs(float(pooled.std(ddof=1)) - 1.0)
        gaps.setdefault(candidate, gap)
        if best_gap is None or gap < best_gap:
            best_c, best_gap = candidate, gap
    return best_c, gaps


class TestBlockedCalibration:
    @settings(max_examples=60, deadline=None)
    @given(docs=documents, min_count=st.integers(1, 3),
           grid=st.lists(st.floats(0.05, 1e4), min_size=1, max_size=6),
           permutations=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_unblocked_oracle(self, docs, min_count, grid, permutations, seed):
        try:
            counts = TermCounts.from_documents(docs, min_count=min_count)
        except StatsError:
            return
        if not any((counts.doc_show == s).sum() >= 2 for s in range(len(counts.shows))):
            with pytest.raises(StatsError, match="degenerate"):
                calibrate_prior(counts, grid, permutations, seed)
            return
        expected, gaps = oracle_calibration(counts, grid, permutations, seed)
        if expected is None:
            with pytest.raises(StatsError, match="no usable null z-scores"):
                calibrate_prior(counts, grid, permutations, seed)
            return
        c_star = calibrate_prior(counts, grid, permutations, seed)
        if c_star != expected:  # only a near-tie in the oracle's gaps may flip
            assert abs(gaps[c_star] - gaps[expected]) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("permutations", [1, 3, 9, 17])
    def test_dense_grid_matches_unblocked_oracle(self, seed, permutations):
        # small corpora and a fine grid put neighbouring candidates' gaps close,
        # so a biased SD (say ddof=0) picks a different C*
        rng = np.random.default_rng(seed)
        docs = null_documents(rng, n_shows=2, docs_per_show=6, vocab=5, doc_len=3)
        counts = TermCounts.from_documents(docs, min_count=1)
        grid = list(np.logspace(0, 3, 25))
        expected, gaps = oracle_calibration(counts, grid, permutations, seed)
        c_star = calibrate_prior(counts, grid, permutations, seed)
        assert c_star == expected or abs(gaps[c_star] - gaps[expected]) <= 1e-9

    def test_memory_does_not_grow_with_permutations(self):
        import tracemalloc

        rng = np.random.default_rng(4)
        counts = TermCounts.from_documents(null_documents(rng), min_count=5)
        peaks = {}
        for permutations in (8, 256):
            tracemalloc.start()
            try:
                calibrate_prior(counts, [1.0, 100.0], permutations, seed=0)
                peaks[permutations] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[256] <= 1.5 * peaks[8], peaks

    def test_peak_memory_is_a_few_tables(self):
        # 40 shows x 3,000 terms: one (S, T) table is 0.96 MB, far above the
        # calibration's other allocations. One permutation at a time holds
        # about 12 tables at its peak; tabulating 8 permutations at once held 35.
        import tracemalloc

        rng = np.random.default_rng(5)
        vocab = [f"t{k}" for k in range(3000)]
        docs = [(f"show{s}", "ab"[d % 2],
                 [vocab[k] for k in rng.integers(0, len(vocab), 400)])
                for s in range(40) for d in range(10)]
        counts = TermCounts.from_documents(docs, min_count=1)
        assert counts.y_a.shape == (40, 3000)
        tracemalloc.start()
        try:
            calibrate_prior(counts, [1.0, 10.0, 100.0], permutations=16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * counts.y_a.nbytes, peak / counts.y_a.nbytes
