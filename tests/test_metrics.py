import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import convstruct.metrics
from convstruct.corpus import normalize_name
from convstruct.metrics import (
    METRIC_FIELDS,
    ClipScore,
    EvalConfig,
    MetricInputError,
    MetricReport,
    evaluate_corpus,
    exact_match,
    link_f1,
    nvi_score,
    one_to_one,
    set_f1,
    score_clip,
)
from convstruct.stats.bootstrap import BootstrapConfig, bootstrap_ci
from convstruct.threads import ThreadPartition, derive_threads, link_set

from conftest import NAMES, random_partition, random_records, record


# --- independent oracles ------------------------------------------------------


def enumeration_one_to_one(gold: ThreadPartition, pred: ThreadPartition) -> float:
    """Max total overlap over all injective cluster mappings, by brute force."""
    matrix = [[len(g & p) for p in pred.clusters] for g in gold.clusters]
    n_gold, n_pred = len(gold.clusters), len(pred.clusters)
    best = 0
    if n_gold <= n_pred:
        for perm in itertools.permutations(range(n_pred), n_gold):
            best = max(best, sum(matrix[i][perm[i]] for i in range(n_gold)))
    else:
        for perm in itertools.permutations(range(n_gold), n_pred):
            best = max(best, sum(matrix[perm[j]][j] for j in range(n_pred)))
    return 100.0 * (best / sum(map(len, gold.clusters)))


def direct_vi_score(gold: ThreadPartition, pred: ThreadPartition) -> float:
    """1-NVI recomputed from scratch: joint distribution built element-wise."""
    elements = sorted(frozenset().union(*gold.clusters))
    n = len(elements)
    if n == 1:
        return 100.0
    gold_of = {x: i for i, c in enumerate(gold.clusters) for x in c}
    pred_of = {x: j for j, c in enumerate(pred.clusters) for x in c}
    joint: dict[tuple[int, int], int] = {}
    for x in elements:
        key = (gold_of[x], pred_of[x])
        joint[key] = joint.get(key, 0) + 1
    gold_sizes: dict[int, int] = {}
    pred_sizes: dict[int, int] = {}
    for (i, j), m in joint.items():
        gold_sizes[i] = gold_sizes.get(i, 0) + m
        pred_sizes[j] = pred_sizes.get(j, 0) + m
    h_gold = -sum((s / n) * math.log(s / n, 2) for s in gold_sizes.values())
    h_pred = -sum((s / n) * math.log(s / n, 2) for s in pred_sizes.values())
    mutual = sum(
        (m / n) * math.log((m / n) / ((gold_sizes[i] / n) * (pred_sizes[j] / n)), 2)
        for (i, j), m in joint.items()
    )
    vi = h_gold + h_pred - 2 * mutual
    return min(100.0, max(0.0, 100.0 * (1.0 - vi / math.log(n, 2))))


def brute_force_exact_match(gold: ThreadPartition, pred: ThreadPartition):
    matches = sum(
        1 for g in gold.clusters if any(g == p for p in pred.clusters)
    )
    precision = matches / len(pred.clusters)
    recall = matches / len(gold.clusters)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


# --- role metrics --------------------------------------------------------------


def speaker_accuracy(gold, pred):
    """The fraction of lines whose speaker matches, from score_clip's line sum."""
    score = score_clip("c", gold, pred)
    return score.values[0] / (100 * score.n_lines)


class TestSpeakerAccuracy:
    def test_identity(self):
        records = [record(i, "a") for i in range(1, 5)]
        assert speaker_accuracy(records, records) == 1.0

    def test_three_of_four(self):
        gold = [record(1, "a"), record(2, "b"), record(3, "a"), record(4, "b")]
        pred = [record(1, "a"), record(2, "b"), record(3, "b"), record(4, "b")]
        assert speaker_accuracy(gold, pred) == 0.75

    def test_matches_after_normalization(self):
        gold = [record(1, "sheldon cooper")]
        pred = [record(1, "Sheldon  Cooper ")]
        assert speaker_accuracy(gold, pred) == 1.0

    def test_special_tokens_compare_by_kind(self):
        gold = [record(1, "unknown")]
        assert speaker_accuracy(gold, [record(1, "unknown")]) == 1.0
        assert speaker_accuracy(gold, [record(1, "crowd")]) == 0.0

    def test_off_screen_differs_from_regular(self):
        gold = [record(1, "barney_OS")]
        assert speaker_accuracy(gold, [record(1, "barney")]) == 0.0

    def test_coverage_mismatch_raises(self):
        with pytest.raises(MetricInputError):
            speaker_accuracy([record(1, "a")], [record(2, "a")])


class TestRoleSetF1:
    def _sets(self, *names):
        return frozenset(normalize_name(n) for n in names)

    def test_identity(self):
        assert set_f1(self._sets("penny"), self._sets("penny")) == 1.0

    def test_partial_overlap(self):
        gold = self._sets("sheldon cooper", "amy farrah fowler")
        pred = self._sets("amy farrah fowler")
        assert set_f1(gold, pred) == pytest.approx(2 / 3, abs=1e-15)

    def test_both_empty_scores_one(self):
        assert set_f1(frozenset(), frozenset()) == 1.0

    def test_one_empty_scores_zero(self):
        assert set_f1(self._sets("a"), frozenset()) == 0.0
        assert set_f1(frozenset(), self._sets("a")) == 0.0

    def test_element_order_invariant(self):
        a = self._sets("a", "b", "c")
        b = frozenset(sorted(a, key=lambda p: p.token, reverse=True))
        assert set_f1(a, b) == 1.0


class TestLinkF1:
    def test_identity(self):
        links = frozenset({(12, 11), (14, 13)})
        assert link_f1(links, links).f1 == 1.0

    def test_half_overlap(self):
        gold = frozenset({(2, 1), (3, 2)})
        pred = frozenset({(2, 1), (3, 1)})
        score = link_f1(gold, pred)
        assert score == (0.5, 0.5, 0.5)

    def test_empty_prediction(self):
        assert link_f1(frozenset({(2, 1)}), frozenset()).f1 == 0.0

    def test_both_empty(self):
        assert link_f1(frozenset(), frozenset()).f1 == 1.0

    def test_f1_symmetric(self):
        rng = random.Random(3)
        for _ in range(50):
            gold = frozenset((i, rng.randint(1, i - 1))
                             for i in rng.sample(range(2, 15), 6))
            pred = frozenset((i, rng.randint(1, i - 1))
                             for i in rng.sample(range(2, 15), 6))
            assert link_f1(gold, pred).f1 == pytest.approx(link_f1(pred, gold).f1)


# --- thread metrics ------------------------------------------------------------


def partition(*clusters):
    return ThreadPartition.from_clusters(clusters)


class TestNvi:
    def test_identical_is_exactly_100(self):
        part = partition({1, 2}, {3, 4})
        assert nvi_score(part, part) == 100.0

    def test_two_vs_one_cluster(self):
        assert nvi_score(partition({1, 2}, {3, 4}), partition({1, 2, 3, 4})) == 50.0

    def test_singletons_vs_one_cluster(self):
        gold = partition({1}, {2}, {3}, {4})
        assert nvi_score(gold, partition({1, 2, 3, 4})) == 0.0

    def test_single_element_defined_as_100(self):
        assert nvi_score(partition({1}), partition({1})) == 100.0

    def test_element_mismatch_raises(self):
        with pytest.raises(MetricInputError):
            nvi_score(partition({1, 2}), partition({1, 3}))

    def test_matches_direct_recomputation(self):
        rng = random.Random(17)
        for _ in range(300):
            elements = list(range(1, rng.randint(2, 20)))
            if not elements:
                continue
            gold = random_partition(rng, elements)
            pred = random_partition(rng, elements)
            assert nvi_score(gold, pred) == pytest.approx(
                direct_vi_score(gold, pred), abs=1e-9)

    def test_symmetric(self):
        rng = random.Random(19)
        for _ in range(100):
            elements = list(range(1, 12))
            gold = random_partition(rng, elements)
            pred = random_partition(rng, elements)
            assert nvi_score(gold, pred) == nvi_score(pred, gold)


class TestOneToOne:
    def test_identity(self):
        part = partition({1, 2}, {3, 4})
        assert one_to_one(part, part) == 100.0

    def test_best_pairing_three_of_four(self):
        assert one_to_one(partition({1, 2}, {3, 4}),
                          partition({1, 2, 3}, {4})) == 75.0

    def test_single_cluster_vs_singletons(self):
        assert one_to_one(partition({1, 2, 3, 4}),
                          partition({1}, {2}, {3}, {4})) == 25.0

    def test_equals_enumeration(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 12)
            elements = list(range(1, n + 1))
            gold = random_partition(rng, elements, max_clusters=6)
            pred = random_partition(rng, elements, max_clusters=6)
            assert one_to_one(gold, pred) == enumeration_one_to_one(gold, pred)

    def test_symmetric(self):
        rng = random.Random(29)
        for _ in range(100):
            elements = list(range(1, 10))
            gold = random_partition(rng, elements)
            pred = random_partition(rng, elements)
            assert one_to_one(gold, pred) == one_to_one(pred, gold)


class TestExactMatch:
    def test_identity(self):
        part = partition({1, 2}, {3, 4})
        assert exact_match(part, part).f1 == 1.0

    def test_partial_recovery(self):
        score = exact_match(partition({1, 2}, {3, 4}),
                            partition({1, 2}, {3}, {4}))
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 2)
        assert score.f1 == pytest.approx(0.4)

    def test_disjoint_shapes(self):
        assert exact_match(partition({1, 2, 3}), partition({1}, {2, 3})).f1 == 0.0

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(300):
            elements = list(range(1, rng.randint(2, 16)))
            gold = random_partition(rng, elements)
            pred = random_partition(rng, elements)
            assert exact_match(gold, pred) == brute_force_exact_match(gold, pred)

    def test_f1_symmetric(self):
        rng = random.Random(37)
        for _ in range(100):
            elements = list(range(1, 10))
            gold = random_partition(rng, elements)
            pred = random_partition(rng, elements)
            assert exact_match(gold, pred).f1 == exact_match(pred, gold).f1


@st.composite
def partition_pairs(draw):
    """Two partitions of one element set: up to 300 elements, up to n clusters."""
    n = draw(st.integers(1, 300))
    rng = draw(st.randoms(use_true_random=False))
    elements = rng.sample(range(1, 10 * n + 1), n)

    def labelled():
        k = draw(st.integers(1, n))
        clusters: dict[int, list[int]] = {}
        for x in elements:
            clusters.setdefault(rng.randrange(k), []).append(x)
        return ThreadPartition.from_clusters(clusters.values())

    return labelled(), labelled()


class TestPartitionProperties:
    @settings(max_examples=60, deadline=None)
    @given(pair=partition_pairs())
    def test_nvi_matches_direct_recomputation(self, pair):
        gold, pred = pair
        assert nvi_score(gold, pred) == pytest.approx(direct_vi_score(gold, pred), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(pair=partition_pairs())
    def test_exact_match_equals_brute_force(self, pair):
        gold, pred = pair
        assert exact_match(gold, pred) == brute_force_exact_match(gold, pred)

    @settings(max_examples=60, deadline=None)
    @given(pair=partition_pairs())
    def test_self_is_100_and_scores_in_range(self, pair):
        gold, pred = pair
        assert nvi_score(gold, gold) == 100.0
        assert one_to_one(gold, gold) == 100.0
        assert 100.0 * exact_match(gold, gold).f1 == 100.0
        for score in (nvi_score(gold, pred), one_to_one(gold, pred),
                      100.0 * exact_match(gold, pred).f1):
            assert 0.0 <= score <= 100.0

    @settings(max_examples=60, deadline=None)
    @given(pair=partition_pairs())
    def test_one_to_one_and_exact_match_f1_symmetric(self, pair):
        gold, pred = pair
        assert one_to_one(gold, pred) == one_to_one(pred, gold)
        assert exact_match(gold, pred).f1 == exact_match(pred, gold).f1


def dense_one_to_one(gold: ThreadPartition, pred: ThreadPartition) -> float:
    """1-1 over the full G x P contingency matrix, one dense assignment."""
    pred_of = {x: j for j, cluster in enumerate(pred.clusters) for x in cluster}
    matrix = np.zeros((len(gold.clusters), len(pred.clusters)), dtype=np.int64)
    for i, cluster in enumerate(gold.clusters):
        for x in cluster:
            matrix[i, pred_of[x]] += 1
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return 100.0 * (int(matrix[rows, cols].sum()) / sum(map(len, gold.clusters)))


def parts(*clusters):
    return ThreadPartition.from_clusters(clusters)


@st.composite
def nearby_partition_pairs(draw):
    """A partition and a copy with some elements moved: mixes singleton cells
    (clusters the copy kept whole) with cells that share rows and columns."""
    n = draw(st.integers(1, 300))
    rng = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(1, n))
    gold = [rng.randrange(k) for _ in range(n)]
    pred = list(gold)
    for x in rng.sample(range(n), draw(st.integers(0, n))):
        pred[x] = rng.randrange(k + 3)

    def partition(labels):
        clusters: dict[int, list[int]] = {}
        for x, label in enumerate(labels, start=1):
            clusters.setdefault(label, []).append(x)
        return ThreadPartition.from_clusters(clusters.values())

    return partition(gold), partition(pred)


def reply_partitions(n: int, rng: random.Random, rewire: float = 0.1):
    """Gold threads with 40% thread starts and reply distance <= 12, and a
    prediction that sends a `rewire` share of lines to another earlier line."""
    gold = {i: i if i == 1 or rng.random() < 0.4 else i - rng.randint(1, min(i - 1, 12))
            for i in range(1, n + 1)}
    pred = dict(gold)
    for i in rng.sample(range(2, n + 1), round(rewire * n)):
        pred[i] = rng.choice([j for j in range(1, i + 1) if j != gold[i]])

    def partition(parent):
        root, clusters = {}, {}
        for i in range(1, n + 1):
            root[i] = i if parent[i] == i else root[parent[i]]
            clusters.setdefault(root[i], []).append(i)
        return ThreadPartition.from_clusters(clusters.values())

    return partition(gold), partition(pred)


class TestOneToOneAssignment:
    """1-1 matches the nonzero contingency cells, with no dense matrix."""

    @settings(max_examples=80, deadline=None)
    @given(pair=st.one_of(partition_pairs(), nearby_partition_pairs()))
    # no singleton cell: every row and every column holds two cells
    @example(pair=(parts({1, 2}, {3, 4}), parts({1, 3}, {2, 4})))
    # every cell alone in its row and column: each row settles at once
    @example(pair=(parts({1, 2}, {3}, {4, 5, 6}), parts({1, 2}, {3}, {4, 5, 6})))
    @example(pair=(parts({1}), parts({1})))
    # singleton cells beside a shared block
    @example(pair=(parts({1, 2}, {3, 4, 5}, {6}), parts({1, 2}, {3, 6}, {4, 5})))
    # one column wanted by two rows: the optimum leaves a row with a cell unmatched
    @example(pair=(parts({1, 2, 3}, {4}), parts({1, 2, 3, 4})))
    # three rows over two columns: a later row pushes an earlier one to its dummy
    @example(pair=(parts({1}, {2, 3}, {4, 5}), parts({1, 2, 4}, {3, 5})))
    def test_equals_dense_assignment(self, pair):
        gold, pred = pair
        assert one_to_one(gold, pred) == dense_one_to_one(gold, pred)

    @pytest.mark.parametrize("filter_nondialogic", [False, True])
    def test_score_clip_builds_the_contingency_once(self, monkeypatch,
                                                    filter_nondialogic):
        calls = []
        build = convstruct.metrics._contingency

        def counting(gold, pred):
            calls.append(1)
            return build(gold, pred)

        monkeypatch.setattr(convstruct.metrics, "_contingency", counting)
        rng = random.Random(3)
        gold = random_records(rng, 40, NAMES)
        pred = random_records(rng, 40, NAMES)
        score_clip("c", gold, pred, filter_nondialogic=filter_nondialogic)
        assert len(calls) == 1

    def test_ten_thousand_lines_in_bounded_memory(self):
        gold, pred = reply_partitions(10_000, random.Random(10))
        tracemalloc.start()
        try:
            score = one_to_one(gold, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense G x P matrix of these partitions alone is about 110 MiB
        assert peak < 40 * 2**20
        assert 0.0 < score < 100.0

    def test_two_independent_partitions_of_thirty_thousand_lines(self):
        gold, _ = reply_partitions(30_000, random.Random(30), rewire=0.0)
        pred, _ = reply_partitions(30_000, random.Random(31), rewire=0.0)
        tracemalloc.start()
        try:
            score = one_to_one(gold, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 9 MiB; the dense G x P matrix of these partitions is over 1.7 GiB
        assert peak < 32 * 2**20
        assert 0.0 < score < 100.0


# --- corpus evaluation ----------------------------------------------------------


def two_thread_clip():
    return [record(1, "a", ["b"]), record(2, "b", ["a"], reply_to=1),
            record(3, "a", ["b"]), record(4, "b", ["a"], reply_to=3)]


def chain_pred(gold):
    lines = sorted(r.line_idx for r in gold)
    return [record(i, "unknown", reply_to=(lines[0] if i == lines[0] else i - 1))
            for i in lines]


class TestEvaluateCorpus:
    def test_identity_is_all_100(self):
        rng = random.Random(41)
        gold = {f"c{k}": random_records(rng, rng.randint(2, 12), NAMES[:4])
                for k in range(5)}
        report = evaluate_corpus(gold, gold)
        for value in report.as_dict()["raw"].values():
            assert value == 100.0

    def test_identity_bootstrap_ci_degenerate_at_100(self):
        rng = random.Random(43)
        gold = {f"c{k}": random_records(rng, 6, NAMES[:3]) for k in range(4)}
        config = EvalConfig(bootstrap=BootstrapConfig(resamples=200, seed=1))
        report = evaluate_corpus(gold, gold, config)
        for lo, hi in report.ci.values():
            assert lo == 100.0 and hi == 100.0

    @pytest.mark.parametrize("aggregate", ["micro", "macro"])
    @pytest.mark.parametrize("filter_nondialogic", [False, True])
    def test_identity_ci_exact_for_every_aggregation(self, aggregate, filter_nondialogic):
        rng = random.Random(44)
        gold = {f"c{k}": random_records(rng, rng.randint(3, 20), NAMES[:5])
                for k in range(7)}
        config = EvalConfig(aggregate=aggregate, filter_nondialogic=filter_nondialogic,
                            bootstrap=BootstrapConfig(resamples=300, seed=6))
        report = evaluate_corpus(gold, gold, config)
        assert set(report.ci) == set(METRIC_FIELDS)
        for lo, hi in report.ci.values():
            assert lo == 100.0 and hi == 100.0

    @pytest.mark.parametrize("aggregate", ["micro", "macro"])
    def test_ci_matches_per_metric_callable_path(self, aggregate):
        rng = random.Random(45)
        gold, pred = {}, {}
        for k in range(9):
            records = random_records(rng, rng.randint(2, 25), NAMES[:6])
            gold[f"c{k}"] = records
            pred[f"c{k}"] = [record(r.line_idx, rng.choice(NAMES[:6]),
                                    reply_to=rng.randint(1, r.line_idx))
                             for r in records]
        config = EvalConfig(aggregate=aggregate,
                            bootstrap=BootstrapConfig(resamples=700, seed=12))
        report = evaluate_corpus(gold, pred, config)

        # reference: the whole evaluation rerun on each resample of clips, keyed
        # by zero-padded position so the resampled clips keep their drawn order
        plain = EvalConfig(aggregate=aggregate)
        reports = {}

        def resample_report(clips):
            key = tuple(clips)
            if key not in reports:
                reports[key] = evaluate_corpus(
                    {f"{k:03d}": gold[c] for k, c in enumerate(clips)},
                    {f"{k:03d}": pred[c] for k, c in enumerate(clips)}, plain)
            return reports[key]

        for name in METRIC_FIELDS:
            ref = bootstrap_ci(sorted(gold),
                               lambda clips, name=name: getattr(resample_report(clips), name),
                               config.bootstrap)
            lo, hi = report.ci[name]
            assert lo == pytest.approx(ref.lo, abs=1e-12)
            assert hi == pytest.approx(ref.hi, abs=1e-12)
            assert ref.point == getattr(report, name)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clips=st.integers(1, 5),
           aggregate=st.sampled_from(["micro", "macro"]))
    def test_unfiltered_scores_are_symmetric(self, seed, n_clips, aggregate):
        # speaker matches, exact-match counts and 1-1 totals are symmetric
        # integers, the F1s swap precision and recall, and 1-NVI sums the same
        # per-cell terms with math.fsum, which rounds once whatever their order
        rng = random.Random(seed)
        a, b = {}, {}
        for k in range(n_clips):
            n_lines = rng.randint(1, 40)
            a[f"c{k}"] = random_records(rng, n_lines, NAMES[:6], rng.random())
            b[f"c{k}"] = random_records(rng, n_lines, NAMES[:6], rng.random())
        config = EvalConfig(aggregate=aggregate)
        assert evaluate_corpus(a, b, config) == evaluate_corpus(b, a, config)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           clip_ids=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6,
                             unique=True),
           aggregate=st.sampled_from(["micro", "macro"]),
           filter_nondialogic=st.booleans(),
           bootstrap=st.sampled_from([None, BootstrapConfig(resamples=200, seed=5)]),
           data=st.data())
    def test_clip_order_does_not_change_the_report(self, seed, clip_ids, aggregate,
                                                   filter_nondialogic, bootstrap, data):
        rng = random.Random(seed)
        gold, pred = {}, {}
        for clip_id in clip_ids:
            n_lines = rng.randint(1, 30)
            gold[clip_id] = random_records(rng, n_lines, NAMES[:6], rng.random())
            pred[clip_id] = random_records(rng, n_lines, NAMES[:6], rng.random())
        gold_order = data.draw(st.permutations(clip_ids), label="gold order")
        pred_order = data.draw(st.permutations(clip_ids), label="pred order")
        config = EvalConfig(aggregate, filter_nondialogic, bootstrap)

        def outcome(g, p):
            try:
                return json.dumps(evaluate_corpus(g, p, config).as_dict())
            except MetricInputError as exc:  # every line filtered away
                return repr(exc)

        assert outcome({c: gold[c] for c in gold_order},
                       {c: pred[c] for c in pred_order}) == outcome(gold, pred)

    def test_thread_metrics_average_per_clip(self):
        gold = {"c1": two_thread_clip(), "c2": two_thread_clip()}
        pred = {"c1": two_thread_clip(), "c2": chain_pred(two_thread_clip())}
        # c1 one-to-one = 100; c2 (gold {{1,2},{3,4}} vs chain {{1,2,3,4}}) = 50
        report = evaluate_corpus(gold, pred)
        assert report.one_to_one == 75.0

    def test_chain_prediction_link_f1_matches_pair_counting(self):
        rng = random.Random(47)
        gold_records = random_records(rng, 15, NAMES[:4])
        pred_records = chain_pred(gold_records)
        gold_links = link_set(gold_records)
        pred_links = link_set(pred_records)
        # oracle: direct pair counting
        tp = len([pair for pair in gold_links if pair in pred_links])
        precision = tp / len(pred_links)
        recall = tp / len(gold_links)
        expected = (0.0 if tp == 0
                    else 2 * precision * recall / (precision + recall))
        report = evaluate_corpus({"c": gold_records}, {"c": pred_records})
        assert report.link_f1 == pytest.approx(100.0 * expected, abs=1e-12)

    def test_micro_vs_macro_role_aggregation(self):
        # clip sizes 2 and 8, speaker all-wrong in the small clip only
        gold = {"small": [record(1, "a"), record(2, "a", reply_to=1)],
                "large": [record(i, "b", reply_to=max(1, i - 1))
                          for i in range(1, 9)]}
        pred = {"small": [record(1, "x"), record(2, "x", reply_to=1)],
                "large": gold["large"]}
        micro = evaluate_corpus(gold, pred, EvalConfig(aggregate="micro"))
        macro = evaluate_corpus(gold, pred, EvalConfig(aggregate="macro"))
        assert micro.speaker_acc == pytest.approx(100.0 * 8 / 10)
        assert macro.speaker_acc == pytest.approx(100.0 * (0.0 + 1.0) / 2)

    def test_filter_nondialogic_drops_flagged_lines(self):
        gold = {"c": [record(1, "a"), record(2, "b", reply_to=1),
                      record(3, "narrator", reply_to=3, extra_diegetic=True)]}
        pred = {"c": [record(1, "a"), record(2, "b", reply_to=1),
                      record(3, "someone else", reply_to=3)]}
        plain = evaluate_corpus(gold, pred)
        filtered = evaluate_corpus(gold, pred, EvalConfig(filter_nondialogic=True))
        assert plain.speaker_acc == pytest.approx(100.0 * 2 / 3)
        assert filtered.speaker_acc == 100.0
        assert filtered.n_utterances == 2

    def test_clip_set_mismatch_raises(self):
        gold = {"c1": [record(1, "a")]}
        pred = {"c2": [record(1, "a")]}
        with pytest.raises(MetricInputError):
            evaluate_corpus(gold, pred)

    def test_rewiring_degrades_link_f1_monotonically(self):
        # expected link F1 never increases with the number of rewired links
        def rewire(records, k, rng):
            out = list(records)
            children = [idx for idx, r in enumerate(out) if not r.is_thread_start]
            for idx in rng.sample(children, min(k, len(children))):
                r = out[idx]
                choices = [j for j in range(1, r.line_idx + 1) if j != r.reply_to]
                out[idx] = record(r.line_idx, r.speaker.canonical_name,
                                  reply_to=rng.choice(choices))
            return out

        base_rng = random.Random(53)
        gold = random_records(base_rng, 20, NAMES[:4], self_link_p=0.2)
        means = []
        for k in (0, 3, 6, 12):
            totals = 0.0
            for seed in range(150):
                rng = random.Random(1000 + seed)
                pred = rewire(gold, k, rng)
                totals += evaluate_corpus({"c": gold}, {"c": pred}).link_f1
            means.append(totals / 150)
        assert means[0] == 100.0
        assert all(a > b for a, b in zip(means, means[1:]))


def reference_speaker_accuracy(gold, pred):
    """Speaker accuracy as a per-line loop over line-indexed records."""
    gold_by_line = {r.line_idx: r for r in gold}
    pred_by_line = {r.line_idx: r for r in pred}
    lines = sorted(gold_by_line)
    return sum(1 for i in lines
               if gold_by_line[i].speaker == pred_by_line[i].speaker) / len(lines)


def reference_score_clip(clip_id, gold, pred, filter_nondialogic=False):
    """score_clip as a per-line loop over line-indexed records."""
    gold_by_line = {r.line_idx: r for r in gold}
    pred_by_line = {r.line_idx: r for r in pred}
    assert sorted(gold_by_line) == sorted(pred_by_line)
    lines = sorted(i for i, r in gold_by_line.items()
                   if not (filter_nondialogic and r.is_nondialogic))
    if not lines:
        return None
    matches, addr_sum, side_sum = 0, 0, 0
    for i in lines:
        g, p = gold_by_line[i], pred_by_line[i]
        matches += g.speaker == p.speaker
        addr_sum += set_f1(g.addressees, p.addressees)
        side_sum += set_f1(g.side_participants, p.side_participants)

    kept = set(lines)

    def restricted(records):
        links = frozenset((c, p) for c, p in link_set(records) if c in kept and p in kept)
        clusters = [c & kept for c in derive_threads(records).clusters]
        return links, ThreadPartition.from_clusters(c for c in clusters if c)

    (gold_links, gold_part), (pred_links, pred_part) = restricted(gold), restricted(pred)
    return ClipScore(clip_id, len(lines), (
        100.0 * matches,
        100.0 * addr_sum,
        100.0 * side_sum,
        100.0 * link_f1(gold_links, pred_links).f1,
        nvi_score(gold_part, pred_part),
        one_to_one(gold_part, pred_part),
        100.0 * exact_match(gold_part, pred_part).f1,
    ))


def flagged_records(rng, n_lines):
    """Random records with about a fifth of the lines flagged non-dialogic."""
    return [r._replace(extra_diegetic=rng.random() < 0.1,
                       monologue=rng.random() < 0.1)
            for r in random_records(rng, n_lines, NAMES[:4])]


def report_or_error(gold, pred, config):
    try:
        return evaluate_corpus(gold, pred, config)
    except MetricInputError as exc:
        return str(exc)


class TestAlignedRoleScoring:
    """Roles are scored line by line whatever order the records come in."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clips=st.integers(1, 4))
    def test_matches_the_per_line_reference_in_any_record_order(self, seed, n_clips):
        rng = random.Random(seed)
        gold, pred, shuffled_gold, shuffled_pred = {}, {}, {}, {}
        for k in range(n_clips):
            n_lines = rng.randint(1, 25)
            gold[f"c{k}"] = flagged_records(rng, n_lines)
            pred[f"c{k}"] = flagged_records(rng, n_lines)
            shuffled_gold[f"c{k}"] = rng.sample(gold[f"c{k}"], n_lines)
            shuffled_pred[f"c{k}"] = rng.sample(pred[f"c{k}"], n_lines)

        for clip_id in gold:
            expected = reference_speaker_accuracy(gold[clip_id], pred[clip_id])
            assert speaker_accuracy(shuffled_gold[clip_id], shuffled_pred[clip_id]) == expected
            assert speaker_accuracy(gold[clip_id], pred[clip_id]) == expected
        for filter_nondialogic in (False, True):
            for clip_id in gold:
                expected = reference_score_clip(clip_id, gold[clip_id], pred[clip_id],
                                                filter_nondialogic)
                assert score_clip(clip_id, shuffled_gold[clip_id], shuffled_pred[clip_id],
                                  filter_nondialogic) == expected
                assert score_clip(clip_id, gold[clip_id], pred[clip_id],
                                  filter_nondialogic) == expected
            for aggregate in ("micro", "macro"):
                config = EvalConfig(aggregate=aggregate,
                                    filter_nondialogic=filter_nondialogic)
                in_order = report_or_error(gold, pred, config)
                assert report_or_error(shuffled_gold, shuffled_pred, config) == in_order
                with mock.patch.object(convstruct.metrics, "score_clip",
                                       reference_score_clip):
                    assert report_or_error(shuffled_gold, shuffled_pred, config) == in_order

    def test_misaligned_lines_raise_before_duplicates(self):
        gold = [record(1, "a"), record(1, "a")]
        with pytest.raises(MetricInputError, match="cover different lines"):
            score_clip("c", gold, [record(1, "a"), record(2, "a", reply_to=1)])
        with pytest.raises(MetricInputError, match="duplicate line_idx"):
            score_clip("c", gold, list(gold))


class TestMetricReport:
    def test_serialization_key_order_and_rounding(self):
        report = MetricReport(
            speaker_acc=34.66666, addressee_f1=19.4949, side_participant_f1=36.98,
            link_f1=92.675, nvi_score=83.34, one_to_one=76.2, exact_match_f1=31.93,
            n_utterances=100, n_clips=10,
        )
        payload = report.as_dict()
        assert list(payload) == [
            "speaker_acc", "addressee_f1", "side_participant_f1", "link_f1",
            "nvi_score", "one_to_one", "exact_match_f1",
            "n_utterances", "n_clips", "raw",
        ]
        assert payload["speaker_acc"] == 34.67
        assert payload["raw"]["speaker_acc"] == 34.66666
