import itertools
import json
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convstruct import metrics
from convstruct.agreement import (
    AgreementError,
    AnnotatorBatch,
    load_annotators,
    pairwise_agreement,
)
from convstruct.corpus import ParseError
from convstruct.metrics import METRIC_FIELDS, EvalConfig, MetricInputError, evaluate_corpus

from conftest import NAMES, random_records, record


def batch(annotator_id, clips):
    return AnnotatorBatch(annotator_id=annotator_id, records_by_clip=clips)


def random_clips(seed, n_clips=3):
    rng = random.Random(seed)
    return {f"c{k}": random_records(rng, rng.randint(3, 10), NAMES[:4])
            for k in range(n_clips)}


class TestPairwiseAgreement:
    def test_identical_annotators_score_100(self):
        clips = random_clips(5)
        report = pairwise_agreement([batch("a1", clips), batch("a2", clips)])
        for value in report.overall.as_dict()["raw"].values():
            assert value == 100.0

    def test_four_annotators_make_six_pairs(self):
        clips = random_clips(7)
        batches = [batch(f"a{i}", clips) for i in range(4)]
        report = pairwise_agreement(batches)
        assert len(report.per_pair) == 6

    def test_one_speaker_label_among_100_lines(self):
        lines = [record(i, "a", reply_to=max(1, i - 1)) for i in range(1, 101)]
        other = list(lines)
        other[49] = record(50, "b", reply_to=49)
        report = pairwise_agreement([
            batch("x", {"c": lines}), batch("y", {"c": other}),
        ])
        assert report.overall.speaker_acc == pytest.approx(99.0)
        assert report.overall.link_f1 == 100.0
        assert report.overall.nvi_score == 100.0
        assert report.overall.one_to_one == 100.0
        assert report.overall.exact_match_f1 == 100.0

    def test_permutation_invariant(self):
        shape = {f"c{k}": 4 + k for k in range(3)}
        batches = []
        for i in range(3):
            rng = random.Random(100 + i)
            batches.append(batch(f"a{i}", {
                c: random_records(rng, n, NAMES[:4]) for c, n in shape.items()
            }))
        forward = pairwise_agreement(batches)
        backward = pairwise_agreement(list(reversed(batches)))
        for name in METRIC_FIELDS:
            assert getattr(forward.overall, name) == pytest.approx(
                getattr(backward.overall, name))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_annotators=st.integers(2, 4),
           aggregate=st.sampled_from(["micro", "macro"]),
           filter_nondialogic=st.booleans(), data=st.data())
    def test_clip_order_does_not_change_the_report(self, seed, n_annotators, aggregate,
                                                   filter_nondialogic, data):
        rng = random.Random(seed)
        shape = {f"c{k}": rng.randint(1, 20) for k in range(rng.randint(1, 5))}
        batches = []
        for i in range(n_annotators):
            clips = sorted(rng.sample(sorted(shape), rng.randint(1, len(shape))))
            batches.append(batch(f"a{i}", {
                c: random_records(rng, shape[c], NAMES[:5], rng.random())
                for c in clips}))
        shuffled = [
            batch(b.annotator_id, {
                c: b.records_by_clip[c]
                for c in data.draw(st.permutations(list(b.records_by_clip)),
                                   label=f"{b.annotator_id} order")})
            for b in batches]
        config = EvalConfig(aggregate, filter_nondialogic)

        def outcome(bs):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # pairs that share no clip
                    return json.dumps(pairwise_agreement(bs, config).as_dict())
            except (AgreementError, MetricInputError) as exc:
                return repr(exc)

        assert outcome(shuffled) == outcome(batches)

    @pytest.mark.parametrize("flagging", ["x", "y"])
    def test_filtered_line_count_counts_lines_either_direction_scores(self, flagging):
        # line 2 flagged by one annotator only: a line drops only when both flag it
        lines = [record(i, "a", reply_to=max(1, i - 1)) for i in range(1, 4)]
        flagged = [r._replace(monologue=r.line_idx == 2) for r in lines]
        clips = {"x": {"c": lines}, "y": {"c": lines}}
        clips[flagging] = {"c": flagged}
        report = pairwise_agreement([batch("x", clips["x"]), batch("y", clips["y"])],
                                    EvalConfig(filter_nondialogic=True))
        assert report.overall.n_utterances == 3
        assert report.per_pair[("x", "y")].n_utterances == 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flag_p=st.sampled_from([0.0, 0.2, 0.6]),
           aggregate=st.sampled_from(["micro", "macro"]),
           filter_nondialogic=st.booleans())
    @example(seed=0, flag_p=0.6, aggregate="micro", filter_nondialogic=True)
    def test_swapping_the_annotator_ids_does_not_change_the_report(
            self, seed, flag_p, aggregate, filter_nondialogic):
        # three annotators under every relabelling of their ids: the overall mean
        # sums the pair reports in a different order each time
        rng = random.Random(seed)
        shape = {f"c{k}": rng.randint(1, 12) for k in range(rng.randint(1, 4))}

        def annotation():
            clips = sorted(rng.sample(sorted(shape), rng.randint(1, len(shape))))
            return {c: [r._replace(extra_diegetic=rng.random() < flag_p,
                                   monologue=False)
                        for r in random_records(rng, shape[c], NAMES[:5], rng.random())]
                    for c in clips}

        annotations = [annotation() for _ in range(3)]
        config = EvalConfig(aggregate, filter_nondialogic)

        def outcome(ids):
            # the report with each annotator named by its annotation's index
            index = {a: str(k) for k, a in enumerate(ids)}

            def pair(a, b):
                return "|".join(sorted((index[a], index[b])))

            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # pairs that share no line
                    batches = [batch(a, ann) for a, ann in zip(ids, annotations)]
                    report = pairwise_agreement(batches, config).as_dict()
            except (AgreementError, MetricInputError) as exc:
                return repr(exc)
            report["per_pair"] = {pair(*key.split("|")): value
                                  for key, value in report["per_pair"].items()}
            report["skipped_pairs"] = sorted(pair(*p) for p in report["skipped_pairs"])
            return json.dumps(report, sort_keys=True)

        outcomes = {outcome(ids) for ids in itertools.permutations("abc")}
        assert len(outcomes) == 1

    def test_direction_symmetrized(self):
        # a pair's score must not depend on which annotator plays gold: it is
        # one evaluation, bitwise equal to the evaluation either way round
        for seed in range(10):
            first = random_clips(seed)
            rng = random.Random(100 + seed)
            second = {c: random_records(rng, len(first[c]), NAMES[:4], rng.random())
                      for c in first}
            one = pairwise_agreement([batch("a", first), batch("b", second)])
            two = pairwise_agreement([batch("a", second), batch("b", first)])
            assert one.as_dict() == two.as_dict()
            assert one.per_pair[("a", "b")] == evaluate_corpus(first, second)
            assert one.per_pair[("a", "b")] == evaluate_corpus(second, first)

    @pytest.mark.parametrize("filter_nondialogic", [False, True])
    def test_each_pair_scores_each_shared_clip_once(self, monkeypatch,
                                                    filter_nondialogic):
        calls = []
        score_clip = metrics.score_clip

        def counted(clip_id, *args, **kwargs):
            calls.append(clip_id)
            return score_clip(clip_id, *args, **kwargs)

        monkeypatch.setattr(metrics, "score_clip", counted)
        clips = random_clips(21)
        batches = [batch("a", clips), batch("b", clips),
                   batch("c", {c: clips[c] for c in ("c0", "c2")})]
        report = pairwise_agreement(batches, EvalConfig(filter_nondialogic=filter_nondialogic))
        assert len(report.per_pair) == 3
        # (a, b) share three clips, (a, c) and (b, c) two each
        assert sorted(calls) == sorted(["c0", "c1", "c2"] + ["c0", "c2"] * 2)

    def test_one_annotator_flagging_every_line_filters_nothing(self):
        clips = random_clips(23)
        plain = {c: [r._replace(extra_diegetic=False, monologue=False)
                     for r in records] for c, records in clips.items()}
        flagged = {c: [r._replace(monologue=True) for r in records]
                   for c, records in clips.items()}
        config = EvalConfig(filter_nondialogic=True)
        for ids in (("a", "b"), ("b", "a")):
            report = pairwise_agreement(
                [batch(ids[0], flagged), batch(ids[1], plain)], config)
            pair = report.per_pair[("a", "b")]
            assert pair.n_utterances == sum(map(len, clips.values()))
            assert pair.n_clips == len(clips)
            assert pair.as_dict()["raw"] == evaluate_corpus(plain, plain).as_dict()["raw"]

    def test_pair_flagging_every_shared_line_is_skipped(self):
        clips = {c: [r._replace(extra_diegetic=False, monologue=False)
                     for r in records] for c, records in random_clips(25).items()}
        flagged = {c: [r._replace(extra_diegetic=True) for r in records]
                   for c, records in clips.items()}
        config = EvalConfig(filter_nondialogic=True)
        with pytest.warns(UserWarning, match="share no line that not both flag"):
            report = pairwise_agreement(
                [batch("a", flagged), batch("b", flagged), batch("c", clips)], config)
        assert report.skipped_pairs == [("a", "b")]
        assert sorted(report.per_pair) == [("a", "c"), ("b", "c")]
        assert report.overall.n_utterances == 2 * sum(map(len, clips.values()))
        with pytest.warns(UserWarning), pytest.raises(AgreementError):
            pairwise_agreement([batch("a", flagged), batch("b", flagged)], config)

    def test_pair_flagging_every_line_still_checks_the_lines_align(self):
        flagged = [record(1, "x")._replace(monologue=True)]
        longer = flagged + [record(2, "x", reply_to=1)._replace(monologue=True)]
        with pytest.raises(MetricInputError, match="different lines"):
            pairwise_agreement([batch("a", {"c": flagged}), batch("b", {"c": longer})],
                               EvalConfig(filter_nondialogic=True))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flag_p=st.sampled_from([0.0, 0.3, 0.7]),
           aggregate=st.sampled_from(["micro", "macro"]),
           filter_nondialogic=st.booleans())
    def test_pair_report_matches_the_two_direction_oracle(self, seed, flag_p, aggregate,
                                                         filter_nondialogic):
        # unfiltered, a pair's report is the mean of both evaluation directions;
        # filtered, it is one evaluation on records flagged where both annotators flag
        rng = random.Random(seed)
        shape = {f"c{k}": rng.randint(1, 15) for k in range(rng.randint(1, 4))}

        def annotation():
            return {c: [r._replace(extra_diegetic=False,
                                   monologue=rng.random() < flag_p)
                        for r in random_records(rng, n, NAMES[:5], rng.random())]
                    for c, n in shape.items()}

        a, b = annotation(), annotation()
        config = EvalConfig(aggregate, filter_nondialogic)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # every line flagged by both
                report = pairwise_agreement([batch("a", a), batch("b", b)], config)
        except AgreementError:
            assert filter_nondialogic
            assert all(x.is_nondialogic and y.is_nondialogic
                       for c in shape for x, y in zip(a[c], b[c]))
            return
        pair = report.per_pair[("a", "b")]
        if filter_nondialogic:
            joint = {c: [x._replace(monologue=x.monologue and y.monologue)
                         for x, y in zip(a[c], b[c])] for c in shape}
            assert pair == evaluate_corpus(joint, b, config)
        else:
            forward, backward = evaluate_corpus(a, b, config), evaluate_corpus(b, a, config)
            for name in METRIC_FIELDS:
                mean = (getattr(forward, name) + getattr(backward, name)) / 2
                assert abs(getattr(pair, name) - mean) <= 1e-12
            assert (pair.n_utterances, pair.n_clips) == (forward.n_utterances,
                                                         forward.n_clips)

    def test_pair_without_shared_clips_is_skipped(self):
        shared = random_clips(13)
        with pytest.warns(UserWarning, match="share no clips"):
            report = pairwise_agreement([
                batch("a", shared),
                batch("b", shared),
                batch("c", {"other": random_clips(14)["c0"]}),
            ])
        assert ("a", "b") in report.per_pair
        assert ("a", "c") in report.skipped_pairs
        assert ("b", "c") in report.skipped_pairs

    def test_pair_sharing_only_empty_clips_is_skipped(self):
        lines = random_clips(17)["c0"]
        with pytest.warns(UserWarning) as caught:
            report = pairwise_agreement([batch("a", {"c1": [], "c2": lines}),
                                         batch("b", {"c1": []}),
                                         batch("c", {"c2": lines})])
        assert sorted(str(w.message) for w in caught) == [
            "annotators 'a' and 'b' share no line", "annotators 'b' and 'c' share no clips"]
        assert sorted(report.skipped_pairs) == [("a", "b"), ("b", "c")]
        assert list(report.per_pair) == [("a", "c")]
        with pytest.warns(UserWarning), pytest.raises(AgreementError):
            pairwise_agreement([batch("a", {"c1": []}), batch("b", {"c1": []})])

    def test_zero_usable_pairs_raises(self):
        with pytest.warns(UserWarning):
            with pytest.raises(AgreementError):
                pairwise_agreement([
                    batch("a", {"c1": [record(1, "x")]}),
                    batch("b", {"c2": [record(1, "x")]}),
                ])

    def test_single_annotator_raises(self):
        with pytest.raises(AgreementError):
            pairwise_agreement([batch("a", random_clips(1))])

    def test_duplicate_ids_raise(self):
        clips = random_clips(2)
        with pytest.raises(AgreementError):
            pairwise_agreement([batch("a", clips), batch("a", clips)])

    def test_agreement_computed_on_shared_clips_only(self):
        clips = random_clips(15)
        extra = dict(clips)
        extra["solo"] = random_clips(16)["c0"]
        report = pairwise_agreement([batch("a", clips), batch("b", extra)])
        pair = report.per_pair[("a", "b")]
        assert pair.n_clips == len(clips)


class TestLoadAnnotators:
    @pytest.mark.parametrize("value", [5, None, ["a.json"], {"path": "a.json"}])
    def test_non_string_path_names_the_annotator(self, tmp_path, value):
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": {"b": "b.json", "zed": value}}))
        (tmp_path / "b.json").write_text("[]")
        with pytest.raises(ParseError, match="'zed'"):
            load_annotators(manifest)
