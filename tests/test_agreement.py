import dataclasses
import json
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convstruct.agreement import (
    AgreementError,
    AnnotatorBatch,
    load_annotators,
    pairwise_agreement,
)
from convstruct.corpus import ParseError
from convstruct.metrics import METRIC_FIELDS, EvalConfig, MetricInputError

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
        for value in report.overall.scores().values():
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
        # line 2 flagged by one annotator only: one direction scores it, so it counts
        lines = [record(i, "a", reply_to=max(1, i - 1)) for i in range(1, 4)]
        flagged = [dataclasses.replace(r, monologue=r.line_idx == 2) for r in lines]
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
        # two annotators, so the overall mean sums one pair report whatever the
        # ids' sort order; with three, reordering the pair sum moves its last bits
        rng = random.Random(seed)
        shape = {f"c{k}": rng.randint(1, 12) for k in range(rng.randint(1, 4))}

        def annotation():
            clips = sorted(rng.sample(sorted(shape), rng.randint(1, len(shape))))
            return {c: [dataclasses.replace(r, extra_diegetic=rng.random() < flag_p,
                                            monologue=False)
                        for r in random_records(rng, shape[c], NAMES[:5], rng.random())]
                    for c in clips}

        first, second = annotation(), annotation()
        config = EvalConfig(aggregate, filter_nondialogic)

        def outcome(a, b):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the two share no clip
                    batches = [batch("a", a), batch("b", b)]
                    return json.dumps(pairwise_agreement(batches, config).as_dict())
            except (AgreementError, MetricInputError) as exc:
                return repr(exc)

        assert outcome(first, second) == outcome(second, first)

    def test_direction_symmetrized(self):
        # a pair's score must not depend on which annotator plays gold,
        # so swapping the two batches leaves the pair report unchanged
        first = random_clips(11)
        rng = random.Random(12)
        second = {c: random_records(rng, len(first[c]), NAMES[:4]) for c in first}
        # same line counts so corpora align
        second = {c: [record(r.line_idx, rng.choice(NAMES[:4]), reply_to=r.reply_to)
                      for r in first[c]] for c in first}
        one = pairwise_agreement([batch("a", first), batch("b", second)])
        two = pairwise_agreement([batch("a", second), batch("b", first)])
        for name in METRIC_FIELDS:
            assert getattr(one.overall, name) == pytest.approx(
                getattr(two.overall, name))

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
