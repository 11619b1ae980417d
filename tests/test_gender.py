import gc
import json
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstruct.corpus import Clip, Utterance
from convstruct.stats import bootstrap, gender
from convstruct.stats.bootstrap import BootstrapConfig, StatsError, bootstrap_ratio_ci
from convstruct.stats.gender import gender_thread_shares, role_distributions, role_report
from convstruct.stats.logodds import logodds_report, utterance_documents

from conftest import NAMES, random_clip, record

CONFIG = BootstrapConfig(resamples=200, seed=0)


def make_clip(clip_id, records, durations, show_id="show"):
    utterances = []
    t = 0.0
    for r, dur in zip(sorted(records, key=lambda r: r.line_idx), durations):
        utterances.append(Utterance(clip_id, r.line_idx, round(t, 3),
                                    round(t + dur, 3), "text"))
        t += dur
    return Clip(clip_id=clip_id, show_id=show_id, cast=(),
                utterances=tuple(utterances), gold=tuple(records))


GENDERS = {
    ("show", "ada"): "female",
    ("show", "bea"): "female",
    ("show", "max"): "male",
    ("show", "tom"): "male",
}
# every conftest name, alternately female and male, plus the names above
GENDERS_ALL = {**{("show", name): ("female", "male")[k % 2]
                  for k, name in enumerate(NAMES)}, **GENDERS}


class TestGenderThreadShares:
    def test_single_female_speaker_delta_zero(self):
        # the only speaker is female: 100% of starts and 100% of speaking
        # time, so the normalized difference vanishes exactly
        records = [record(1, "ada"), record(2, "ada", reply_to=2),
                   record(3, "bea", reply_to=2)]
        clip = make_clip("c", records, [1.0, 1.0, 1.0])
        report = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                      permutations=200)
        assert report.delta_start.per_clip["c"] == 0.0

    def test_equal_time_all_female_starts(self):
        # ada and max each speak 2s; both mid-clip starts are ada's
        records = [record(1, "max"), record(2, "ada", reply_to=2),
                   record(3, "max", reply_to=2), record(4, "ada", reply_to=4)]
        clip = make_clip("c", records, [1.0, 1.0, 1.0, 1.0])
        report = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                      permutations=200)
        assert report.delta_start.per_clip["c"] == pytest.approx(0.5)

    def test_all_male_corpus_has_zero_female_share(self):
        records = [record(1, "max"), record(2, "tom", reply_to=2),
                   record(3, "max", reply_to=2)]
        clip = make_clip("c", records, [1.0, 1.0, 1.0])
        report = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                      permutations=200)
        assert report.start.share == 0.0
        assert report.hold.share == 0.0

    def test_raw_shares_pool_events_corpus_wide(self):
        first = make_clip("c1", [record(1, "max"), record(2, "ada", reply_to=2),
                                 record(3, "bea", reply_to=2)], [1, 1, 1])
        second = make_clip("c2", [record(1, "max"), record(2, "tom", reply_to=2)],
                           [1, 1])
        report = gender_thread_shares([first, second], GENDERS, config=CONFIG,
                                      permutations=200)
        # mid-clip starters: ada (c1), tom (c2) -> female share 1/2
        assert report.start.share == pytest.approx(0.5)
        assert report.start.n_events == 2

    def test_deltas_bounded(self):
        rng = random.Random(5)
        names = ["ada", "bea", "max", "tom"]
        clips = []
        for k in range(20):
            n = rng.randint(2, 12)
            records = []
            for i in range(1, n + 1):
                reply = i if i == 1 or rng.random() < 0.4 else rng.randint(1, i - 1)
                records.append(record(i, rng.choice(names), reply_to=reply))
            clips.append(make_clip(f"c{k}", records,
                                   [rng.uniform(0.3, 3.0) for _ in range(n)]))
        report = gender_thread_shares(clips, GENDERS, config=CONFIG,
                                      permutations=100)
        for delta in report.delta_start.per_clip.values():
            assert -1.0 <= delta <= 1.0
        for delta in report.delta_hold.per_clip.values():
            assert -1.0 <= delta <= 1.0

    def test_sign_flip_p_detects_consistent_shift(self):
        clips = []
        # every clip: equal speaking time, all starts female -> delta +0.5
        for k in range(12):
            records = [record(1, "max"), record(2, "ada", reply_to=2),
                       record(3, "max", reply_to=2), record(4, "ada", reply_to=4)]
            clips.append(make_clip(f"c{k}", records, [1.0, 1.0, 1.0, 1.0]))
        report = gender_thread_shares(clips, GENDERS, config=CONFIG,
                                      permutations=2000)
        assert report.delta_start.mean == pytest.approx(0.5)
        assert report.delta_start.p_value < 0.01

    def test_empty_gender_map_raises(self):
        clip = make_clip("c", [record(1, "ada")], [1.0])
        with pytest.raises(StatsError):
            gender_thread_shares([clip], {}, config=CONFIG)

    @pytest.mark.parametrize("permutations", [0, -3])
    def test_permutations_below_one_raise_before_any_work(self, permutations):
        def clips():
            raise AssertionError("clips were read")
            yield

        with pytest.raises(StatsError, match="permutations"):
            gender_thread_shares(clips(), GENDERS, config=CONFIG,
                                 permutations=permutations)

    def test_unknown_gender_events_are_dropped(self):
        records = [record(1, "stranger"), record(2, "ada", reply_to=2),
                   record(3, "stranger", reply_to=2)]
        clip = make_clip("c", records, [1.0, 1.0, 1.0])
        report = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                      permutations=100)
        assert report.start.n_events == 1
        assert report.start.share == 1.0

    def test_deterministic_under_seed(self):
        records = [record(1, "max"), record(2, "ada", reply_to=2),
                   record(3, "tom", reply_to=2)]
        clip = make_clip("c", records, [1.0, 2.0, 1.5])
        first = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                     permutations=500)
        second = gender_thread_shares([clip], GENDERS, config=CONFIG,
                                      permutations=500)
        assert first == second


class TestSharedDraws:
    """The four intervals and two sign-flip tests share the draws of equal
    unit count and keep the bits of one `bootstrap_ratio_ci` or sign-flip
    call per statistic."""

    @staticmethod
    def separate(clips, config, permutations):
        """The report with every statistic drawn by its own call."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gender, "_ratio_cis", lambda statistics, config: [
                bootstrap_ratio_ci(num, den, config) for num, den in statistics])
            patch.setattr(gender, "_sign_flip_ps", lambda deltas, permutations, seed: [
                bootstrap._sign_flip_ps([d], permutations, seed)[0] for d in deltas])
            return gender_thread_shares(clips, GENDERS_ALL, config=config,
                                        permutations=permutations)

    @staticmethod
    def draws(clips, config, permutations):
        """The report, and the (high, n) of every draw it made."""
        made = []
        real = bootstrap._draw_blocks

        def counting(high, rows, n, seed):
            made.append((high, n))
            return real(high, rows, n, seed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bootstrap, "_draw_blocks", counting)
            report = gender_thread_shares(clips, GENDERS_ALL, config=config,
                                          permutations=permutations)
        return report, made

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clips=st.integers(1, 8),
           resamples=st.integers(1, 1100), permutations=st.integers(1, 1100))
    def test_equals_separate_calls(self, seed, n_clips, resamples, permutations):
        rng = random.Random(seed)
        clips = [random_clip(rng, f"c{k}") for k in range(n_clips)]
        config = BootstrapConfig(resamples=resamples, seed=seed % 1000)
        try:
            expected = self.separate(clips, config, permutations)
        except StatsError as exc:
            with pytest.raises(StatsError, match=re.escape(str(exc))):
                gender_thread_shares(clips, GENDERS_ALL, config=config,
                                     permutations=permutations)
            return
        assert gender_thread_shares(clips, GENDERS_ALL, config=config,
                                    permutations=permutations) == expected

    @pytest.mark.parametrize("equal", [True, False])
    def test_equal_and_unequal_unit_counts(self, equal):
        clips = []
        for k in range(12):
            # every clip has gendered mid-clip starts; without `equal`, every
            # third clip's only replied-to thread is started by a participant
            # of unknown gender, so that clip has no gendered hold
            starter = "stranger" if not equal and k % 3 == 0 else "ada"
            records = [record(1, "max"), record(2, starter, reply_to=2),
                       record(3, "max", reply_to=2), record(4, "bea", reply_to=4)]
            clips.append(make_clip(f"c{k:02d}", records, [1.0, 1.5, 1.0, 0.5]))
        config = BootstrapConfig(resamples=700, seed=3)
        expected = self.separate(clips, config, 600)
        found, made = self.draws(clips, config, 600)
        assert found == expected
        n_start, n_hold = expected.delta_start.n_clips, expected.delta_hold.n_clips
        assert (n_start == n_hold) is equal
        # one unit draw and one sign draw per distinct clip count
        sizes = {n_start, n_hold}
        assert sorted(made) == sorted([(n, n) for n in sizes] + [(2, n) for n in sizes])


class TestRoleDistributions:
    def test_uniform_data_gives_uniform_conditionals(self):
        observations = [
            (role, gender)
            for role in ("speaker", "addressee", "side-participant")
            for gender in ("female", "male")
            for _ in range(10)
        ]
        dists = role_distributions(observations)
        for row in dists.p_gender_given_role.values():
            assert row["female"] == pytest.approx(0.5)
        for row in dists.p_role_given_gender.values():
            for value in row.values():
                assert value == pytest.approx(1 / 3)

    def test_hand_counted_table(self):
        observations = (
            [("speaker", "male")] * 4 + [("speaker", "female")] * 2
            + [("addressee", "male")] * 1 + [("addressee", "female")] * 3
            + [("side-participant", "male")] * 1 + [("side-participant", "female")] * 1
        )
        dists = role_distributions(observations)
        assert dists.p_gender_given_role["speaker"]["male"] == pytest.approx(4 / 6)
        assert dists.p_gender_given_role["addressee"]["female"] == pytest.approx(3 / 4)
        assert dists.p_role_given_gender["male"]["speaker"] == pytest.approx(4 / 6)
        assert dists.p_role_given_gender["female"]["addressee"] == pytest.approx(3 / 6)

    def test_rows_sum_to_one(self):
        rng = random.Random(3)
        observations = [
            (rng.choice(["speaker", "addressee", "side-participant"]),
             rng.choice(["female", "male"]))
            for _ in range(500)
        ]
        dists = role_distributions(observations)
        for row in dists.p_role_given_gender.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        for row in dists.p_gender_given_role.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_observations_raise(self):
        with pytest.raises(StatsError):
            role_distributions([])

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_table_below_one_raises(self, count):
        table = {("speaker", "female"): 3, ("addressee", "male"): count}
        with pytest.raises(StatsError, match="counts must be >= 1"):
            role_distributions(table)


class TestAnalysesIgnoreClipOrder:
    """Every analysis report is a function of the clip set, not of the order
    the clips come in: the bootstrap, sign-flip and calibration draws are
    made over clips taken in clip id order."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_clips=st.integers(2, 6),
           order=st.randoms(use_true_random=False))
    def test_reports_are_equal_under_any_clip_order(self, seed, n_clips, order):
        rng = random.Random(seed)
        clips = [random_clip(rng, f"c{k:02d}", show_id=f"show{k % 2}")
                 for k in range(n_clips)]
        shuffled = order.sample(clips, n_clips)
        genders = {("", name): ("female", "male")[k % 2] for k, name in enumerate(NAMES)}

        def report(analysis, clips):
            try:
                return json.dumps(analysis(clips))
            except StatsError as exc:
                return f"error: {exc}"

        analyses = [
            lambda clips: gender_thread_shares(
                clips, genders, config=BootstrapConfig(resamples=50, seed=3),
                permutations=50).as_dict(),
            lambda clips: role_report(clips, genders).as_dict(),
            # a fine grid, so that a small move of the null SD moves C*
            lambda clips: logodds_report(utterance_documents(clips), min_count=1,
                                         grid=np.logspace(0, 3, 61).tolist(),
                                         permutations=3),
        ]
        for analysis in analyses:
            expected = report(analysis, clips)
            assert report(analysis, shuffled) == expected
            # a one-shot stream in clip id order, as `iter_corpus` yields
            assert report(analysis, iter(clips)) == expected


class TestThreadSharesStream:
    """`gender_thread_shares` reads a one-shot stream as it comes: it checks
    the clip order and holds no clip it has counted."""

    @staticmethod
    def clips(n):
        rng = random.Random(7)
        return (random_clip(rng, f"c{k}") for k in range(1, n + 1))

    def test_a_descending_stream_raises_naming_both_clips(self):
        c1, c2 = self.clips(2)
        with pytest.raises(StatsError, match="clip 'c1' comes after clip 'c2'"):
            gender_thread_shares(iter([c2, c1]), GENDERS_ALL, config=CONFIG,
                                 permutations=20)

    def test_a_clip_two_back_is_freed_before_the_next_is_read(self):
        counted, held = [], []

        def stream():
            for clip in self.clips(6):
                gc.collect()
                # only the clip yielded last may still be alive
                held.extend(k for k, ref in enumerate(counted[:-1]) if ref())
                counted.append(weakref.ref(clip))
                yield clip

        report = gender_thread_shares(stream(), GENDERS_ALL, config=CONFIG,
                                      permutations=20)
        assert len(counted) == 6 and held == []
        assert report == gender_thread_shares(list(self.clips(6)), GENDERS_ALL,
                                              config=CONFIG, permutations=20)
