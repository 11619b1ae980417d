import contextlib
import gc
import io
import json
import random
import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from convstruct import baseline
from convstruct.baseline import (
    FaceTrack,
    WordToken,
    face_word_counts,
    parse_face_tracks_json,
    parse_word_tokens_tsv,
    run_baseline,
    run_corpus_baseline,
)
from convstruct.cli import main
from convstruct.corpus import (
    Clip, CorpusError, ParseError, StatsError, Utterance, load_corpus, normalize_name,
    validate_clip,
)
from convstruct.metrics import exact_match, link_f1
from convstruct.threads import derive_threads, link_set

from conftest import random_clip, record, table4_records


def face(name, *spans):
    return FaceTrack(clip_id="c", participant=normalize_name(name),
                     spans=tuple(spans))


def words_for_line(line_idx, starts, width=0.2):
    return [WordToken(line_idx, f"w{k}", s, s + width) for k, s in enumerate(starts)]


def make_clip(n_lines, clip_id="c", start=0.0, step=2.0):
    utterances = tuple(
        Utterance(clip_id, i, start + (i - 1) * step, start + (i - 1) * step + 1.5,
                  f"line {i}")
        for i in range(1, n_lines + 1)
    )
    return Clip(clip_id=clip_id, utterances=utterances)


class TestFaceWordCounts:
    def test_face_covering_everything_counts_every_word(self):
        tracks = [face("a", (0.0, 100.0))]
        words = words_for_line(1, [0.0, 0.5, 1.0, 1.5, 2.0])
        counts = face_word_counts(tracks, words)
        assert counts == {(1, normalize_name("a")): 5}

    def test_partial_visibility_counts_covered_words_only(self):
        tracks = [face("a", (0.0, 0.95))]
        words = words_for_line(1, [0.0, 0.5, 1.0, 1.5])
        counts = face_word_counts(tracks, words)
        assert counts == {(1, normalize_name("a")): 2}

    def test_no_faces_is_empty(self):
        assert face_word_counts([], words_for_line(1, [0.0])) == {}

    def test_touching_intervals_do_not_overlap(self):
        tracks = [face("a", (0.0, 1.0))]
        words = [WordToken(1, "w", 1.0, 1.4)]
        assert face_word_counts(tracks, words) == {}

    def test_zero_length_word_inside_a_span_counts_nothing(self):
        tracks = [face("a", (0.0, 2.0))]
        assert face_word_counts(tracks, [WordToken(1, "w", 1.0, 1.0)]) == {}

    def test_overlapping_spans_count_a_word_once(self):
        tracks = [face("a", (0.0, 2.0), (0.5, 1.5), (1.0, 3.0))]
        words = [WordToken(1, "w", 1.1, 1.3), WordToken(2, "w", 2.5, 2.6)]
        assert face_word_counts(tracks, words) == {(1, normalize_name("a")): 1,
                                                   (2, normalize_name("a")): 1}

    def test_track_with_no_spans_counts_nothing(self):
        tracks = [face("a"), face("b", (0.0, 1.0))]
        words = words_for_line(1, [0.0, 0.5])
        assert face_word_counts(tracks, words) == {(1, normalize_name("b")): 2}

    def test_no_words_is_empty(self):
        assert face_word_counts([face("a", (0.0, 1.0))], []) == {}


def loop_face_word_counts(tracks, words):
    """The word x span loop the sweep replaced, kept as the oracle."""

    def overlaps(span, start, end):
        return max(span[0], start) < min(span[1], end)

    counts = {}
    for word in words:
        for track in tracks:
            if any(overlaps(span, word.start_s, word.end_s) for span in track.spans):
                key = (word.line_idx, track.participant)
                counts[key] = counts.get(key, 0) + 1
    return counts


# Times on a half-second grid, so spans touch words and each other often.
_tick = st.integers(0, 24).map(lambda k: k / 2)
_span = st.tuples(_tick, st.integers(1, 8)).map(lambda p: (p[0], p[0] + p[1] / 2))
_word = st.tuples(st.integers(1, 6), st.integers(0, 32), st.integers(0, 4)).map(
    lambda w: WordToken(w[0], "w", w[1] / 2, (w[1] + w[2]) / 2))


@given(spans=st.lists(st.lists(_span, max_size=6), max_size=4),
       words=st.lists(_word, max_size=30))
@example(spans=[[(0.0, 1.0), (1.0, 2.0)]],                # touching spans
         words=[WordToken(1, "w", 1.0, 1.0),               # zero-length, at the seam
                WordToken(1, "w", 2.0, 3.0),               # touches the end
                WordToken(2, "w", 5.0, 6.0)])              # outside every span
@example(spans=[[(0.0, 4.0), (1.0, 2.0), (1.5, 3.0)], []],  # overlapping; no spans
         words=[WordToken(1, "w", 2.5, 3.5), WordToken(1, "w", 3.9, 4.5)])
def test_sweep_matches_the_loop(spans, words):
    tracks = [face(f"p{k}", *sorted(track)) for k, track in enumerate(spans)]
    assert face_word_counts(tracks, words) == loop_face_word_counts(tracks, words)


class TestRunBaseline:
    def test_argmax_roles(self):
        # line 2 counts {a:5, b:2}; window [1,2] counts {a:5, b:4, c:1}
        clip = make_clip(2)
        tracks = [
            face("a", (2.0, 3.5)),           # 5 words in line 2
            face("b", (0.0, 0.45), (2.0, 2.5)),  # 2 words line 1, 2 words line 2
            face("c", (0.0, 0.25)),          # 1 word in line 1
        ]
        words = words_for_line(1, [0.0, 0.2, 0.4, 0.6]) + words_for_line(
            2, [2.0, 2.2, 2.4, 2.6, 2.8])
        records = run_baseline(clip, tracks, words)
        second = records[1]
        assert second.speaker == normalize_name("a")
        assert second.addressees == {normalize_name("b")}
        assert second.side_participants == {normalize_name("c")}

    def test_single_face_clip(self):
        clip = make_clip(3)
        tracks = [face("a", (0.0, 100.0))]
        words = sum((words_for_line(i, [2.0 * (i - 1)]) for i in (1, 2, 3)), [])
        records = run_baseline(clip, tracks, words)
        for r in records:
            assert r.speaker == normalize_name("a")
            assert r.addressees == frozenset()
            assert r.side_participants == frozenset()

    def test_reply_chain(self):
        clip = make_clip(4)
        records = run_baseline(clip, [], [])
        assert [r.reply_to for r in records] == [1, 1, 2, 3]

    def test_no_faces_means_unknown_speaker(self):
        clip = make_clip(2)
        records = run_baseline(clip, [], [])
        assert all(r.speaker.kind == "unknown" for r in records)

    def test_tie_breaks_by_first_appearance_then_name(self):
        clip = make_clip(1)
        words = words_for_line(1, [0.0, 0.5])
        later = [face("zed", (0.4, 1.0)), face("amy", (0.45, 1.0))]
        earlier = [face("zed", (0.0, 1.0)), face("amy", (0.45, 1.0))]
        # equal counts, zed appears first -> zed wins
        assert run_baseline(clip, earlier, words)[0].speaker == normalize_name("zed")
        # equal counts and equal first appearance -> lexicographic name
        tied = [face("zed", (0.4, 1.0)), face("amy", (0.4, 1.0))]
        assert run_baseline(clip, tied, words)[0].speaker == normalize_name("amy")

    def test_output_validates(self):
        clip = make_clip(5)
        tracks = [face("a", (0.0, 4.0)), face("b", (3.0, 9.0))]
        words = sum((words_for_line(i, [2.0 * (i - 1), 2.0 * (i - 1) + 0.5])
                     for i in range(1, 6)), [])
        records = run_baseline(clip, tracks, words)
        scored = Clip(clip_id="c", utterances=clip.utterances, gold=tuple(records))
        assert [d for d in validate_clip(scored) if d.severity == "error"] == []

    def test_empty_clip_raises(self):
        with pytest.raises(CorpusError):
            run_baseline(Clip(clip_id="c"), [], [])


class TestReplyOnlyBaseline:
    def test_empty_clip_raises(self):
        with pytest.raises(CorpusError, match="has no utterances"):
            run_baseline(Clip(clip_id="c"), (), ())

    def test_single_thread(self):
        records = run_baseline(make_clip(6), (), ())
        part = derive_threads(records)
        assert [sorted(c) for c in part.clusters] == [[1, 2, 3, 4, 5, 6]]

    def test_perfect_on_chain_gold(self):
        clip = make_clip(5)
        pred = run_baseline(clip, (), ())
        gold_links = frozenset((i, i - 1) for i in range(2, 6))
        assert link_f1(gold_links, link_set(pred)).f1 == 1.0

    def test_em_f1_positive_iff_gold_single_threaded(self):
        clip = make_clip(4)
        pred_part = derive_threads(run_baseline(clip, (), ()))
        single = derive_threads([record(1, "a")] + [
            record(i, "a", reply_to=i - 1) for i in range(2, 5)])
        two_threads = derive_threads([
            record(1, "a"), record(2, "b", reply_to=1),
            record(3, "a"), record(4, "b", reply_to=3)])
        assert exact_match(single, pred_part).f1 > 0
        assert exact_match(two_threads, pred_part).f1 == 0.0

    def test_two_thread_example_scores_point_eight(self):
        gold = table4_records()
        utterances = tuple(
            Utterance("c", i, float(i), float(i) + 0.5, "t") for i in (11, 12, 13, 14)
        )
        pred = run_baseline(Clip(clip_id="c", utterances=utterances), (), ())
        assert link_set(pred) == {(12, 11), (13, 12), (14, 13)}
        score = link_f1(link_set(gold), link_set(pred))
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(0.8)


class TestParsers:
    def test_face_tracks_json(self):
        blob = json.dumps({
            "clip_id": "c", "faces": [
                {"name": "Sheldon Cooper", "spans": [[0.0, 1.5], [2.0, 3.0]]},
            ],
        }).encode()
        tracks = parse_face_tracks_json(blob)
        assert tracks[0].participant.canonical_name == "sheldon cooper"
        assert tracks[0].spans == ((0.0, 1.5), (2.0, 3.0))
        assert tracks[0].first_appearance == 0.0

    @pytest.mark.parametrize("clip_id", [5, ["x"], None])
    def test_non_string_clip_id_is_a_parse_error(self, clip_id):
        blob = json.dumps({"clip_id": clip_id,
                           "faces": [{"name": "a", "spans": [[0.0, 1.0]]}]}).encode()
        with pytest.raises(ParseError, match="face track clip_id must be a string"):
            parse_face_tracks_json(blob)

    def test_degenerate_span_rejected(self):
        blob = json.dumps({
            "clip_id": "c",
            "faces": [{"name": "a", "spans": [[1.0, 1.0]]}],
        }).encode()
        with pytest.raises(CorpusError):
            parse_face_tracks_json(blob)

    @pytest.mark.parametrize("spans", [[[0.0, float("nan")]], [[float("nan"), 1.0]],
                                       [[0.0, float("inf")]]])
    def test_non_finite_span_is_a_parse_error(self, spans):
        blob = json.dumps({"clip_id": "c", "faces": [{"name": "a", "spans": [[0.0, 1.0]]},
                                                     {"name": "b", "spans": spans}]})
        with pytest.raises(ParseError, match="face entry 1: span times must be finite"):
            parse_face_tracks_json(blob.encode())

    def test_faces_naming_one_participant_are_a_parse_error(self):
        blob = json.dumps({"clip_id": "c", "faces": [
            {"name": "Penny", "spans": [[0.0, 1.0]]},
            {"name": "leonard", "spans": [[0.0, 1.0]]},
            {"name": " penny ", "spans": [[2.0, 3.0]]}]}).encode()
        with pytest.raises(ParseError, match="face entries 0 and 2 both name 'penny'"):
            parse_face_tracks_json(blob)

    @pytest.mark.parametrize("times", ["nan\t2.0", "0.5\tnan", "0.5\tinf",
                                       "-Infinity\t0.5"])
    def test_non_finite_word_time_is_a_parse_error(self, times):
        blob = f"line_idx\tword\tstart\tend\n1\tok\t0.0\t0.3\n1\tbad\t{times}\n"
        with pytest.raises(ParseError, match="word token row 2: times must be finite"):
            parse_word_tokens_tsv(blob.encode())

    def test_word_tokens_tsv(self):
        blob = b"line_idx\tword\tstart\tend\n1\thello\t0.0\t0.3\n1\tthere\t0.3\t0.6\n"
        tokens = parse_word_tokens_tsv(blob)
        assert [t.word for t in tokens] == ["hello", "there"]
        assert tokens[0].line_idx == 1


class TestRunCorpusBaseline:
    def test_each_clip_gets_the_per_clip_baseline_of_its_own_files(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for clip_id, name in (("c1", "ada"), ("c2", "bo")):
            (corpus / f"{clip_id}.transcript.tsv").write_text(
                "start\tend\tspeaker\ttext\n0.000\t1.000\t\thi\n1.100\t2.000\t\tyo\n")
            (corpus / f"{clip_id}.faces.json").write_text(json.dumps(
                {"clip_id": clip_id, "faces": [{"name": name, "spans": [[0.0, 5.0]]}]}))
            (corpus / f"{clip_id}.words.tsv").write_text(
                "line_idx\tword\tstart\tend\n1\thi\t0.0\t0.4\n2\tyo\t1.1\t1.5\n")
        clips = load_corpus(corpus)
        read = []
        got = dict(run_corpus_baseline(
            clips.values(), str(corpus), str(corpus),
            read=lambda path: read.append(path.name) or path.read_bytes()))
        assert got == {c: run_baseline(
            clips[c], parse_face_tracks_json((corpus / f"{c}.faces.json").read_bytes()),
            parse_word_tokens_tsv((corpus / f"{c}.words.tsv").read_bytes())) for c in clips}
        assert got["c2"][0].speaker == normalize_name("bo")
        assert read == ["c1.faces.json", "c1.words.tsv", "c2.faces.json", "c2.words.tsv"]
        assert dict(run_corpus_baseline(clips.values())) == {
            c: run_baseline(clips[c], (), ()) for c in clips}


class TestCorpusBaselineStream:
    """`run_corpus_baseline` reads a one-shot stream as it comes: it checks
    the clip order and holds no clip it has run, nor any records it has
    yielded."""

    @staticmethod
    def clips(n):
        rng = random.Random(7)
        return (random_clip(rng, f"c{k}") for k in range(1, n + 1))

    def test_a_descending_stream_raises_naming_both_clips(self):
        c1, c2 = self.clips(2)
        predictions = run_corpus_baseline(iter([c2, c1]))
        # c2's records come before the order is found broken
        assert next(predictions) == ("c2", run_baseline(c2, (), ()))
        with pytest.raises(StatsError, match="clip 'c1' comes after clip 'c2'"):
            next(predictions)

    def test_a_clip_two_back_is_freed_before_the_next_is_read(self):
        run, held = [], []

        def stream():
            for clip in self.clips(6):
                gc.collect()
                # only the clip yielded last may still be alive
                held.extend(k for k, ref in enumerate(run[:-1]) if ref())
                run.append(weakref.ref(clip))
                yield clip

        predictions = dict(run_corpus_baseline(stream()))
        assert len(run) == 6 and held == []
        assert predictions == dict(run_corpus_baseline(list(self.clips(6))))

    def test_records_the_consumer_dropped_are_freed(self, monkeypatch):
        class Records(list):  # unlike a list, it can be weakly referenced
            pass

        run = baseline.run_baseline
        monkeypatch.setattr(baseline, "run_baseline", lambda *args: Records(run(*args)))
        yielded, held = [], []
        for clip_id, records in run_corpus_baseline(self.clips(6)):
            gc.collect()
            # only the records bound to `records` now may still be alive
            held.extend(k for k, ref in enumerate(yielded) if ref())
            yielded.append(weakref.ref(records))
        assert len(yielded) == 6 and held == []

    def test_a_list_in_any_order_gives_the_same_predictions(self):
        clips = list(self.clips(5))
        expected = {c.clip_id: run_baseline(c, (), ()) for c in clips}
        for order in (clips, clips[::-1], random.Random(3).sample(clips, len(clips))):
            got = dict(run_corpus_baseline(order))
            assert got == expected
            assert list(got) == [f"c{k}" for k in range(1, 6)]


class TestBaselineCommandRejects:
    TRANSCRIPT = "start\tend\tspeaker\ttext\n0.000\t1.000\tada\thello\n"
    FACES = [{"name": "ada", "spans": [[0.0, 5.0]]}]
    WORDS = "line_idx\tword\tstart\tend\n1\thello\t0.0\t0.4\n"

    def _run(self, tmp_path, transcript=TRANSCRIPT, faces=FACES, words=WORDS):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c1.transcript.tsv").write_text(transcript)
        (corpus / "c1.faces.json").write_text(json.dumps({"clip_id": "c1",
                                                          "faces": faces}))
        (corpus / "c1.words.tsv").write_text(words)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["baseline", str(corpus), "--mode", "full",
                         "--faces", str(corpus), "--words", str(corpus),
                         "--out", str(tmp_path / "pred")])
        return code, err.getvalue()

    @pytest.mark.parametrize("edit, message", [
        ({"words": WORDS + "1\tthere\tnan\t2.0\n"},
         "word token row 2: times must be finite"),
        ({"transcript": TRANSCRIPT.replace("1.000", "inf")},
         "row 1: non-finite end timestamp 'inf'"),
        ({"faces": [{"name": "ada", "spans": [[0.0, float("inf")]]}]},
         "face entry 0: span times must be finite"),
        ({"faces": [{"name": "ada", "spans": [[float("nan"), 1.0]]}]},
         "face entry 0: span times must be finite"),
        ({"faces": FACES + [{"name": "ADA", "spans": [[6.0, 7.0]]}]},
         "face entries 0 and 1 both name 'ada'"),
        ({"faces": FACES + [{"name": "bo", "spans": [[2.0, 2.0]]}]},
         "face entry 1: degenerate face span [2.0, 2.0] for 'bo'"),
        ({"faces": FACES + [{"name": "bo", "spans": [[1.0, 2.0], [4.0, 3.0]]}]},
         "face entry 1: degenerate face span [4.0, 3.0] for 'bo'"),
        ({"words": "line_idx\tword\tstart\tend\n1_0\thello\t0.0\t0.4\n"},
         "word token row 1: bad numeric field"),
        ({"faces": [{"name": "ada", "spans": [[0, 10 ** 400]]}]},
         "face entry 0: span times must be finite"),
    ])
    def test_parse_error_exits_one(self, tmp_path, edit, message):
        code, err = self._run(tmp_path, **edit)
        assert code == 1
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_well_formed_inputs_run(self, tmp_path):
        code, err = self._run(tmp_path)
        assert code == 0, err


class TestSideFileChecks:
    @pytest.mark.parametrize("spans", [[["0.5", "2"], [True, 3]], [[0, True]],
                                       [[None, 1.0]], [{"0": 0, "1": 1}]])
    def test_span_times_must_be_json_numbers(self, spans):
        blob = json.dumps({"clip_id": "c", "faces": [{"name": "a", "spans": spans}]})
        with pytest.raises(ParseError, match="face entry 0: spans must be"):
            parse_face_tracks_json(blob.encode())

    def test_integer_span_times_are_numbers(self):
        blob = json.dumps({"clip_id": "c", "faces": [{"name": "a", "spans": [[0, 2]]}]})
        assert parse_face_tracks_json(blob.encode())[0].spans == ((0.0, 2.0),)

    def test_tracks_of_another_clip_name_both_clips(self):
        with pytest.raises(CorpusError, match="for clip 'c', not clip 'd'"):
            run_baseline(make_clip(1, clip_id="d"), [face("a", (0.0, 9.0))], [])
        # a track without a clip_id is taken for any clip
        untagged = FaceTrack(clip_id="", participant=normalize_name("a"),
                             spans=((0.0, 9.0),))
        assert run_baseline(make_clip(1, clip_id="d"), [untagged], [])

    @pytest.mark.parametrize("line_idx", ["0", "-3"])
    def test_word_line_below_one_is_a_parse_error(self, line_idx):
        blob = f"line_idx\tword\tstart\tend\n1\tok\t0.0\t0.3\n{line_idx}\tx\t0.0\t0.3\n"
        with pytest.raises(ParseError, match="word token row 2: line_idx must be >= 1"):
            parse_word_tokens_tsv(blob.encode())

    @pytest.mark.parametrize("cells", ["1_0\tx\t0.0\t0.3", "\u0661\tx\t0.0\t0.3",
                                       " 1\tx\t0.0\t0.3", "1.0\tx\t0.0\t0.3",
                                       "1\tx\t0_5\t0.7", "1\tx\t0.0\t\u0661"])
    def test_numeric_cells_must_be_ascii_decimals(self, cells):
        blob = f"line_idx\tword\tstart\tend\n1\tok\t0.0\t0.3\n{cells}\n"
        with pytest.raises(ParseError, match="^word token row 2: bad numeric field$"):
            parse_word_tokens_tsv(blob.encode())

    def test_degenerate_span_names_the_entry(self):
        blob = json.dumps({"clip_id": "c", "faces": [{"name": "a", "spans": [[0.0, 1.0]]},
                                                     {"name": "max", "spans": [[2, 2]]}]})
        with pytest.raises(ParseError, match=r"^face entry 1: degenerate face span "
                                             r"\[2.0, 2.0\] for 'max'$"):
            parse_face_tracks_json(blob.encode())

    def test_word_on_a_missing_line_names_clip_and_line(self):
        words = words_for_line(1, [0.0]) + words_for_line(99, [0.5])
        with pytest.raises(CorpusError, match="clip 'c': word 'w0' is on line 99"):
            run_baseline(make_clip(2), [face("a", (0.0, 9.0))], words)
