import argparse
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from convstruct.cli import build_parser, main
from convstruct.corpus import parse_annotation_json
from convstruct.stats.logodds import weighted_logodds

from test_logodds import count_tables

GOLD_CLIP = [
    {"line_idx": 1, "speaker": "ada", "addressee": ["max"],
     "side_participant": [], "reply_to": 1},
    {"line_idx": 2, "speaker": "max", "addressee": ["ada"],
     "side_participant": [], "reply_to": 1},
    {"line_idx": 3, "speaker": "ada", "addressee": ["max"],
     "side_participant": [], "reply_to": 3},
    {"line_idx": 4, "speaker": "max", "addressee": ["ada"],
     "side_participant": [], "reply_to": 3},
]

TRANSCRIPT = (
    "start\tend\tspeaker\ttext\n"
    "0.000\t1.000\tada\thello there\n"
    "1.100\t2.100\tmax\thi yourself\n"
    "2.200\t3.200\tada\tready to go\n"
    "3.300\t4.300\tmax\tsure am\n"
)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_corpus(root, clips, transcripts=None, casts=None):
    root.mkdir(parents=True, exist_ok=True)
    for clip_id, records in clips.items():
        (root / f"{clip_id}.annotation.json").write_text(json.dumps(records))
    for clip_id, tsv in (transcripts or {}).items():
        (root / f"{clip_id}.transcript.tsv").write_text(tsv)
    for clip_id, cast in (casts or {}).items():
        (root / f"{clip_id}.cast.json").write_text(json.dumps(cast))


class TestValidate:
    def test_valid_corpus_exits_zero(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP},
                     {"c1": TRANSCRIPT})
        code, out, _ = run(["validate", str(tmp_path / "corpus")])
        assert code == 0
        assert out == ""

    def test_forward_link_exits_one_with_diagnostic(self, tmp_path):
        bad = [dict(GOLD_CLIP[0])]
        bad[0]["reply_to"] = 3
        write_corpus(tmp_path / "corpus", {"c1": bad})
        code, out, _ = run(["validate", str(tmp_path / "corpus")])
        assert code == 1
        diags = [json.loads(line) for line in out.splitlines()]
        assert any(d["code"] == "FORWARD_LINK" for d in diags)

    def test_missing_file_exits_two(self, tmp_path):
        code, _, err = run(["validate", str(tmp_path / "nope")])
        assert code == 2
        assert "no such path" in err

    def test_strict_escalates_warnings(self, tmp_path):
        overlapping = TRANSCRIPT.replace("1.100", "0.900")
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP},
                     {"c1": overlapping})
        code, out, _ = run(["validate", str(tmp_path / "corpus")])
        assert code == 0  # warning only
        strict_code, _, _ = run(["validate", "--strict", str(tmp_path / "corpus")])
        assert strict_code == 1


class TestEvaluate:
    def test_gold_against_itself_is_all_100(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        code, out, _ = run(["evaluate", str(tmp_path / "corpus"),
                            str(tmp_path / "corpus")])
        assert code == 0
        payload = json.loads(out)
        for name in ("speaker_acc", "addressee_f1", "side_participant_f1",
                     "link_f1", "nvi_score", "one_to_one", "exact_match_f1"):
            assert payload["report"][name] == 100.0

    def test_seeded_run_is_byte_identical(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP, "c2": GOLD_CLIP})
        argv = ["evaluate", str(tmp_path / "corpus"), str(tmp_path / "corpus"),
                "--bootstrap", "100", "--seed", "7"]
        first = run(argv)
        second = run(argv)
        assert first == second

    def test_clip_set_mismatch_exits_one(self, tmp_path):
        write_corpus(tmp_path / "gold", {"c1": GOLD_CLIP})
        write_corpus(tmp_path / "pred", {"c2": GOLD_CLIP})
        code, _, err = run(["evaluate", str(tmp_path / "gold"),
                            str(tmp_path / "pred")])
        assert code == 1
        assert "clip sets differ" in err

    def test_malformed_json_exits_one(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c1.annotation.json").write_text("not json at all")
        code, _, err = run(["evaluate", str(corpus), str(corpus)])
        assert code == 1

    def test_report_embeds_manifest_with_digests(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        _, out, _ = run(["evaluate", str(tmp_path / "corpus"),
                         str(tmp_path / "corpus")])
        manifest = json.loads(out)["manifest"]
        assert manifest["command"] == "evaluate"
        assert manifest["digests"]["gold"] == manifest["digests"]["pred"]
        assert len(manifest["digests"]["gold"]) == 64

    def test_table_format(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        code, out, _ = run(["evaluate", str(tmp_path / "corpus"),
                            str(tmp_path / "corpus"), "--format", "table"])
        assert code == 0
        assert "Speaker (Acc.)" in out
        assert "100.00" in out


class TestAgree:
    def _manifest(self, tmp_path, files):
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": files}))
        return manifest

    def test_duplicated_annotator_scores_100(self, tmp_path):
        blob = json.dumps({"c1": GOLD_CLIP})
        (tmp_path / "a.json").write_text(blob)
        (tmp_path / "b.json").write_text(blob)
        manifest = self._manifest(tmp_path, {"a": "a.json", "b": "b.json"})
        code, out, _ = run(["agree", str(manifest)])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall"]["speaker_acc"] == 100.0

    def test_four_annotators_list_six_pairs(self, tmp_path):
        blob = json.dumps({"c1": GOLD_CLIP})
        files = {}
        for name in "abcd":
            (tmp_path / f"{name}.json").write_text(blob)
            files[name] = f"{name}.json"
        manifest = self._manifest(tmp_path, files)
        code, out, _ = run(["agree", str(manifest)])
        assert code == 0
        assert len(json.loads(out)["report"]["per_pair"]) == 6

    def test_disjoint_clip_sets_exit_one(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        (tmp_path / "b.json").write_text(json.dumps({"c2": GOLD_CLIP}))
        manifest = self._manifest(tmp_path, {"a": "a.json", "b": "b.json"})
        with pytest.warns(UserWarning):
            code, _, err = run(["agree", str(manifest)])
        assert code == 1

    def test_one_annotator_flagging_every_line_filters_nothing(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        flagged = [dict(entry, monologue=True) for entry in GOLD_CLIP]
        (tmp_path / "b.json").write_text(json.dumps({"c1": flagged}))
        manifest = self._manifest(tmp_path, {"a": "a.json", "b": "b.json"})
        code, out, err = run(["agree", str(manifest), "--filter-nondialogic"])
        assert code == 0, err
        pair = json.loads(out)["report"]["per_pair"]["a|b"]
        assert (pair["n_utterances"], pair["n_clips"]) == (len(GOLD_CLIP), 1)
        assert set(pair["raw"].values()) == {100.0}

    def test_single_annotator_exits_one(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        manifest = self._manifest(tmp_path, {"a": "a.json"})
        code, _, _ = run(["agree", str(manifest)])
        assert code == 1


class TestBaseline:
    def test_reply_only_predictions_chain(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        out_dir = tmp_path / "pred"
        code, _, _ = run(["baseline", str(tmp_path / "corpus"),
                          "--mode", "reply-only", "--out", str(out_dir)])
        assert code == 0
        records = parse_annotation_json(
            (out_dir / "c1.annotation.json").read_bytes())
        assert [r.reply_to for r in records] == [1, 1, 2, 3]

    def test_full_mode_without_faces_is_a_usage_error(self, tmp_path, capsys):
        # the corpus does not parse: the usage error comes before any file is read
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c1.annotation.json").write_text("not json at all")
        out_dir = tmp_path / "pred"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(corpus), "--mode", "full", "--out", str(out_dir)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.endswith(
            "error: baseline --mode full requires --faces (and usually --words)\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", ["full"])
    @pytest.mark.parametrize("flag", ["--faces", "--words"])
    def test_missing_side_file_path_exits_two(self, tmp_path, flag, mode):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        paths = {"--faces": str(corpus), "--words": str(corpus),
                 flag: str(tmp_path / "nonexistent")}
        out_dir = tmp_path / "pred"
        code, out, err = run(["baseline", str(corpus), "--mode", mode,
                              "--faces", paths["--faces"], "--words", paths["--words"],
                              "--out", str(out_dir)])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} not found: {tmp_path / 'nonexistent'}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("exists", ["given", "missing"])
    @pytest.mark.parametrize("flag", ["--faces", "--words"])
    def test_reply_only_rejects_side_input_flags(self, tmp_path, capsys, flag, exists):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        path = corpus if exists == "given" else tmp_path / "nonexistent"
        out_dir = tmp_path / "pred"
        with pytest.raises(SystemExit) as exc:
            main(["baseline", str(corpus), "--mode", "reply-only", flag, str(path),
                  "--out", str(out_dir)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert captured.err.endswith(
            f"error: baseline --mode reply-only does not read {flag}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("with_gold", [True, False])
    def test_out_as_the_corpus_directory_exits_two_and_writes_nothing(
            self, tmp_path, with_gold):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP} if with_gold else {}, {"c1": TRANSCRIPT})
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        out = str(corpus / ".." / "corpus")
        code, stdout, err = run(["baseline", str(corpus), "--mode", "reply-only",
                                 "--out", out])
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {out} writes into the corpus or over an input\n"
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before

    @pytest.mark.parametrize("name, mode", [("c1.annotation.json", "reply-only"),
                                            ("c1.faces.json", "full"),
                                            ("new.json", "reply-only")])
    def test_out_naming_an_input_or_a_new_clip_file_exits_two(self, tmp_path, name, mode):
        # new.json would be read as the annotation of a clip "new" next time
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        (corpus / "c1.faces.json").write_text(json.dumps(
            {"clip_id": "c1", "faces": [{"name": "ada", "spans": [[0.0, 4.3]]}]}))
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        faces = ["--faces", str(corpus)] if mode == "full" else []
        code, stdout, err = run(["baseline", str(corpus), "--mode", mode, *faces,
                                 "--out", str(corpus / name)])
        assert (code, stdout) == (2, "")
        assert err == f"error: --out {corpus / name} writes into the corpus or over an input\n"
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before

    def test_manifest_digests_the_inputs_before_writing(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        digests = []
        for out in (tmp_path / "pred", corpus / "pred"):
            code, stdout, err = run(["baseline", str(corpus), "--mode", "reply-only",
                                     "--out", str(out)])
            assert code == 0, err
            assert (out / "c1.annotation.json").exists()
            digests.append(json.loads(stdout)["manifest"]["digests"]["corpus"])
        assert digests[0] == digests[1]

    def test_output_revalidates_cleanly(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        out_dir = tmp_path / "pred"
        run(["baseline", str(tmp_path / "corpus"), "--mode", "reply-only",
             "--out", str(out_dir)])
        code, out, _ = run(["validate", str(out_dir)])
        assert code == 0

    def test_full_mode_matches_hand_derived_roles(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        faces = {
            "clip_id": "c1",
            "faces": [
                {"name": "ada", "spans": [[0.0, 1.0], [2.2, 3.2]]},
                {"name": "max", "spans": [[0.0, 4.3]]},
            ],
        }
        (tmp_path / "corpus" / "c1.faces.json").write_text(json.dumps(faces))
        words = ["line_idx\tword\tstart\tend"]
        starts = {1: 0.0, 2: 1.1, 3: 2.2, 4: 3.3}
        for line, t0 in starts.items():
            for k in range(3):
                words.append(f"{line}\tw{k}\t{t0 + 0.3 * k:.2f}\t{t0 + 0.3 * k + 0.2:.2f}")
        (tmp_path / "corpus" / "c1.words.tsv").write_text("\n".join(words) + "\n")
        out_dir = tmp_path / "pred"
        code, _, err = run([
            "baseline", str(tmp_path / "corpus"), "--mode", "full",
            "--faces", str(tmp_path / "corpus"), "--words", str(tmp_path / "corpus"),
            "--out", str(out_dir)])
        assert code == 0, err
        records = parse_annotation_json((out_dir / "c1.annotation.json").read_bytes())
        # line 1: ada and max tie at 3 words; ada appears first -> speaker ada
        assert records[0].speaker.canonical_name == "ada"
        assert {p.canonical_name for p in records[0].addressees} == {"max"}
        # line 2: only max visible; window adds ada from line 1
        assert records[1].speaker.canonical_name == "max"
        assert {p.canonical_name for p in records[1].addressees} == {"ada"}


class TestAnalyze:
    def _gender_map(self, tmp_path):
        path = tmp_path / "genders.tsv"
        path.write_text(
            "canonical_name\tgender\tshow_id\n"
            "ada\tfemale\tshowx\n"
            "max\tmale\tshowx\n"
        )
        return path

    def _corpus_with_cast(self, tmp_path):
        write_corpus(
            tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT},
            casts={"c1": {"clip_id": "c1", "show_id": "showx",
                          "cast": ["ada", "max"]}},
        )
        return tmp_path / "corpus"

    def test_threads_report(self, tmp_path):
        corpus = self._corpus_with_cast(tmp_path)
        code, out, err = run(["analyze", "threads", str(corpus),
                              "--gender-map", str(self._gender_map(tmp_path)),
                              "--bootstrap", "100", "--permutations", "100"])
        assert code == 0, err
        report = json.loads(out)["report"]
        # the only mid-clip start (line 3) is ada's
        assert report["start"]["female_share"] == 1.0
        assert -1.0 <= report["delta_start"]["mean"] <= 1.0

    def test_threads_checks_its_flags_before_it_parses_a_clip(self, tmp_path):
        # the clips are parsed as the analysis reaches them, after the gender
        # map is read and the bootstrap flags are checked
        clips = ("c1", "c2", "c3")
        write_corpus(tmp_path / "corpus", {c: GOLD_CLIP for c in clips},
                     {c: TRANSCRIPT for c in clips},
                     casts={c: {"clip_id": c, "show_id": "showx", "cast": ["ada", "max"]}
                            for c in clips})
        (tmp_path / "corpus" / "c2.annotation.json").write_text("[")
        argv = ["analyze", "threads", str(tmp_path / "corpus"),
                "--gender-map", str(self._gender_map(tmp_path)), "--permutations", "20"]
        assert run([*argv, "--bootstrap", "20"]) == (
            1, "", "error: annotation JSON is unreadable: Expecting value: "
                   "line 1 column 2 (char 1)\n")
        assert run([*argv, "--bootstrap", "0"]) == (
            1, "", "error: resamples must be >= 1, got 0\n")

    @pytest.mark.parametrize("permutations", ["0", "-3"])
    def test_threads_permutations_below_one_exit_one(self, tmp_path, permutations):
        corpus = self._corpus_with_cast(tmp_path)
        code, out, err = run(["analyze", "threads", str(corpus),
                              "--gender-map", str(self._gender_map(tmp_path)),
                              "--bootstrap", "100", "--permutations", permutations])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "permutations" in err

    @staticmethod
    def _assert_usage_error(argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the following arguments are required: {flag}" in captured.err

    def test_threads_requires_gender_map(self, tmp_path, capsys):
        corpus = self._corpus_with_cast(tmp_path)
        self._assert_usage_error(["analyze", "threads", str(corpus)], "--gender-map",
                                 capsys)

    @pytest.mark.parametrize("analysis, flag", [("roles", "--gender-map"),
                                                ("correlate", "--features")])
    def test_missing_input_flag_is_a_usage_error(self, analysis, flag, tmp_path, capsys):
        corpus = [str(self._corpus_with_cast(tmp_path))] if analysis == "roles" else []
        self._assert_usage_error(["analyze", analysis, *corpus], flag, capsys)

    def test_roles_balanced_gives_unit_odds_ratio(self, tmp_path):
        clip = []
        idx = 1
        for speaker, addressee in [("ada", "max"), ("max", "ada")] * 10:
            clip.append({"line_idx": idx, "speaker": speaker,
                         "addressee": [addressee], "side_participant": [],
                         "reply_to": max(1, idx - 1)})
            idx += 1
        write_corpus(tmp_path / "corpus", {"c1": clip},
                     casts={"c1": {"clip_id": "c1", "show_id": "showx",
                                   "cast": ["ada", "max"]}})
        code, out, err = run(["analyze", "roles", str(tmp_path / "corpus"),
                              "--gender-map", str(self._gender_map(tmp_path))])
        assert code == 0, err
        report = json.loads(out)["report"]
        odds = report["regression"]["outcomes"]["addressee"]["odds_ratio_female"]
        assert odds == pytest.approx(1.0, abs=1e-6)

    def test_logodds_matches_module_oracle(self, tmp_path):
        # group a (no side-participants) says alpha-heavy lines, group b the
        # reverse; term counts are 8/2 vs 2/8 per the module-level toy
        clip = []
        texts = {}
        idx = 1
        for text, side in [("alpha alpha alpha alpha", []),
                           ("alpha alpha alpha alpha", []),
                           ("beta beta", []),
                           ("alpha alpha", ["ada"]),
                           ("beta beta beta beta", ["ada"]),
                           ("beta beta beta beta", ["ada"])]:
            clip.append({"line_idx": idx, "speaker": "max",
                         "addressee": [], "side_participant": side,
                         "reply_to": max(1, idx - 1)})
            texts[idx] = text
            idx += 1
        tsv = ["start\tend\tspeaker\ttext"]
        for i in range(1, idx):
            tsv.append(f"{i - 1}.000\t{i - 1}.900\tmax\t{texts[i]}")
        write_corpus(tmp_path / "corpus", {"c1": clip})
        (tmp_path / "corpus" / "c1.transcript.tsv").write_text("\n".join(tsv) + "\n")
        code, out, err = run(["analyze", "logodds", str(tmp_path / "corpus"),
                              "--c-star", "2.0", "--min-count", "1"])
        assert code == 0, err
        report = json.loads(out)["report"]
        counts = count_tables(
            terms=("alpha", "beta"), shows=("",),
            y_a=np.array([[8.0, 2.0]]), y_b=np.array([[2.0, 8.0]]),
        )
        _, _, zeta = weighted_logodds(counts, 2.0)
        assert report["z"]["alpha"] == pytest.approx(float(zeta[0, 0]), abs=1e-12)
        assert report["z"]["beta"] == pytest.approx(float(zeta[0, 1]), abs=1e-12)

    def test_correlate_perfect_monotone_feature(self, tmp_path):
        rows = ["clip_id,n_participants,f1_speaker"]
        for k in range(10):
            rows.append(f"c{k},{k},{10 + 2 * k}")
        path = tmp_path / "features.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(["analyze", "correlate", "--features", str(path)])
        assert code == 0, err
        entry = json.loads(out)["report"]["correlations"][0]
        assert entry["rho"] == 1.0
        assert entry["signed_r2"] == 100.0

    def test_analyze_commands_are_deterministic(self, tmp_path):
        corpus = self._corpus_with_cast(tmp_path)
        argv = ["analyze", "threads", str(corpus),
                "--gender-map", str(self._gender_map(tmp_path)),
                "--bootstrap", "50", "--permutations", "50", "--seed", "3"]
        assert run(argv) == run(argv)


class TestDanglingReplyToValidate:
    def test_reported_once(self, tmp_path):
        clip = [dict(GOLD_CLIP[0]), dict(GOLD_CLIP[2])]
        clip[1]["reply_to"] = 2
        write_corpus(tmp_path / "corpus", {"c1": clip})
        code, out, _ = run(["validate", str(tmp_path / "corpus")])
        assert code == 1
        diags = [json.loads(line) for line in out.splitlines()]
        assert [(d["code"], d["line_idx"]) for d in diags] == [("BAD_REPLY_TO", 3)]


class TestBaselineMalformedSideFiles:
    FACES_OK = {"name": "ada", "spans": [[0.0, 4.3]]}
    WORDS_OK = "line_idx\tword\tstart\tend\n1\thello\t0.00\t0.40\n"

    def _run(self, tmp_path, faces, words=WORDS_OK):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        (corpus / "c1.faces.json").write_text(json.dumps({"clip_id": "c1",
                                                          "faces": faces}))
        (corpus / "c1.words.tsv").write_text(words)
        return run(["baseline", str(corpus), "--mode", "full", "--faces", str(corpus),
                    "--words", str(corpus), "--out", str(tmp_path / "pred")])

    @pytest.mark.parametrize("faces", [
        [{"spans": [[0.0, 1.0]]}],                 # no name
        [{"name": "ada"}],                         # no spans
        [{"name": "ada", "spans": [[0.5]]}],       # one-number span
        [{"name": "ada", "spans": [[0.0, 1.0, 2.0]]}],
        [{"name": "ada", "spans": [["a", "b"]]}],
        [{"name": "ada", "spans": 3}],
        ["ada"],
    ])
    def test_bad_face_entry_exits_one(self, tmp_path, faces):
        code, _, err = self._run(tmp_path, faces)
        assert code == 1
        assert err.startswith("error: face entry 0")
        assert "Traceback" not in err

    def test_word_start_after_end_exits_one(self, tmp_path):
        words = "line_idx\tword\tstart\tend\n1\thello\t0.90\t0.40\n"
        code, _, err = self._run(tmp_path, [self.FACES_OK], words)
        assert code == 1
        assert err.startswith("error: word token row 1: start 0.9 is after end 0.4")

    def test_well_formed_side_files_still_run(self, tmp_path):
        code, _, err = self._run(tmp_path, [self.FACES_OK])
        assert code == 0, err


class TestMalformedCastAndManifest:
    CASTS = [[5], ["ada", None], "ada max", {"ada": 1}]

    def _corpus(self, tmp_path, cast):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT},
                     casts={"c1": {"clip_id": "c1", "show_id": "showx", "cast": cast}})
        return str(tmp_path / "corpus")

    @pytest.mark.parametrize("cast", CASTS)
    def test_bad_cast_is_a_parse_diagnostic(self, tmp_path, cast):
        code, out, err = run(["validate", self._corpus(tmp_path, cast)])
        assert code == 1
        diags = [json.loads(line) for line in out.splitlines()]
        assert [d["code"] for d in diags] == ["PARSE"]
        assert "cast" in diags[0]["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("analysis", ["threads", "roles"])
    @pytest.mark.parametrize("cast", CASTS)
    def test_bad_cast_exits_one(self, tmp_path, analysis, cast):
        gender_map = tmp_path / "genders.tsv"
        gender_map.write_text("canonical_name\tgender\tshow_id\nada\tfemale\tshowx\n")
        code, _, err = run(["analyze", analysis, self._corpus(tmp_path, cast),
                            "--gender-map", str(gender_map)])
        assert code == 1
        assert err.startswith("error:") and "cast" in err
        assert "Traceback" not in err

    def test_non_string_manifest_path_exits_one(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": {"a": 5, "b": "b.json"}}))
        code, _, err = run(["agree", str(manifest)])
        assert code == 1
        assert err.startswith("error:") and "'a'" in err
        assert "Traceback" not in err


class TestLogoddsTop:
    def _corpus(self, tmp_path):
        clip = [{"line_idx": i, "speaker": "max", "addressee": [],
                 "side_participant": ["ada"] if i % 2 else [], "reply_to": max(1, i - 1)}
                for i in range(1, 7)]
        tsv = ["start\tend\tspeaker\ttext"] + [
            f"{i - 1}.000\t{i - 1}.900\tmax\talpha beta gamma" for i in range(1, 7)]
        write_corpus(tmp_path / "corpus", {"c1": clip})
        (tmp_path / "corpus" / "c1.transcript.tsv").write_text("\n".join(tsv) + "\n")
        return str(tmp_path / "corpus")

    def test_top_zero_lists_no_terms(self, tmp_path):
        code, out, err = run(["analyze", "logodds", self._corpus(tmp_path),
                              "--c-star", "2.0", "--min-count", "1", "--top", "0"])
        assert code == 0, err
        report = json.loads(out)["report"]
        assert report["n_terms"] == 3
        assert report["top_group_a"] == [] and report["top_group_b"] == []

    def test_negative_top_exits_one(self, tmp_path):
        code, _, err = run(["analyze", "logodds", self._corpus(tmp_path),
                            "--c-star", "2.0", "--min-count", "1", "--top", "-1"])
        assert code == 1
        assert err.startswith("error:") and "top" in err


class TestLogoddsNoDocuments:
    def test_annotations_without_transcripts_exit_one(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP, "c2": GOLD_CLIP})
        assert run(["analyze", "logodds", str(tmp_path / "corpus")]) == (
            1, "", "error: no documents with both annotations and transcript text\n")


class TestLogoddsNonFinitePriors:
    _corpus = TestLogoddsTop._corpus

    @pytest.mark.parametrize("flags, message", [
        (["--c-star", "nan"], "prior strength must be positive and finite, got nan"),
        (["--c-star", "inf"], "prior strength must be positive and finite, got inf"),
        (["--grid", "nan,10"], "grid values must be positive and finite, got [nan, 10.0]"),
        (["--grid", "1,inf"], "grid values must be positive and finite, got [1.0, inf]"),
    ])
    def test_exits_one_with_a_message(self, tmp_path, flags, message):
        code, out, err = run(["analyze", "logodds", self._corpus(tmp_path),
                              "--min-count", "1", *flags])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestAnalyzeManifestConfig:
    """The manifest records the flags each analysis reads, and only those."""

    # line 5 starts a thread as a monologue; line 6 replies to it
    CLIP = GOLD_CLIP + [
        {"line_idx": 5, "speaker": "max", "addressee": [], "side_participant": [],
         "reply_to": 5, "monologue": True},
        {"line_idx": 6, "speaker": "ada", "addressee": ["max"],
         "side_participant": ["cleo"], "reply_to": 5},
    ]
    MORE_TRANSCRIPT = "4.400\t5.400\tmax\tso I said\n5.500\t6.500\tada\tyou did\n"

    def _inputs(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": self.CLIP},
                     {"c1": TRANSCRIPT + self.MORE_TRANSCRIPT},
                     casts={"c1": {"clip_id": "c1", "show_id": "showx",
                                   "cast": ["ada", "max", "cleo"]}})
        genders = tmp_path / "genders.tsv"
        genders.write_text("canonical_name\tgender\tshow_id\n"
                           "ada\tfemale\tshowx\nmax\tmale\tshowx\n")
        return str(tmp_path / "corpus"), str(genders)

    def _analyze(self, *argv):
        code, out, err = run(["analyze", *argv])
        assert code == 0, err
        payload = json.loads(out)
        return payload["manifest"]["config"], payload["report"]

    def test_threads_records_nondialogic_resamples_level_permutations(self, tmp_path):
        corpus, genders = self._inputs(tmp_path)
        base = ["threads", corpus, "--gender-map", genders, "--permutations", "20"]
        config, report = self._analyze(*base)
        assert config == {"include_nondialogic": False, "bootstrap": 10_000,
                          "level": 0.95, "permutations": 20}
        assert report["start"]["n_events"] == 1
        config, report = self._analyze(*base, "--include-nondialogic",
                                       "--bootstrap", "200", "--level", "0.9")
        assert config == {"include_nondialogic": True, "bootstrap": 200,
                          "level": 0.9, "permutations": 20}
        assert report["start"]["n_events"] == 2

    def test_logodds_records_its_flags(self, tmp_path):
        corpus, _ = self._inputs(tmp_path)
        config, _ = self._analyze("logodds", corpus, "--min-count", "1",
                                  "--grid", "0.5,3", "--permutations", "4",
                                  "--top", "2", "--filter-nondialogic")
        assert config == {"filter_nondialogic": True, "min_count": 1, "c_star": None,
                          "grid": [0.5, 3.0], "permutations": 4, "top": 2}
        config, _ = self._analyze("logodds", corpus, "--min-count", "1",
                                  "--c-star", "2.5")
        assert config == {"filter_nondialogic": False, "min_count": 1, "c_star": 2.5,
                          "grid": None, "permutations": 1000, "top": 10}

    def test_roles_and_correlate_record_nothing(self, tmp_path):
        corpus, genders = self._inputs(tmp_path)
        config, _ = self._analyze("roles", corpus, "--gender-map", genders)
        assert config == {}
        features = tmp_path / "features.csv"
        features.write_text("clip_id,n,f1_speaker\n"
                            + "".join(f"c{k},{k},{k * k}\n" for k in range(5)))
        config, _ = self._analyze("correlate", "--features", str(features))
        assert config == {}


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Every leaf parser of the CLI by command name, e.g. "analyze threads"."""
    found = {}

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{prefix}{name} ")
                return
        found[prefix.strip()] = parser

    walk(build_parser(), "")
    return found


def declared_flags(parser) -> list:
    return [a for a in parser._actions if a.option_strings and a.dest != "help"]


class TestEachCommandReadsItsFlags:
    """A command accepts only the flags it reads; its manifest config is every
    declared flag except the input paths, --out, --seed and --format."""

    @pytest.mark.parametrize("argv", [
        ["validate", "C", "--seed", "1"],
        ["validate", "C", "--format", "table"],
        ["agree", "M.json", "--bootstrap", "100"],
        ["baseline", "C", "--mode", "reply-only", "--out", "O", "--aggregate", "macro"],
        ["analyze", "roles", "C", "--gender-map", "G", "--filter-nondialogic"],
        ["analyze", "threads", "C", "--gender-map", "G", "--filter-nondialogic"],
        ["analyze", "logodds", "C", "--gender-map", "G"],
        ["analyze", "correlate", "--features", "F", "--seed", "3"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "threads"],
        ["analyze", "logodds", "C", "--grid", "1,x"],
    ])
    def test_missing_corpus_and_bad_grid_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["evaluate", "{corpus}", "{corpus}", "--bootstrap", "10"],
        ["analyze", "threads", "{corpus}", "--gender-map", "{genders}"],
        ["analyze", "logodds", "{corpus}"],
    ])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        corpus, genders = TestAnalyzeManifestConfig()._inputs(tmp_path)
        argv = [a.format(corpus=corpus, genders=genders) for a in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err
        assert "Traceback" not in captured.err

    def test_threads_zero_resamples_exits_one(self, tmp_path):
        corpus, genders = TestAnalyzeManifestConfig()._inputs(tmp_path)
        code, out, err = run(["analyze", "threads", corpus, "--gender-map", genders,
                              "--bootstrap", "0"])
        assert code == 1 and out == ""
        assert err.startswith("error: resamples must be >= 1")

    def test_manifest_config_is_every_declared_flag_but_inputs_and_output(
            self, tmp_path):
        corpus, genders = TestAnalyzeManifestConfig()._inputs(tmp_path)
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        (tmp_path / "b.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": {"a": "a.json", "b": "b.json"}}))
        features = tmp_path / "features.csv"
        features.write_text("clip_id,n,f1_speaker\n"
                            + "".join(f"c{k},{k},{k * k}\n" for k in range(5)))
        argvs = {
            "evaluate": ["evaluate", corpus, corpus],
            "agree": ["agree", str(manifest)],
            "baseline": ["baseline", corpus, "--mode", "reply-only",
                         "--out", str(tmp_path / "pred")],
            "analyze threads": ["analyze", "threads", corpus, "--gender-map", genders,
                                "--bootstrap", "50", "--permutations", "20"],
            "analyze roles": ["analyze", "roles", corpus, "--gender-map", genders],
            "analyze logodds": ["analyze", "logodds", corpus, "--min-count", "1",
                                "--permutations", "4"],
            "analyze correlate": ["analyze", "correlate", "--features", str(features)],
        }
        parsers = command_parsers()
        assert set(parsers) == set(argvs) | {"validate"}  # validate has no manifest
        not_config = {"--gender-map", "--features", "--faces", "--words", "--out",
                      "--seed", "--format"}
        for command, argv in argvs.items():
            code, out, err = run(argv)
            assert code == 0, (command, err)
            config = json.loads(out)["manifest"]["config"]
            expected = [a.dest for a in declared_flags(parsers[command])
                        if a.option_strings[0] not in not_config]
            assert list(config) == expected, command

    def test_readme_lists_exactly_the_flags_each_command_accepts(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        entries: dict[str, str] = {}
        for line in block.splitlines():
            line = line.split("#", 1)[0]
            if line.startswith("convstruct "):
                words = line.split()
                name = " ".join(words[1:3] if words[1] == "analyze" else words[1:2])
                entries[name] = line
            elif line.strip():
                entries[name] += line
        accepted = {name: {a.option_strings[0] for a in declared_flags(parser)}
                    for name, parser in command_parsers().items()}
        listed = {name: set(re.findall(r"--[a-z][a-z-]*", text))
                  for name, text in entries.items()}
        assert listed == accepted


class TestBaselineSideFilesMatchTheClip:
    FACES = [{"name": "ada", "spans": [[0.0, 4.3]]}]
    WORDS = "line_idx\tword\tstart\tend\n1\thello\t0.00\t0.40\n"

    def _corpus(self, tmp_path, clip_ids=("c1",), faces=FACES, words=WORDS,
                faces_clip_id=None):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {c: GOLD_CLIP for c in clip_ids},
                     {c: TRANSCRIPT for c in clip_ids})
        for clip_id in clip_ids:
            (corpus / f"{clip_id}.faces.json").write_text(json.dumps(
                {"clip_id": faces_clip_id or clip_id, "faces": faces}))
            (corpus / f"{clip_id}.words.tsv").write_text(words)
        return corpus

    def _baseline(self, tmp_path, faces, words):
        return run(["baseline", str(tmp_path / "corpus"), "--mode", "full",
                    "--faces", str(faces), "--words", str(words),
                    "--out", str(tmp_path / "pred")])

    def _assert_error(self, code, err, message):
        assert code == 1
        assert err.startswith(f"error: {message}"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--faces", "--words"])
    def test_one_file_for_many_clips_exits_one(self, tmp_path, flag):
        corpus = self._corpus(tmp_path, clip_ids=("c1", "c2"))
        files = {"--faces": corpus / "c1.faces.json", "--words": corpus / "c1.words.tsv"}
        paths = {"--faces": corpus, "--words": corpus, flag: files[flag]}
        code, _, err = self._baseline(tmp_path, paths["--faces"], paths["--words"])
        self._assert_error(code, err, f"{flag} {files[flag]} is one file but the "
                                      f"corpus has more than one clip; give a directory")
        assert not list((tmp_path / "pred").glob("*.json"))

    @pytest.mark.parametrize("flag", ["--faces", "--words"])
    def test_directory_without_the_clips_file_exits_one(self, tmp_path, flag):
        corpus = self._corpus(tmp_path, clip_ids=("c1", "c2"))
        other = tmp_path / "other"
        other.mkdir()
        (other / "c1.faces.json").write_bytes((corpus / "c1.faces.json").read_bytes())
        (other / "c1.words.tsv").write_bytes((corpus / "c1.words.tsv").read_bytes())
        paths = {"--faces": corpus, "--words": corpus, flag: other}
        code, out, err = self._baseline(tmp_path, paths["--faces"], paths["--words"])
        what = "face tracks" if flag == "--faces" else "word timings"
        self._assert_error(code, err, f"no {what} for clip 'c2'")
        assert out == ""
        assert not list((tmp_path / "pred").glob("*.json"))

    def test_one_file_for_one_clip_runs(self, tmp_path):
        corpus = self._corpus(tmp_path)
        code, _, err = self._baseline(tmp_path, corpus / "c1.faces.json",
                                      corpus / "c1.words.tsv")
        assert code == 0, err

    @pytest.mark.parametrize("faces_in_dir", [True, False])
    def test_faces_of_another_clip_exit_one(self, tmp_path, faces_in_dir):
        corpus = self._corpus(tmp_path, faces_clip_id="c9")
        faces = corpus if faces_in_dir else corpus / "c1.faces.json"
        code, _, err = self._baseline(tmp_path, faces, corpus)
        self._assert_error(code, err, "face tracks are for clip 'c9', not clip 'c1'")

    @pytest.mark.parametrize("spans", [[["0.5", "2"]], [[True, 3]],
                                       [[0.0, 1.0], [2.0, False]]])
    def test_non_number_span_times_exit_one(self, tmp_path, spans):
        corpus = self._corpus(tmp_path, faces=[{"name": "ada", "spans": spans}])
        code, _, err = self._baseline(tmp_path, corpus, corpus)
        self._assert_error(code, err,
                           "face entry 0: spans must be [start, end] number pairs")

    @pytest.mark.parametrize("line_idx", [0, -3])
    def test_word_line_below_one_exits_one(self, tmp_path, line_idx):
        words = f"line_idx\tword\tstart\tend\n{line_idx}\thello\t0.00\t0.40\n"
        corpus = self._corpus(tmp_path, words=words)
        code, _, err = self._baseline(tmp_path, corpus, corpus)
        self._assert_error(code, err,
                           f"word token row 1: line_idx must be >= 1, got {line_idx}")

    def test_word_on_a_missing_line_exits_one(self, tmp_path):
        corpus = self._corpus(tmp_path, words=self.WORDS + "99\tlate\t5.00\t5.40\n")
        code, _, err = self._baseline(tmp_path, corpus, corpus)
        self._assert_error(code, err, "clip 'c1': word 'late' is on line 99, "
                                      "which the transcript lacks")


class TestWholeCorpusChecks:
    """Checks that look past one file: a bad clip does not hide the next clip's
    diagnostics, and a failing run leaves nothing half written."""

    def test_bad_cast_name_is_a_parse_line_and_later_clips_still_report(self, tmp_path):
        forward = [dict(GOLD_CLIP[0], reply_to=3)]
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP, "c2": forward},
                     casts={"c1": {"clip_id": "c1", "cast": ["ada", " "]}})
        code, out, err = run(["validate", str(tmp_path / "corpus")])
        assert code == 1
        assert err == ""
        diags = [json.loads(line) for line in out.splitlines()]
        assert [(d["clip_id"], d["code"]) for d in diags] == [
            ("c1", "PARSE"), ("c2", "FORWARD_LINK")]
        assert diags[0]["message"] == ("cast entry 1: participant name is empty "
                                       "after trimming: ' '")

    def _cast_of_another_clip(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT},
                     casts={"c1": {"clip_id": "c9", "cast": ["ada", "max"]}})
        return str(tmp_path / "corpus")

    def test_cast_of_another_clip_is_a_parse_line(self, tmp_path):
        code, out, _ = run(["validate", self._cast_of_another_clip(tmp_path)])
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [{
            "clip_id": "c1", "line_idx": None, "code": "PARSE", "severity": "error",
            "message": "cast list is for clip 'c9', not clip 'c1'"}]

    @pytest.mark.parametrize("argv", [
        ["analyze", "logodds", "{corpus}"],
        ["baseline", "{corpus}", "--mode", "reply-only", "--out", "{out}"],
    ])
    def test_cast_of_another_clip_exits_one(self, tmp_path, argv):
        corpus, out = self._cast_of_another_clip(tmp_path), str(tmp_path / "pred")
        code, _, err = run([a.format(corpus=corpus, out=out) for a in argv])
        assert code == 1
        assert err == "error: cast list is for clip 'c9', not clip 'c1'\n"

    def test_a_failing_clip_leaves_no_prediction_behind(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP, "c2": GOLD_CLIP},
                     {"c1": TRANSCRIPT, "c2": TRANSCRIPT})
        for clip_id, span in (("c1", [0.0, 4.3]), ("c2", ["0.0", 4.3])):
            (corpus / f"{clip_id}.faces.json").write_text(json.dumps(
                {"clip_id": clip_id, "faces": [{"name": "ada", "spans": [span]}]}))
        code, out, err = run(["baseline", str(corpus), "--mode", "full",
                              "--faces", str(corpus), "--out", str(tmp_path / "pred")])
        assert code == 1
        assert out == ""
        assert err.startswith("error: face entry 0: spans must be")
        assert not list(tmp_path.glob("pred/*.json"))


class TestAgreeDigest:
    def _agree(self, tmp_path, b_clip):
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        (tmp_path / "b.json").write_text(json.dumps({"c1": b_clip}))
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": {"a": "a.json", "b": "b.json"}}))
        code, out, err = run(["agree", str(manifest)])
        assert code == 0, err
        return out

    def test_digest_covers_the_annotator_files(self, tmp_path):
        same = self._agree(tmp_path, GOLD_CLIP)
        assert self._agree(tmp_path, GOLD_CLIP) == same
        edited = [dict(GOLD_CLIP[0], speaker="max", addressee=["ada"])] + GOLD_CLIP[1:]
        changed = self._agree(tmp_path, edited)
        digests = [json.loads(out)["manifest"]["digests"] for out in (same, changed)]
        assert [list(d) for d in digests] == [["manifest"], ["manifest"]]
        assert all(re.fullmatch("[0-9a-f]{64}", d["manifest"]) for d in digests)
        assert digests[0]["manifest"] != digests[1]["manifest"]

    def test_digest_chains_the_manifest_and_annotator_digests(self, tmp_path):
        out = self._agree(tmp_path, GOLD_CLIP)
        chained = hashlib.sha256()
        for name in ("annotators.json", "a.json", "b.json"):
            chained.update(hashlib.sha256((tmp_path / name).read_bytes()).digest())
        assert json.loads(out)["manifest"]["digests"]["manifest"] == chained.hexdigest()


class TestTableFormat:
    """Every command with --format table prints the same plain-text table on
    each run."""

    @pytest.fixture
    def inputs(self, tmp_path):
        clip = [dict(r) for r in GOLD_CLIP]
        clip[1]["side_participant"] = ["zoe"]
        write_corpus(tmp_path / "corpus", {"c1": clip, "c2": GOLD_CLIP},
                     {"c1": TRANSCRIPT, "c2": TRANSCRIPT},
                     casts={c: {"clip_id": c, "show_id": "showx",
                                "cast": ["ada", "max", "zoe"]} for c in ("c1", "c2")})
        (tmp_path / "genders.tsv").write_text(
            "canonical_name\tgender\tshow_id\nada\tfemale\tshowx\nmax\tmale\tshowx\n")
        (tmp_path / "a.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        (tmp_path / "b.json").write_text(json.dumps({"c1": clip}))
        (tmp_path / "annotators.json").write_text(
            json.dumps({"annotators": {"a": "a.json", "b": "b.json"}}))
        (tmp_path / "features.csv").write_text(
            "clip_id,n,f1_speaker\n" + "".join(f"c{k},{k},{k * k}\n" for k in range(5)))
        return tmp_path

    @pytest.mark.parametrize("argv", [
        ["agree", "{root}/annotators.json"],
        ["baseline", "{root}/corpus", "--mode", "reply-only", "--out", "{root}/pred"],
        ["analyze", "threads", "{root}/corpus", "--gender-map", "{root}/genders.tsv",
         "--bootstrap", "100", "--permutations", "20"],
        ["analyze", "roles", "{root}/corpus", "--gender-map", "{root}/genders.tsv"],
        ["analyze", "logodds", "{root}/corpus", "--min-count", "1",
         "--permutations", "4"],
        ["analyze", "correlate", "--features", "{root}/features.csv"],
    ], ids=["agree", "baseline", "threads", "roles", "logodds", "correlate"])
    def test_table_is_plain_text_and_deterministic(self, inputs, argv):
        argv = [a.format(root=inputs) for a in argv] + ["--format", "table"]
        code, out, err = run(argv)
        assert code == 0, err
        assert out.strip()
        with pytest.raises(ValueError):
            json.loads(out)
        assert [line for line in out.splitlines() if line != line.rstrip()] == []
        assert run(argv) == (code, out, err)

    @pytest.mark.parametrize("header", ["clip_id,bad,n_lines,f1_speaker",
                                        "clip_id,n_lines,bad,f1_speaker"],
                             ids=["error-first", "error-last"])
    def test_a_row_keeps_the_keys_the_first_row_lacks(self, tmp_path, header):
        columns = header.split(",")
        rows = [{"clip_id": f"c{k}", "bad": "x" if k == 1 else k, "n_lines": k,
                 "f1_speaker": k * k} for k in range(5)]
        (tmp_path / "features.csv").write_text(header + "\n" + "".join(
            ",".join(str(row[c]) for c in columns) + "\n" for row in rows))
        code, out, err = run(["analyze", "correlate", "--features",
                              str(tmp_path / "features.csv"), "--format", "table"])
        assert code == 0, err
        table = out.splitlines()[out.splitlines().index("correlations:") + 1:]
        assert table[0].split() == ["target", "feature", *(
            ["error", "rho", "p_value", "signed_r2", "significant"]
            if columns[1] == "bad" else
            ["rho", "p_value", "signed_r2", "significant", "error"])]
        by_feature = {line.split()[1]: line for line in table[1:]}
        assert "column 'bad' is not numeric: 'x'" in by_feature["bad"]
        assert by_feature["n_lines"].split()[2:] == ["1.0000", "0.0000", "100.0000", "True"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "{root}/corpus", "{root}/corpus"],
        ["agree", "{root}/annotators.json"],
        ["analyze", "roles", "{root}/corpus", "--gender-map", "{root}/genders.tsv"],
        ["analyze", "correlate", "--features", "{root}/features.csv"],
    ], ids=["evaluate", "agree", "roles", "correlate"])
    def test_json_output_builds_no_table(self, inputs, argv, monkeypatch):
        import convstruct.cli as cli

        calls = []
        for name in ("_flatten_table", "_metric_table"):
            def counting(*args, _name=name, _built=getattr(cli, name)):
                calls.append(_name)
                return _built(*args)

            monkeypatch.setattr(cli, name, counting)
        argv = [a.format(root=inputs) for a in argv]
        code, _, err = run(argv)
        assert code == 0, err
        assert calls == []
        code, _, err = run(argv + ["--format", "table"])
        assert code == 0, err
        assert calls


class TestCorrelateHeaderFaults:
    @pytest.mark.parametrize("csv_text, message", [
        ("clip_id,n_lines,f1_speaker\nc0,0,10,99\nc1,1,12\nc2,2,14\n",
         "features CSV row 1 has 4 cells, but the header has 3"),
        ("clip_id,n_lines,f1_speaker,n_lines\nc0,0,10,5\nc1,1,12,4\nc2,2,14,3\n",
         "features CSV header repeats column(s) ['n_lines']"),
    ])
    def test_exits_one_with_a_named_error(self, tmp_path, csv_text, message):
        path = tmp_path / "features.csv"
        path.write_text(csv_text)
        code, out, err = run(["analyze", "correlate", "--features", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = "clip_id,n_lines,f1_speaker\nc0,0,10\nc1,1,12\nc2,2,15\n"
        reports = []
        for name, encoding in (("plain.csv", "utf-8"), ("bom.csv", "utf-8-sig")):
            path = tmp_path / name
            path.write_text(text, encoding=encoding)
            code, out, err = run(["analyze", "correlate", "--features", str(path)])
            assert code == 0, err
            reports.append(json.loads(out)["report"])
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert reports[1] == reports[0]
        assert "error" not in json.dumps(reports[0])


class TestOnlyInputErrorsExitOne:
    """Exit 1 is a library input error, or a request too large to hold in
    memory, with one `error:` line; an internal fault is not caught."""

    def _one_line(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_a_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("clip_id,n_lines,f1_speaker\nc0,0," + "9" * 140_000 + "\n")
        err = self._one_line(["analyze", "correlate", "--features", str(path)])
        assert "features CSV row 1 is unreadable" in err

    def test_a_features_csv_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_bytes(b"clip_id,n_lines,f1_speaker\nc0,0,\xff\n")
        err = self._one_line(["analyze", "correlate", "--features", str(path)])
        assert "features CSV is not valid UTF-8" in err

    def test_a_nul_in_a_manifest_path(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        manifest = tmp_path / "annotators.json"
        manifest.write_text(json.dumps({"annotators": {"a": "b\0.json", "b": "b.json"}}))
        err = self._one_line(["agree", str(manifest)])
        assert "annotator 'a' contains a NUL character" in err

    @pytest.mark.parametrize("text", ["[" * 100_000, "[{\"line_idx\": " + "1" * 5000 + "}]"],
                             ids=["deep", "long-int"])
    def test_json_that_json_loads_cannot_read(self, tmp_path, text):
        write_corpus(tmp_path / "gold", {"c1": GOLD_CLIP})
        (tmp_path / "pred").mkdir()
        (tmp_path / "pred" / "c1.annotation.json").write_text(text)
        err = self._one_line(["evaluate", str(tmp_path / "gold"), str(tmp_path / "pred")])
        assert "annotation JSON is unreadable" in err

    # more resamples than the address space holds: the allocation fails at once
    HUGE = "100000000000000"

    def test_a_bootstrap_too_large_to_hold_for_evaluate(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        err = self._one_line(["evaluate", str(tmp_path / "corpus"),
                              str(tmp_path / "corpus"), "--bootstrap", self.HUGE])
        assert "Unable to allocate" in err

    def test_a_bootstrap_too_large_to_hold_for_analyze_threads(self, tmp_path):
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT},
                     casts={"c1": {"clip_id": "c1", "show_id": "showx",
                                   "cast": ["ada", "max"]}})
        genders = tmp_path / "genders.tsv"
        genders.write_text("canonical_name\tgender\tshow_id\n"
                           "ada\tfemale\tshowx\nmax\tmale\tshowx\n")
        err = self._one_line(["analyze", "threads", str(tmp_path / "corpus"),
                              "--gender-map", str(genders), "--permutations", "10",
                              "--bootstrap", self.HUGE])
        assert "Unable to allocate" in err

    def test_an_internal_value_error_is_not_caught(self, tmp_path, monkeypatch):
        import convstruct.metrics as metrics

        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(metrics, "evaluate_corpus", broken)
        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        with pytest.raises(ValueError, match="internal fault"):
            main(["evaluate", str(tmp_path / "corpus"), str(tmp_path / "corpus")])


class TestManifestDigestsEachPathOnce:
    def test_a_path_given_twice_is_digested_once(self, tmp_path, monkeypatch):
        import convstruct.cli as cli

        write_corpus(tmp_path / "corpus", {"c1": GOLD_CLIP})
        corpus = str(tmp_path / "corpus")
        _, once, _ = run(["evaluate", corpus, corpus])
        digest = cli._digest_path
        calls = []

        def counting(path, reads):
            calls.append(path)
            return digest(path, reads)

        monkeypatch.setattr(cli, "_digest_path", counting)
        code, out, err = run(["evaluate", corpus, corpus])
        assert code == 0, err
        assert calls == [Path(corpus)]
        assert out == once


class TestEmptyPaths:
    """An empty path names no file; as a Path it would mean the working
    directory, so argparse rejects it (exit 2) before any file is read."""

    @pytest.mark.parametrize("flag", ["--faces", "--words", "--out", "--gender-map",
                                      "--features", "gold", "manifest"])
    def test_empty_path_is_a_usage_error_naming_it(self, tmp_path, monkeypatch,
                                                    capsys, flag):
        monkeypatch.chdir(tmp_path)
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"c1": GOLD_CLIP}, {"c1": TRANSCRIPT})
        (corpus / "c1.faces.json").write_text(json.dumps(
            {"clip_id": "c1", "faces": [{"name": "ada", "spans": [[0.0, 4.3]]}]}))
        root, out_dir = str(corpus), str(tmp_path / "pred")
        argv = {
            "--faces": ["baseline", root, "--mode", "full", "--faces", "",
                        "--out", out_dir],
            "--words": ["baseline", root, "--mode", "full", "--faces", root,
                        "--words", "", "--out", out_dir],
            "--out": ["baseline", root, "--mode", "reply-only", "--out", ""],
            "--gender-map": ["analyze", "roles", root, "--gender-map", ""],
            "--features": ["analyze", "correlate", "--features", ""],
            "gold": ["evaluate", "", root],
            "manifest": ["agree", ""],
        }[flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: empty path\n")
        assert not (tmp_path / "pred").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


class TestBrokenTranscript:
    """A transcript that cannot be parsed fails only what reads transcripts:
    `analyze roles` parses none and reports as if it were sound, `validate`
    reports it for its clip, and `analyze threads` and `logodds` exit 1."""

    FAULTS = {
        "bad UTF-8": (b"\xff\xfe\x00 not a transcript",
                      "error: transcript is not valid UTF-8: 'utf-8' codec can't decode "
                      "byte 0xff in position 0: invalid start byte\n"),
        "bad cell": (TRANSCRIPT.replace("0.000", "zero").encode(),
                     "error: row 1: non-numeric start timestamp 'zero'\n"),
    }

    @staticmethod
    def _corpus(root, transcript: bytes):
        write_corpus(root, {"c1": GOLD_CLIP, "c2": GOLD_CLIP},
                     {"c1": TRANSCRIPT, "c2": TRANSCRIPT},
                     casts={c: {"clip_id": c, "show_id": "showx", "cast": ["ada", "max"]}
                            for c in ("c1", "c2")})
        (root / "c2.transcript.tsv").write_bytes(transcript)
        return str(root)

    @pytest.fixture(params=list(FAULTS))
    def corpora(self, request, tmp_path):
        data, message = self.FAULTS[request.param]
        genders = tmp_path / "genders.tsv"
        genders.write_text("canonical_name\tgender\tshow_id\n"
                           "ada\tfemale\tshowx\nmax\tmale\tshowx\n")
        return (self._corpus(tmp_path / "good", TRANSCRIPT.encode()),
                self._corpus(tmp_path / "bad", data), str(genders), message)

    def test_roles_reports_as_with_a_sound_transcript(self, corpora):
        good, bad, genders, _ = corpora
        outputs = [run(["analyze", "roles", corpus, "--gender-map", genders])
                   for corpus in (good, bad)]
        assert [(code, err) for code, _, err in outputs] == [(0, ""), (0, "")]
        reports = [json.loads(out) for _, out, _ in outputs]
        assert reports[0]["report"] == reports[1]["report"]
        assert reports[0]["manifest"]["digests"] != reports[1]["manifest"]["digests"]

    def test_roles_streams_past_a_broken_middle_transcript(self, corpora, tmp_path):
        good, _, genders, _ = corpora
        middle = tmp_path / "middle"
        write_corpus(middle, {c: GOLD_CLIP for c in ("c1", "c2", "c3")},
                     {c: TRANSCRIPT for c in ("c1", "c3")},
                     casts={c: {"clip_id": c, "show_id": "showx", "cast": ["ada", "max"]}
                            for c in ("c1", "c2", "c3")})
        (middle / "c2.transcript.tsv").write_bytes(b"\xff\xfe\x00 not a transcript")
        code, out, err = run(["analyze", "roles", str(middle), "--gender-map", genders])
        assert (code, err) == (0, "")
        counts = json.loads(out)["report"]["n_observations"]
        _, sound, _ = run(["analyze", "roles", good, "--gender-map", genders])
        assert counts == 3 * json.loads(sound)["report"]["n_observations"] // 2

    def test_validate_reports_one_parse_line_for_the_clip(self, corpora):
        _, bad, _, message = corpora
        code, out, _ = run(["validate", bad])
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [
            {"clip_id": "c2", "line_idx": None, "code": "PARSE", "severity": "error",
             "message": message[len("error: "):-1]}]

    @pytest.mark.parametrize("analysis", ["threads", "logodds"])
    def test_analyses_that_read_transcripts_exit_one(self, corpora, analysis):
        _, bad, genders, message = corpora
        flags = ["--gender-map", genders, "--bootstrap", "20"] if analysis == "threads" else []
        assert run(["analyze", analysis, bad, *flags]) == (1, "", message)
