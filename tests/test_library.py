"""The analyses behind the CLI, called as library functions.

Each analysis has one implementation in the library; these tests call it
directly and check that the CLI report is exactly its `as_dict()` (or report
dict), so the command adds nothing but the manifest.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from convstruct import corpus as corpus_module
from convstruct.agreement import load_annotators
from convstruct.corpus import (
    BAD_REPLY_TO,
    DUPLICATE_LINE,
    FORWARD_LINK,
    ROLE_OVERLAP,
    SPEAKER_IN_ROLES,
    Clip,
    Utterance,
    annotation_records,
    check_records,
    iter_clip_files,
    load_corpus,
    parse_annotation_json,
    parse_gender_map_tsv,
    validate_clip,
    validate_paths,
)
from convstruct.stats import (
    BootstrapConfig,
    feature_correlations,
    gender_thread_shares,
    logodds_report,
    multinomial_logit,
    role_counts,
    role_report,
    utterance_documents,
)
from convstruct.stats.logodds import DEFAULT_GRID

from conftest import record
from test_cli import GOLD_CLIP, TRANSCRIPT, run, write_corpus

GENDERS = "canonical_name\tgender\tshow_id\nada\tfemale\tshowx\nmax\tmale\tshowx\n"


@pytest.fixture
def corpus(tmp_path):
    clip = [dict(r) for r in GOLD_CLIP]
    clip[1]["side_participant"] = ["zoe"]
    write_corpus(tmp_path / "corpus", {"c1": clip, "c2": GOLD_CLIP},
                 {"c1": TRANSCRIPT, "c2": TRANSCRIPT},
                 casts={c: {"clip_id": c, "show_id": "showx", "cast": ["ada", "max", "zoe"]}
                        for c in ("c1", "c2")})
    (tmp_path / "genders.tsv").write_text(GENDERS)
    return tmp_path


def clips_of(root):
    loaded = load_corpus(root / "corpus")
    return [loaded[c] for c in sorted(loaded)]


def cli_report(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)["report"]


class TestOneRecordChecker:
    BAD = [record(1, "a", ["b"], ["b"], reply_to=2),
           record(1, "a", reply_to=1),
           record(2, "b", ["b"], reply_to=0)]

    def test_each_invariant_code(self):
        codes = [(d.code, d.line_idx) for d in check_records(self.BAD, "c")]
        assert codes == [(FORWARD_LINK, 1), (ROLE_OVERLAP, 1), (DUPLICATE_LINE, 1),
                         (BAD_REPLY_TO, 2), (SPEAKER_IN_ROLES, 2)]

    def test_validate_clip_reports_the_record_diagnostics(self):
        validated = validate_clip(Clip(clip_id="c", gold=tuple(self.BAD)))
        assert validated == check_records(self.BAD, "c")

    def test_annotation_records_takes_a_decoded_array(self):
        blob = json.dumps(GOLD_CLIP).encode()
        expected = parse_annotation_json(blob, clip_id="c")
        assert annotation_records(json.loads(blob), clip_id="c") == expected


class TestValidatePaths:
    def test_clean_corpus_has_no_diagnostics(self, corpus):
        assert validate_paths([corpus / "corpus"]) == []

    def test_each_violation_reported_once(self, tmp_path):
        bad = [dict(GOLD_CLIP[0]), dict(GOLD_CLIP[0]), {"line_idx": 2}]
        write_corpus(tmp_path / "corpus", {"c1": bad})
        codes = [d.code for d in validate_paths([tmp_path / "corpus"])]
        assert codes == ["MISSING_KEY", DUPLICATE_LINE]

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "c1.annotation.json").write_text("not json")
        diags = validate_paths([root])
        assert [d.code for d in diags] == ["PARSE"]
        code, out, _ = run(["validate", str(root)])
        assert code == 1
        assert json.loads(out)["code"] == "PARSE"

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such path"):
            validate_paths([tmp_path / "nope"])


class TestAgreementLoader:
    def test_each_file_decoded_once(self, tmp_path, monkeypatch):
        for name in "ab":
            (tmp_path / f"{name}.json").write_text(json.dumps({"c1": GOLD_CLIP}))
        (tmp_path / "m.json").write_text(
            json.dumps({"annotators": {"a": "a.json", "b": "b.json"}}))
        decoded = []
        loads = json.loads
        monkeypatch.setattr(corpus_module.json, "loads",
                            lambda s, **kw: decoded.append(1) or loads(s, **kw))
        batches = load_annotators(tmp_path / "m.json")
        assert len(decoded) == 3  # the manifest and two annotator files
        assert [b.annotator_id for b in batches] == ["a", "b"]
        assert batches[0].records_by_clip["c1"] == parse_annotation_json(
            json.dumps(GOLD_CLIP).encode(), clip_id="c1")

    def test_single_clip_file_uses_its_stem(self, tmp_path):
        (tmp_path / "clip7.json").write_text(json.dumps(GOLD_CLIP))
        (tmp_path / "m.json").write_text(json.dumps({"a": "clip7.json"}))
        assert list(load_annotators(tmp_path / "m.json")[0].records_by_clip) == ["clip7"]

    def test_single_clip_file_names_its_clip_as_the_corpus_does(self, tmp_path):
        for name in ("c1.annotation.json", "c1.json"):
            (tmp_path / name).write_text(json.dumps(GOLD_CLIP))
            assert [f.clip_id for f in iter_clip_files(tmp_path / name)] == ["c1"]
        (tmp_path / "m.json").write_text(
            json.dumps({"a": "c1.annotation.json", "b": "c1.json"}))
        batches = load_annotators(tmp_path / "m.json")
        assert [list(b.records_by_clip) for b in batches] == [["c1"], ["c1"]]
        report = cli_report(["agree", str(tmp_path / "m.json")])
        assert set(report["per_pair"]["a|b"]["raw"].values()) == {100.0}


class TestAnalyses:
    def test_role_counts_values(self, corpus):
        gender_map = parse_gender_map_tsv(GENDERS.encode())
        # zoe, c1's side-participant on line 2, has no gender and is not counted
        assert role_counts(clips_of(corpus)[:1], gender_map) == {
            ("speaker", "female", "showx"): 2, ("speaker", "male", "showx"): 2,
            ("addressee", "female", "showx"): 2, ("addressee", "male", "showx"): 2}

    def test_role_report_is_the_cli_report(self, corpus):
        gender_map = parse_gender_map_tsv(GENDERS.encode())
        clips = clips_of(corpus)
        report = role_report(clips, gender_map)
        table = role_counts(clips, gender_map)
        fit = multinomial_logit({(r, g == "female", s): k for (r, g, s), k in table.items()})
        assert report["regression"]["log_likelihood"] == fit.log_likelihood
        assert report["n_observations"] == sum(table.values())
        assert report == cli_report(
            ["analyze", "roles", str(corpus / "corpus"),
             "--gender-map", str(corpus / "genders.tsv")])

    def test_thread_shares_as_dict_is_the_cli_report(self, corpus):
        gender_map = parse_gender_map_tsv(GENDERS.encode())
        shares = gender_thread_shares(
            clips_of(corpus), gender_map,
            config=BootstrapConfig(resamples=200, seed=4), permutations=50)
        assert shares.as_dict() == cli_report(
            ["analyze", "threads", str(corpus / "corpus"), "--gender-map",
             str(corpus / "genders.tsv"), "--bootstrap", "200", "--seed", "4",
             "--permutations", "50"])

    def test_utterance_documents_groups(self, corpus):
        docs = list(utterance_documents(clips_of(corpus)))
        assert len(docs) == 8
        # line 2 of c1 has a side-participant
        assert [group for _, group, _ in docs[:4]] == ["a", "b", "a", "a"]
        assert docs[0][2] == ["hello", "there"]

    def test_nondialogic_lines_can_be_filtered(self):
        clip = Clip(clip_id="c", utterances=(Utterance("c", 1, 0.0, 1.0, "hi"),
                                             Utterance("c", 2, 1.0, 2.0, "yo")),
                    gold=(record(1, "a", monologue=True), record(2, "a", reply_to=1)))
        assert len(list(utterance_documents([clip]))) == 2
        assert len(list(utterance_documents([clip], filter_nondialogic=True))) == 1

    def test_logodds_report_is_the_cli_report(self, corpus):
        docs = utterance_documents(clips_of(corpus))
        report = logodds_report(docs, min_count=1, permutations=5, seed=2, top=3)
        assert report["calibration"]["grid"] == [float(c) for c in np.logspace(0, 4, 9)]
        assert report["calibration"]["grid"] == list(DEFAULT_GRID)
        assert report == cli_report(
            ["analyze", "logodds", str(corpus / "corpus"), "--min-count", "1",
             "--permutations", "5", "--seed", "2", "--top", "3"])

    def test_logodds_report_needs_documents(self):
        from convstruct.stats.bootstrap import StatsError

        with pytest.raises(StatsError, match="no documents"):
            logodds_report([])

    def test_feature_correlations_is_the_cli_report(self, tmp_path):
        rows = [{"clip_id": f"c{k}", "n": str(k), "f1_speaker": str((k * 7) % 5)}
                for k in range(6)]
        path = tmp_path / "features.csv"
        path.write_text("clip_id,n,f1_speaker\n"
                        + "".join(f"{r['clip_id']},{r['n']},{r['f1_speaker']}\n"
                                  for r in rows))
        report = feature_correlations(rows)
        assert report["n_clips"] == 6
        assert report == cli_report(["analyze", "correlate", "--features", str(path)])


class TestReadmeExamples:
    """The README's `python` blocks run as written, against a corpus at the
    paths they name."""

    # three gendered participants, each line with one side-participant but the last
    CLIP = [
        {"line_idx": 1, "speaker": "ada", "addressee": ["max"],
         "side_participant": ["cleo"], "reply_to": 1},
        {"line_idx": 2, "speaker": "max", "addressee": ["ada"],
         "side_participant": ["cleo"], "reply_to": 1},
        {"line_idx": 3, "speaker": "cleo", "addressee": ["ada"],
         "side_participant": ["max"], "reply_to": 3},
        {"line_idx": 4, "speaker": "max", "addressee": ["cleo"],
         "side_participant": [], "reply_to": 3},
    ]

    def _write_inputs(self, root):
        clip_ids = [f"c{k}" for k in range(5)]  # each word is said five times
        write_corpus(root / "data" / "corpus", {c: self.CLIP for c in clip_ids},
                     {c: TRANSCRIPT for c in clip_ids},
                     casts={c: {"clip_id": c, "show_id": "showx",
                                "cast": ["ada", "max", "cleo"]} for c in clip_ids})
        (root / "genders.tsv").write_text(GENDERS + "cleo\tfemale\tshowx\n")
        for name in ("clip1.json", "pred1.json"):
            (root / name).write_text(json.dumps(self.CLIP))

    def test_python_blocks_run(self, tmp_path, monkeypatch, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
        assert len(blocks) == 2
        self._write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        for block in blocks:
            exec(compile(block, str(readme), "exec"), {})
        out = capsys.readouterr().out
        assert "'speaker_acc': 100.0" in out
        # "sure am" is the only line without side-participants: its terms lead
        printed = re.findall(r"^([a-z]+) +([+-][0-9.]+)$", out, re.MULTILINE)
        assert {term for term, _ in printed[:2]} == {"am", "sure"}
        assert all(float(z) > 0 for _, z in printed[:2])
