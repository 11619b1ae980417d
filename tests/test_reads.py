"""Every command reads each input file once, and its manifest digests equal a
reference that hashes the files on disk after the run."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from convstruct import corpus as corpus_module
from convstruct.cli import main
from convstruct.corpus import serialize_annotation_json

from conftest import random_clip
from test_acceptance import transcript_tsv


def reference_digest(path: Path) -> str:
    """The manifest digest of a path, hashed from disk: the sha256 of a file,
    or of each file under a directory in sorted `Path` order, as its relative
    name, a NUL and the sha256 of its bytes. `rglob` lists hidden files and
    links but does not descend a link to a directory, and `is_file` keeps a
    link to a file and drops a dangling one."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for child in sorted(path.rglob("*")):
        if child.is_file():
            rel = child.relative_to(path).as_posix()
            digest.update(rel.encode("utf-8"))
            digest.update(b"\0")
            digest.update(hashlib.sha256(child.read_bytes()).digest())
    return digest.hexdigest()


def reference_agree_digest(manifest: Path, files: list[Path]) -> str:
    """The `agree` digest: the manifest's, chained with each annotator file's
    sha256 in annotator order."""
    digest = hashlib.sha256(bytes.fromhex(reference_digest(manifest)))
    for path in files:
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def write_inputs(root: Path) -> dict[str, Path]:
    """Three clips with every file a command can read (annotation, transcript,
    cast, faces, words), a file no command parses, a gender map, a prediction
    copy, three annotator files with their manifest, and a features CSV."""
    corpus, pred, agree = root / "corpus", root / "pred", root / "agree"
    for directory in (corpus, pred, agree):
        directory.mkdir(parents=True)
    rng = random.Random(7)
    genders = {}
    annotations = {}
    for k in range(3):
        clip = random_clip(rng, f"clip{k}", show_id="showx")
        annotations[clip.clip_id] = json.loads(serialize_annotation_json(clip.gold))
        (corpus / f"{clip.clip_id}.annotation.json").write_bytes(
            serialize_annotation_json(clip.gold))
        (corpus / f"{clip.clip_id}.transcript.tsv").write_text(
            transcript_tsv(clip.utterances))
        (corpus / f"{clip.clip_id}.cast.json").write_text(json.dumps({
            "clip_id": clip.clip_id, "show_id": "showx",
            "cast": [p.token for p in clip.cast]}))
        (corpus / f"{clip.clip_id}.faces.json").write_text(json.dumps({
            "clip_id": clip.clip_id,
            "faces": [{"name": p.token, "spans": [[0.0, 5.0 * (i + 1)]]}
                      for i, p in enumerate(clip.cast)]}))
        (corpus / f"{clip.clip_id}.words.tsv").write_text("line_idx\tword\tstart\tend\n" + "".join(
            f"{u.line_idx}\tw\t{u.start_s:.3f}\t{u.end_s:.3f}\n" for u in clip.utterances))
        shutil.copy(corpus / f"{clip.clip_id}.annotation.json", pred)
        for p in clip.cast:
            genders.setdefault(p.canonical_name, ("female", "male")[len(genders) % 2])
    (corpus / "notes.txt").write_text("not a clip file\n")
    (root / "genders.tsv").write_text("canonical_name\tgender\tshow_id\n" + "".join(
        f"{name}\t{gender}\tshowx\n" for name, gender in genders.items()))
    for name in "abc":
        (agree / f"{name}.json").write_text(json.dumps(annotations))
    (agree / "manifest.json").write_text(json.dumps(
        {"annotators": {name: f"{name}.json" for name in "abc"}}))
    (root / "features.csv").write_text("clip_id,n_lines,f1_speaker\n" + "".join(
        f"c{k},{k},{(k * 7) % 5}\n" for k in range(6)))
    return {"corpus": corpus, "pred": pred, "agree": agree / "manifest.json",
            "genders": root / "genders.tsv", "features": root / "features.csv"}


def run(argv) -> dict:
    """The JSON report of a command that must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


@pytest.fixture
def reads(monkeypatch, tmp_path):
    """Counts, by real path, every file under tmp_path opened for reading."""
    counts: Counter = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            path = os.path.realpath(file)
            if path.startswith(os.path.realpath(tmp_path)):
                counts[path] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    if hasattr(pathlib, "_NormalAccessor"):  # Python 3.10 binds io.open there
        monkeypatch.setattr(pathlib._NormalAccessor, "open", staticmethod(counting_open))
    return counts


# Every command, as argv built from write_inputs' paths and an output directory.
COMMANDS = {
    "evaluate": lambda p, out: ["evaluate", p["corpus"], p["pred"]],
    "agree": lambda p, out: ["agree", p["agree"]],
    "baseline full": lambda p, out: ["baseline", p["corpus"], "--mode", "full", "--faces",
                                     p["corpus"], "--words", p["corpus"], "--out", out],
    "baseline reply-only": lambda p, out: ["baseline", p["corpus"], "--mode", "reply-only",
                                           "--out", out],
    "analyze threads": lambda p, out: ["analyze", "threads", p["corpus"], "--gender-map",
                                       p["genders"], "--bootstrap", "50",
                                       "--permutations", "20"],
    "analyze roles": lambda p, out: ["analyze", "roles", p["corpus"], "--gender-map",
                                     p["genders"]],
    "analyze logodds": lambda p, out: ["analyze", "logodds", p["corpus"], "--min-count",
                                       "1", "--permutations", "5"],
    "analyze correlate": lambda p, out: ["analyze", "correlate", "--features",
                                         p["features"]],
}


class TestTranscriptsAreParsedOnlyWhereRead:
    """`analyze roles` counts roles from annotations and casts, so it parses
    no transcript; the analyses that read them parse each clip's once."""

    @pytest.mark.parametrize("command, parsed", [
        ("analyze roles", []),
        ("analyze threads", ["clip0", "clip1", "clip2"]),
        ("analyze logodds", ["clip0", "clip1", "clip2"]),
    ])
    def test_transcript_parses_per_command(self, tmp_path, monkeypatch, command, parsed):
        paths = write_inputs(tmp_path / "in")
        calls = []
        parse = corpus_module.parse_transcript_tsv

        def counting(data, clip_id=""):
            calls.append(clip_id)
            return parse(data, clip_id)

        monkeypatch.setattr(corpus_module, "parse_transcript_tsv", counting)
        run(COMMANDS[command](paths, tmp_path / "out"))
        assert sorted(calls) == parsed


class TestEachInputFileIsReadOnce:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_reads_each_input_file_once(self, tmp_path, reads, command):
        paths = write_inputs(tmp_path / "in")
        argv = COMMANDS[command](paths, tmp_path / "out")
        run(argv)
        inputs = [p for p in map(Path, argv) if p.exists() and tmp_path / "in" in p.parents]
        files = {os.path.realpath(f) for p in inputs
                 for f in ([p] if p.is_file() else p.rglob("*")) if f.is_file()}
        if command == "agree":
            files |= {os.path.realpath(f) for f in paths["agree"].parent.iterdir()}
        assert files  # every file of every input is read, and only once
        assert dict(reads) == dict.fromkeys(files, 1)

    @pytest.mark.parametrize("where, spelling", [
        ("corpus", "."), ("corpus", "./"), ("in", "corpus"), ("in", "./corpus/"),
        ("in", "corpus//"), ("in", "../in/corpus")])
    def test_any_spelling_of_the_corpus_reads_each_file_once(self, tmp_path, reads,
                                                            monkeypatch, where, spelling):
        paths = write_inputs(tmp_path / "in")
        monkeypatch.chdir(paths["corpus"] if where == "corpus" else tmp_path / "in")
        report = run(["analyze", "logodds", spelling, "--min-count", "1",
                      "--permutations", "2"])
        files = {os.path.realpath(f) for f in paths["corpus"].iterdir()}
        assert dict(reads) == dict.fromkeys(files, 1)
        assert report["manifest"]["digests"] == {"corpus": reference_digest(paths["corpus"])}

    def test_a_path_given_for_two_inputs_is_read_once_by_each(self, tmp_path, reads):
        paths = write_inputs(tmp_path / "in")
        run(["evaluate", paths["corpus"], paths["corpus"]])
        annotations = {os.path.realpath(f) for f in paths["corpus"].glob("*.annotation.json")}
        assert {path for path, n in reads.items() if n == 2} == annotations
        assert set(reads.values()) == {1, 2}

    def test_an_agree_file_named_twice_is_read_once_per_annotator(self, tmp_path, reads):
        paths = write_inputs(tmp_path / "in")
        manifest = paths["agree"].with_name("twice.json")
        manifest.write_text(json.dumps({"a": "a.json", "b": "a.json", "c": "b.json"}))
        run(["agree", manifest])
        agree = paths["agree"].parent
        assert dict(reads) == {os.path.realpath(manifest): 1,
                               os.path.realpath(agree / "a.json"): 2,
                               os.path.realpath(agree / "b.json"): 1}


# Names from a small alphabet, so that a directory's name is often the start
# of a sibling's, which sorts it differently as a Path and as a string ("a/x"
# before "a.txt", but "a.txt" before "a/x"). No name is a clip file's.
NAME = st.text(alphabet="a-. é日", min_size=1, max_size=3).filter(
    lambda name: name not in (".", ".."))
FILE_NAME = st.tuples(NAME, st.sampled_from(["", ".txt", ".faces.json"])).map("".join)
TREE = st.recursive(st.binary(max_size=8),
                    lambda children: st.dictionaries(NAME, children, max_size=4),
                    max_leaves=12)


def write_links(corpus: Path, outside: Path) -> None:
    """At the top of `corpus` and one directory down: a hidden file, a link to
    a file, links to a directory outside the corpus and to the corpus itself
    (a loop if descended), a dangling link and a link to itself."""
    for where in (corpus, corpus / "links"):
        where.mkdir(exist_ok=True)
        (where / ".hidden").write_bytes(b"hidden")
        (where / "file-link").symlink_to(corpus / "clip0.annotation.json")
        (where / "dir-link").symlink_to(outside, target_is_directory=True)
        (where / "loop-link").symlink_to(corpus, target_is_directory=True)
        (where / "dangling").symlink_to(where / "missing")
        (where / "self-link").symlink_to(where / "self-link")


def write_tree(root: Path, tree) -> None:
    """Write dictionaries as directories and bytes as files (often empty)."""
    if isinstance(tree, bytes):
        root.write_bytes(tree)
        return
    root.mkdir()
    for name, child in tree.items():
        write_tree(root / name, child)


class TestManifestDigestsMatchTheReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(extra=st.dictionaries(FILE_NAME, TREE, max_size=5))
    @example(extra={"a": {"x": b"1"}, "a.txt": b""})
    def test_digests_equal_the_reference_over_generated_trees(self, extra):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = write_inputs(root / "in")
            corpus = paths["corpus"]
            for name, tree in extra.items():
                write_tree(corpus / name, tree)
            write_links(corpus, paths["pred"])
            expected = reference_digest(corpus)
            genders = reference_digest(paths["genders"])
            evaluate = run(["evaluate", corpus, corpus])
            assert evaluate["manifest"]["digests"] == {"gold": expected, "pred": expected}
            roles = run(["analyze", "roles", corpus, "--gender-map", paths["genders"]])
            assert roles["manifest"]["digests"] == {"corpus": expected,
                                                    "gender_map": genders}
            baseline = run(["baseline", corpus, "--mode", "full", "--faces", corpus,
                               "--words", corpus, "--out", root / "out"])
            assert baseline["manifest"]["digests"] == dict.fromkeys(
                ("corpus", "faces", "words"), expected)

    @pytest.mark.parametrize("annotators", [
        {"a": "a.json", "b": "b.json", "c": "c.json"},
        {"a": "a.json", "b": "a.json"},
        {"z": "c.json", "b": "a.json", "a": "c.json"},
    ])
    def test_agree_chain_equals_the_reference(self, tmp_path, annotators):
        paths = write_inputs(tmp_path)
        manifest = paths["agree"].with_name("chain.json")
        manifest.write_text(json.dumps({"annotators": annotators}))
        agree = run(["agree", manifest])
        files = [manifest.parent / annotators[a] for a in sorted(annotators)]
        assert agree["manifest"]["digests"] == {
            "manifest": reference_agree_digest(manifest, files)}
