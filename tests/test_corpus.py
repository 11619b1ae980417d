import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convstruct.corpus import (
    CROWD,
    ERROR,
    FORWARD_LINK,
    GENDERS,
    GOLD_COVERAGE,
    OFF_SCREEN,
    OVERLAP,
    REGULAR,
    UNKNOWN,
    WARNING,
    Clip,
    CorpusError,
    Diagnostic,
    ParseError,
    Participant,
    StructureRecord,
    Utterance,
    ValidationError,
    ClipFiles,
    check_records,
    iter_clip_files,
    iter_corpus,
    load_corpus,
    lookup_gender,
    normalize_name,
    parse_annotation_json,
    parse_cast_json,
    parse_gender_map_tsv,
    parse_transcript_tsv,
    serialize_annotation_json,
    validate_clip,
    validate_paths,
    _decode_json,
    _number,
    _read_records,
)

from convstruct.baseline import WordToken, parse_face_tracks_json, parse_word_tokens_tsv

from conftest import NAMES, record, table4_records

TSV = (
    "start\tend\tspeaker\ttext\n"
    "0.031\t0.711\tsheldon cooper\tI'll find us seats?\n"
    "1.171\t2.272\tstephanie barnett\tOh no, we have seats.\n"
    "2.292\t3.692\tleonard hofstadter\tNot the right seats.\n"
).encode("utf-8")


class TestTranscript:
    def test_parses_rows_in_order(self):
        utterances = parse_transcript_tsv(TSV, clip_id="c")
        assert [u.line_idx for u in utterances] == [1, 2, 3]
        first = utterances[0]
        assert first.start_s == 0.031
        assert first.end_s == 0.711
        assert first.text == "I'll find us seats?"
        assert first.speaker_hint == "sheldon cooper"

    def test_header_only_is_empty(self):
        assert parse_transcript_tsv(b"start\tend\tspeaker\ttext\n") == []

    def test_start_after_end_names_row(self):
        bad = b"start\tend\tspeaker\ttext\n2.0\t1.0\tx\thello\n"
        with pytest.raises(ParseError, match="row 1"):
            parse_transcript_tsv(bad)

    def test_wrong_column_count(self):
        bad = b"start\tend\tspeaker\ttext\n1.0\t2.0\tonly three\n"
        with pytest.raises(ParseError, match="row 1"):
            parse_transcript_tsv(bad)

    def test_non_numeric_timestamp(self):
        bad = b"start\tend\tspeaker\ttext\nabc\t2.0\tx\thi\n"
        with pytest.raises(ParseError, match="non-numeric"):
            parse_transcript_tsv(bad)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_transcript_tsv(b"begin\tend\tspeaker\ttext\n")

    @pytest.mark.parametrize("cell", ["1_0", " 1.0", "1.0 ", "\u0661", "\uff11.5",
                                      "0x1", "1e", "+", "."])
    def test_timestamp_must_be_an_ascii_decimal(self, cell):
        bad = f"start\tend\tspeaker\ttext\n0.5\t0.9\tx\thi\n{cell}\t20.0\tx\thi\n"
        message = re.escape(f"row 2: non-numeric start timestamp {cell!r}")
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_transcript_tsv(bad.encode())

    @pytest.mark.parametrize("cell, seconds", [("7", 7.0), ("+1.5", 1.5), (".5", 0.5),
                                               ("2.", 2.0), ("1E1", 10.0),
                                               ("25e-1", 2.5)])
    def test_ascii_decimal_spellings_parse(self, cell, seconds):
        blob = f"start\tend\tspeaker\ttext\n{cell}\t30.0\tx\thi\n".encode()
        assert parse_transcript_tsv(blob)[0].start_s == seconds


class TestNormalizeName:
    def test_case_and_whitespace(self):
        p = normalize_name("  Sheldon   Cooper ")
        assert p.canonical_name == "sheldon cooper"
        assert p.kind == REGULAR

    def test_reserved_tokens(self):
        assert normalize_name("crowd").kind == CROWD
        assert normalize_name("Unknown").kind == "unknown"
        assert normalize_name("NONE").kind == "none"

    def test_off_screen_suffix(self):
        p = normalize_name("barney_OS")
        assert p.kind == OFF_SCREEN
        assert p.canonical_name == "barney"
        assert p.token == "barney_OS"

    def test_idempotent_via_token(self):
        for raw in ["Sheldon  Cooper", "barney_OS", "CROWD", "none"]:
            once = normalize_name(raw)
            assert normalize_name(once.token) == once

    def test_empty_after_trim_raises(self):
        with pytest.raises(CorpusError):
            normalize_name("   ")


class TestRecordSemantics:
    """Participants, records and utterances are named tuples: each equals,
    hashes and orders as the plain tuple of its fields, unpacks like one, and
    is copied with `_replace`."""

    def test_participant_is_the_tuple_of_its_fields(self):
        ada = normalize_name("Ada")
        assert ada == ("ada", REGULAR) and hash(ada) == hash(("ada", REGULAR))
        assert len({ada, ("ada", REGULAR)}) == 1
        assert sorted([ada, normalize_name("ada_OS")]) == [("ada", OFF_SCREEN), ada]
        name, kind = ada
        assert (name, kind) == ("ada", REGULAR)
        assert ada._replace(kind=OFF_SCREEN).token == "ada_OS" and ada.token == "ada"

    def test_record_is_the_tuple_of_its_fields(self):
        first = record(2, "ada", ["max"], reply_to=1)
        fields = (2, normalize_name("ada"), frozenset({normalize_name("max")}),
                  frozenset(), 1, False, False)
        assert first == fields and hash(first) == hash(fields)
        line_idx, speaker, addressees, side, reply_to, extra, monologue = first
        assert (line_idx, speaker.canonical_name, reply_to) == (2, "ada", 1)
        flagged = first._replace(monologue=True)
        assert flagged.is_nondialogic and not first.is_nondialogic
        assert flagged != first and first < flagged  # False < True in the last field
        assert sorted([record(3, "max"), first]) == [first, record(3, "max")]
        with pytest.raises(AttributeError):
            first.reply_to = 2

    def test_utterance_is_the_tuple_of_its_fields(self):
        line = Utterance("c", 1, 0.5, 2.0, "hi")
        assert line == ("c", 1, 0.5, 2.0, "hi", None) and line.speaker_hint is None
        assert line._replace(end_s=3.5).duration_s == 3.0 and line.duration_s == 1.5

    def test_word_token_is_the_tuple_of_its_fields(self):
        word = WordToken(2, "hi", 0.5, 0.75)
        assert word == (2, "hi", 0.5, 0.75) and hash(word) == hash((2, "hi", 0.5, 0.75))
        assert len({word, (2, "hi", 0.5, 0.75)}) == 1
        assert sorted([word, WordToken(1, "yo", 3.0, 3.5), WordToken(2, "a", 0.5, 0.6)]) == [
            (1, "yo", 3.0, 3.5), (2, "a", 0.5, 0.6), (2, "hi", 0.5, 0.75)]
        line_idx, text, start_s, end_s = word
        assert (line_idx, text, start_s, end_s) == (2, "hi", 0.5, 0.75)
        with pytest.raises(AttributeError):
            word.line_idx = 3


ANNOTATION = json.dumps([
    {"line_idx": 1, "speaker": "sheldon cooper",
     "addressee": ["stephanie barnett", "leonard hofstadter"],
     "side_participant": [], "reply_to": 1},
    {"line_idx": 2, "speaker": "stephanie barnett",
     "addressee": ["sheldon cooper"],
     "side_participant": ["leonard hofstadter"], "reply_to": 1},
]).encode("utf-8")


class TestAnnotationJson:
    def test_parses_example(self):
        records = parse_annotation_json(ANNOTATION)
        assert len(records) == 2
        second = records[1]
        assert second.speaker.canonical_name == "stephanie barnett"
        assert len(second.addressees) == 1
        assert len(second.side_participants) == 1
        assert second.reply_to == 1
        assert not second.extra_diegetic and not second.monologue

    def test_self_link_marks_thread_start(self):
        records = parse_annotation_json(ANNOTATION)
        assert records[0].is_thread_start
        assert not records[1].is_thread_start

    def test_role_overlap_rejected(self):
        bad = json.dumps([{
            "line_idx": 1, "speaker": "b", "addressee": ["a"],
            "side_participant": ["a"], "reply_to": 1,
        }]).encode()
        with pytest.raises(ValidationError, match="ROLE_OVERLAP"):
            parse_annotation_json(bad)

    def test_forward_link_rejected(self):
        bad = json.dumps([{
            "line_idx": 1, "speaker": "a", "addressee": [],
            "side_participant": [], "reply_to": 3,
        }]).encode()
        with pytest.raises(ValidationError, match="FORWARD_LINK"):
            parse_annotation_json(bad)

    def test_every_violation_listed(self):
        bad = json.dumps([
            {"line_idx": 1, "speaker": "a", "addressee": ["b"],
             "side_participant": ["b"], "reply_to": 2},
            {"line_idx": 1, "speaker": "a", "addressee": [],
             "side_participant": [], "reply_to": 1},
        ]).encode()
        with pytest.raises(ValidationError) as err:
            parse_annotation_json(bad)
        codes = {d.code for d in err.value.diagnostics}
        assert codes == {"ROLE_OVERLAP", "FORWARD_LINK", "DUPLICATE_LINE"}

    def test_unknown_keys_only_rejected_in_strict(self):
        payload = json.dumps([{
            "line_idx": 1, "speaker": "a", "addressee": [],
            "side_participant": [], "reply_to": 1, "confidence": 0.9,
        }]).encode()
        assert len(parse_annotation_json(payload)) == 1
        with pytest.raises(ValidationError, match="UNKNOWN_KEY"):
            parse_annotation_json(payload, strict=True)

    def test_lenient_read_keeps_records_despite_violations(self, tmp_path):
        bad = json.dumps([{
            "line_idx": 2, "speaker": "a", "addressee": [],
            "side_participant": [], "reply_to": 5,
        }]).encode()
        records, diags = _read_records(json.loads(bad), False, "c")
        assert len(records) == 1 and diags == []
        path = tmp_path / "c.annotation.json"
        path.write_bytes(bad)
        assert [d.code for d in validate_paths([path])] == [FORWARD_LINK]

    def test_round_trip_identity(self):
        records = table4_records()
        again = parse_annotation_json(serialize_annotation_json(records))
        assert again == records

    def test_round_trip_preserves_flags(self):
        records = [record(1, "a", monologue=True),
                   record(2, "crowd", reply_to=1, extra_diegetic=True)]
        again = parse_annotation_json(serialize_annotation_json(records))
        assert again == records


# conftest names, the reserved kinds and off-screen names, as participants
ROUND_TRIP_PARTICIPANTS = [normalize_name(n) for n in (
    NAMES + ["unknown", "crowd"] + [f"{n}_OS" for n in NAMES[:3]])]


@st.composite
def _valid_records(draw):
    """Records that pass every invariant: unique lines in order, links back to
    an annotated line, disjoint role sets without the speaker."""
    lines = sorted(draw(st.sets(st.integers(1, 10_000), min_size=1, max_size=12)))
    records = []
    for k, line in enumerate(lines):
        speaker = draw(st.sampled_from(ROUND_TRIP_PARTICIPANTS))
        others = [p for p in ROUND_TRIP_PARTICIPANTS if p != speaker]
        roles = draw(st.lists(st.sampled_from(others), unique=True, max_size=5))
        split = draw(st.integers(0, len(roles)))
        records.append(StructureRecord(
            line_idx=line, speaker=speaker, addressees=frozenset(roles[:split]),
            side_participants=frozenset(roles[split:]),
            reply_to=draw(st.sampled_from(lines[:k + 1])),
            extra_diegetic=draw(st.booleans()), monologue=draw(st.booleans())))
    return records


class TestRoundTripProperty:
    @settings(deadline=None)
    @given(records=_valid_records(), strict=st.booleans())
    def test_serialize_then_parse_is_identity(self, records, strict):
        blob = serialize_annotation_json(records)
        parsed = parse_annotation_json(blob, strict=strict)
        assert parsed == records
        assert serialize_annotation_json(parsed) == blob


# any text: quotes, backslashes, control and non-BMP characters included
_ANY_PARTICIPANTS = st.builds(Participant, st.text(max_size=6),
                              st.sampled_from([REGULAR, OFF_SCREEN, CROWD, UNKNOWN]))
_ANY_RECORDS = st.lists(st.builds(
    StructureRecord, st.integers(), _ANY_PARTICIPANTS,
    st.frozensets(_ANY_PARTICIPANTS, max_size=4), st.frozensets(_ANY_PARTICIPANTS, max_size=4),
    st.integers(), st.booleans(), st.booleans()), max_size=6)


def _json_dumps_bytes(records) -> bytes:
    """The annotation bytes as `json.dumps` lays them out."""
    entries = []
    for r in records:
        entry = {"line_idx": r.line_idx, "speaker": r.speaker.token,
                 "addressee": sorted(p.token for p in r.addressees),
                 "side_participant": sorted(p.token for p in r.side_participants),
                 "reply_to": r.reply_to}
        entry.update({flag: True for flag in ("extra_diegetic", "monologue")
                      if getattr(r, flag)})
        entries.append(entry)
    return (json.dumps(entries, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


class TestSerializedBytes:
    @settings(deadline=None)
    @given(records=_ANY_RECORDS)
    @example(records=[])
    @example(records=[StructureRecord(
        1, Participant('a"b\\c\x00\x1f\u2028\U0001f600', OFF_SCREEN),
        frozenset({Participant('"'), Participant("#"), Participant("\\")}),
        frozenset(), 1, True, True)])
    def test_bytes_are_json_dumps_with_indent_2(self, records):
        assert serialize_annotation_json(records) == _json_dumps_bytes(records)


class TestValidateClip:
    def _clip(self, records, utterances=None):
        if utterances is None:
            utterances = tuple(
                Utterance("c", r.line_idx, float(r.line_idx),
                          float(r.line_idx) + 0.9, "t")
                for r in records
            )
        return Clip(clip_id="c", utterances=utterances, gold=tuple(records))

    def test_valid_clip_is_clean(self):
        records = [record(1, "a", ["b"]), record(2, "b", ["a"], reply_to=1),
                   record(3, "a", reply_to=2), record(4, "b", reply_to=4)]
        assert validate_clip(self._clip(records)) == []

    def test_forward_link_diagnostic(self):
        records = [record(1, "a"), record(2, "a", reply_to=1),
                   record(3, "a", reply_to=5), record(4, "a", reply_to=4)]
        diags = validate_clip(self._clip(records))
        assert [(d.code, d.line_idx) for d in diags] == [(FORWARD_LINK, 3)]

    def test_interval_overlap_is_warning_not_error(self):
        utterances = (
            Utterance("c", 1, 0.0, 1.0, "x"),
            Utterance("c", 2, 1.2, 3.7, "y"),
            Utterance("c", 3, 3.6, 4.2, "z"),
        )
        records = [record(1, "a"), record(2, "a", reply_to=1),
                   record(3, "a", reply_to=2)]
        diags = validate_clip(self._clip(records, utterances))
        assert len(diags) == 1
        assert diags[0].code == OVERLAP
        assert diags[0].severity == WARNING
        assert diags[0].line_idx == 2

    def test_gold_must_cover_lines_exactly(self):
        records = [record(1, "a"), record(3, "a", reply_to=1)]
        utterances = (Utterance("c", 1, 0.0, 1.0, "x"),
                      Utterance("c", 2, 1.0, 2.0, "y"))
        diags = validate_clip(self._clip(records, utterances))
        assert any(d.code == GOLD_COVERAGE for d in diags)

    def test_names_must_resolve_to_cast_or_special(self):
        clip = Clip(
            clip_id="c",
            cast=(normalize_name("a"),),
            utterances=(Utterance("c", 1, 0.0, 1.0, "x"),),
            gold=(record(1, "a", ["intruder"]),),
        )
        diags = validate_clip(clip)
        assert [d.code for d in diags] == ["UNRESOLVED_NAME"]

    def test_specials_resolve_without_cast_entry(self):
        clip = Clip(
            clip_id="c",
            cast=(normalize_name("a"),),
            utterances=(Utterance("c", 1, 0.0, 1.0, "x"),),
            gold=(record(1, "a", ["crowd", "barney_OS"]),),
        )
        codes = {d.code for d in validate_clip(clip)}
        assert "UNRESOLVED_NAME" not in codes

    def test_gold_line_multiset_property(self):
        # a validated clip has gold line indices exactly {1..n}
        records = [record(i, "a", reply_to=max(1, i - 1)) for i in range(1, 6)]
        clip = self._clip(records)
        assert validate_clip(clip) == []
        assert sorted(r.line_idx for r in clip.gold) == list(range(1, 6))


class TestMetadataFiles:
    def test_cast_json(self):
        blob = json.dumps({"clip_id": "c1", "show_id": "bbt",
                           "cast": ["Sheldon Cooper", "Penny"]}).encode()
        clip_id, show_id, cast = parse_cast_json(blob)
        assert (clip_id, show_id) == ("c1", "bbt")
        assert [p.canonical_name for p in cast] == ["sheldon cooper", "penny"]

    @pytest.mark.parametrize("cast, message", [
        ([5], "cast entry 0 must be a string, got int"),
        (["Penny", None], "cast entry 1 must be a string, got NoneType"),
        ("Penny", "'cast' array"),
        ({"Penny": 1}, "'cast' array"),
    ])
    def test_cast_json_rejects_non_string_entries(self, cast, message):
        blob = json.dumps({"clip_id": "c1", "show_id": "bbt", "cast": cast}).encode()
        with pytest.raises(ParseError, match=message):
            parse_cast_json(blob)

    @pytest.mark.parametrize("key", ["clip_id", "show_id"])
    @pytest.mark.parametrize("value", [5, ["x"], None])
    def test_cast_json_rejects_non_string_ids(self, key, value):
        payload = {"clip_id": "c1", "show_id": "bbt", "cast": ["Penny"], key: value}
        with pytest.raises(ParseError, match=f"cast {key} must be a string, got "
                                             f"{type(value).__name__}"):
            parse_cast_json(json.dumps(payload).encode())

    def test_cast_json_ids_default_to_empty(self):
        assert parse_cast_json(b'{"cast": []}') == ("", "", [])

    def test_gender_map_and_lookup(self):
        blob = (
            "canonical_name\tgender\tshow_id\n"
            "penny\tfemale\tbbt\n"
            "sheldon cooper\tmale\tbbt\n"
            "narrator\tunspecified\tbbt\n"
            "generic guy\tmale\t\n"
        ).encode()
        table = parse_gender_map_tsv(blob)
        assert lookup_gender(table, "bbt", normalize_name("Penny")) == "female"
        assert lookup_gender(table, "bbt", normalize_name("narrator")) is None
        assert lookup_gender(table, "other", normalize_name("generic guy")) == "male"
        assert lookup_gender(table, "bbt", normalize_name("crowd")) is None

    @pytest.mark.parametrize("rows, message", [
        (["penny\tfemale\tbbt", "penny\tmale\tbbt"],
         "gender map rows 1 and 2 both list 'penny' for show 'bbt'"),
        (["Penny\tfemale\t", "sheldon\tmale\t", " penny \tfemale\t"],
         "gender map rows 1 and 3 both list 'penny' for show ''"),
    ])
    def test_gender_map_rejects_repeated_keys(self, rows, message):
        blob = "\n".join(["canonical_name\tgender\tshow_id", *rows, ""]).encode()
        with pytest.raises(ParseError, match=message):
            parse_gender_map_tsv(blob)

    def test_gender_map_name_may_repeat_across_shows(self):
        blob = (b"canonical_name\tgender\tshow_id\n"
                b"penny\tfemale\tbbt\npenny\tmale\tother\npenny\tfemale\t\n")
        assert parse_gender_map_tsv(blob) == {
            ("bbt", "penny"): "female", ("other", "penny"): "male", ("", "penny"): "female"}

    def test_gender_map_rejects_bad_gender(self):
        blob = b"canonical_name\tgender\tshow_id\npenny\tf\tbbt\n"
        with pytest.raises(ParseError, match="gender"):
            parse_gender_map_tsv(blob)


# (parser, the name its errors use, header, one well-formed row)
TSV_FORMATS = {
    "transcript": (parse_transcript_tsv, "transcript",
                   "start\tend\tspeaker\ttext", "0.0\t1.0\tada\thi"),
    "gender map": (parse_gender_map_tsv, "gender map",
                   "canonical_name\tgender\tshow_id", "ada\tfemale\tshowx"),
    "word tokens": (parse_word_tokens_tsv, "word token",
                    "line_idx\tword\tstart\tend", "1\thi\t0.0\t0.4"),
}


# The per-row TSV rules the column reader must keep: a line at a time, each
# cell through `_number`, the first failing check raising.
def _reference_rows(data, what, header):
    try:
        lines = data.decode("utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None
    found = tuple(lines[0].rstrip("\r").split("\t"))
    if found != header:
        raise ParseError(f"bad {what} header {found!r}, expected {header!r}")
    for row, line in enumerate(lines[1:], start=1):
        line = line.rstrip("\r")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ParseError(f"{what} row {row}: expected {len(header)} columns, "
                             f"found {len(cells)}")
        yield row, cells


def _reference_transcript(data):
    utterances = []
    for row, cells in _reference_rows(data, "transcript", ("start", "end", "speaker", "text")):
        times = []
        for cell, col in zip(cells, ("start", "end")):
            try:
                value = _number(cell)
            except ValueError:
                raise ParseError(f"row {row}: non-numeric {col} timestamp {cell!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"row {row}: non-finite {col} timestamp {cell!r}")
            times.append(round(value, 3))
        if times[0] > times[1]:
            raise ParseError(f"row {row}: start {times[0]} is after end {times[1]}")
        utterances.append(Utterance("", len(utterances) + 1, *times, cells[3],
                                    cells[2] or None))
    return utterances


def _reference_word_tokens(data):
    tokens = []
    for row, cells in _reference_rows(data, "word token", ("line_idx", "word", "start", "end")):
        try:
            line_idx, start, end = _number(cells[0], int), _number(cells[2]), _number(cells[3])
        except ValueError:
            raise ParseError(f"word token row {row}: bad numeric field") from None
        if line_idx < 1:
            raise ParseError(f"word token row {row}: line_idx must be >= 1, got {line_idx}")
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ParseError(f"word token row {row}: times must be finite")
        if start > end:
            raise ParseError(f"word token row {row}: start {start} is after end {end}")
        tokens.append((line_idx, cells[1], start, end))
    return sorted(tokens, key=lambda t: (t[0], t[2], t[3]))


def _reference_gender_map(data):
    table, rows = {}, {}
    for row, cells in _reference_rows(data, "gender map", ("canonical_name", "gender", "show_id")):
        try:
            name = normalize_name(cells[0]).canonical_name
        except CorpusError as exc:
            raise ParseError(f"gender map row {row}: {exc}") from None
        gender = cells[1].strip().lower()
        if gender not in ("female", "male", "unspecified"):
            raise ParseError(f"gender map row {row}: gender must be one of "
                             f"('female', 'male', 'unspecified'), got {cells[1]!r}")
        key = (cells[2].strip(), name)
        if key in rows:
            raise ParseError(f"gender map rows {rows[key]} and {row} both list "
                             f"{name!r} for show {key[0]!r}")
        rows[key] = row
        table[key] = gender
    return table


_REFERENCES = {"transcript": _reference_transcript, "word tokens": _reference_word_tokens,
               "gender map": _reference_gender_map}


def _outcome(parse, blob):
    """What `parse(blob)` returns, or the message of the ParseError it raises."""
    try:
        return "returns", parse(blob)
    except ParseError as exc:
        return "raises", str(exc)


_TEXT_CELLS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                      max_size=6)
_SPELLINGS = [lambda ms: f"{ms / 1000:.3f}", lambda ms: f"{ms / 1000}",
              lambda ms: f"{ms / 1000:E}", lambda ms: f"+{ms / 1000:.4f}",
              lambda ms: f"{ms / 1000:.3f}".lstrip("0") or "0", lambda ms: f"{ms // 1000}.",
              lambda ms: f"{ms / 1000:.3f}5", lambda ms: f"{ms / 1000:.3f}51"]
_TIMES = st.tuples(st.integers(0, 10 ** 6), st.integers(0, 5000),
                   st.sampled_from(_SPELLINGS)).map(
    lambda t: (t[2](t[0]), t[2](t[0] + t[1])))
_GENDER_NAMES = ["ada", "bo", "max", "zoe", "penny", "the narrator"]


@st.composite
def _valid_tsv_rows(draw, fmt):
    """Cells of well-formed data rows of one TSV format."""
    if fmt == "transcript":
        return draw(st.lists(st.tuples(_TIMES, _TEXT_CELLS, _TEXT_CELLS).map(
            lambda t: [*t[0], t[1], t[2]]), max_size=8))
    if fmt == "word tokens":
        line = st.integers(1, 40).map(str) | st.sampled_from(["+2", "007"])
        return draw(st.lists(st.tuples(line, _TEXT_CELLS, _TIMES).map(
            lambda t: [t[0], t[1], *t[2]]), max_size=8))
    keys = draw(st.lists(st.tuples(st.sampled_from(_GENDER_NAMES),
                                   st.sampled_from(["", "bbt", "friends"])),
                         unique=True, max_size=8))
    decorate = st.sampled_from([str, str.upper, lambda n: f" {n}  ", str.title])
    return [[draw(decorate)(name), draw(decorate)(draw(st.sampled_from(GENDERS))), show]
            for name, show in keys]


_NOT_DECIMALS = ["1_0", " 1.0", "1.0 ", "١", "１.5", "0x1", "1e", "+", ".",
                 "", " ", "abc", "1.2.3", "1,5"]
_NOT_FINITE = ["nan", "-inf", "Infinity", "NaN", "1e400"]
# (format, column, cells that are a fault there); "order" swaps start and end
_FAULTS = {
    "transcript": [(0, _NOT_DECIMALS + _NOT_FINITE), (1, _NOT_DECIMALS + _NOT_FINITE),
                   ("order", None)],
    "word tokens": [(0, _NOT_DECIMALS + ["1.0", "1e3", "9" * 4301, "0", "-3", "-0"]),
                    (2, _NOT_DECIMALS + _NOT_FINITE), (3, _NOT_DECIMALS + _NOT_FINITE),
                    ("order", None)],
    "gender map": [(0, [" ", "_OS", "x_os"]), (1, ["f", "", "males"]), ("repeat", None)],
}


@st.composite
def _single_fault_tsv(draw, fmt):
    """A TSV file of one format with at most one fault, in one row: a cell
    that breaks its column's rule, a row with a cell too few or too many,
    swapped times or a repeated gender map key. Blank lines, CRLF endings and
    a BOM may appear too."""
    rows = draw(_valid_tsv_rows(fmt))
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        column, cells = draw(st.sampled_from(_FAULTS[fmt] + [("width", None)]))
        row = rows[k]
        if column == "width":
            rows[k] = row[:-1] if draw(st.booleans()) else [*row, ""]
        elif column == "order":
            start, end = (0, 1) if fmt == "transcript" else (2, 3)
            if float(row[start]) < float(row[end]) - 0.002:
                row[start], row[end] = row[end], row[start]
        elif column == "repeat":
            if k:
                row[0], row[2] = f" {rows[k - 1][0].upper()}", rows[k - 1][2]
        else:
            row[column] = draw(st.sampled_from(cells))
    lines = ["\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "\r"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "﻿"]))
    return (bom + end.join([TSV_FORMATS[fmt][2], *lines, ""])).encode("utf-8")


class TestTsvRows:
    """The three TSV formats share one reader and so one set of rules."""

    @pytest.fixture(params=sorted(TSV_FORMATS))
    def tsv(self, request):
        return TSV_FORMATS[request.param]

    def _raises(self, tsv, blob, message):
        parse, _, _, _ = tsv
        with pytest.raises(ParseError, match=message):
            parse(blob)

    def test_a_leading_byte_order_mark_is_dropped(self, tsv):
        parse, _, header, good = tsv
        blob = f"{header}\n{good}\n".encode()
        assert parse(b"\xef\xbb\xbf" + blob) == parse(blob)

    def test_invalid_utf8(self, tsv):
        _, what, header, good = tsv
        self._raises(tsv, f"{header}\n{good}\n".encode() + b"\xff\n",
                     f"^{what} is not valid UTF-8")

    @pytest.mark.parametrize("blob", [b"", b"\n", b"x\ty\n"])
    def test_empty_file_and_wrong_header(self, tsv, blob):
        self._raises(tsv, blob, f"^bad {tsv[1]} header")

    def test_blank_line_before_the_header(self, tsv):
        _, what, header, good = tsv
        self._raises(tsv, f"\n{header}\n{good}\n".encode(), f"^bad {what} header")

    def test_wrong_column_count(self, tsv):
        _, what, header, good = tsv
        n = header.count("\t") + 1
        self._raises(tsv, f"{header}\n{good}\na\tb\n".encode(),
                     f"^{what} row 2: expected {n} columns, found 2$")

    def test_blank_lines_are_skipped_but_counted(self, tsv):
        parse, what, header, good = tsv
        assert parse(f"{header}\n\n{good}\r\n\r\n\n".encode())
        self._raises(tsv, f"{header}\n{good}\n\r\n\na\n".encode(),
                     f"^{what} row 4: expected")

    def test_whitespace_only_line_is_a_row(self, tsv):
        _, what, header, good = tsv
        self._raises(tsv, f"{header}\n{good}\n \t \n".encode(),
                     f"^{what} row 2: expected")
        self._raises(tsv, f"{header}\n \n{good}\n".encode(),
                     f"^{what} row 1: expected")

    def test_transcript_lines_stay_numbered_after_a_blank_line(self):
        utterances = parse_transcript_tsv(
            b"start\tend\tspeaker\ttext\n0.0\t1.0\tada\thi\n\n1.0\t2.0\tmax\tyo\n")
        assert [(u.line_idx, u.text) for u in utterances] == [(1, "hi"), (2, "yo")]
        with pytest.raises(ParseError, match="^row 3: non-numeric start timestamp ''"):
            parse_transcript_tsv(b"start\tend\tspeaker\ttext\n0.0\t1.0\tada\thi\n"
                                 b"\n\t\t\t\n")

    @pytest.mark.parametrize("fmt", sorted(TSV_FORMATS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_single_fault_files_read_as_the_per_row_reference(self, fmt, data):
        blob = data.draw(_single_fault_tsv(fmt))
        assert _outcome(TSV_FORMATS[fmt][0], blob) == _outcome(_REFERENCES[fmt], blob)

    @pytest.mark.parametrize("fmt", sorted(TSV_FORMATS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_any_file_reads_as_the_reference_or_both_raise(self, fmt, data):
        """Several faults may be named differently, but never let through."""
        cells = st.sampled_from(_NOT_DECIMALS + _NOT_FINITE + [
            "0", "1", "-1", "0.5", "2.25", "ada", "_OS", "female", "bbt", "9" * 4301])
        rows = data.draw(st.lists(st.lists(cells, min_size=2, max_size=5), max_size=5))
        blob = "\n".join([TSV_FORMATS[fmt][2], *map("\t".join, rows)]).encode()
        found, expected = _outcome(TSV_FORMATS[fmt][0], blob), _outcome(_REFERENCES[fmt], blob)
        assert found[0] == expected[0]
        if found[0] == "returns":
            assert found == expected

    def test_line_idx_past_the_int_digit_limit(self):
        cell = "9" * 4301
        blob = f"line_idx\tword\tstart\tend\n1\ta\t0\t1\n{cell}\tb\t0\t1\n".encode()
        try:
            int(cell)
        except ValueError:  # Python 3.11 and later refuse it
            with pytest.raises(ParseError, match="^word token row 2: bad numeric field$"):
                parse_word_tokens_tsv(blob)
        else:
            assert parse_word_tokens_tsv(blob)[1].line_idx == int(cell)

    @pytest.mark.parametrize("cell, transcript, words", [
        ("nan", "non-finite start timestamp 'nan'", "times must be finite"),
        ("-inf", "non-finite start timestamp '-inf'", "times must be finite"),
        ("1_0", "non-numeric start timestamp '1_0'", "bad numeric field"),
        ("\u0663", "non-numeric start timestamp '\u0663'", "bad numeric field"),
        (" ", "non-numeric start timestamp ' '", "bad numeric field"),
    ])
    def test_cell_that_is_not_a_finite_ascii_decimal(self, cell, transcript, words):
        with pytest.raises(ParseError, match=f"^{re.escape(f'row 2: {transcript}')}$"):
            parse_transcript_tsv(
                f"start\tend\tspeaker\ttext\n0\t1\tx\thi\n{cell}\t2.0\tx\thi\n".encode())
        with pytest.raises(ParseError, match=f"^word token row 2: {words}$"):
            parse_word_tokens_tsv(
                f"line_idx\tword\tstart\tend\n1\ta\t0\t1\n1\tb\t{cell}\t2.0\n".encode())

    def test_crlf_bom_and_blank_lines_keep_the_row_numbers(self, tsv):
        parse, what, header, good = tsv
        plain = f"{header}\n{good}\n".encode()
        assert parse(f"\ufeff{header}\r\n\r\n{good}\r\n\r\n".encode()) == parse(plain)
        self._raises(tsv, f"\ufeff{header}\r\n{good}\r\n\r\nx\r\n".encode(),
                     f"^{what} row 3: expected")

    def test_several_faults_are_named_check_by_check(self):
        """Width first, then the numeric columns in header order, then finite
        times, then start <= end, then (word tokens) line_idx >= 1: each check
        names its first bad row, so removing the named row names the next."""
        transcript = ["0.9\t0.1\tx\thi", "0\tinf\tx\thi", "nan\t1\tx\thi",
                      "0\tx\tx\thi", "x\t0\tx\thi", "0\t1\tx"]
        named = ["row 6: expected 4 columns, found 3", "row 5: non-numeric start",
                 "row 4: non-numeric end", "row 3: non-finite start",
                 "row 2: non-finite end", "row 1: start 0.9 is after end 0.1"]
        for n, message in zip(range(len(transcript), 0, -1), named):
            blob = "\n".join(["start\tend\tspeaker\ttext", *transcript[:n]]).encode()
            with pytest.raises(ParseError, match=f"^(transcript )?{message}"):
                parse_transcript_tsv(blob)
        words = ["0\ta\t0.5\t0.7", "1\tb\t0.9\t0.1", "1\tc\tnan\t1.0",
                 "1\td\t0.1\tx", "1\te\t0.1"]
        named = ["row 5: expected 4 columns, found 3", "row 4: bad numeric field",
                 "row 3: times must be finite", "row 2: start 0.9 is after end 0.1",
                 "row 1: line_idx must be >= 1, got 0"]
        for n, message in zip(range(len(words), 0, -1), named):
            blob = "\n".join(["line_idx\tword\tstart\tend", *words[:n]]).encode()
            with pytest.raises(ParseError, match=f"^word token {message}$"):
                parse_word_tokens_tsv(blob)


class TestBadNamesInFiles:
    """A name that normalizes to nothing is a ParseError naming its entry."""

    @pytest.mark.parametrize("name, message", [
        (" ", "participant name is empty after trimming: ' '"),
        ("_OS", "off-screen marker with empty base name: '_OS'"),
    ])
    def test_cast_gender_and_face_files(self, name, message):
        cast = json.dumps({"clip_id": "c1", "cast": ["ada", name]}).encode()
        with pytest.raises(ParseError, match=f"^cast entry 1: {message}$"):
            parse_cast_json(cast)
        genders = f"canonical_name\tgender\tshow_id\nada\tfemale\t\n{name}\tmale\t\n"
        with pytest.raises(ParseError, match=f"^gender map row 2: {message}$"):
            parse_gender_map_tsv(genders.encode())
        faces = json.dumps({"faces": [{"name": "ada", "spans": []},
                                      {"name": name, "spans": []}]}).encode()
        with pytest.raises(ParseError, match=f"^face entry 1: {message}$"):
            parse_face_tracks_json(faces)


def one_entry(**fields):
    entry = {"line_idx": 1, "speaker": "a", "addressee": ["b"],
             "side_participant": [], "reply_to": 1}
    entry.update(fields)
    return json.dumps([entry]).encode()


class TestFieldTypes:
    @pytest.mark.parametrize("fields, key", [
        ({"addressee": "bob"}, "addressee"),
        ({"side_participant": "bob"}, "side_participant"),
        ({"addressee": ["bob", 3]}, "addressee"),
        ({"extra_diegetic": "false"}, "extra_diegetic"),
        ({"monologue": "false"}, "monologue"),
        ({"monologue": 0}, "monologue"),
        ({"speaker": 7}, "speaker"),
    ])
    def test_mistyped_field_is_bad_type(self, fields, key):
        records, diags = _read_records(json.loads(one_entry(**fields)), False, "")
        assert records == []
        assert [d.code for d in diags] == ["BAD_TYPE"]
        assert key in diags[0].message
        with pytest.raises(ValidationError, match="BAD_TYPE"):
            parse_annotation_json(one_entry(**fields))

    def test_string_role_set_is_not_split_into_letters(self):
        with pytest.raises(ValidationError, match="addressee must be an array"):
            parse_annotation_json(one_entry(addressee="bob"))

    def test_boolean_flags_are_kept(self):
        (r,) = parse_annotation_json(one_entry(extra_diegetic=True, monologue=False))
        assert r.extra_diegetic is True and r.monologue is False


class TestDanglingReplyTo:
    # line 3 replies to line 2, which the annotation does not have
    RECORDS = [record(1, "a"), record(3, "a", reply_to=2)]
    BLOB = serialize_annotation_json(RECORDS)

    def test_parse_rejects(self):
        with pytest.raises(ValidationError, match="BAD_REPLY_TO"):
            parse_annotation_json(self.BLOB)

    def test_validate_paths_reports_once(self, tmp_path):
        records, _ = _read_records(json.loads(self.BLOB), False, "c")
        assert len(records) == 2
        path = tmp_path / "c.annotation.json"
        path.write_bytes(self.BLOB)
        diags = validate_paths([path])
        assert [(d.code, d.line_idx) for d in diags] == [("BAD_REPLY_TO", 3)]

    def test_validate_clip_reports_once(self):
        diags = validate_clip(Clip(clip_id="c", gold=tuple(self.RECORDS)))
        assert [(d.code, d.line_idx) for d in diags] == [("BAD_REPLY_TO", 3)]


class TestNameNormalizationPerParse:
    def test_each_raw_name_is_normalized_once(self, monkeypatch):
        from convstruct import corpus

        calls = []

        def counting(raw):
            calls.append(raw)
            return normalize_name(raw)

        monkeypatch.setattr(corpus, "normalize_name", counting)
        entries = [{"line_idx": i, "speaker": ["Ada", "max"][i % 2],
                    "addressee": [["max", "Ada"][i % 2]],
                    "side_participant": ["Cleo_OS"] if i % 3 == 0 else [],
                    "reply_to": max(1, i - 1)} for i in range(1, 31)]
        records = corpus.parse_annotation_json(json.dumps(entries).encode("utf-8"))
        assert len(records) == 30
        assert sorted(calls) == ["Ada", "Cleo_OS", "max"]
        assert records[2].side_participants == {normalize_name("cleo_os")}

    def test_bad_name_is_reported_for_every_line(self):
        entries = [{"line_idx": i, "speaker": "  ", "addressee": [],
                    "side_participant": [], "reply_to": 1} for i in (1, 2)]
        _, diags = _read_records(entries, False, "")
        assert [(d.code, d.line_idx) for d in diags] == [("BAD_NAME", 1), ("BAD_NAME", 2)]


def _oracle_clip_files(root: Path) -> list[ClipFiles]:
    """The directory indexer this module used before: one sorted,
    stat-checked pass per clip field."""

    def strip(name, suffixes):
        for suffix in suffixes:
            if name.endswith(suffix):
                return name[: -len(suffix)]
        return None

    def index(suffixes, skip=()):
        found = {}
        for path in sorted(root.iterdir()):
            if not path.is_file() or any(path.name.endswith(s) for s in skip):
                continue
            stem = strip(path.name, suffixes)
            if stem is not None and stem not in found:
                found[stem] = path
        return found

    if root.is_file():
        clip_id = strip(root.name, (".annotation.json", ".json")) or root.stem
        return [ClipFiles(clip_id=clip_id, annotation=root)]
    annotations = index((".annotation.json", ".json"), skip=(".cast.json", ".faces.json"))
    transcripts = index((".transcript.tsv", ".tsv"), skip=(".words.tsv",))
    casts = index((".cast.json",))
    return [ClipFiles(clip_id, annotations.get(clip_id), transcripts.get(clip_id),
                      casts.get(clip_id))
            for clip_id in sorted(set(annotations) | set(transcripts))]


_STEMS = ("x", "y", "x.annotation", "x.transcript", "x.cast", "a.b", "")
_SUFFIXES = (".annotation.json", ".json", ".transcript.tsv", ".tsv", ".cast.json",
             ".faces.json", ".words.tsv", ".txt", "")


class TestIterClipFiles:
    """One pass over a directory pairs the same files as one pass per field."""

    @pytest.mark.parametrize("name", [
        "x.annotation.json", "x.json", "x.cast.json", "x.faces.json", "x.tsv",
        ".json", ".annotation.json", "x"])
    def test_single_file_is_one_annotation(self, tmp_path, name):
        (tmp_path / name).write_text("")
        assert iter_clip_files(tmp_path / name) == _oracle_clip_files(tmp_path / name)

    @settings(max_examples=150, deadline=None)
    @given(entries=st.lists(st.tuples(st.sampled_from(_STEMS),
                                      st.sampled_from(_SUFFIXES), st.booleans()),
                            max_size=12))
    @example(entries=[("x", ".annotation.json", False), ("x", ".json", False)])
    @example(entries=[("x", ".transcript.tsv", False), ("x", ".tsv", False)])
    @example(entries=[("x", ".cast.json", False), ("x", ".faces.json", False),
                      ("x", ".words.tsv", False), ("y", ".words.tsv", False),
                      ("y", ".tsv", False)])
    @example(entries=[("x", ".annotation.json", True), ("x", ".json", False),
                      ("y", ".tsv", True)])
    def test_random_directories_match_oracle(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for stem, suffix, is_dir in entries:
                name = f"{stem}{suffix}"
                path = root / name
                if not name or path.exists():
                    continue
                if is_dir:
                    path.mkdir()
                else:
                    path.write_text("")
            assert iter_clip_files(root) == _oracle_clip_files(root)



def _eager_corpus(path, strict):
    """Every clip parsed up front, each clip's annotation, then transcript,
    then cast, in clip id order: the oracle for `iter_corpus`."""
    clips = {}
    for files in iter_clip_files(path):
        gold = None
        if files.annotation is not None:
            gold = tuple(parse_annotation_json(files.annotation.read_bytes(),
                                               strict=strict, clip_id=files.clip_id))
        lines = ()
        if files.transcript is not None:
            lines = tuple(parse_transcript_tsv(files.transcript.read_bytes(),
                                               clip_id=files.clip_id))
        show_id, cast = "", ()
        if files.cast is not None:
            _, show_id, cast = parse_cast_json(files.cast.read_bytes())
        clips[files.clip_id] = Clip(files.clip_id, show_id, tuple(cast), lines, gold)
    return clips


class TestIterCorpus:
    """`iter_corpus` yields the clips `load_corpus` returns, one at a time in
    clip id order, and meets a broken file where the eager load does."""

    ENTRIES = [{"line_idx": 1, "speaker": "sheldon cooper", "addressee": [],
                "side_participant": [], "reply_to": 1},
               {"line_idx": 2, "speaker": "stephanie barnett",
                "addressee": ["sheldon cooper"], "side_participant": [], "reply_to": 1},
               {"line_idx": 3, "speaker": "leonard hofstadter", "addressee": [],
                "side_participant": ["sheldon cooper"], "reply_to": 3}]
    # a broken file of the middle clip: (suffix, bytes, fails only when strict)
    FAULTS = {
        "annotation not JSON": (".annotation.json", b"[{", False),
        "annotation unknown key": (
            ".annotation.json",
            json.dumps([dict(e, confidence=0.5, note="") for e in ENTRIES]).encode(),
            True),
        "transcript cell": (".transcript.tsv", TSV.replace(b"1.171", b"later"), False),
        "transcript UTF-8": (".transcript.tsv", b"\xff\xfe not a transcript", False),
        "cast entry": (".cast.json", b'{"show_id": "s", "cast": ["ok", 7]}', False),
    }

    def _corpus(self, root, fault=None):
        root.mkdir()
        for k, clip_id in enumerate(("c1", "c2", "c3")):
            (root / f"{clip_id}.annotation.json").write_text(json.dumps(self.ENTRIES))
            (root / f"{clip_id}.transcript.tsv").write_bytes(TSV)
            (root / f"{clip_id}.cast.json").write_text(json.dumps(
                {"clip_id": clip_id, "show_id": f"show{k % 2}",
                 "cast": ["sheldon cooper", "stephanie barnett", "leonard hofstadter"]}))
        (root / "c4.transcript.tsv").write_bytes(TSV)  # a clip with no annotation
        if fault is not None:
            suffix, data, _ = self.FAULTS[fault]
            (root / f"c2{suffix}").write_bytes(data)
        return root

    @pytest.mark.parametrize("strict", [False, True])
    def test_load_corpus_is_the_stream_in_clip_order(self, tmp_path, strict):
        root = self._corpus(tmp_path / "corpus")
        streamed = list(iter_corpus(root, strict=strict))
        assert [c.clip_id for c in streamed] == ["c1", "c2", "c3", "c4"]
        assert load_corpus(root, strict=strict) == {c.clip_id: c for c in streamed}
        assert load_corpus(root, strict=strict) == _eager_corpus(root, strict)
        assert list(load_corpus(root, strict=strict)) == ["c1", "c2", "c3", "c4"]
        assert [c.clip_id for c in iter_corpus(root, utterances=False)] == [
            "c1", "c2", "c3", "c4"]

    def test_single_file_streams_one_clip(self, tmp_path):
        path = tmp_path / "x.annotation.json"
        path.write_text(json.dumps(self.ENTRIES))
        assert list(iter_corpus(path)) == list(load_corpus(path).values())
        assert [c.clip_id for c in iter_corpus(path)] == ["x"]

    def test_missing_path_raises_at_the_call(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such corpus path"):
            iter_corpus(tmp_path / "missing")

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_broken_middle_clip_raises_as_the_eager_load(self, tmp_path, fault, strict):
        root = self._corpus(tmp_path / "corpus", fault)
        if self.FAULTS[fault][2] and not strict:
            assert load_corpus(root) == _eager_corpus(root, strict)
            return
        with pytest.raises(CorpusError) as eager:
            _eager_corpus(root, strict)
        with pytest.raises(CorpusError) as loaded:
            load_corpus(root, strict=strict)
        stream = iter_corpus(root, strict=strict)
        # the clip before the broken one arrives before the error
        sound = self._corpus(tmp_path / "sound")
        assert next(stream) == _eager_corpus(sound, strict)["c1"]
        with pytest.raises(CorpusError) as streamed:
            list(stream)
        for found in (loaded, streamed):
            assert (type(found.value), str(found.value)) == (
                type(eager.value), str(eager.value))

    def test_broken_middle_transcript_is_no_error_without_utterances(self, tmp_path):
        root = self._corpus(tmp_path / "corpus", "transcript cell")
        clips = list(iter_corpus(root, utterances=False))
        assert [c.clip_id for c in clips] == ["c1", "c2", "c3", "c4"]
        assert all(c.utterances == () for c in clips)


def _reference_records(payload, strict, clip_id):
    """The per-field annotation reader alone, with no one-pass path for
    well-typed entries: the oracle for `_read_records`."""
    diags, records = [], []

    def bad(code, message, line_idx=None):
        diags.append(Diagnostic(code, ERROR, message, clip_id, line_idx))

    for pos, obj in enumerate(payload):
        if not isinstance(obj, dict):
            bad("BAD_TYPE", f"entry {pos} is not an object")
            continue
        missing = [k for k in ("line_idx", "speaker", "addressee",
                               "side_participant", "reply_to") if k not in obj]
        if missing:
            bad("MISSING_KEY", f"entry {pos} is missing keys {missing}")
            continue
        unknown = sorted(set(obj) - {"line_idx", "speaker", "addressee",
                                     "side_participant", "reply_to",
                                     "extra_diegetic", "monologue"})
        if unknown and strict:
            bad("UNKNOWN_KEY", f"entry {pos} has unknown keys {unknown}")
            continue
        line_idx, reply_to = obj["line_idx"], obj["reply_to"]
        if not isinstance(line_idx, int) or isinstance(line_idx, bool) or line_idx < 1:
            bad("BAD_TYPE", f"entry {pos}: line_idx must be a positive integer")
            continue
        if not isinstance(reply_to, int) or isinstance(reply_to, bool):
            bad("BAD_TYPE", "reply_to must be an integer", line_idx)
            continue
        mistyped = len(diags)
        if not isinstance(obj["speaker"], str):
            bad("BAD_TYPE", "speaker must be a string", line_idx)
        for key in ("addressee", "side_participant"):
            if not isinstance(obj[key], list) or not all(
                    isinstance(n, str) for n in obj[key]):
                bad("BAD_TYPE", f"{key} must be an array of strings", line_idx)
        for key in ("extra_diegetic", "monologue"):
            if not isinstance(obj.get(key, False), bool):
                bad("BAD_TYPE", f"{key} must be true or false", line_idx)
        if len(diags) > mistyped:
            continue
        try:
            speaker = normalize_name(obj["speaker"])
            addressees = frozenset(normalize_name(n) for n in obj["addressee"])
            side = frozenset(normalize_name(n) for n in obj["side_participant"])
        except CorpusError as exc:
            bad("BAD_NAME", str(exc), line_idx)
            continue
        records.append(StructureRecord(line_idx, speaker, addressees, side, reply_to,
                                       obj.get("extra_diegetic", False),
                                       obj.get("monologue", False)))
    return records, diags


_GOOD_NAMES = st.sampled_from(["ada", "Ada", " max  ", "cleo_OS", "crowd", "unknown"])
_WELL_TYPED = st.fixed_dictionaries(
    {"line_idx": st.integers(1, 5), "speaker": _GOOD_NAMES,
     "addressee": st.lists(_GOOD_NAMES, max_size=3),
     "side_participant": st.lists(_GOOD_NAMES, max_size=3),
     "reply_to": st.integers(-1, 5)},
    optional={"extra_diegetic": st.booleans(), "monologue": st.booleans()})
# per key, values just off the documented type: bools for ints, non-strings and
# names that normalize to nothing for names, repeated names in a role array
_ROLE_VALUES = ["ada", None, ["ada", "Ada"], ["ada", " _os"], ["", "max"], ["ada", 3],
                [["ada"]], [{"n": "ada"}], [True]]
_ODD_VALUES = {
    "line_idx": [0, -1, True, False, None, 1.0, "1", [1]],
    "reply_to": [0, -1, True, None, 2.0, "1"],
    "speaker": ["", "  ", "_OS", 7, None, True, ["ada"]],
    "addressee": _ROLE_VALUES,
    "side_participant": _ROLE_VALUES,
    "extra_diegetic": [0, 1, None, "false"],
    "monologue": [0, 1, None, "false"],
}


@st.composite
def _mistyped_entry(draw):
    """A well-typed entry with one or two fields changed, dropped or added."""
    entry = dict(draw(_WELL_TYPED))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["change", "change", "drop", "add"]))
        if edit == "change":
            key = draw(st.sampled_from(sorted(_ODD_VALUES)))
            entry[key] = draw(st.sampled_from(_ODD_VALUES[key]))
        elif edit == "drop":
            del entry[draw(st.sampled_from(sorted(entry)))]
        else:
            entry[draw(st.sampled_from(["confidence", "Speaker"]))] = 0.9
    return entry


_ENTRIES = st.lists(st.one_of(_WELL_TYPED, _mistyped_entry(), _mistyped_entry(),
                              _mistyped_entry(),
                              st.sampled_from([None, 3, "entry", [], ["line_idx"]])),
                    max_size=10)
# one entry across each edge of the one-pass read
_EDGES = [dict({"line_idx": 2, "speaker": "a", "addressee": ["b"],
                "side_participant": [], "reply_to": 1}, **change)
          for change in ({}, {"line_idx": 0}, {"line_idx": True}, {"reply_to": True},
                         {"monologue": 0}, {"extra_diegetic": 1},
                         {"addressee": ["b", 3]}, {"side_participant": [["c"]]},
                         {"speaker": "  "}, {"addressee": ["b", "_OS"]},
                         {"side_participant": ["c", "C "]}, {"note": ""},
                         {"speaker": "  ", "addressee": ["b", "_OS"]},
                         {"addressee": ["_OS"], "side_participant": "c"},
                         {"side_participant": [" "], "monologue": 0},
                         {"note": "", "monologue": True, "addressee": ["b", "b"]})]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(["line_idx", "speaker", "addressee",
                                                   "side_participant", "reply_to",
                                                   "extra_diegetic", "monologue"]),
                                  st.text(max_size=3)),
                        inner, max_size=7)),
    max_leaves=20)


class TestReadRecordsProperties:
    """The one-pass read of well-typed entries agrees with the per-field reader."""

    @settings(deadline=None)
    @given(entries=_ENTRIES, strict=st.booleans())
    @example(entries=_EDGES, strict=False)
    @example(entries=_EDGES, strict=True)
    def test_matches_the_per_field_reader(self, entries, strict):
        assert _read_records(entries, strict, "c") == _reference_records(
            entries, strict, "c")

    @settings(deadline=None)
    @given(blob=st.one_of(_JSON.map(lambda v: json.dumps(v).encode("utf-8")),
                          st.binary(max_size=20)),
           strict=st.booleans())
    def test_any_json_yields_records_or_a_corpus_error(self, blob, strict):
        # the lenient read of `validate_paths`: decode, read, check invariants
        try:
            records, diags = _read_records(_decode_json(blob, "annotation"), strict, "c")
            scanned = records, diags + check_records(records, "c")
        except ParseError:
            scanned = None
        try:
            parsed = parse_annotation_json(blob, strict=strict, clip_id="c")
        except (ParseError, ValidationError):
            parsed = None
        if scanned is None:
            assert parsed is None
        else:
            records, diags = scanned
            assert all(isinstance(r, StructureRecord) for r in records)
            assert all(isinstance(d, Diagnostic) for d in diags)
            assert parsed == (None if diags else records)

    @settings(deadline=None)
    @given(entries=st.lists(st.one_of(_WELL_TYPED, _WELL_TYPED.map(
        lambda entry: dict(entry, confidence=0.9))), min_size=2, max_size=12))
    def test_equal_raw_role_lists_share_one_set(self, entries):
        records, _ = _read_records(entries, False, "c")
        assert len(records) == len(entries)
        by_names = {}
        for entry, r in zip(entries, records):
            for key, roles in (("addressee", r.addressees),
                               ("side_participant", r.side_participants)):
                assert by_names.setdefault(tuple(entry[key]), roles) is roles


# values a JSON input file may hold where a number or a name belongs: integers
# of 300-420 digits (past float range), the float extremes, non-finite floats,
# negative zero, bools, strings and nested lists
_HUGE_INTEGERS = st.builds(lambda digits, sign: sign * 10 ** (digits - 1),
                           st.integers(300, 420), st.sampled_from([1, -1]))
_ODD_SCALARS = st.one_of(
    _HUGE_INTEGERS, st.integers(-5, 5), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan, -0.0, 0.5]),
    st.booleans(), st.none(), st.sampled_from(["ada", " Max ", "", " ", "_OS", "1"]))
_ODD_JSON_VALUES = st.recursive(_ODD_SCALARS, lambda inner: st.lists(inner, max_size=3),
                                max_leaves=6)
_NUMBERS = st.one_of(_HUGE_INTEGERS, st.integers(-5, 5), st.floats(),
                     st.sampled_from([1e308, -1e308, math.inf, math.nan, -0.0]))
_FACE_SPANS = st.one_of(
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(st.one_of(st.lists(_ODD_SCALARS, min_size=2, max_size=2), _ODD_JSON_VALUES),
             max_size=3))
_IDS = st.sampled_from(["", "c1", 7, -0.0, None, True, ["c1"]])
_FACE_ENTRY = st.fixed_dictionaries({"name": st.sampled_from(["ada", "Bo", "ada "]),
                                     "spans": _FACE_SPANS})
_FACES_JSON = st.fixed_dictionaries(
    {"faces": st.one_of(
        st.lists(_FACE_ENTRY, min_size=1, max_size=3),
        st.lists(st.one_of(_FACE_ENTRY, st.fixed_dictionaries(
            {"name": _ODD_SCALARS, "spans": _FACE_SPANS}), _ODD_JSON_VALUES), max_size=3))},
    optional={"clip_id": _IDS})
_CAST_JSON = st.fixed_dictionaries(
    {"cast": st.lists(_ODD_JSON_VALUES, max_size=4)},
    optional={"clip_id": _IDS, "show_id": _IDS})
# cells a TSV input file may hold where a number or a name belongs
_ODD_CELLS = st.sampled_from(["nan", "inf", "1e400", "1_0", "١", "9" * 400,
                              "-" + "9" * 400, "", " ", "  \r", "0", "1", "-1", "0.5",
                              "+2", "ada", " Max ", "_OS", "female", "male", "show"])


def _tsv(header):
    """TSV bytes: `header`, then rows of 3-5 cells drawn from _ODD_CELLS."""
    rows = st.lists(st.lists(_ODD_CELLS, min_size=3, max_size=5), max_size=4)
    return rows.map(lambda rows: "\n".join(
        ["\t".join(header)] + ["\t".join(row) for row in rows]).encode("utf-8"))


def _parses_or_raises_parse_error(parse, blob):
    try:
        parse(blob)
    except ParseError:
        pass


class TestInputFileProperties:
    """Every other input parser returns a result or raises ParseError."""

    @settings(deadline=None)
    @given(payload=_FACES_JSON)
    @example(payload={"faces": [{"name": "ada", "spans": [[0, 10 ** 400]]}]})
    def test_face_tracks(self, payload):
        _parses_or_raises_parse_error(parse_face_tracks_json,
                                      json.dumps(payload).encode("utf-8"))

    @settings(deadline=None)
    @given(payload=st.one_of(_CAST_JSON, _ODD_JSON_VALUES))
    def test_cast(self, payload):
        _parses_or_raises_parse_error(parse_cast_json, json.dumps(payload).encode("utf-8"))

    @settings(deadline=None)
    @given(blob=_tsv(("start", "end", "speaker", "text")))
    def test_transcript(self, blob):
        _parses_or_raises_parse_error(parse_transcript_tsv, blob)

    @settings(deadline=None)
    @given(blob=_tsv(("line_idx", "word", "start", "end")))
    def test_word_tokens(self, blob):
        _parses_or_raises_parse_error(parse_word_tokens_tsv, blob)

    @settings(deadline=None)
    @given(blob=_tsv(("canonical_name", "gender", "show_id")))
    def test_gender_map(self, blob):
        _parses_or_raises_parse_error(parse_gender_map_tsv, blob)
