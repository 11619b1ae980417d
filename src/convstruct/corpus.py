"""Data model, parsing, and validation for clips, transcripts, cast lists, and
structure annotations.

A clip is an ordered list of utterances plus an optional per-line structure
annotation (speaker, addressees, side-participants, reply-to). Everything here
is immutable after construction and safe to share across workers. Parsing is
strict by default; `validate_paths` is the lenient reader, which runs every
check over a corpus path and returns diagnostics instead of raising: it is what
the `validate` command prints.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, repeat
from json.encoder import encode_basestring
from operator import le
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple


class CorpusError(ValueError):
    """Base error for malformed corpus inputs."""


class ParseError(CorpusError):
    """A byte stream could not be parsed at all (bad row, bad type)."""


class MetricInputError(ValueError):
    """Gold and prediction do not cover the same lines or clips."""


class StatsError(ValueError):
    """Invalid input to a statistical routine."""


class AgreementError(ValueError):
    """No usable annotator pairs."""


class ValidationError(CorpusError):
    """Parsed content violates structural invariants.

    Carries the full list of diagnostics so callers see every violation,
    not just the first.
    """

    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.describe() for d in self.diagnostics)
        super().__init__(f"{len(self.diagnostics)} violation(s): {lines}")


# Participant kinds
REGULAR = "regular"
UNKNOWN = "unknown"
CROWD = "crowd"
NONE = "none"
OFF_SCREEN = "off_screen"

_RESERVED_TOKENS = {"unknown": UNKNOWN, "crowd": CROWD, "none": NONE}
_OS_SUFFIX = "_os"

GENDERS = ("female", "male", "unspecified")


class Participant(NamedTuple):
    """A conversational participant, identified by kind plus canonical name.

    Gender comes from a separate metadata table (`lookup_gender`). Like
    `StructureRecord` and `Utterance` it is a named tuple: it equals, hashes
    and orders as the plain tuple of its fields, `(canonical_name, kind)`.
    """

    canonical_name: str
    kind: str = REGULAR

    @property
    def token(self) -> str:
        """Serialized form: the string that round-trips through annotation JSON."""
        if self.kind == OFF_SCREEN:
            return f"{self.canonical_name}_OS"
        return self.canonical_name

    @property
    def is_special(self) -> bool:
        return self.kind != REGULAR


def normalize_name(raw: str) -> Participant:
    """Map a raw name string to a Participant reference.

    Lowercases, collapses internal whitespace, and trims. The reserved tokens
    "unknown", "crowd", and "none" map to their special kinds; a trailing
    `_OS` marker (any case) maps to an off-screen participant with the base
    name retained.
    """
    if raw is None:
        raise CorpusError("participant name is missing")
    name = " ".join(raw.split()).lower()
    if not name:
        raise CorpusError(f"participant name is empty after trimming: {raw!r}")
    if name in _RESERVED_TOKENS:
        return Participant(name, _RESERVED_TOKENS[name])
    if name.endswith(_OS_SUFFIX):
        base = " ".join(name[: -len(_OS_SUFFIX)].split())
        if not base:
            raise CorpusError(f"off-screen marker with empty base name: {raw!r}")
        return Participant(base, OFF_SCREEN)
    return Participant(name, REGULAR)


def _file_name(raw: str, where: str) -> Participant:
    """`normalize_name` for a name read from a cast, gender map or face file:
    a bad name is a ParseError naming its entry or row."""
    try:
        return normalize_name(raw)
    except CorpusError as exc:
        raise ParseError(f"{where}: {exc}") from None


class Utterance(NamedTuple):
    """One transcribed line, with clip-relative index and timestamps in seconds."""

    clip_id: str
    line_idx: int
    start_s: float
    end_s: float
    text: str
    speaker_hint: str | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class StructureRecord(NamedTuple):
    """Gold or predicted structure for one line.

    The speaker is excluded from both role sets by construction; a self
    reply_to (reply_to == line_idx) marks the start of a new thread.
    """

    line_idx: int
    speaker: Participant
    addressees: frozenset[Participant]
    side_participants: frozenset[Participant]
    reply_to: int
    extra_diegetic: bool = False
    monologue: bool = False

    @property
    def is_thread_start(self) -> bool:
        return self.reply_to == self.line_idx

    @property
    def is_nondialogic(self) -> bool:
        return self.extra_diegetic or self.monologue


@dataclass(frozen=True)
class Clip:
    """A clip: cast, ordered utterances, and optional gold structure records."""

    clip_id: str
    show_id: str = ""
    cast: tuple[Participant, ...] = ()
    utterances: tuple[Utterance, ...] = ()
    gold: tuple[StructureRecord, ...] | None = None


# Diagnostic codes emitted by validation
FORWARD_LINK = "FORWARD_LINK"
BAD_REPLY_TO = "BAD_REPLY_TO"
ROLE_OVERLAP = "ROLE_OVERLAP"
SPEAKER_IN_ROLES = "SPEAKER_IN_ROLES"
DUPLICATE_LINE = "DUPLICATE_LINE"
NONCONTIGUOUS_LINES = "NONCONTIGUOUS_LINES"
GOLD_COVERAGE = "GOLD_COVERAGE"
UNRESOLVED_NAME = "UNRESOLVED_NAME"
TIME_ORDER = "TIME_ORDER"
OVERLAP = "OVERLAP"
MISSING_KEY = "MISSING_KEY"
BAD_TYPE = "BAD_TYPE"
BAD_NAME = "BAD_NAME"
UNKNOWN_KEY = "UNKNOWN_KEY"

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """A machine-readable validation finding."""

    code: str
    severity: str
    message: str
    clip_id: str = ""
    line_idx: int | None = None

    def describe(self) -> str:
        where = f" line {self.line_idx}" if self.line_idx is not None else ""
        clip = f" [{self.clip_id}]" if self.clip_id else ""
        return f"{self.code}{clip}{where}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "clip_id": self.clip_id,
            "line_idx": self.line_idx,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }


def _tsv_columns(data: bytes, what: str, header: tuple[str, ...]
                 ) -> tuple[list[int], list[list[str]]]:
    """(row numbers, columns) of a tab-separated file; a BOM is dropped.

    The first line must be `header`. A line that is empty once trailing
    carriage returns are removed is skipped but counted, so row N is always
    line N+1 of the file; any other line, whitespace-only included, needs one
    cell per column, and the first that has not is named. Column k holds the
    k-th cell of each row, in file order.
    """
    try:
        lines = data.decode("utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None
    if b"\r" in data:  # UTF-8 has no other byte 0x0D
        lines = list(map(str.rstrip, lines, repeat("\r")))
    found = tuple(lines[0].split("\t"))
    if found != header:
        raise ParseError(f"bad {what} header {found!r}, expected {header!r}")
    rows = list(compress(range(len(lines)), lines))[1:]
    lines = list(filter(None, islice(lines, 1, None)))
    tabs = len(header) - 1
    if set(map(str.count, lines, repeat("\t"))) - {tabs}:
        k = next(k for k, line in enumerate(lines) if line.count("\t") != tabs)
        width = lines[k].count("\t") + 1
        raise ParseError(f"{what} row {rows[k]}: expected {len(header)} columns, "
                         f"found {width}")
    # one split of the whole body, then a slice per column: no list per row,
    # and the lines are freed before the columns are built
    cells = "\t".join(lines).split("\t") if lines else []
    del lines
    return rows, [cells[k::len(header)] for k in range(len(header))]


TRANSCRIPT_HEADER = ("start", "end", "speaker", "text")

# float() and int() also take digit separators ('1_0'), surrounding whitespace
# and non-ASCII digits; a numeric cell is a plain ASCII decimal, or a nan/inf
# spelling that the caller's finite check then rejects by name
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                      r"|[+-]?(?:nan|inf|infinity)", re.ASCII | re.IGNORECASE)
_INTEGER = re.compile(r"[+-]?[0-9]+", re.ASCII)
# The start of the first line that is not one whole number, in a column
# joined by "\n". A lookahead at each line start rather than a repeated group
# over the lines, which would keep backtracking state for every cell.
_BAD_CELL = {kind: re.compile(rf"^(?!(?:{pattern.pattern})$)", pattern.flags | re.M)
             for kind, pattern in ((float, _DECIMAL), (int, _INTEGER))}


def _number(cell: str, kind: type = float):
    """`kind(cell)` for an ASCII decimal cell; ValueError for anything else."""
    if not (_INTEGER if kind is int else _DECIMAL).fullmatch(cell):
        raise ValueError(f"not a decimal number: {cell!r}")
    return kind(cell)


class _BadCell(ValueError):
    """The cell at `index` of a column is not a number `_numbers` reads."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


def _numbers(column: list[str], kind: type = float) -> list:
    """`_number(cell, kind)` of every cell of a TSV column: one pattern search
    over the whole column, then one conversion pass. A cell it refuses (or
    that `int` refuses, past its digit limit) raises `_BadCell`, the first."""
    if column:
        joined = "\n".join(column)
        bad = _BAD_CELL[kind].search(joined)
        if bad is not None:
            raise _BadCell(joined.count("\n", 0, bad.start()))
    try:
        return list(map(kind, column))
    except ValueError:
        for k, cell in enumerate(column):
            try:
                kind(cell)
            except ValueError:
                raise _BadCell(k) from None
        raise


def _first_false(flags: Iterable[bool]) -> int | None:
    """The index of the first false flag, or None if all are true."""
    flags = list(flags)
    return flags.index(False) if False in flags else None


def parse_transcript_tsv(data: bytes, clip_id: str = "") -> list[Utterance]:
    """Parse a transcript TSV (header `start end speaker text`, tab-separated).

    Returns utterances in file order with line_idx assigned 1..n. The speaker
    column is kept verbatim as a provisional hint; gold speakers come from
    annotations, not from here. Checks run column by column: each names its
    first bad row, the start column before the end column.
    """
    rows, (start_cells, end_cells, speakers, texts) = _tsv_columns(
        data, "transcript", TRANSCRIPT_HEADER)
    times = []
    for col, cells in (("start", start_cells), ("end", end_cells)):
        try:
            times.append(_numbers(cells))
        except _BadCell as bad:
            raise ParseError(f"row {rows[bad.index]}: non-numeric {col} timestamp "
                             f"{cells[bad.index]!r}") from None
    for col, cells, values in zip(("start", "end"), (start_cells, end_cells), times):
        k = _first_false(map(math.isfinite, values))
        if k is not None:
            raise ParseError(f"row {rows[k]}: non-finite {col} timestamp {cells[k]!r}")
    # millisecond precision, stored exactly; keeps golden files bit-stable
    starts, ends = (list(map(round, values, repeat(3))) for values in times)
    k = _first_false(map(le, starts, ends))
    if k is not None:
        raise ParseError(f"row {rows[k]}: start {starts[k]} is after end {ends[k]}")
    hints = [speaker or None for speaker in speakers]
    return list(map(tuple.__new__, repeat(Utterance), zip(
        repeat(clip_id), range(1, len(rows) + 1), starts, ends, texts, hints)))


_REQUIRED_KEYS = ("line_idx", "speaker", "addressee", "side_participant", "reply_to")
_ANNOTATION_KEYS = frozenset(_REQUIRED_KEYS + ("extra_diegetic", "monologue"))


def _decode_json(data: bytes, what: str):
    """`json.loads` of UTF-8 bytes; anything it cannot read is a ParseError
    (bad bytes or syntax, an integer past Python's digit limit, nesting past
    the recursion limit)."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} JSON is unreadable: {exc}") from None


class _Memo(dict):
    """A dict that stores `make(key)` for each key it is asked for and lacks."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        found = self[key] = self.make(key)
        return found


def _participant_or_message(raw: str) -> Participant | str:
    """The participant a raw name normalizes to, or the message saying why it
    names none."""
    try:
        return normalize_name(raw)
    except CorpusError as exc:
        return str(exc)


def _read_records(
    payload, strict: bool, clip_id: str
) -> tuple[list[StructureRecord], list[Diagnostic]]:
    """Records from a decoded annotation array; unreadable entries are dropped
    with a diagnostic, invariants are left to `check_records`.

    Each entry goes through one ordered run of checks on exact JSON types (a
    bool is not an integer, and a subclass of `int`, `str`, `list` or `dict`
    is not its base, but see `role_set`). The first check that fails drops
    the entry with its diagnostics: all of the entry's `BAD_TYPE`s, or else
    its first `BAD_NAME`. Names are normalized once per file, and lines that
    list the same raw names share one role set."""
    if not isinstance(payload, list):
        raise ParseError("annotation JSON must be an array of objects")
    diags: list[Diagnostic] = []
    records: list[StructureRecord] = []
    append = records.append
    record = partial(tuple.__new__, StructureRecord)
    names = _Memo(_participant_or_message)  # each name normalized once
    role_sets: dict[tuple, frozenset[Participant] | str] = {}  # see role_set

    def bad(code, message, line_idx=None):
        diags.append(Diagnostic(code, ERROR, message, clip_id, line_idx))

    def role_set(raw) -> frozenset[Participant] | str | None:
        """The shared set for a list of strings, or the message of its first
        bad name; None for any other value. A hit equals a stored list of
        strings, so it needs no element check (a `str` subclass equal to a
        name already stored passes as that name)."""
        if type(raw) is not list:
            return None
        key = tuple(raw)
        try:
            return role_sets[key]
        except KeyError:  # only all-string keys are stored
            if not all(type(n) is str for n in key):
                return None
        except TypeError:  # an unhashable element: not a string
            return None
        members = [names[n] for n in key]
        message = next((m for m in members if type(m) is str), None)
        found = role_sets[key] = frozenset(members) if message is None else message
        return found

    for pos, obj in enumerate(payload):
        if type(obj) is not dict:
            bad(BAD_TYPE, f"entry {pos} is not an object")
            continue
        try:
            line_idx, reply_to = obj["line_idx"], obj["reply_to"]
            speaker, addressees, side = (obj["speaker"], obj["addressee"],
                                         obj["side_participant"])
        except KeyError:
            missing = [k for k in _REQUIRED_KEYS if k not in obj]
            bad(MISSING_KEY, f"entry {pos} is missing keys {missing}")
            continue
        # five keys that include the required five are all known
        if strict and len(obj) > 5 and not obj.keys() <= _ANNOTATION_KEYS:
            bad(UNKNOWN_KEY, f"entry {pos} has unknown keys "
                             f"{sorted(obj.keys() - _ANNOTATION_KEYS)}")
            continue
        if type(line_idx) is not int or line_idx < 1:
            bad(BAD_TYPE, f"entry {pos}: line_idx must be a positive integer")
            continue
        if type(reply_to) is not int:
            bad(BAD_TYPE, "reply_to must be an integer", line_idx)
            continue
        addressees = role_set(addressees)
        side = role_set(side)
        extra_diegetic = obj.get("extra_diegetic", False)
        monologue = obj.get("monologue", False)
        if not (type(speaker) is str and addressees is not None and side is not None
                and type(extra_diegetic) is bool and type(monologue) is bool):
            if type(speaker) is not str:
                bad(BAD_TYPE, "speaker must be a string", line_idx)
            if addressees is None:
                bad(BAD_TYPE, "addressee must be an array of strings", line_idx)
            if side is None:
                bad(BAD_TYPE, "side_participant must be an array of strings", line_idx)
            if type(extra_diegetic) is not bool:
                bad(BAD_TYPE, "extra_diegetic must be true or false", line_idx)
            if type(monologue) is not bool:
                bad(BAD_TYPE, "monologue must be true or false", line_idx)
            continue
        speaker = names[speaker]
        # a name lookup that fails gives the message of the first bad name
        if type(speaker) is str:
            bad(BAD_NAME, speaker, line_idx)
        elif type(addressees) is str:
            bad(BAD_NAME, addressees, line_idx)
        elif type(side) is str:
            bad(BAD_NAME, side, line_idx)
        else:
            append(record((line_idx, speaker, addressees, side, reply_to,
                           extra_diegetic, monologue)))
    return records, diags


def check_records(records: Iterable[StructureRecord], clip_id: str = ""
                  ) -> list[Diagnostic]:
    """The record invariants, for the strict parsers and `validate_clip`
    alike: unique lines, links back to an annotated line, disjoint roles."""
    diags: list[Diagnostic] = []

    def add(code, message, line_idx):
        diags.append(Diagnostic(code, ERROR, message, clip_id, line_idx))

    records = list(records)
    annotated = {r.line_idx for r in records}
    seen: set[int] = set()
    for r in records:
        if r.line_idx in seen:
            add(DUPLICATE_LINE, f"line_idx {r.line_idx} annotated twice", r.line_idx)
        seen.add(r.line_idx)
        if r.reply_to > r.line_idx:
            add(FORWARD_LINK, f"reply_to {r.reply_to} is after line {r.line_idx}",
                r.line_idx)
        elif r.reply_to < 1:
            add(BAD_REPLY_TO, f"reply_to {r.reply_to} is below 1", r.line_idx)
        elif r.reply_to not in annotated:
            add(BAD_REPLY_TO, f"reply_to {r.reply_to} is not an annotated line",
                r.line_idx)
        overlap = r.addressees & r.side_participants
        if overlap:
            names = sorted(p.token for p in overlap)
            add(ROLE_OVERLAP, f"addressee and side_participant share {names}",
                r.line_idx)
        if r.speaker in r.addressees or r.speaker in r.side_participants:
            add(SPEAKER_IN_ROLES, f"speaker {r.speaker.token!r} appears in a role set",
                r.line_idx)
    return diags


def annotation_records(
    payload, strict: bool = False, clip_id: str = ""
) -> list[StructureRecord]:
    """Strict parse of an already decoded annotation array (a JSON list)."""
    records, errors = _read_records(payload, strict, clip_id)
    errors += check_records(records, clip_id)  # every one is an error
    if errors:
        raise ValidationError(errors)
    return records


def parse_annotation_json(
    data: bytes, strict: bool = False, clip_id: str = ""
) -> list[StructureRecord]:
    """Strict annotation parse: raises ValidationError listing every violation."""
    return annotation_records(_decode_json(data, "annotation"), strict, clip_id)


def _json_role_array(roles: frozenset[Participant]) -> str:
    """A role set as an entry's JSON array: tokens sorted, one per line."""
    if not roles:
        return "[]"
    tokens = map(encode_basestring, sorted(p.token for p in roles))
    return "[\n      " + ",\n      ".join(tokens) + "\n    ]"


def serialize_annotation_json(records: Iterable[StructureRecord]) -> bytes:
    """Serialize records to annotation JSON; inverse of parse_annotation_json.

    Role sets are emitted sorted by token so output is deterministic; optional
    flags are emitted only when set, matching the parse-time defaults. The
    bytes are those of `json.dumps(entries, indent=2, ensure_ascii=False)`
    plus a newline, laid out here with `json`'s own string encoder; each
    participant and role set is encoded once.
    """
    tokens = _Memo(lambda participant: encode_basestring(participant.token))
    arrays = _Memo(_json_role_array)
    entries = []
    for line_idx, speaker, addressees, side, reply_to, extra_diegetic, monologue in records:
        entry = (f'  {{\n    "line_idx": {line_idx},\n    "speaker": {tokens[speaker]},'
                 f'\n    "addressee": {arrays[addressees]},'
                 f'\n    "side_participant": {arrays[side]},'
                 f'\n    "reply_to": {reply_to}')
        if extra_diegetic:
            entry += ',\n    "extra_diegetic": true'
        if monologue:
            entry += ',\n    "monologue": true'
        entries.append(entry + "\n  }")
    if not entries:
        return b"[]\n"
    return ("[\n" + ",\n".join(entries) + "\n]\n").encode("utf-8")


def _id_field(payload: dict, key: str, what: str) -> str:
    """The optional string `key` of a decoded JSON object; absent is ""."""
    value = payload.get(key, "")
    if not isinstance(value, str):
        raise ParseError(f"{what} {key} must be a string, got {type(value).__name__}")
    return value


def parse_cast_json(data: bytes) -> tuple[str, str, list[Participant]]:
    """Parse a cast list JSON: {"clip_id", "show_id", "cast": [names]}."""
    payload = _decode_json(data, "cast")
    if not isinstance(payload, dict) or not isinstance(payload.get("cast"), list):
        raise ParseError("cast JSON must be an object with a 'cast' array")
    for k, name in enumerate(payload["cast"]):
        if not isinstance(name, str):
            raise ParseError(f"cast entry {k} must be a string, got {type(name).__name__}")
    cast = [_file_name(n, f"cast entry {k}") for k, n in enumerate(payload["cast"])]
    return _id_field(payload, "clip_id", "cast"), _id_field(payload, "show_id", "cast"), cast


def parse_gender_map_tsv(data: bytes) -> dict[tuple[str, str], str]:
    """Parse the participant metadata TSV (`canonical_name gender show_id`).

    Keys are (show_id, canonical_name); an empty show_id acts as a corpus-wide
    fallback entry. Two rows with the same key are a ParseError.
    """
    header = ("canonical_name", "gender", "show_id")
    table: dict[tuple[str, str], str] = {}
    rows: dict[tuple[str, str], int] = {}
    numbers, columns = _tsv_columns(data, "gender map", header)
    for row, raw_name, raw_gender, show_id in zip(numbers, *columns):
        name = _file_name(raw_name, f"gender map row {row}").canonical_name
        gender = raw_gender.strip().lower()
        if gender not in GENDERS:
            raise ParseError(
                f"gender map row {row}: gender must be one of {GENDERS}, got {raw_gender!r}"
            )
        key = (show_id.strip(), name)
        if key in rows:
            raise ParseError(f"gender map rows {rows[key]} and {row} both list "
                             f"{name!r} for show {key[0]!r}")
        rows[key] = row
        table[key] = gender
    return table


def lookup_gender(
    gender_map: Mapping[tuple[str, str], str], show_id: str, participant: Participant
) -> str | None:
    """Resolve a participant's gender, preferring show-scoped entries.

    Returns None for special participants, unlisted names, and entries marked
    unspecified.
    """
    if participant.kind != REGULAR:
        return None
    gender = gender_map.get((show_id, participant.canonical_name))
    if gender is None:
        gender = gender_map.get(("", participant.canonical_name))
    if gender in ("female", "male"):
        return gender
    return None


def validate_clip(clip: Clip) -> list[Diagnostic]:
    """Check every type invariant; returns [] iff the clip is fully valid.

    Timestamp overlap between consecutive utterances is a warning, not an
    error: real ASR output overlaps and the metrics only consume durations.
    Gold must cover the utterances exactly if the clip has any.
    """
    return _check_clip(clip, transcribed=bool(clip.utterances))


def _check_clip(clip: Clip, transcribed: bool) -> list[Diagnostic]:
    """`validate_clip`, checking gold coverage iff `transcribed`: a clip read
    from disk has a transcript when its file exists, even one with no lines."""
    diags: list[Diagnostic] = []

    def add(code, message, line_idx=None, severity=ERROR):
        diags.append(Diagnostic(code, severity, message, clip.clip_id, line_idx))

    seen_lines = [u.line_idx for u in clip.utterances]
    if seen_lines != list(range(1, len(seen_lines) + 1)):
        add(NONCONTIGUOUS_LINES,
            f"utterance line_idx must run 1..{len(seen_lines)}, got {seen_lines[:8]}...")
    for u in clip.utterances:
        if u.start_s > u.end_s:
            add(TIME_ORDER, f"start {u.start_s} is after end {u.end_s}", u.line_idx)
    ordered = sorted(clip.utterances, key=lambda u: u.line_idx)
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.end_s > nxt.start_s:
            add(OVERLAP,
                f"lines {prev.line_idx}-{nxt.line_idx} overlap "
                f"({prev.end_s} > {nxt.start_s})",
                prev.line_idx, severity=WARNING)

    if clip.gold is None:
        return diags

    diags += check_records(clip.gold, clip.clip_id)
    if clip.cast:
        cast_names = {p.canonical_name for p in clip.cast}
        for r in clip.gold:
            for p in (r.speaker, *r.addressees, *r.side_participants):
                if not (p.is_special or p.canonical_name in cast_names):
                    add(UNRESOLVED_NAME,
                        f"{p.token!r} is not in the cast list or a reserved token",
                        r.line_idx)
    if transcribed:
        expected = {u.line_idx for u in clip.utterances}
        annotated = {r.line_idx for r in clip.gold}
        if expected != annotated:
            missing = sorted(expected - annotated)
            extra = sorted(annotated - expected)
            add(GOLD_COVERAGE,
                f"gold does not cover utterances exactly "
                f"(missing {missing[:8]}, extra {extra[:8]})")
    return diags


# --- corpus directory layout -------------------------------------------------
#
# A corpus path is either a single annotation JSON (one clip, id = file stem)
# or a directory holding, per clip id:
#   <clip_id>.annotation.json   (or <clip_id>.json)
#   <clip_id>.transcript.tsv    (or <clip_id>.tsv)
#   <clip_id>.cast.json
# Face tracks and word tokens for the baseline follow the same convention
# (<clip_id>.faces.json, <clip_id>.words.tsv).

# Each file of a corpus directory belongs to the first suffix it ends with,
# longest first. Face tracks and word tokens belong to no clip field: the
# baseline looks them up by clip id.
_LAYOUT = (
    (".annotation.json", "annotation"),
    (".transcript.tsv", "transcript"),
    (".faces.json", None),
    (".cast.json", "cast"),
    (".words.tsv", None),
    (".json", "annotation"),
    (".tsv", "transcript"),
)


@dataclass(frozen=True)
class ClipFiles:
    """The on-disk files that together describe one clip."""

    clip_id: str
    annotation: Path | None = None
    transcript: Path | None = None
    cast: Path | None = None


def _file_clip_id(path: Path) -> str:
    """The clip id of a single-clip annotation file: its name without the
    annotation suffix of the layout it ends with, else its stem."""
    clip_id = next((path.name[: -len(suffix)] for suffix, field in _LAYOUT
                    if field == "annotation" and path.name.endswith(suffix)), None)
    return clip_id or path.stem


def _sorted_files(root: Path, recursive: bool = True) -> list[tuple[str, str]]:
    """(relative POSIX name, path) of each file under directory `root`, with
    the entries and order of `sorted(root.rglob("*"))` (or `root.iterdir()`
    when not `recursive`) filtered by `Path.is_file`: hidden files count, a
    link to a file is a file, a link to a directory is not descended and a
    dangling link is skipped. Names sort by their parts, as `Path`s compare,
    only links are stat'ed, and each path is the string of
    `root.joinpath(name)`."""
    prefix = "" if str(root) == "." else os.path.join(str(root), "")
    found: list[tuple[str, ...]] = []
    pending: list[tuple[str, ...]] = [()]
    while pending:
        parts = pending.pop()
        try:
            entries = os.scandir(prefix + "/".join(parts) or ".")
        except (FileNotFoundError, NotADirectoryError, PermissionError):
            if recursive:  # rglob yields nothing from a directory it cannot list
                continue
            raise
        with entries:
            for entry in entries:
                name = (*parts, entry.name)
                if recursive and entry.is_dir(follow_symlinks=False):
                    pending.append(name)
                    continue
                try:
                    is_file = entry.is_file()
                except OSError:  # a link loop, say: ask as `Path.is_file` does
                    is_file = Path(entry.path).is_file()
                if is_file:
                    found.append(name)
    found.sort()
    return [(rel, prefix + rel) for rel in map("/".join, found)]


def iter_clip_files(path: str | Path) -> list[ClipFiles]:
    """Pair a corpus path's files by clip id.

    A file path is treated as a single-clip annotation; a directory is indexed
    by the layout documented above, in one pass over its files in name order
    (the first file for a clip field wins). Every clip has an annotation or a
    transcript.
    """
    root = Path(path)
    if root.is_file():
        return [ClipFiles(clip_id=_file_clip_id(root), annotation=root)]
    if not root.is_dir():
        raise FileNotFoundError(f"no such corpus path: {root}")
    fields: dict[str, dict[str, str]] = {}
    for name, _ in _sorted_files(root, recursive=False):
        for suffix, field in _LAYOUT:
            if name.endswith(suffix):
                if field is not None:
                    stem = name[: -len(suffix)]
                    fields.setdefault(stem, {}).setdefault(field, name)
                break
    return [ClipFiles(clip_id, **{field: root / name for field, name in found.items()})
            for clip_id, found in sorted(fields.items())
            if "annotation" in found or "transcript" in found]


def load_structures(path: str | Path, strict: bool = False,
                    read: Callable[[Path], bytes] = Path.read_bytes
                    ) -> dict[str, list[StructureRecord]]:
    """Load annotation records keyed by clip_id from a file or directory."""
    return {
        files.clip_id: parse_annotation_json(
            read(files.annotation), strict=strict, clip_id=files.clip_id)
        for files in iter_clip_files(path)
        if files.annotation is not None
    }


def _clip(files: ClipFiles, gold: tuple[StructureRecord, ...] | None,
          read: Callable[[Path], bytes] = Path.read_bytes,
          utterances: bool = True) -> Clip:
    """A clip from its annotation records plus any transcript/cast on disk; a
    cast list whose non-empty `clip_id` names another clip is a ParseError.
    Without `utterances` the transcript is neither read nor parsed."""
    lines: tuple[Utterance, ...] = ()
    if utterances and files.transcript is not None:
        lines = tuple(parse_transcript_tsv(read(files.transcript), clip_id=files.clip_id))
    show_id, cast = "", ()
    if files.cast is not None:
        cast_clip, show_id, cast_list = parse_cast_json(read(files.cast))
        if cast_clip and cast_clip != files.clip_id:
            raise ParseError(f"cast list is for clip {cast_clip!r}, "
                             f"not clip {files.clip_id!r}")
        cast = tuple(cast_list)
    return Clip(clip_id=files.clip_id, show_id=show_id, cast=cast,
                utterances=lines, gold=gold)


def iter_corpus(path: str | Path, strict: bool = False,
                read: Callable[[Path], bytes] = Path.read_bytes,
                utterances: bool = True) -> Iterator[Clip]:
    """Yield full clips (annotations plus any transcripts/casts present) one
    at a time, in clip id order, so a caller keeps only its own reduction.

    Each clip's annotation, then transcript, then cast is parsed as the clip
    is reached, so the first broken file raises as `load_corpus` would. The
    path is listed at the call, and a missing one raises there. With
    `utterances=False` no transcript is read, so a broken one is no error,
    and every clip's `utterances` is empty; for callers that read only the
    annotations and the show id."""
    def clips(found: list[ClipFiles]) -> Iterator[Clip]:
        for files in found:
            gold = None
            if files.annotation is not None:
                gold = tuple(parse_annotation_json(
                    read(files.annotation), strict=strict, clip_id=files.clip_id))
            yield _clip(files, gold, read, utterances)

    return clips(iter_clip_files(path))


def _in_clip_order(clips: Iterable[Clip]) -> Iterator[Clip]:
    """`clips` by clip id, so that no report depends on their order: a
    re-iterable is sorted, and a one-shot iterator (`iter_corpus`, say) is
    read as it comes and must ascend; a descending id is a StatsError."""
    clips = clips if iter(clips) is clips else sorted(clips, key=lambda c: c.clip_id)
    previous = ""
    for clip in clips:
        if clip.clip_id < previous:  # equal ids pass, as a stable sort keeps them
            raise StatsError(f"clip {clip.clip_id!r} comes after clip {previous!r}: "
                             f"a clip stream must ascend by clip id")
        previous = clip.clip_id
        yield clip


def load_corpus(path: str | Path, strict: bool = False,
                read: Callable[[Path], bytes] = Path.read_bytes) -> dict[str, Clip]:
    """Every clip of `iter_corpus`, keyed and ordered by clip id."""
    return {clip.clip_id: clip for clip in iter_corpus(path, strict, read)}


def validate_paths(paths: Iterable[str | Path], strict: bool = False
                   ) -> list[Diagnostic]:
    """Every diagnostic for the clips under `paths`, sorted by clip, line, code;
    a file that cannot be parsed at all yields one PARSE error."""
    diags: list[Diagnostic] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such path: {root}")
        for files in iter_clip_files(root):
            try:
                gold = None
                if files.annotation is not None:
                    records, read_diags = _read_records(
                        _decode_json(files.annotation.read_bytes(), "annotation"),
                        strict, files.clip_id)
                    diags += read_diags
                    gold = tuple(records)
                diags += _check_clip(_clip(files, gold),
                                     transcribed=files.transcript is not None)
            except ParseError as exc:
                diags.append(Diagnostic("PARSE", ERROR, str(exc), files.clip_id))
    return sorted(diags, key=lambda d: (d.clip_id, d.line_idx or 0, d.code))
