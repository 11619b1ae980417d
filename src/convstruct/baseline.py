"""Heuristic baseline: face-frequency role assignment and previous-line linking.

The full baseline counts, for every line, how often each face is on screen at
the word level. The most frequent face within the line is the speaker; the
most frequent non-speaker face over the two-line window [i-1, i] is the
addressee; every other face seen in the window is a side-participant; and
each line replies to the previous one. The reply-only variant applies just
the linking rule and needs no face data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, le
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import (
    UNKNOWN,
    Clip,
    CorpusError,
    ParseError,
    Participant,
    StructureRecord,
    _BadCell,
    _decode_json,
    _file_name,
    _first_false,
    _id_field,
    _in_clip_order,
    _numbers,
    _tsv_columns,
)

UNKNOWN_SPEAKER = Participant("unknown", UNKNOWN)


@dataclass(frozen=True)
class FaceTrack:
    """On-screen intervals for one participant's face within a clip."""

    clip_id: str
    participant: Participant
    spans: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for start, end in self.spans:
            if not start < end:
                raise CorpusError(
                    f"degenerate face span [{start}, {end}] for "
                    f"{self.participant.token!r}"
                )
        if list(self.spans) != sorted(self.spans):
            raise CorpusError(f"face spans for {self.participant.token!r} are unsorted")

    @property
    def first_appearance(self) -> float:
        return self.spans[0][0] if self.spans else float("inf")


class WordToken(NamedTuple):
    """One word with timestamps, belonging to a transcript line. A named
    tuple, like `corpus.Utterance`: it equals, hashes and orders as the plain
    tuple of its fields."""

    line_idx: int
    word: str
    start_s: float
    end_s: float


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_face_tracks_json(data: bytes) -> list[FaceTrack]:
    """Parse `{"clip_id": ..., "faces": [{"name": ..., "spans": [[s, e], ...]}]}`.

    Span times must be finite JSON numbers, every span must end after it
    starts, and no two entries may name the same participant once names are
    normalized.
    """
    payload = _decode_json(data, "face track")
    if not isinstance(payload, dict) or not isinstance(payload.get("faces"), list):
        raise ParseError("face track JSON must be an object with a 'faces' array")
    clip_id = _id_field(payload, "clip_id", "face track")
    tracks = []
    positions: dict[Participant, int] = {}
    for pos, face in enumerate(payload["faces"]):
        if not (isinstance(face, dict) and isinstance(face.get("name"), str)
                and "spans" in face):
            raise ParseError(f"face entry {pos} needs a 'name' string and 'spans'")
        if not (isinstance(face["spans"], list) and all(
                isinstance(span, list) and len(span) == 2 and all(map(_is_number, span))
                for span in face["spans"])):
            raise ParseError(f"face entry {pos}: spans must be [start, end] "
                             f"number pairs")
        try:
            spans = tuple(sorted((float(s), float(e)) for s, e in face["spans"]))
            finite = all(math.isfinite(t) for span in spans for t in span)
        except OverflowError:  # a JSON integer too large for a float
            finite = False
        if not finite:
            raise ParseError(f"face entry {pos}: span times must be finite")
        participant = _file_name(face["name"], f"face entry {pos}")
        if participant in positions:
            raise ParseError(f"face entries {positions[participant]} and {pos} both "
                             f"name {participant.token!r}")
        positions[participant] = pos
        try:
            tracks.append(FaceTrack(clip_id=clip_id, participant=participant, spans=spans))
        except CorpusError as exc:
            raise ParseError(f"face entry {pos}: {exc}") from None
    return tracks


def parse_word_tokens_tsv(data: bytes) -> list[WordToken]:
    """Parse word tokens TSV: `line_idx word start end`, sorted by line, then
    start, then end. Checks run column by column, each naming its first bad
    row: the numbers (line_idx, start, end), then finite times (start, end),
    then start <= end, then line_idx >= 1."""
    rows, (line_cells, words, start_cells, end_cells) = _tsv_columns(
        data, "word token", ("line_idx", "word", "start", "end"))
    try:
        lines, starts, ends = (_numbers(line_cells, int), _numbers(start_cells),
                               _numbers(end_cells))
    except _BadCell as bad:
        raise ParseError(f"word token row {rows[bad.index]}: bad numeric field") from None
    for times in (starts, ends):
        k = _first_false(map(math.isfinite, times))
        if k is not None:
            raise ParseError(f"word token row {rows[k]}: times must be finite")
    k = _first_false(map(le, starts, ends))
    if k is not None:
        raise ParseError(
            f"word token row {rows[k]}: start {starts[k]} is after end {ends[k]}")
    k = _first_false(map(le, repeat(1), lines))
    if k is not None:
        raise ParseError(f"word token row {rows[k]}: line_idx must be >= 1, "
                         f"got {lines[k]}")
    tokens = list(map(tuple.__new__, repeat(WordToken), zip(lines, words, starts, ends)))
    tokens.sort(key=itemgetter(0, 2, 3))
    return tokens


def face_word_counts(
    tracks: Sequence[FaceTrack], words: Sequence[WordToken]
) -> dict[tuple[int, Participant], int]:
    """Count each face once per word whose interval intersects any of its spans.

    Overlap is strict: a word and a span that only touch, and a zero-length
    word, count nothing. Each track is one sorted sweep: the last span that
    starts before a word ends is found by binary search, and the word hits the
    track iff the running maximum of span ends up to that span is after the
    word's start.
    """
    starts = np.array([w.start_s for w in words], dtype=float)
    ends = np.array([w.end_s for w in words], dtype=float)
    lines = np.array([w.line_idx for w in words], dtype=np.int64)
    timed = starts < ends
    counts: dict[tuple[int, Participant], int] = {}
    for track in tracks:
        if not track.spans:
            continue
        spans = np.array(track.spans, dtype=float)
        reach = np.maximum.accumulate(spans[:, 1])
        last = np.searchsorted(spans[:, 0], ends, side="left") - 1
        hit = timed & (last >= 0) & (reach[np.maximum(last, 0)] > starts)
        line_ids, hits = np.unique(lines[hit], return_counts=True)
        for line_idx, n in zip(line_ids.tolist(), hits.tolist()):
            key = (line_idx, track.participant)
            counts[key] = counts.get(key, 0) + n
    return counts


def _rank_key(tracks_by_face: Mapping[Participant, FaceTrack]):
    """Ties break by earliest first appearance in the clip, then by name."""

    def key(item: tuple[Participant, int]):
        face, count = item
        track = tracks_by_face.get(face)
        first = track.first_appearance if track else float("inf")
        return (-count, first, face.token)

    return key


def run_baseline(
    clip: Clip, tracks: Sequence[FaceTrack], words: Sequence[WordToken]
) -> list[StructureRecord]:
    """Face-frequency roles plus previous-line links for every utterance.

    A line with no visible faces gets the reserved "unknown" speaker; a window
    with no non-speaker face gets no addressee. The context window for the
    clip-initial line is just the line itself. A track whose non-empty
    `clip_id` names another clip, and a word on a line the transcript lacks,
    are `CorpusError`s.
    """
    if not clip.utterances:
        raise CorpusError(f"clip {clip.clip_id!r} has no utterances")
    for track in tracks:
        if track.clip_id and track.clip_id != clip.clip_id:
            raise CorpusError(f"face tracks are for clip {track.clip_id!r}, "
                              f"not clip {clip.clip_id!r}")
    lines = {u.line_idx for u in clip.utterances}
    for word in words:
        if word.line_idx not in lines:
            raise CorpusError(f"clip {clip.clip_id!r}: word {word.word!r} is on line "
                              f"{word.line_idx}, which the transcript lacks")
    counts = face_word_counts(tracks, words)
    tracks_by_face = {t.participant: t for t in tracks}
    rank = _rank_key(tracks_by_face)

    by_line: dict[int, dict[Participant, int]] = {}
    for (idx, face), count in counts.items():
        by_line.setdefault(idx, {})[face] = count

    records = []
    ordered = sorted(clip.utterances, key=lambda u: u.line_idx)
    for pos, utterance in enumerate(ordered):
        i = utterance.line_idx
        within = by_line.get(i, {})
        if within:
            speaker = min(within.items(), key=rank)[0]
        else:
            speaker = UNKNOWN_SPEAKER

        window: dict[Participant, int] = dict(within)
        if pos > 0:
            for face, count in by_line.get(ordered[pos - 1].line_idx, {}).items():
                window[face] = window.get(face, 0) + count
        candidates = {f: c for f, c in window.items() if f != speaker}
        if candidates:
            addressee = min(candidates.items(), key=rank)[0]
            addressees = frozenset([addressee])
            side = frozenset(f for f in candidates if f != addressee)
        else:
            addressees = frozenset()
            side = frozenset()

        records.append(StructureRecord(
            line_idx=i,
            speaker=speaker,
            addressees=addressees,
            side_participants=side,
            reply_to=i if pos == 0 else ordered[pos - 1].line_idx,
        ))
    return records


def _side_file(base: str | None, clip_id: str, suffix: str, what: str, parse, read) -> list:
    """A clip's parsed --faces or --words input, [] if none is given: the path
    itself if it is a file, else the clip's file in that directory."""
    if base is None:
        return []
    path = Path(base) if Path(base).is_file() else Path(base) / f"{clip_id}{suffix}"
    if not path.exists():
        raise CorpusError(f"no {what} for clip {clip_id!r}")
    return parse(read(path))


def run_corpus_baseline(
    clips: Iterable[Clip], faces: str | None = None, words: str | None = None,
    read: Callable[[Path], bytes] = Path.read_bytes,
) -> dict[str, list[StructureRecord]]:
    """The baseline's records for each clip, by clip id, taking the clips in
    clip id order (`corpus._in_clip_order`) so a stream is run as it comes.
    `faces` and `words` each name one file (a one-clip corpus) or a directory
    of `<clip>.faces.json` or `<clip>.words.tsv`; with no `faces` it is the
    reply-only baseline."""
    one_file = []
    for flag, path in (("--faces", faces), ("--words", words)):
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"{flag} not found: {Path(path)}")
        if path is not None and Path(path).is_file():
            one_file.append((flag, path))
    predictions = {}
    for clip in _in_clip_order(clips):
        if predictions and one_file:
            flag, path = one_file[0]
            raise CorpusError(f"{flag} {path} is one file but the corpus has more "
                              f"than one clip; give a directory")
        clip_id = clip.clip_id
        if not clip.utterances:
            raise CorpusError(f"clip {clip_id!r} has no transcript; baseline needs one")
        predictions[clip_id] = run_baseline(clip, _side_file(
            faces, clip_id, ".faces.json", "face tracks", parse_face_tracks_json, read),
            _side_file(words, clip_id, ".words.tsv", "word timings",
                       parse_word_tokens_tsv, read))
    return predictions
