"""Inter-annotator agreement: the mean of all pairwise metric comparisons.

Each annotator pair is evaluated once, the first annotator by id as gold.
Every score is symmetric in its two annotations (1-NVI bitwise so, since
its mutual-information sum is taken with `math.fsum`), so the direction
does not matter. With line filtering a pair drops the lines that both
annotators flag non-dialogic, and its `n_utterances` and `n_clips` count the
lines and clips left. The overall report is the unweighted mean over pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .corpus import (
    AgreementError,
    ParseError,
    StructureRecord,
    _decode_json,
    _file_clip_id,
    annotation_records,
)
from .metrics import METRIC_FIELDS, EvalConfig, MetricReport, _aligned, evaluate_corpus


@dataclass(frozen=True)
class AnnotatorBatch:
    """One annotator's records, keyed by clip (each clip at most once), and
    the file they were read from, if any."""

    annotator_id: str
    records_by_clip: Mapping[str, Sequence[StructureRecord]]
    path: Path | None = None


@dataclass
class AgreementReport:
    overall: MetricReport
    per_pair: dict[tuple[str, str], MetricReport]
    skipped_pairs: list[tuple[str, str]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "overall": self.overall.as_dict(),
            "per_pair": {
                f"{a}|{b}": report.as_dict()
                for (a, b), report in sorted(self.per_pair.items())
            },
            "skipped_pairs": [list(pair) for pair in sorted(self.skipped_pairs)],
        }


def load_annotators(manifest: str | Path,
                    read: Callable[[Path], bytes] = Path.read_bytes
                    ) -> list[AnnotatorBatch]:
    """Read an agreement manifest (annotator id -> file) and every file in it.

    A file holds one clip's annotation array or an object mapping clip ids to
    annotation arrays. An array's clip id is the file name without its
    annotation suffix (`.annotation.json` or `.json`), as in a corpus directory.
    """
    manifest_path = Path(manifest)
    spec = _decode_json(read(manifest_path), "agreement manifest")
    table = spec.get("annotators", spec) if isinstance(spec, dict) else None
    if not isinstance(table, dict) or not table:
        raise ParseError("agreement manifest must map annotator_id to file path")
    batches = []
    for annotator_id, rel in sorted(table.items()):
        if not isinstance(rel, str):
            raise ParseError(f"agreement manifest: file path of annotator {annotator_id!r} "
                             f"must be a string, got {type(rel).__name__}")
        if "\0" in rel:  # names no file; open() would raise a bare ValueError
            raise ParseError(f"agreement manifest: file path of annotator {annotator_id!r} "
                             f"contains a NUL character")
        path = manifest_path.parent / rel
        payload = _decode_json(read(path), f"annotator file {path}")
        if isinstance(payload, list):
            clip_id = _file_clip_id(path)
            by_clip = {clip_id: annotation_records(payload, clip_id=clip_id)}
        elif isinstance(payload, dict):
            by_clip = {clip_id: annotation_records(records, clip_id=clip_id)
                       for clip_id, records in sorted(payload.items())}
        else:
            raise ParseError(f"annotator file {path} must be a JSON array or object")
        batches.append(AnnotatorBatch(annotator_id, by_clip, path))
    return batches


def _mean_report(reports: Sequence[MetricReport], n_utterances: int,
                 n_clips: int) -> MetricReport:
    values = {
        name: math.fsum(getattr(r, name) for r in reports) / len(reports)
        for name in METRIC_FIELDS
    }
    return MetricReport(**values, n_utterances=n_utterances, n_clips=n_clips)


def _joint_flags(first: Sequence[StructureRecord], second: Sequence[StructureRecord]
                 ) -> list[StructureRecord]:
    """`first` with its non-dialogic flags cleared on the lines `second` does not
    flag, so a line counts as flagged only when both annotators flag it."""
    flagged = {r.line_idx for r in second if r.is_nondialogic}
    return [r if not r.is_nondialogic or r.line_idx in flagged
            else r._replace(extra_diegetic=False, monologue=False) for r in first]


def pairwise_agreement(
    batches: Sequence[AnnotatorBatch], config: EvalConfig | None = None
) -> AgreementReport:
    """Agreement over every unordered annotator pair, on their shared clips.

    Each pair is evaluated once, the first annotator as gold: every score is
    symmetric, and with line filtering the first annotator's records carry
    only the flags both annotators set. Pairs with no shared clip, with no
    line in their shared clips, or whose shared lines both annotators flag
    non-dialogic, are skipped with a warning; if no pair is left the
    computation fails.
    """
    if len(batches) < 2:
        raise AgreementError(f"need at least 2 annotators, got {len(batches)}")
    ids = [b.annotator_id for b in batches]
    if len(set(ids)) != len(ids):
        raise AgreementError(f"duplicate annotator ids: {sorted(ids)}")
    config = config or EvalConfig()

    per_pair: dict[tuple[str, str], MetricReport] = {}
    skipped: list[tuple[str, str]] = []
    ordered = sorted(batches, key=lambda b: b.annotator_id)
    for i, first in enumerate(ordered):
        for second in ordered[i + 1:]:
            pair = (first.annotator_id, second.annotator_id)
            shared = sorted(set(first.records_by_clip) & set(second.records_by_clip))
            if not shared:
                warnings.warn(f"annotators {pair[0]!r} and {pair[1]!r} share no clips")
                skipped.append(pair)
                continue
            left = {c: first.records_by_clip[c] for c in shared}
            right = {c: second.records_by_clip[c] for c in shared}
            if config.filter_nondialogic:
                left = {c: _joint_flags(left[c], right[c]) for c in shared}
            # no line left to score: the shared clips are empty, or filtered out
            if all(config.filter_nondialogic and r.is_nondialogic
                   for c in shared for r in left[c]):
                for c in shared:
                    _aligned(left[c], right[c])  # a line on one side only raises
                flagged = " that not both flag non-dialogic" if config.filter_nondialogic else ""
                warnings.warn(f"annotators {pair[0]!r} and {pair[1]!r} share no line{flagged}")
                skipped.append(pair)
                continue
            per_pair[pair] = evaluate_corpus(left, right, config)
    if not per_pair:
        raise AgreementError("no annotator pair has a shared line to score")

    clip_sets = [set(b.records_by_clip) for b in batches]
    all_clips = set().union(*clip_sets)
    overall = _mean_report(
        list(per_pair.values()),
        n_utterances=sum(r.n_utterances for r in per_pair.values()),
        n_clips=len(all_clips),
    )
    return AgreementReport(overall=overall, per_pair=per_pair, skipped_pairs=skipped)
