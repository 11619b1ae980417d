"""Reply-to links, thread partitions, and thread-dynamics events.

A thread is a connected component of reply-to links: the transitive closure
of child -> parent pairs, where a self reply marks the root of a new thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import CorpusError, Participant, StructureRecord

# (child_line_idx, parent_line_idx) pairs with parent < child
LinkSet = frozenset[tuple[int, int]]


class ThreadError(CorpusError):
    """Records or clusters that do not form a thread partition."""


@dataclass(frozen=True)
class ThreadPartition:
    """Disjoint non-empty clusters of line indices, ordered by minimum member."""

    clusters: tuple[frozenset[int], ...]

    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[int]]) -> "ThreadPartition":
        sets = [frozenset(c) for c in clusters]
        if any(not c for c in sets):
            raise ThreadError("partition clusters must be non-empty")
        total = sum(len(c) for c in sets)
        union = frozenset().union(*sets) if sets else frozenset()
        if total != len(union):
            raise ThreadError("partition clusters must be pairwise disjoint")
        return cls(tuple(sorted(sets, key=min)))


def derive_threads(records: Sequence[StructureRecord]) -> ThreadPartition:
    """Thread partition from one pass over the records in line order.

    A thread start is its own thread and every other line joins the thread of
    its parent, so self-linked lines with no children form singleton clusters.
    The result does not depend on record order; clusters come back sorted by
    minimum member index so reports are reproducible. A reply_to that names no
    earlier record raises ThreadError (validated annotations never do).
    """
    thread_of: dict[int, int] = {}
    for r in sorted(records, key=lambda r: r.line_idx):
        if r.is_thread_start:
            thread_of[r.line_idx] = r.line_idx
        elif r.reply_to in thread_of:
            thread_of[r.line_idx] = thread_of[r.reply_to]
        else:
            raise ThreadError(f"line {r.line_idx}: reply_to {r.reply_to} "
                              f"does not name an earlier record")
    clusters: dict[int, list[int]] = {}
    for line, thread in thread_of.items():
        clusters.setdefault(thread, []).append(line)
    return ThreadPartition.from_clusters(clusters.values())


def link_set(records: Sequence[StructureRecord]) -> LinkSet:
    """The set of (child, parent) reply pairs; self links are not links."""
    return frozenset(
        (r.line_idx, r.reply_to) for r in records if r.reply_to != r.line_idx
    )


@dataclass(frozen=True)
class ThreadEvents:
    """Floor dynamics extracted from one clip's records.

    starters: (line_idx, speaker) of mid-clip thread-initiating lines.
    holders:  (child_line_idx, parent_speaker) for replies that constitute
              uptake, i.e. the parent speaker differs from the replier.
    """

    starters: tuple[tuple[int, Participant], ...]
    holders: tuple[tuple[int, Participant], ...]


def thread_events(
    records: Sequence[StructureRecord], include_nondialogic: bool = False
) -> ThreadEvents:
    """Extract thread starts and holds from validated records.

    The clip-initial line never counts as a starter (starting the clip is not
    claiming the floor mid-conversation), and continuations (a speaker
    replying to their own line) never count as holds: holding means receiving
    uptake from someone else. Extra-diegetic and monologue lines are excluded
    from both event types unless include_nondialogic is set.
    """
    if not records:
        return ThreadEvents((), ())
    by_line = {r.line_idx: r for r in records}
    first_line = min(by_line)

    def usable(r: StructureRecord) -> bool:
        return include_nondialogic or not r.is_nondialogic

    starters = []
    holders = []
    for r in sorted(records, key=lambda r: r.line_idx):
        if r.is_thread_start:
            if r.line_idx != first_line and usable(r):
                starters.append((r.line_idx, r.speaker))
            continue
        parent = by_line.get(r.reply_to)
        if parent is None:
            continue
        if parent.speaker == r.speaker:
            continue
        if usable(r) and usable(parent):
            holders.append((r.line_idx, parent.speaker))
    return ThreadEvents(tuple(starters), tuple(holders))
