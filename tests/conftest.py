"""Shared builders: records, clips, and random structures for property tests."""

from __future__ import annotations

import os
import random

from hypothesis import settings

from convstruct.corpus import Clip, StructureRecord, Utterance, normalize_name
from convstruct.threads import ThreadPartition

# CI runs HYPOTHESIS_PROFILE=ci: properties that set no max_examples of their
# own (the annotation parser's among them) try five times as many inputs
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

NAMES = [
    "sheldon cooper", "leonard hofstadter", "penny", "amy farrah fowler",
    "howard wolowitz", "rajesh koothrappali", "stephanie barnett", "bernadette",
]


def record(line_idx, speaker, addressees=(), side=(), reply_to=None,
           extra_diegetic=False, monologue=False) -> StructureRecord:
    return StructureRecord(
        line_idx=line_idx,
        speaker=normalize_name(speaker),
        addressees=frozenset(normalize_name(n) for n in addressees),
        side_participants=frozenset(normalize_name(n) for n in side),
        reply_to=line_idx if reply_to is None else reply_to,
        extra_diegetic=extra_diegetic,
        monologue=monologue,
    )


def table4_records() -> list[StructureRecord]:
    """The four-line two-thread example clip (lines 11-14)."""
    return [
        record(11, "leonard hofstadter", ["penny"],
               ["sheldon cooper", "amy farrah fowler"], 11),
        record(12, "penny", ["leonard hofstadter"],
               ["sheldon cooper", "amy farrah fowler"], 11),
        record(13, "penny", ["amy farrah fowler"],
               ["sheldon cooper", "leonard hofstadter"], 13),
        record(14, "amy farrah fowler", ["penny"],
               ["sheldon cooper", "leonard hofstadter"], 13),
    ]


def random_records(rng: random.Random, n_lines: int, participants: list[str],
                   self_link_p: float = 0.3) -> list[StructureRecord]:
    """Valid records: reply_to <= line_idx, disjoint role sets, no speaker roles."""
    records = []
    for i in range(1, n_lines + 1):
        speaker = rng.choice(participants)
        others = [p for p in participants if p != speaker]
        rng.shuffle(others)
        n_addr = rng.randint(0, min(2, len(others)))
        addressees = others[:n_addr]
        rest = others[n_addr:]
        n_side = rng.randint(0, min(2, len(rest)))
        side = rest[:n_side]
        if i == 1 or rng.random() < self_link_p:
            reply = i
        else:
            reply = rng.randint(1, i - 1)
        records.append(record(i, speaker, addressees, side, reply,
                              extra_diegetic=rng.random() < 0.05,
                              monologue=rng.random() < 0.05))
    return records


def random_clip(rng: random.Random, clip_id: str, show_id: str = "show") -> Clip:
    n_lines = rng.randint(2, 30)
    n_people = rng.randint(2, 8)
    participants = rng.sample(NAMES, n_people)
    records = random_records(rng, n_lines, participants)
    utterances = []
    t = 0.0
    for i in range(1, n_lines + 1):
        dur = round(rng.uniform(0.4, 3.0), 3)
        utterances.append(Utterance(clip_id, i, round(t, 3), round(t + dur, 3),
                                    f"line {i}"))
        t += dur + 0.1
    cast = tuple(normalize_name(p) for p in participants)
    return Clip(clip_id=clip_id, show_id=show_id, cast=cast,
                utterances=tuple(utterances), gold=tuple(records))


def random_partition(rng: random.Random, elements: list[int],
                     max_clusters: int | None = None) -> ThreadPartition:
    n = len(elements)
    k = rng.randint(1, min(n, max_clusters or n))
    shuffled = list(elements)
    rng.shuffle(shuffled)
    clusters = [[shuffled[i]] for i in range(k)]
    for x in shuffled[k:]:
        clusters[rng.randrange(k)].append(x)
    return ThreadPartition.from_clusters(clusters)
