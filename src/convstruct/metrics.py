"""The seven-score evaluation suite for conversational roles and threads.

Role scores (speaker accuracy, addressee and side-participant set F1) compare
per-line labels; thread scores (link F1, 1-NVI, one-to-one overlap, exact
match F1) compare reply-to links and the partitions they induce.
`set_f1`, `link_f1` and `exact_match` return fractions; `nvi_score` and
`one_to_one` return percents. `score_clip` is the one role scorer: it sums
each line's speaker match and role-set F1s, and puts every score on the
0..100 scale that `evaluate_corpus` reports, where evaluating any input
against itself is exactly 100.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import MetricInputError, StructureRecord
from .threads import LinkSet, ThreadPartition, derive_threads, link_set
from .stats.bootstrap import BootstrapConfig, bootstrap_ratio_ci

METRIC_FIELDS = (
    "speaker_acc",
    "addressee_f1",
    "side_participant_f1",
    "link_f1",
    "nvi_score",
    "one_to_one",
    "exact_match_f1",
)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _aligned(gold: Sequence[StructureRecord], pred: Sequence[StructureRecord]
             ) -> list[tuple[StructureRecord, StructureRecord]]:
    """The (gold, pred) record pair of every line, in line order; records may come
    in any order, but both sides must cover the same lines, each once."""
    by_line = attrgetter("line_idx")
    gold, pred = sorted(gold, key=by_line), sorted(pred, key=by_line)
    gold_lines = [r.line_idx for r in gold]
    pred_lines = [r.line_idx for r in pred]
    if gold_lines != pred_lines:
        raise MetricInputError(
            f"gold and prediction cover different lines "
            f"(gold {gold_lines[:8]}..., pred {pred_lines[:8]}...)"
        )
    if len(set(gold_lines)) != len(gold_lines):
        raise MetricInputError("duplicate line_idx in records")
    return list(zip(gold, pred))


def set_f1(gold_set: frozenset, pred_set: frozenset) -> float:
    """Per-line set F1. Both sets empty is a correct prediction and scores 1."""
    if not gold_set and not pred_set:
        return 1.0
    if not gold_set or not pred_set:
        return 0.0
    tp = len(gold_set & pred_set)
    if tp == 0:
        return 0.0
    precision = tp / len(pred_set)
    recall = tp / len(gold_set)
    return 2 * precision * recall / (precision + recall)


def _prf(precision: float, recall: float) -> PRF:
    if precision + recall == 0:
        return PRF(precision, recall, 0.0)
    return PRF(precision, recall, 2 * precision * recall / (precision + recall))


def link_f1(gold: LinkSet, pred: LinkSet) -> PRF:
    """Precision/recall/F1 over exact (child, parent) reply pairs."""
    if not gold and not pred:
        return PRF(1.0, 1.0, 1.0)
    tp = len(gold & pred)
    return _prf(tp / len(pred) if pred else 0.0, tp / len(gold) if gold else 0.0)


# (cells, gold_sizes, pred_sizes), as returned by _contingency
Contingency = tuple[list[tuple[int, int, int]], list[int], list[int]]


def _contingency(gold: ThreadPartition, pred: ThreadPartition) -> Contingency:
    """The nonzero cells of the gold x predicted contingency table, O(n log n).

    Returns (cells, gold_sizes, pred_sizes): cells are (count, gold cluster,
    predicted cluster) in row-major order, built by labelling each element with
    its predicted cluster; the sizes are per cluster, in partition order.
    """
    pred_of = {x: j for j, cluster in enumerate(pred.clusters) for x in cluster}
    gold_sizes = [len(c) for c in gold.clusters]
    cells = []
    for i, cluster in enumerate(gold.clusters):
        try:
            row = Counter(map(pred_of.__getitem__, cluster))
        except KeyError:
            raise MetricInputError("partitions cover different element sets") from None
        cells.extend((m, i, j) for j, m in sorted(row.items()))
    if sum(gold_sizes) != len(pred_of):
        raise MetricInputError("partitions cover different element sets")
    if not pred_of:
        raise MetricInputError("cannot compare empty partitions")
    return cells, gold_sizes, [len(c) for c in pred.clusters]


def _exact_cells(cells, gold_sizes, pred_sizes) -> int:
    """Clusters recovered identically: cells holding all of both their clusters."""
    return sum(1 for m, i, j in cells if m == gold_sizes[i] == pred_sizes[j])


def nvi_score(gold: ThreadPartition, pred: ThreadPartition,
              table: Contingency | None = None) -> float:
    """100 x (1 - VI / log2 n), clamped to [0, 100].

    VI is the variation of information H(C) + H(C') - 2 I(C, C') in bits,
    summed over the nonzero contingency cells only (Meila 2007). Identical
    partitions score exactly 100 (VI is zero by definition, so the
    floating-point path is skipped); n = 1 is defined as 100. `table` is
    `_contingency(gold, pred)`, built here when not given.
    """
    cells, gold_sizes, pred_sizes = table or _contingency(gold, pred)
    n = sum(gold_sizes)
    if n == 1 or (_exact_cells(cells, gold_sizes, pred_sizes)
                  == len(gold_sizes) == len(pred_sizes)):
        return 100.0

    def entropy(sizes: list[int]) -> float:
        return -sum((s / n) * math.log2(s / n) for s in sizes)

    # each cell's term is the same bits with gold and pred swapped (the size
    # product is an exact integer), and fsum rounds only once, so the score is
    # bitwise symmetric whatever order the cells come in
    mutual = math.fsum((m / n) * math.log2((m * n) / (gold_sizes[i] * pred_sizes[j]))
                       for m, i, j in cells)
    vi = entropy(gold_sizes) + entropy(pred_sizes) - 2 * mutual
    score = 100.0 * (1.0 - vi / math.log2(n))
    return min(100.0, max(0.0, score))


def one_to_one(gold: ThreadPartition, pred: ThreadPartition,
               table: Contingency | None = None) -> float:
    """Best injective gold-to-predicted cluster pairing, as percent of n.

    An exact maximum-overlap matching over the nonzero contingency cells,
    found by `_max_overlap`; unmatched clusters contribute zero overlap.
    """
    cells, gold_sizes, _ = table or _contingency(gold, pred)
    return 100.0 * (_max_overlap(cells) / sum(gold_sizes))


def _max_overlap(cells: list[tuple[int, int, int]]) -> int:
    """The largest total count of cells no two of which share a row or column.

    Successive shortest augmenting paths over the cells alone, never a matrix:
    row i takes column j at cost big - count, or its own dummy column ~i (so
    the row may stay unmatched) at cost big, where big exceeds every count.
    All costs are positive, so the row and column potentials start at 0. One
    Dijkstra per row, on costs reduced by those potentials, finds the
    cheapest path to a free column, and the potentials then keep every
    reduced cost nonnegative. Costs are integers, so the optimum is exact.
    """
    big = max(m for m, _, _ in cells) + 1
    edges: dict[int, dict[int, int]] = {}
    for m, i, j in cells:
        edges.setdefault(i, {~i: big})[j] = big - m
    row_pot = dict.fromkeys(edges, 0)
    col_pot: dict[int, int] = {}
    row_of: dict[int, int] = {}  # matched column -> its row
    col_of: dict[int, int] = {}  # matched row -> its column
    for start in edges:
        dist: dict[int, int] = {}  # settled column -> reduced distance from start
        best: dict[int, int] = {}
        came_from: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        row, base = start, 0
        while True:
            base += row_pot[row]
            for col, cost in edges[row].items():
                d = base + cost - col_pot.get(col, 0)
                if col not in dist and d < best.get(col, d + 1):
                    best[col] = d
                    came_from[col] = row
                    heappush(heap, (d, col))
            d, col = heappop(heap)
            while col in dist:  # an entry superseded by a shorter one
                d, col = heappop(heap)
            dist[col] = d
            if col not in row_of:  # a free column: the path ends here
                break
            row, base = row_of[col], d
        # each settled node's potential moves by its distance minus d: reduced
        # costs stay nonnegative and every edge on the path costs 0
        row_pot[start] -= d
        for settled, dc in dist.items():
            col_pot[settled] = col_pot.get(settled, 0) + dc - d
            if settled in row_of:
                row_pot[row_of[settled]] += dc - d
        while col is not None:  # flip the path: each row takes the column after it
            row = came_from[col]
            row_of[col], col, col_of[row] = row, col_of.get(row), col
    return sum(big - edges[i][j] for i, j in col_of.items())


def exact_match(gold: ThreadPartition, pred: ThreadPartition,
                table: Contingency | None = None) -> PRF:
    """Precision/recall/F1 over clusters recovered identically."""
    cells, gold_sizes, pred_sizes = table or _contingency(gold, pred)
    matches = _exact_cells(cells, gold_sizes, pred_sizes)
    return _prf(matches / len(pred_sizes), matches / len(gold_sizes))


@dataclass
class EvalConfig:
    """Evaluation switches: aggregation granularity, line filtering, CIs."""

    aggregate: str = "micro"  # "micro": roles pooled over lines; "macro": per clip
    filter_nondialogic: bool = False  # drop lines flagged extra-diegetic/monologue
    bootstrap: BootstrapConfig | None = None

    def __post_init__(self):
        if self.aggregate not in ("micro", "macro"):
            raise MetricInputError(f"aggregate must be 'micro' or 'macro', "
                                   f"got {self.aggregate!r}")


@dataclass(frozen=True)
class ClipScore:
    """One clip's scores in METRIC_FIELDS order, on the 0..100 scale.

    The three role entries are sums of per-line scores over the clip's
    `n_lines` scored lines; the four thread entries are the clip's scores.
    """

    clip_id: str
    n_lines: int
    values: tuple[float, ...]


@dataclass
class MetricReport:
    """The seven scores (percent) plus counts and optional bootstrap CIs."""

    speaker_acc: float
    addressee_f1: float
    side_participant_f1: float
    link_f1: float
    nvi_score: float
    one_to_one: float
    exact_match_f1: float
    n_utterances: int
    n_clips: int
    ci: dict[str, tuple[float, float]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Fixed key order, 2-decimal display values, full precision under raw."""
        out: dict = {name: round(getattr(self, name), 2) for name in METRIC_FIELDS}
        out["n_utterances"] = self.n_utterances
        out["n_clips"] = self.n_clips
        if self.ci:
            out["ci"] = {
                name: [round(lo, 2), round(hi, 2)] for name, (lo, hi) in self.ci.items()
            }
        out["raw"] = {name: getattr(self, name) for name in METRIC_FIELDS}
        if self.ci:
            out["raw"]["ci"] = {name: list(bounds) for name, bounds in self.ci.items()}
        return out


def _restrict_partition(partition: ThreadPartition, kept: set[int]) -> ThreadPartition:
    clusters = [c & kept for c in partition.clusters]
    return ThreadPartition.from_clusters([c for c in clusters if c])


def score_clip(clip_id: str, gold: Sequence[StructureRecord],
               pred: Sequence[StructureRecord],
               filter_nondialogic: bool = False) -> ClipScore | None:
    """Compute one clip's sufficient statistics, or None if filtering left nothing.

    Filtering drops lines flagged non-dialogic in gold from role scoring and
    restricts link sets and partitions to the surviving lines.
    """
    pairs = _aligned(gold, pred)
    if filter_nondialogic:
        pairs = [(g, p) for g, p in pairs if not g.is_nondialogic]
    if not pairs:
        return None

    matches = sum(g.speaker == p.speaker for g, p in pairs)
    addr_sum = sum(set_f1(g.addressees, p.addressees) for g, p in pairs)
    side_sum = sum(set_f1(g.side_participants, p.side_participants) for g, p in pairs)

    gold_links, pred_links = link_set(gold), link_set(pred)
    gold_part, pred_part = derive_threads(gold), derive_threads(pred)
    if filter_nondialogic:
        kept = {g.line_idx for g, _ in pairs}
        gold_links = frozenset((c, p) for c, p in gold_links if c in kept and p in kept)
        pred_links = frozenset((c, p) for c, p in pred_links if c in kept and p in kept)
        gold_part = _restrict_partition(gold_part, kept)
        pred_part = _restrict_partition(pred_part, kept)
    table = _contingency(gold_part, pred_part)

    return ClipScore(clip_id, len(pairs), (
        100.0 * matches,
        100.0 * addr_sum,
        100.0 * side_sum,
        100.0 * link_f1(gold_links, pred_links).f1,
        nvi_score(gold_part, pred_part, table),
        one_to_one(gold_part, pred_part, table),
        100.0 * exact_match(gold_part, pred_part, table).f1,
    ))


def _ratio_rows(stats: Sequence[ClipScore], aggregate: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip numerator and denominator rows, one per METRIC_FIELDS entry.

    Each score is sum(num) / sum(den) over clips, and the bootstrap resamples
    the same rows. Micro role scores (the first three rows) pool their line
    sums over `n_lines`; macro role scores and the thread scores (partitions
    are per-clip objects) average per-clip values over ones.
    """
    if not stats:
        raise MetricInputError("no scorable clips after filtering")
    num = np.array([s.values for s in stats]).T
    den = np.ones(num.shape)
    n_lines = np.array([s.n_lines for s in stats], dtype=np.float64)
    if aggregate == "macro":
        num[:3] /= n_lines
    else:
        den[:3] = n_lines
    return num, den


def evaluate_corpus(
    gold_clips: Mapping[str, Sequence[StructureRecord]],
    pred_clips: Mapping[str, Sequence[StructureRecord]],
    config: EvalConfig | None = None,
) -> MetricReport:
    """Score a prediction corpus against gold, clip set must match exactly.

    Role metrics pool over utterances ("micro", the default) or average per
    clip ("macro"); thread metrics are per-clip averages in both modes.
    Bootstrap CIs, when configured, resample clips.
    """
    config = config or EvalConfig()
    if set(gold_clips) != set(pred_clips):
        only_gold = sorted(set(gold_clips) - set(pred_clips))
        only_pred = sorted(set(pred_clips) - set(gold_clips))
        raise MetricInputError(
            f"clip sets differ (gold only {only_gold[:5]}, pred only {only_pred[:5]})"
        )
    if not gold_clips:
        raise MetricInputError("no clips to evaluate")

    stats = []
    for clip_id in sorted(gold_clips):
        score = score_clip(clip_id, gold_clips[clip_id], pred_clips[clip_id],
                           filter_nondialogic=config.filter_nondialogic)
        if score is not None:
            stats.append(score)
    num, den = _ratio_rows(stats, config.aggregate)
    values = num.sum(axis=1) / den.sum(axis=1)

    ci: dict[str, tuple[float, float]] = {}
    if config.bootstrap is not None:
        ci = dict(zip(METRIC_FIELDS, bootstrap_ratio_ci(num, den, config.bootstrap)))

    return MetricReport(
        **dict(zip(METRIC_FIELDS, values.tolist())),
        n_utterances=sum(s.n_lines for s in stats),
        n_clips=len(stats),
        ci=ci,
    )
