"""Weighted log-odds with an informative Dirichlet prior, stratified by show.

Per term t and show s, the group-difference statistic contrasts group a
against group b with prior counts alpha_t = C* x p_t proportional to the
term's background frequency:

    delta_ts = log[(y_tsa + a_t) / (n_sa + a_0 - y_tsa - a_t)]
             - log[(y_tsb + a_t) / (n_sb + a_0 - y_tsb - a_t)]
    sigma2_ts ~= 1/(y_tsa + a_t) + 1/(y_tsb + a_t)
    zeta_ts = delta_ts / sqrt(sigma2_ts)

The prior strength C* is set by Empirical Bayes calibration: permute group
labels within each show and pick the grid value whose null z-scores have
standard deviation closest to 1. Per-show z-scores aggregate across the k
shows with equal-weight Stouffer combination, Z_t = sum(zeta_ts) / sqrt(k).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..corpus import Clip
from .bootstrap import StatsError

GROUP_A = "a"
GROUP_B = "b"
# prior strengths tried by calibration unless a grid is given: 1 to 10^4
DEFAULT_GRID = tuple(float(c) for c in np.logspace(0, 4, 9))
# permuted label rows tabulated at once during calibration
_CALIBRATION_BLOCK = 8

_APOSTROPHES = str.maketrans({"’": "'", "ʼ": "'"})
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, keeping internal apostrophes."""
    return _TOKEN_RE.findall(text.lower().translate(_APOSTROPHES))


@dataclass(frozen=True)
class Document:
    """One resampling/permutation unit: a bag of tokens with show and group."""

    show_id: str
    group: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.group not in (GROUP_A, GROUP_B):
            raise StatsError(f"group must be '{GROUP_A}' or '{GROUP_B}', got {self.group!r}")


def utterance_documents(clips: Iterable[Clip], filter_nondialogic: bool = False
                        ) -> list[Document]:
    """One document per annotated transcript line: group a without
    side-participants, group b with them."""
    docs = []
    for clip in clips:
        records = {r.line_idx: r for r in clip.gold or ()}
        for u in sorted(clip.utterances, key=lambda u: u.line_idx):
            record = records.get(u.line_idx)
            if record is None or (filter_nondialogic and record.is_nondialogic):
                continue
            group = GROUP_A if not record.side_participants else GROUP_B
            docs.append(Document(show_id=clip.show_id, group=group,
                                 tokens=tuple(tokenize(u.text))))
    return docs


def _group_a_tables(doc_terms: np.ndarray, doc_show: np.ndarray,
                    shape: tuple[int, int], in_a: np.ndarray) -> np.ndarray:
    """Group-a term counts per show, (k, S, T), for k label rows `in_a` (k, D).

    One offset bincount over the nonzero (document, term, count) entries:
    label row i adds the entries of its group-a documents to table i.
    """
    doc, term, count = doc_terms
    k, (n_shows, n_terms) = in_a.shape[0], shape
    rows, entries = np.nonzero(in_a[:, doc])
    cells = (rows * n_shows + doc_show[doc[entries]]) * n_terms + term[entries]
    tables = np.bincount(cells, weights=count[entries], minlength=k * n_shows * n_terms)
    return tables.reshape(k, n_shows, n_terms)


@dataclass(frozen=True)
class TermCounts:
    """Term counts per (show, group) plus pooled background frequencies.

    Rows are shows, columns the kept vocabulary. When built from documents the
    nonzero document-term entries are retained so group labels can be
    permuted for prior calibration.
    """

    terms: tuple[str, ...]
    shows: tuple[str, ...]
    y_a: np.ndarray  # (S, T) counts in group a
    y_b: np.ndarray  # (S, T) counts in group b
    p: np.ndarray    # (T,) background frequencies, sums to 1
    doc_terms: np.ndarray | None = None    # (3, N) document row, term column, count
    doc_show: np.ndarray | None = None     # (D,) show row index
    doc_in_a: np.ndarray | None = None     # (D,) True where the document is group a

    @property
    def n_a(self) -> np.ndarray:
        return self.y_a.sum(axis=1)

    @property
    def n_b(self) -> np.ndarray:
        return self.y_b.sum(axis=1)

    @classmethod
    def from_documents(cls, docs: Sequence[Document], min_count: int = 5) -> "TermCounts":
        """Build counts from documents, dropping terms rarer than min_count pooled."""
        if not docs:
            raise StatsError("no documents")
        pooled: Counter = Counter()
        for d in docs:
            pooled.update(d.tokens)
        terms = tuple(sorted(t for t, c in pooled.items() if c >= min_count))
        if not terms:
            raise StatsError(f"no term reaches the minimum pooled count of {min_count}")
        term_idx = {t: i for i, t in enumerate(terms)}
        shows = tuple(sorted({d.show_id for d in docs}))
        show_idx = {s: i for i, s in enumerate(shows)}

        kept = [row * len(terms) + term_idx[t] for row, d in enumerate(docs)
                for t in d.tokens if t in term_idx]
        cells, count = np.unique(np.array(kept, dtype=np.int64), return_counts=True)
        doc_terms = np.vstack([*np.divmod(cells, len(terms)), count])
        doc_show = np.array([show_idx[d.show_id] for d in docs], dtype=np.int64)
        doc_in_a = np.array([d.group == GROUP_A for d in docs])
        # group b is totals - group a, exact since every entry is an integer count
        y_a, totals = _group_a_tables(doc_terms, doc_show, (len(shows), len(terms)),
                                      np.vstack([doc_in_a, np.ones_like(doc_in_a)]))
        p = totals.sum(axis=0) / totals.sum()
        return cls(terms, shows, y_a, totals - y_a, p, doc_terms, doc_show, doc_in_a)

    @classmethod
    def from_count_tables(
        cls,
        terms: Sequence[str],
        shows: Sequence[str],
        y_a: np.ndarray,
        y_b: np.ndarray,
        p: np.ndarray | None = None,
    ) -> "TermCounts":
        """Build from explicit count tables; background defaults to pooled frequency."""
        y_a = np.asarray(y_a, dtype=np.float64)
        y_b = np.asarray(y_b, dtype=np.float64)
        if y_a.shape != (len(shows), len(terms)) or y_b.shape != y_a.shape:
            raise StatsError("count tables must be (n_shows, n_terms)")
        if (y_a < 0).any() or (y_b < 0).any():
            raise StatsError("counts must be non-negative")
        if p is None:
            total = y_a.sum() + y_b.sum()
            if total == 0:
                raise StatsError("all counts are zero")
            p = (y_a.sum(axis=0) + y_b.sum(axis=0)) / total
        else:
            p = np.asarray(p, dtype=np.float64)
            if p.shape != (len(terms),) or (p <= 0).any():
                raise StatsError("background frequencies must be positive per term")
            if abs(float(p.sum()) - 1.0) > 1e-9:
                raise StatsError("background frequencies must sum to 1")
        return cls(tuple(terms), tuple(shows), y_a, y_b, p)

    def swapped(self) -> "TermCounts":
        """Groups a and b exchanged; negates every delta and zeta exactly."""
        return TermCounts(
            self.terms, self.shows, self.y_b.copy(), self.y_a.copy(), self.p,
            self.doc_terms, self.doc_show,
            None if self.doc_in_a is None else ~self.doc_in_a,
        )


def _zeta_core(
    y_a: np.ndarray, y_b: np.ndarray, p: np.ndarray, c_star: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta, sigma2, zeta arrays; cells with bad denominators come back NaN."""
    alpha = c_star * p
    alpha0 = c_star  # sum of alpha since p sums to 1
    n_a = y_a.sum(axis=1, keepdims=True)
    n_b = y_b.sum(axis=1, keepdims=True)
    den_a = n_a + alpha0 - y_a - alpha
    den_b = n_b + alpha0 - y_b - alpha
    valid = (den_a > 0) & (den_b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = (np.log(y_a + alpha) - np.log(den_a)) - (
            np.log(y_b + alpha) - np.log(den_b)
        )
        sigma2 = 1.0 / (y_a + alpha) + 1.0 / (y_b + alpha)
        zeta = delta / np.sqrt(sigma2)
    delta = np.where(valid, delta, np.nan)
    zeta = np.where(valid, zeta, np.nan)
    return delta, sigma2, zeta


def weighted_logodds(
    counts: TermCounts, c_star: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-show, per-term (delta, sigma2, zeta) arrays of shape (S, T)."""
    if not (math.isfinite(c_star) and c_star > 0):
        raise StatsError(f"prior strength must be positive and finite, got {c_star}")
    delta, sigma2, zeta = _zeta_core(counts.y_a, counts.y_b, counts.p, c_star)
    if np.isnan(delta).any():
        s, t = np.argwhere(np.isnan(delta))[0]
        raise StatsError(
            f"non-positive log-odds denominator for term {counts.terms[t]!r} "
            f"in show {counts.shows[s]!r}"
        )
    return delta, sigma2, zeta


def stouffer(zetas: Sequence[float]) -> float:
    """Equal-weight Stouffer combination: sum(z) / sqrt(k)."""
    values = np.asarray(zetas, dtype=np.float64)
    if values.size < 1:
        raise StatsError("Stouffer combination needs at least one z-score")
    if not np.isfinite(values).all():
        raise StatsError("Stouffer combination requires finite z-scores")
    return float(values.sum() / np.sqrt(values.size))


def _merge_moments(moments: tuple[int, float, float], values: np.ndarray
                   ) -> tuple[int, float, float]:
    """Fold `values` into running (count, mean, M2) with the pairwise update of
    Chan, Golub & LeVeque; M2 is the sum of squared deviations from the mean."""
    n_a, mean_a, m2_a = moments
    n_b = values.size
    if n_b == 0:
        return moments
    mean_b = float(values.mean())
    m2_b = float(np.square(values - mean_b).sum())
    n = n_a + n_b
    shift = mean_b - mean_a
    return n, mean_a + shift * n_b / n, m2_a + m2_b + shift * shift * n_a * n_b / n


def calibrate_prior(
    counts: TermCounts,
    grid: Sequence[float],
    permutations: int,
    seed: int = 0,
) -> float:
    """Pick the grid value whose permutation-null z-scores have sd closest to 1.

    Document group labels are permuted within each show; the same permutation
    set is reused for every candidate so the comparison is paired and the
    result deterministic in (counts, grid, permutations, seed). Ties resolve
    to the smaller prior strength. Label rows are drawn and tabulated
    `_CALIBRATION_BLOCK` at a time, and each candidate keeps only the running
    moments of its null z-scores, so memory does not grow with `permutations`.
    """
    if not len(grid):
        raise StatsError("calibration grid is empty")
    if not all(math.isfinite(c) and c > 0 for c in grid):
        raise StatsError(f"grid values must be positive and finite, "
                         f"got {[float(c) for c in grid]}")
    if permutations < 1:
        raise StatsError(f"permutations must be >= 1, got {permutations}")
    if counts.doc_terms is None or counts.doc_show is None or counts.doc_in_a is None:
        raise StatsError(
            "calibration permutes document labels: build TermCounts.from_documents"
        )
    show_rows = [np.flatnonzero(counts.doc_show == s) for s in range(len(counts.shows))]
    if not any(len(rows) >= 2 for rows in show_rows):
        raise StatsError(
            "degenerate corpus: no show has two or more documents to permute"
        )

    candidates = sorted(float(c) for c in grid)
    # running (count, mean, M2) of each candidate's finite null z-scores
    moments = [(0, 0.0, 0.0)] * len(candidates)
    totals = counts.y_a + counts.y_b
    # spawning block by block yields the children of one spawn(permutations)
    root = np.random.SeedSequence(seed)
    for first in range(0, permutations, _CALIBRATION_BLOCK):
        block = root.spawn(min(_CALIBRATION_BLOCK, permutations - first))
        labels = np.empty((len(block), counts.doc_in_a.size), dtype=bool)
        for row, child in zip(labels, block):
            rng = np.random.default_rng(child)
            for rows in show_rows:
                row[rows] = rng.permutation(counts.doc_in_a[rows])
        null_a = _group_a_tables(counts.doc_terms, counts.doc_show, counts.y_a.shape,
                                 labels)
        for k, candidate in enumerate(candidates):
            for y_a in null_a:
                _, _, zeta = _zeta_core(y_a, totals - y_a, counts.p, candidate)
                moments[k] = _merge_moments(moments[k], zeta[np.isfinite(zeta)])

    best_c = None
    best_gap = None
    for candidate, (n, _, m2) in zip(candidates, moments):
        if n < 2:
            continue
        gap = abs(math.sqrt(m2 / (n - 1)) - 1.0)
        if best_gap is None or gap < best_gap:
            best_c, best_gap = candidate, gap
    if best_c is None:
        raise StatsError("calibration produced no usable null z-scores")
    return best_c


def logodds_report(docs: Sequence[Document], min_count: int = 5,
                   c_star: float | None = None, grid: Sequence[float] | None = None,
                   permutations: int = 20, seed: int = 0, top: int = 10) -> dict:
    """The full analysis as a report: C*, its calibration, z per term, top terms.

    C* is calibrated over `grid` (default `DEFAULT_GRID`, logarithmic from 1
    to 10^4) unless `c_star` is given.
    """
    if top < 0:
        raise StatsError(f"top must be >= 0, got {top}")
    if not docs:
        raise StatsError("no documents with both annotations and transcript text")
    grid = list(DEFAULT_GRID if grid is None else grid)
    counts = TermCounts.from_documents(docs, min_count=min_count)
    prior = calibrate_prior(counts, grid, permutations, seed) if c_star is None else c_star
    _, _, zeta = weighted_logodds(counts, prior)
    # equal-weight Stouffer per term, most group-a-associated first
    z = zeta.sum(axis=0) / np.sqrt(len(counts.shows))
    ranked = [(counts.terms[i], float(z[i])) for i in np.argsort(-z, kind="stable")]
    return {
        "groups": {GROUP_A: "no side-participants (positive z)",
                   GROUP_B: "side-participants present (negative z)"},
        "c_star": float(prior),
        "calibration": {
            "skipped": c_star is not None,
            "grid": grid,
            "permutations": permutations,
            "permutation_unit": "document (one utterance's token bag), within show",
            "seed": seed,
        },
        "n_documents": len(docs),
        "n_terms": len(counts.terms),
        "shows": list(counts.shows),
        "top_group_a": [[t, z] for t, z in ranked[:top]],
        "top_group_b": [[t, z] for t, z in ranked[::-1][:top]],
        "z": {t: z for t, z in sorted(ranked)},
    }
