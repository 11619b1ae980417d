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
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..corpus import Clip, StatsError, _in_clip_order

GROUP_A = "a"
GROUP_B = "b"
# prior strengths tried by calibration unless a grid is given: 1 to 10^4
DEFAULT_GRID = tuple(float(c) for c in np.logspace(0, 4, 9))

_APOSTROPHES = str.maketrans({"’": "'", "ʼ": "'"})
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, keeping internal apostrophes."""
    return _TOKEN_RE.findall(text.lower().translate(_APOSTROPHES))


def utterance_documents(clips: Iterable[Clip], filter_nondialogic: bool = False
                        ) -> Iterator[tuple[str, str, list[str]]]:
    """Yield one `(show_id, group, tokens)` document per annotated transcript
    line: group `GROUP_A` without side-participants, `GROUP_B` with them, and
    `tokens` as `tokenize` gives them. Documents come in clip id order
    (`corpus._in_clip_order`), then line order."""
    for clip in _in_clip_order(clips):
        records = {r.line_idx: r for r in clip.gold or ()}
        for u in sorted(clip.utterances, key=lambda u: u.line_idx):
            record = records.get(u.line_idx)
            if record is None or (filter_nondialogic and record.is_nondialogic):
                continue
            group = GROUP_A if not record.side_participants else GROUP_B
            yield clip.show_id, group, tokenize(u.text)


class _Ids(dict):
    """Ids in order of first lookup: a missing key gets the next one."""

    def __missing__(self, key: str) -> int:
        value = self[key] = len(self)
        return value


def _cells(doc_terms: np.ndarray, doc_show: np.ndarray, n_terms: int) -> np.ndarray:
    """The flat (show, term) cell of each nonzero document-term entry."""
    return doc_show[doc_terms[0]] * n_terms + doc_terms[1]


def _table(cells: np.ndarray, weights: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (S, T) table of `weights` summed by cell; exact for integer counts."""
    return np.bincount(cells, weights=weights, minlength=shape[0] * shape[1]
                       ).reshape(shape)


@dataclass(frozen=True)
class TermCounts:
    """Term counts per (show, group) plus pooled background frequencies.

    Rows are shows, columns the kept vocabulary. The nonzero document-term
    entries are kept with each document's show and group, so that group
    labels can be permuted for prior calibration.
    """

    terms: tuple[str, ...]
    shows: tuple[str, ...]
    y_a: np.ndarray  # (S, T) counts in group a
    y_b: np.ndarray  # (S, T) counts in group b
    p: np.ndarray    # (T,) background frequencies, sums to 1
    doc_terms: np.ndarray  # (3, N) document row, term column, count
    doc_show: np.ndarray   # (D,) show row index
    doc_in_a: np.ndarray   # (D,) True where the document is group a

    @classmethod
    def from_documents(cls, docs: Iterable[tuple[str, str, Sequence[str]]],
                       min_count: int = 5) -> "TermCounts":
        """Build counts from `(show_id, group, tokens)` documents, such as
        `utterance_documents` yields, dropping terms rarer than min_count pooled.

        `docs` is read once, and no document is held after its turn: each
        token becomes the int id of a growing vocabulary, and the kept terms
        get their sorted columns once every document is in."""
        vocabulary, show_ids = _Ids(), _Ids()
        token_ids, lengths = array("i"), array("q")
        doc_show, doc_in_a = array("q"), array("b")
        for show_id, group, tokens in docs:
            token_ids.extend(map(vocabulary.__getitem__, tokens))
            lengths.append(len(tokens))
            doc_show.append(show_ids[show_id])
            doc_in_a.append(group == GROUP_A)
        if not lengths:
            raise StatsError("no documents")
        pooled = np.bincount(np.asarray(token_ids), minlength=len(vocabulary))
        names = list(vocabulary)
        terms = tuple(sorted(names[i] for i in np.flatnonzero(pooled >= min_count)))
        if not terms:
            raise StatsError(f"no term reaches the minimum pooled count of {min_count}")
        shows = tuple(sorted(show_ids))
        shape = (len(shows), len(terms))
        # provisional ids to sorted columns and rows; a dropped term's column is -1
        column = np.full(len(vocabulary), -1, dtype=np.int64)
        column[[vocabulary[t] for t in terms]] = np.arange(len(terms))
        row = np.empty(len(shows), dtype=np.int64)
        row[[show_ids[s] for s in shows]] = np.arange(len(shows))

        # the key (document row * T + term column) of each kept token, built in
        # place, and its unique cells unpacked into the rows of `doc_terms`
        # (document, term, count), so each int64 temporary is freed when used
        term = column[np.asarray(token_ids)]
        del token_ids
        keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * len(terms),
                         np.asarray(lengths))
        keys += term
        keys = keys[term >= 0]
        del term
        cells, count = np.unique(keys, return_counts=True)
        del keys
        doc_terms = np.empty((3, cells.size), dtype=np.int64)
        np.divmod(cells, len(terms), out=(doc_terms[0], doc_terms[1]))
        doc_terms[2] = count
        del cells, count
        doc_show = row[np.asarray(doc_show)]
        doc_in_a = np.asarray(doc_in_a).view(np.bool_)
        # group b is totals - group a, exact since every entry is an integer count
        cell = _cells(doc_terms, doc_show, len(terms))
        totals = _table(cell, doc_terms[2], shape)
        y_a = _table(cell, doc_terms[2] * doc_in_a[doc_terms[0]], shape)
        p = totals.sum(axis=0) / totals.sum()
        return cls(terms, shows, y_a, totals - y_a, p, doc_terms, doc_show, doc_in_a)


def _zeta_core(
    y_a: np.ndarray, y_b: np.ndarray, p: np.ndarray, c_star: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta, sigma2, zeta arrays; cells with bad denominators come back NaN.

    Each `y + alpha` serves both its log and its variance term, and every
    step after it writes into its own temporaries; `y_a` and `y_b` are only
    read."""
    alpha = c_star * p
    alpha0 = c_star  # sum of alpha since p sums to 1
    den_a = y_a.sum(axis=1, keepdims=True) + alpha0 - y_a
    den_a -= alpha
    den_b = y_b.sum(axis=1, keepdims=True) + alpha0 - y_b
    den_b -= alpha
    invalid = ~((den_a > 0) & (den_b > 0))
    y_a = y_a + alpha
    y_b = y_b + alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.log(y_a)
        delta -= np.log(den_a, out=den_a)
        log_b = np.log(y_b)
        log_b -= np.log(den_b, out=den_b)
        delta -= log_b
        sigma2 = np.divide(1.0, y_a, out=y_a)
        sigma2 += np.divide(1.0, y_b, out=y_b)
        zeta = np.sqrt(sigma2)
        np.divide(delta, zeta, out=zeta)
    np.copyto(delta, np.nan, where=invalid)
    np.copyto(zeta, np.nan, where=invalid)
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
    to the smaller prior strength. Permutations are drawn and tabulated one at
    a time, and each candidate keeps only the running moments of its null
    z-scores, so memory does not grow with `permutations`.
    """
    if not len(grid):
        raise StatsError("calibration grid is empty")
    if not all(math.isfinite(c) and c > 0 for c in grid):
        raise StatsError(f"grid values must be positive and finite, "
                         f"got {[float(c) for c in grid]}")
    if permutations < 1:
        raise StatsError(f"permutations must be >= 1, got {permutations}")
    if seed < 0:
        raise StatsError(f"seed must be >= 0, got {seed}")
    show_rows = [np.flatnonzero(counts.doc_show == s) for s in range(len(counts.shows))]
    if not any(len(rows) >= 2 for rows in show_rows):
        raise StatsError(
            "degenerate corpus: no show has two or more documents to permute"
        )

    candidates = sorted(float(c) for c in grid)
    # running (count, mean, M2) of each candidate's finite null z-scores
    moments = [(0, 0.0, 0.0)] * len(candidates)
    totals = counts.y_a + counts.y_b
    # each permuted group-a table is one bincount of the labelled entries' counts
    doc = counts.doc_terms[0]
    cell = _cells(counts.doc_terms, counts.doc_show, counts.y_a.shape[1])
    weights = counts.doc_terms[2].astype(np.float64)
    labels = np.empty_like(counts.doc_in_a)
    # spawning one child at a time yields the children of one spawn(permutations)
    root = np.random.SeedSequence(seed)
    for _ in range(permutations):
        rng = np.random.default_rng(root.spawn(1)[0])
        for rows in show_rows:
            labels[rows] = rng.permutation(counts.doc_in_a[rows])
        null_a = _table(cell, weights * labels[doc], counts.y_a.shape)
        null_b = totals - null_a
        for k, candidate in enumerate(candidates):
            _, _, zeta = _zeta_core(null_a, null_b, counts.p, candidate)
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


def logodds_report(docs: Iterable[tuple[str, str, Sequence[str]]], min_count: int = 5,
                   c_star: float | None = None, grid: Sequence[float] | None = None,
                   permutations: int = 20, seed: int = 0, top: int = 10) -> dict:
    """The full analysis as a report: C*, its calibration, z per term, top terms.

    C* is calibrated over `grid` (default `DEFAULT_GRID`, logarithmic from 1
    to 10^4) unless `c_star` is given.
    """
    if top < 0:
        raise StatsError(f"top must be >= 0, got {top}")
    docs = iter(docs)
    first = next(docs, None)
    if first is None:
        raise StatsError("no documents with both annotations and transcript text")
    grid = list(DEFAULT_GRID if grid is None else grid)
    counts = TermCounts.from_documents(chain([first], docs), min_count=min_count)
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
        "n_documents": len(counts.doc_show),
        "n_terms": len(counts.terms),
        "shows": list(counts.shows),
        "top_group_a": [[t, z] for t, z in ranked[:top]],
        "top_group_b": [[t, z] for t, z in ranked[::-1][:top]],
        "z": {t: z for t, z in sorted(ranked)},
    }
