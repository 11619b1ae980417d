"""Spearman rank correlation and signed explained rank-variance."""

from __future__ import annotations

import csv
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..corpus import StatsError, _number


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties assigned the average of their rank range."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Spearman's rho with a two-sided p from the t approximation (n-2 df).

    Ranks are tie-averaged and correlated with Pearson's formula. Constant
    and non-finite inputs have no defined rank correlation and raise.
    """
    if len(x) != len(y):
        raise StatsError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise StatsError(f"need at least 3 points, got {n}")
    if not np.isfinite(np.asarray([x, y], dtype=float)).all():
        raise StatsError("correlation is undefined for non-finite values")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise StatsError("correlation is undefined for a constant input vector")
    # identical or reversed ranks are exactly +/-1; the float path may not be
    if np.array_equal(rx, ry):
        return 1.0, 0.0
    if np.array_equal(rx, (n + 1) - ry):
        return -1.0, 0.0
    rho = float((dx * dy).sum() / np.sqrt(sxx * syy))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return rho, 0.0
    from scipy.special import stdtr

    t = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, p


def signed_rank_variance(rho: float) -> float:
    """sign(rho) * rho^2 * 100: rank variance explained, keeping direction."""
    if not -1.0 <= rho <= 1.0:
        raise StatsError(f"rho must lie in [-1, 1], got {rho}")
    return float(np.sign(rho) * rho * rho * 100.0)


def read_features_csv(lines: Iterable[str]) -> list[dict[str, str]]:
    """The data rows of a features CSV, as `csv.DictReader` rows.

    A header that names a column twice, or a data row with more cells than the
    header, is a StatsError: a dict row would keep only the last copy of the
    column, or file the extra cells under a `None` key. A row with fewer cells
    is kept; its missing columns read as `None`. A line the csv module cannot
    read (a field over its size limit, say) or text that is not UTF-8 is a
    StatsError too.
    """
    reader = csv.DictReader(lines)
    header: list[str] | None = None
    rows: list[dict[str, str]] = []
    try:
        header = reader.fieldnames or []
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise StatsError(f"features CSV header repeats column(s) {repeated}")
        for row in reader:
            if None in row:
                raise StatsError(f"features CSV row {len(rows) + 1} has "
                                 f"{len(header) + len(row[None])} cells, "
                                 f"but the header has {len(header)}")
            rows.append(row)
    except UnicodeDecodeError as exc:
        raise StatsError(f"features CSV is not valid UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        where = "header" if header is None else f"row {len(rows) + 1}"
        raise StatsError(f"features CSV {where} is unreadable: {exc}") from None
    return rows


def feature_correlations(rows: Sequence[Mapping[str, str]]) -> dict:
    """Spearman rho of every feature column against every `f1_*` column of a
    clip-level feature CSV, given as the rows `read_features_csv` returns."""
    if not rows:
        raise StatsError("features CSV has no data rows")
    columns = list(rows[0].keys())
    targets = [c for c in columns if c.startswith("f1_")]
    features = [c for c in columns if c != "clip_id" and not c.startswith("f1_")]
    if not targets or not features:
        raise StatsError("features CSV needs feature columns and f1_* target columns")

    def column(name) -> list[float] | str:
        """The column's values, or the message for its first bad cell."""
        values = []
        for i, row in enumerate(rows, start=1):
            cell = row.get(name)
            if cell is None or cell == "":
                return f"features CSV row {i} is missing column {name!r}"
            try:
                value = _number(cell)
            except ValueError:
                return f"features CSV row {i}: column {name!r} is not numeric: {cell!r}"
            if not math.isfinite(value):
                return f"features CSV row {i}: column {name!r} is not finite: {cell!r}"
            values.append(value)
        return values

    def correlate(x: list[float] | str, y: list[float] | str) -> dict:
        for values in (x, y):
            if isinstance(values, str):
                return {"error": values}
        try:
            rho, p = spearman(x, y)
            return {"rho": rho, "p_value": p, "signed_r2": signed_rank_variance(rho),
                    "significant": p < 0.05}
        except StatsError as exc:
            return {"error": str(exc)}

    parsed = {name: column(name) for name in features + targets}
    results = [{"target": target, "feature": feature,
                **correlate(parsed[feature], parsed[target])}
               for target in targets for feature in features]
    return {"n_clips": len(rows), "correlations": results}
