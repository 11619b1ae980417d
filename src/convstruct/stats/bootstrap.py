"""Seeded resampling: percentile bootstrap intervals and the sign-flip test.

`_draw_blocks` makes every seeded draw, the unit indices and `_sign_flip_ps`'s
signs, _BLOCK_ROWS rows at a time; statistics over equally many units share
one draw.
`bootstrap_ratio_ci` covers every statistic that is a ratio of weighted sums
over per-unit vectors (micro and macro averages, pooled shares, means) from
unit counts and matrix products. `bootstrap_ci` is the generic form that
recomputes an arbitrary callable on each resample, passed as a list of units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..corpus import StatsError


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 10_000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.resamples < 1:
            raise StatsError(f"resamples must be >= 1, got {self.resamples}")
        if not 0.0 < self.level < 1.0:
            raise StatsError(f"level must be in (0, 1), got {self.level}")
        if self.seed < 0:
            raise StatsError(f"seed must be >= 0, got {self.seed}")


class BootstrapInterval(NamedTuple):
    point: float
    lo: float
    hi: float


# Rows of a seeded draw taken at a time; bounds every resampler's memory.
_BLOCK_ROWS = 512


def _draw_blocks(high: int, rows: int, n: int, seed: int):
    """`integers(0, high, size=(rows, n))` from one generator seeded with `seed`,
    _BLOCK_ROWS rows at a time; the generator carries its stream across calls,
    so the blocks stacked are that single draw. Zero units raise at once."""
    if n == 0:
        raise StatsError("bootstrap needs at least one resampling unit")
    rng = np.random.default_rng(seed)
    return (rng.integers(0, high, size=(min(_BLOCK_ROWS, rows - start), n))
            for start in range(0, rows, _BLOCK_ROWS))


def _percentiles(values: np.ndarray, level: float) -> np.ndarray:
    """Lower and upper percentile bounds along axis 0."""
    alpha = (1.0 - level) / 2.0
    return np.quantile(values, [alpha, 1.0 - alpha], axis=0, overwrite_input=True)


def bootstrap_ci(
    units: Sequence,
    statistic: Callable[[Sequence], float],
    config: BootstrapConfig | None = None,
) -> BootstrapInterval:
    """Percentile interval for `statistic` over units resampled with replacement.

    The point estimate is the statistic on the full data. The resample index
    rows come from `_draw_blocks` seeded with config.seed, so the interval is a
    deterministic function of (units, statistic, config) and two calls with
    the same seed see identical resamples. `statistic` gets the full `units`
    once, for the point estimate, and each resample as a list of units.
    """
    config = config or BootstrapConfig()
    n = len(units)
    idx = (row for block in _draw_blocks(n, config.resamples, n, config.seed)
           for row in block)
    point = float(statistic(units))
    values = np.array([float(statistic([units[j] for j in row])) for row in idx])
    lo, hi = _percentiles(values, config.level)
    return BootstrapInterval(point, float(lo), float(hi))


def bootstrap_ratio_ci(
    numerators: np.ndarray,
    denominators: np.ndarray,
    config: BootstrapConfig | None = None,
) -> list[tuple[float, float]]:
    """Percentile intervals of m ratio statistics sum(c * num_k) / sum(c * den_k).

    `numerators` and `denominators` are (m, n) arrays of per-unit sufficient
    statistics; c is a resample's count of each of the n units. The draw is the
    one `bootstrap_ci` makes under the same config, so each interval equals
    `bootstrap_ci` with the matching ratio callable up to summation order.
    Each block of the draw is counted with one offset bincount, so memory
    beyond the (resamples, m) values is bounded.
    """
    (intervals,) = _ratio_cis([(numerators, denominators)], config)
    return intervals


def _by_size(sizes: Sequence[int]) -> dict[int, list[int]]:
    """The positions of each distinct size, in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    return groups


def _count_blocks(n: int, config: BootstrapConfig):
    """The resample draw of n units as counts, one (rows, n) block at a time:
    row r holds how often resample r drew each unit."""
    for block in _draw_blocks(n, config.resamples, n, config.seed):
        rows = block.shape[0]
        offsets = block + n * np.arange(rows)[:, None]
        yield np.bincount(offsets.ravel(), minlength=rows * n).reshape(rows, n)


def _ratio_cis(
    statistics: Sequence[tuple[np.ndarray, np.ndarray]],
    config: BootstrapConfig | None,
) -> list[list[tuple[float, float]]]:
    """`bootstrap_ratio_ci(numerators, denominators, config)` of each pair.

    The draw depends only on the unit count n and the seed, so pairs of equal
    n share one draw and its counts. Each pair keeps its own `counts @ weights`
    product, at the shape it has alone, so its intervals keep their bits.
    """
    config = config or BootstrapConfig()
    weights, values = [], []
    for numerators, denominators in statistics:
        numerators = np.atleast_2d(np.asarray(numerators, dtype=np.float64))
        denominators = np.atleast_2d(np.asarray(denominators, dtype=np.float64))
        if numerators.shape != denominators.shape:
            raise StatsError(f"numerators {numerators.shape} and denominators "
                             f"{denominators.shape} differ in shape")
        weights.append(np.vstack([numerators, denominators]).T)
        values.append(np.empty((config.resamples, numerators.shape[0])))
    for n, group in _by_size([w.shape[0] for w in weights]).items():
        start = 0
        for counts in _count_blocks(n, config):
            rows = counts.shape[0]
            for k in group:
                m = values[k].shape[1]
                sums = counts @ weights[k]
                values[k][start:start + rows] = sums[:, :m] / sums[:, m:]
            start += rows
    intervals = []
    for v in values:
        lo, hi = _percentiles(v, config.level)
        intervals.append([(float(a), float(b)) for a, b in zip(lo, hi)])
    return intervals


def _sign_flip_ps(deltas: Sequence[np.ndarray], permutations: int, seed: int
                  ) -> list[float]:
    """Two-sided p for mean(delta) = 0 under random sign flips of each delta
    vector, counted block by block; each row's mean is its own reduction, so
    p is the one the whole sign matrix gives. Vectors of equal size share
    one sign draw, as their separate draws would be equal."""
    observed = [abs(float(d.mean())) for d in deltas]
    extreme = [0] * len(deltas)
    for n, group in _by_size([d.size for d in deltas]).items():
        for block in _draw_blocks(2, permutations, n, seed):
            signs = block * 2 - 1
            for k in group:
                permuted = np.abs((signs * deltas[k][None, :]).mean(axis=1))
                extreme[k] += int((permuted >= observed[k]).sum())
    return [(1 + e) / (permutations + 1) for e in extreme]
