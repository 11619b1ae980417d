"""Seeded resampling: percentile bootstrap intervals and the sign-flip test.

`_draw_blocks` makes every seeded draw, the unit indices and `_sign_flip_p`'s
signs, _BLOCK_ROWS rows at a time.
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
    config = config or BootstrapConfig()
    numerators = np.atleast_2d(np.asarray(numerators, dtype=np.float64))
    denominators = np.atleast_2d(np.asarray(denominators, dtype=np.float64))
    if numerators.shape != denominators.shape:
        raise StatsError(f"numerators {numerators.shape} and denominators "
                         f"{denominators.shape} differ in shape")
    m, n = numerators.shape
    weights = np.vstack([numerators, denominators]).T
    values = np.empty((config.resamples, m))
    start = 0
    for block in _draw_blocks(n, config.resamples, n, config.seed):
        rows = block.shape[0]
        offsets = block + n * np.arange(rows)[:, None]
        counts = np.bincount(offsets.ravel(), minlength=rows * n).reshape(rows, n)
        sums = counts @ weights
        values[start:start + rows] = sums[:, :m] / sums[:, m:]
        start += rows
    lo, hi = _percentiles(values, config.level)
    return [(float(a), float(b)) for a, b in zip(lo, hi)]


def _sign_flip_p(deltas: np.ndarray, permutations: int, seed: int) -> float:
    """Two-sided p for mean(delta) = 0 under random sign flips of the deltas,
    counted block by block; each row's mean is its own reduction, so p is the
    one the whole sign matrix gives."""
    observed = abs(float(deltas.mean()))
    extreme = 0
    for block in _draw_blocks(2, permutations, deltas.size, seed):
        permuted = np.abs(((block * 2 - 1) * deltas[None, :]).mean(axis=1))
        extreme += int((permuted >= observed).sum())
    return (1 + extreme) / (permutations + 1)
