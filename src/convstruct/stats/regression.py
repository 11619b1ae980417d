"""Multinomial logistic regression with show fixed effects, fit by damped Newton.

Models log P(role = j) / P(role = reference) as intercept + a female indicator
+ drop-one show dummies, with "speaker" as the reference category. The female
odds ratio per outcome is exp(beta_female) with Wald standard errors. The
fit runs on the distinct observations, each weighted by its count: the
covariates are one indicator and one show, so a corpus has few distinct rows.
The fit uses numpy alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..corpus import StatsError

INTERCEPT = "intercept"
FEMALE = "female"
REFERENCE = "speaker"
TOL = 1e-8
MAX_ITER = 100


def _design(
    observations: Sequence[tuple[str, bool, str]], reference: str
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    roles = sorted({role for role, _, _ in observations})
    if reference not in roles:
        raise StatsError(f"reference role {reference!r} not present in observations")
    if len(roles) < 2:
        raise StatsError("need at least two distinct roles")
    outcomes = [r for r in roles if r != reference]
    shows = sorted({show for _, _, show in observations})
    columns = [INTERCEPT, FEMALE] + [f"show:{s}" for s in shows[1:]]

    n = len(observations)
    x = np.zeros((n, len(columns)))
    y = np.zeros((n, len(outcomes)))
    show_col = {s: 2 + i for i, s in enumerate(shows[1:])}
    outcome_col = {r: j for j, r in enumerate(outcomes)}
    for i, (role, is_female, show) in enumerate(observations):
        x[i, 0] = 1.0
        x[i, 1] = 1.0 if is_female else 0.0
        col = show_col.get(show)
        if col is not None:
            x[i, col] = 1.0
        j = outcome_col.get(role)
        if j is not None:
            y[i, j] = 1.0
    return x, y, columns, outcomes


def _check_rank(x: np.ndarray, columns: list[str]) -> None:
    rank = np.linalg.matrix_rank(x)
    if rank == x.shape[1]:
        return
    # walk columns until one fails to increase the rank; that one is redundant
    running = 0
    for k in range(x.shape[1]):
        new_rank = np.linalg.matrix_rank(x[:, : k + 1])
        if new_rank == running:
            raise StatsError(f"design matrix is rank deficient at column {columns[k]!r}")
        running = new_rank
    raise StatsError("design matrix is rank deficient")


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) in the order of scipy.special.logsumexp (1.17):
    the maxima of each row are taken out of the sum and counted, so a row
    gives the same bits as there. A row whose maximum is -inf gives nan where
    scipy gives -inf; the fit's rows hold a 0 and never have one."""
    top = a.max(axis=1, keepdims=True)
    is_top = a == top
    k = is_top.sum(axis=1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_top, -np.inf, a) - top).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / k)
        return (np.log1p(s) + np.log(k) + top)[:, 0]


def _fit_state(
    beta: np.ndarray, x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, gradient and non-reference probabilities at beta, with
    row i standing for weights[i] identical observations."""
    eta = x @ beta.T  # (n, J)
    padded = np.concatenate([np.zeros((x.shape[0], 1)), eta], axis=1)
    lse = _logsumexp_rows(padded)
    ll = float(weights @ ((y * eta).sum(axis=1) - lse))
    probs = np.exp(eta - lse[:, None])  # (n, J)
    grad = (weights[:, None] * (y - probs)).T @ x  # (J, p)
    return ll, grad, probs


def _information(probs: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Observed information (negative Hessian) as a (J*p, J*p) block matrix:
    block (a, b) sums weights[i] * p_ia * (1[a == b] - p_ib) * x_i x_i^T."""
    j, p = probs.shape[1], x.shape[1]
    cov = probs[:, :, None] * (np.eye(j) - probs[:, None, :])  # (n, J, J)
    return np.einsum("i,iab,ip,iq->apbq", weights, cov, x, x,
                     optimize=True).reshape(j * p, j * p)


@dataclass(frozen=True)
class OutcomeEstimate:
    """Fitted coefficients for one non-reference outcome."""

    coef: dict[str, float]
    se: dict[str, float]
    p: dict[str, float]

    @property
    def odds_ratio(self) -> float:
        return math.exp(self.coef[FEMALE])


@dataclass(frozen=True)
class LogitResult:
    reference: str
    outcomes: dict[str, OutcomeEstimate]
    log_likelihood: float
    n_obs: int
    n_iter: int
    max_abs_gradient: float


def multinomial_logit(observations: Iterable[tuple[str, bool, str]]) -> LogitResult:
    """Maximum-likelihood fit of the role model by damped Newton iterations.

    Each observation is (role, is_female, show_id); they are counted with
    `Counter`, so a mapping of each observation to its count works as well.
    Convergence means the largest gradient component falls below TOL; each
    Newton step is halved until the log-likelihood does not decrease or the
    step lands within TOL (at the optimum, rounding can lower the
    log-likelihood of a converging step by a few ulp). Rank-deficient designs
    and separation raise rather than returning unstable estimates.
    """
    counts = Counter(observations)
    if not counts or min(counts.values()) < 1:
        raise StatsError("observation counts must be >= 1" if counts else "no observations")
    distinct = sorted(counts)
    x, y, columns, outcome_names = _design(distinct, REFERENCE)
    weights = np.array([counts[obs] for obs in distinct], dtype=float)
    _check_rank(x, columns)

    j, p = len(outcome_names), len(columns)
    beta = np.zeros((j, p))
    ll, grad, probs = _fit_state(beta, x, y, weights)
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        if np.abs(grad).max() < TOL:
            break
        info = _information(probs, x, weights)
        try:
            step = np.linalg.solve(info, grad.reshape(-1))
        except np.linalg.LinAlgError:
            worst = columns[int(np.abs(beta).max(axis=0).argmax())]
            raise StatsError(
                f"singular information matrix (possible separation on column {worst!r})"
            ) from None
        step = step.reshape(j, p)
        scale = 1.0
        for _ in range(60):
            candidate = beta + scale * step
            state = _fit_state(candidate, x, y, weights)
            if state[0] >= ll or np.abs(state[1]).max() < TOL:
                break
            scale *= 0.5
        else:
            raise StatsError(
                f"Newton step failed to improve the log-likelihood "
                f"(gradient max {np.abs(grad).max():.3e})"
            )
        beta, (ll, grad, probs) = candidate, state
    max_grad = float(np.abs(grad).max())
    if max_grad >= TOL:
        raise StatsError(
            f"no convergence in {MAX_ITER} iterations (gradient max {max_grad:.3e})"
        )
    if np.abs(beta).max() > 30.0:
        worst = columns[int(np.abs(beta).max(axis=0).argmax())]
        raise StatsError(f"diverging coefficients: separation on column {worst!r}")

    info = _information(probs, x, weights)
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        worst = columns[int(np.abs(beta).max(axis=0).argmax())]
        raise StatsError(
            f"singular information matrix at the optimum (column {worst!r})"
        ) from None
    se = np.sqrt(np.diag(cov)).reshape(j, p)

    outcomes = {}
    for a, name in enumerate(outcome_names):
        coef = {c: float(beta[a, k]) for k, c in enumerate(columns)}
        ses = {c: float(se[a, k]) for k, c in enumerate(columns)}
        zs = {c: coef[c] / ses[c] if ses[c] > 0 else math.inf for c in columns}
        ps = {c: math.erfc(abs(zs[c]) / math.sqrt(2)) for c in columns}
        outcomes[name] = OutcomeEstimate(coef=coef, se=ses, p=ps)
    return LogitResult(
        reference=REFERENCE,
        outcomes=outcomes,
        log_likelihood=ll,
        n_obs=sum(counts.values()),
        n_iter=n_iter,
        max_abs_gradient=max_grad,
    )
