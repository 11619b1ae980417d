import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstruct.stats.bootstrap import StatsError
from convstruct.stats.regression import (
    _design,
    _fit_state,
    _logsumexp_rows,
    multinomial_logit,
)


def loglik_and_gradient(beta, x, y):
    """Log-likelihood and gradient with every row one observation, from the
    state the Newton fit itself evaluates."""
    return _fit_state(beta, x, y, np.ones(len(x)))[:2]


def observations_from_counts(cells):
    """cells: {(role, is_female, show): count} -> repeated observation list."""
    out = []
    for (role, is_female, show), count in sorted(cells.items()):
        out.extend([(role, is_female, show)] * count)
    return out


BALANCED = observations_from_counts({
    ("speaker", False, "s1"): 30, ("speaker", True, "s1"): 30,
    ("addressee", False, "s1"): 20, ("addressee", True, "s1"): 20,
    ("side-participant", False, "s1"): 10, ("side-participant", True, "s1"): 10,
    ("speaker", False, "s2"): 40, ("speaker", True, "s2"): 40,
    ("addressee", False, "s2"): 15, ("addressee", True, "s2"): 15,
    ("side-participant", False, "s2"): 25, ("side-participant", True, "s2"): 25,
})


class TestMultinomialLogit:
    def test_balanced_data_gives_unit_odds_ratio(self):
        fit = multinomial_logit(BALANCED)
        for outcome in ("addressee", "side-participant"):
            assert fit.outcomes[outcome].odds_ratio == pytest.approx(1.0, abs=1e-6)
            assert fit.outcomes[outcome].coef["female"] == pytest.approx(0.0, abs=1e-6)

    def test_binary_single_show_matches_cross_product_ratio(self):
        cells = {
            ("speaker", False, "s"): 30, ("addressee", False, "s"): 10,
            ("speaker", True, "s"): 20, ("addressee", True, "s"): 25,
        }
        fit = multinomial_logit(observations_from_counts(cells))
        cross_product = (25 * 30) / (20 * 10)
        assert fit.outcomes["addressee"].odds_ratio == pytest.approx(
            cross_product, abs=1e-6)

    def test_duplication_leaves_coefficients_shrinks_se(self):
        cells = {
            ("speaker", False, "s"): 25, ("addressee", False, "s"): 12,
            ("speaker", True, "s"): 18, ("addressee", True, "s"): 20,
        }
        base = observations_from_counts(cells)
        once = multinomial_logit(base)
        twice = multinomial_logit(base + base)
        for col in ("intercept", "female"):
            assert twice.outcomes["addressee"].coef[col] == pytest.approx(
                once.outcomes["addressee"].coef[col], abs=1e-7)
            assert twice.outcomes["addressee"].se[col] == pytest.approx(
                once.outcomes["addressee"].se[col] / math.sqrt(2), rel=1e-6)

    def test_gradient_matches_central_finite_differences(self):
        x, y, _, _ = _design(BALANCED, "speaker")
        rng = np.random.default_rng(13)
        for _ in range(5):
            beta = rng.normal(scale=0.5, size=(y.shape[1], x.shape[1]))
            _, grad = loglik_and_gradient(beta, x, y)
            step = 1e-5
            for j in range(beta.shape[0]):
                for k in range(beta.shape[1]):
                    up = beta.copy()
                    up[j, k] += step
                    down = beta.copy()
                    down[j, k] -= step
                    ll_up, _ = loglik_and_gradient(up, x, y)
                    ll_down, _ = loglik_and_gradient(down, x, y)
                    numeric = (ll_up - ll_down) / (2 * step)
                    assert grad[j, k] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_converges_with_tight_gradient(self):
        fit = multinomial_logit(BALANCED)
        assert fit.max_abs_gradient < 1e-8

    def test_show_fixed_effects_absorb_show_composition(self):
        # identical female/male role odds in both shows, but different
        # baseline role rates; the female OR must stay 1
        cells = {
            ("speaker", False, "s1"): 40, ("addressee", False, "s1"): 10,
            ("speaker", True, "s1"): 20, ("addressee", True, "s1"): 5,
            ("speaker", False, "s2"): 10, ("addressee", False, "s2"): 40,
            ("speaker", True, "s2"): 5, ("addressee", True, "s2"): 20,
        }
        fit = multinomial_logit(observations_from_counts(cells))
        assert fit.outcomes["addressee"].odds_ratio == pytest.approx(1.0, abs=1e-6)
        assert fit.outcomes["addressee"].coef["show:s2"] == pytest.approx(
            math.log(16.0), abs=1e-6)

    def test_rank_deficiency_names_column(self):
        all_female = observations_from_counts({
            ("speaker", True, "s"): 20, ("addressee", True, "s"): 20,
        })
        with pytest.raises(StatsError, match="female"):
            multinomial_logit(all_female)

    def test_separation_raises(self):
        separated = observations_from_counts({
            ("speaker", False, "s"): 25, ("addressee", True, "s"): 25,
        })
        with pytest.raises(StatsError):
            multinomial_logit(separated)

    def test_single_role_raises(self):
        with pytest.raises(StatsError):
            multinomial_logit([("speaker", False, "s")] * 10)

    def test_count_table_fits_as_its_observations(self):
        cells = {("speaker", False, "s1"): 30, ("speaker", True, "s1"): 20,
                 ("addressee", False, "s1"): 10, ("addressee", True, "s2"): 15,
                 ("speaker", True, "s2"): 12, ("addressee", False, "s2"): 9}
        assert multinomial_logit(cells) == multinomial_logit(observations_from_counts(cells))

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_table_below_one_raises(self, count):
        cells = {("speaker", False, "s"): 5, ("addressee", True, "s"): count}
        with pytest.raises(StatsError, match="counts must be >= 1"):
            multinomial_logit(cells)

    def test_missing_reference_raises(self):
        with pytest.raises(StatsError, match="reference"):
            multinomial_logit([("addressee", False, "s"),
                               ("side-participant", True, "s")] * 5)

    def test_wald_p_values_in_unit_interval(self):
        fit = multinomial_logit(BALANCED)
        for outcome in fit.outcomes.values():
            for value in outcome.p.values():
                assert 0.0 <= value <= 1.0


def stall_observations():
    """A data set whose full Newton step at the optimum lowers the
    log-likelihood by rounding alone (1,853 observations over 2 shows)."""
    rng = random.Random(104)
    shows = [f"s{k}" for k in range(rng.randint(2, 8))]
    obs = []
    for show in shows:
        for female in (False, True):
            for role in ("speaker", "addressee", "side-participant"):
                obs.extend([(role, female, show)] * rng.randint(20, 400))
    rng.shuffle(obs)
    return obs


class TestConvergenceAtRoundingLevel:
    def test_step_that_converges_is_accepted(self):
        obs = stall_observations()
        assert len(obs) == 1853
        fit = multinomial_logit(obs)
        assert fit.max_abs_gradient < 1e-8
        assert fit.n_iter < 100

    def test_reported_estimates_solve_the_score_equations(self):
        obs = stall_observations()
        fit = multinomial_logit(obs)
        x, y, columns, outcomes = _design(obs, "speaker")
        beta = np.array([[fit.outcomes[o].coef[c] for c in columns] for o in outcomes])
        _, grad = loglik_and_gradient(beta, x, y)
        assert np.abs(grad).max() < 1e-8


ROLES = ("speaker", "addressee", "side-participant")


@st.composite
def role_tables(draw):
    """Observations of a random table: 2-5 shows, every role and gender seen in
    every show, so the design has full rank and no separation."""
    n_shows = draw(st.integers(2, 5))
    cells = {(role, is_female, f"show{s}"): draw(st.integers(1, 40))
             for s in range(n_shows) for is_female in (False, True) for role in ROLES}
    return observations_from_counts(cells)


class TestFitOnDistinctObservations:
    """The fit weights distinct observations by count; the estimates are those
    of the per-observation likelihood, whatever the observation order."""

    @settings(max_examples=60, deadline=None)
    @given(obs=role_tables(), shuffle=st.randoms(use_true_random=False))
    def test_estimates_solve_per_observation_score_equations(self, obs, shuffle):
        fit = multinomial_logit(obs)
        assert fit.n_obs == len(obs)
        x, y, columns, outcomes = _design(obs, "speaker")
        assert x.shape[0] == len(obs)
        beta = np.array([[fit.outcomes[o].coef[c] for c in columns] for o in outcomes])
        _, grad = loglik_and_gradient(beta, x, y)
        assert np.abs(grad).max() < 1e-8

        shuffled = list(obs)
        shuffle.shuffle(shuffled)
        again = multinomial_logit(shuffled)
        assert again.log_likelihood == pytest.approx(fit.log_likelihood, abs=1e-9)
        for name, estimate in fit.outcomes.items():
            for column in columns:
                assert again.outcomes[name].coef[column] == pytest.approx(
                    estimate.coef[column], abs=1e-9)
                assert again.outcomes[name].se[column] == pytest.approx(
                    estimate.se[column], abs=1e-9)


def five_step_logsumexp(a):
    """scipy.special.logsumexp(a, axis=1) as scipy 1.17 computes it, one row
    at a time: take the maxima out of the sum, then add them back."""
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row in a:
            top = row.max()
            k = float(np.count_nonzero(row == top))
            s = np.exp(np.where(row == top, -np.inf, row) - top).sum()
            if s != 0:
                s = s / k
            out.append(np.log1p(s) + np.log(k) + top)
    return np.array(out)


def padded_rows(rng, n=400):
    """Rows as the fit builds them, a 0 before each row of linear predictors:
    random scales, integer ties, all-equal rows, large magnitudes and
    non-finite entries."""
    blocks = []
    for width in (1, 2, 3, 5, 9):
        blocks += [
            rng.normal(scale=rng.choice([1e-3, 1.0, 10.0, 60.0]), size=(n, width)),
            rng.integers(-2, 3, size=(n, width)).astype(float),
            np.repeat(rng.normal(scale=5.0, size=(n, 1)), width, axis=1),
            rng.choice([0.0, 1.5, 800.0, -800.0, 1e308, -1e308], size=(n, width)),
            rng.choice([0.0, -2.0, np.inf, -np.inf, np.nan], size=(n, width)),
        ]
    return [np.concatenate([np.zeros((len(b), 1)), b], axis=1) for b in blocks]


class TestLogSumExpRows:
    """The fit's numpy log-sum-exp follows scipy's order of operations, so the
    role report does not depend on whether or which scipy is installed."""

    def test_bitwise_equal_to_the_five_step_formula(self):
        rng = np.random.default_rng(0)
        rows = padded_rows(rng) + [
            np.zeros((1, 4)), np.full((2, 3), 7.25), np.full((1, 3), -np.inf),
            np.array([[np.inf, np.inf, 1.0], [np.nan, 0.0, 1.0], [3.0, 3.0, -np.inf]])]
        for a in rows:
            got, want = _logsumexp_rows(a), five_step_logsumexp(a)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_matches_scipy_within_rounding(self):
        logsumexp = pytest.importorskip("scipy.special").logsumexp
        rng = np.random.default_rng(1)
        for a in padded_rows(rng):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                want = logsumexp(a, axis=1)
            # older scipy (1.10 among them) returns log(sum(exp(a - max))) + max,
            # whose rounding is absolute where the result is near 0
            np.testing.assert_allclose(_logsumexp_rows(a), want, rtol=1e-14, atol=1e-14)
