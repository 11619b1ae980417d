import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convstruct.stats.bootstrap import (
    _BLOCK_ROWS,
    BootstrapConfig,
    StatsError,
    _draw_blocks,
    _sign_flip_p,
    bootstrap_ci,
    bootstrap_ratio_ci,
)


class TestConfig:
    def test_defaults(self):
        config = BootstrapConfig()
        assert config.resamples == 10_000
        assert config.level == 0.95

    def test_rejects_bad_values(self):
        with pytest.raises(StatsError):
            BootstrapConfig(resamples=0)
        with pytest.raises(StatsError):
            BootstrapConfig(level=1.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(StatsError, match="seed must be >= 0"):
            BootstrapConfig(seed=-1)


class TestBootstrapCi:
    def test_constant_statistic_is_degenerate(self):
        interval = bootstrap_ci([1.0, 2.0, 3.0], lambda _: 7.5,
                                BootstrapConfig(resamples=100, seed=0))
        assert interval == (7.5, 7.5, 7.5)

    def test_same_seed_is_bit_identical(self):
        data = list(np.random.default_rng(5).normal(size=40))
        config = BootstrapConfig(resamples=500, seed=11)
        first = bootstrap_ci(data, lambda xs: float(np.mean(xs)), config)
        second = bootstrap_ci(data, lambda xs: float(np.mean(xs)), config)
        assert first == second

    def test_intervals_nest_by_level(self):
        data = list(np.random.default_rng(9).normal(size=60))
        narrow = bootstrap_ci(data, lambda xs: float(np.mean(xs)),
                              BootstrapConfig(resamples=800, level=0.90, seed=3))
        wide = bootstrap_ci(data, lambda xs: float(np.mean(xs)),
                            BootstrapConfig(resamples=800, level=0.95, seed=3))
        assert wide.lo <= narrow.lo <= narrow.hi <= wide.hi

    def test_empty_units_raise(self):
        with pytest.raises(StatsError):
            bootstrap_ci([], lambda xs: 0.0)

    def test_object_units_are_resampled(self):
        units = [{"v": k} for k in range(10)]
        interval = bootstrap_ci(
            units, lambda us: sum(u["v"] for u in us) / len(us),
            BootstrapConfig(resamples=200, seed=1),
        )
        assert interval.point == 4.5
        assert interval.lo <= interval.point <= interval.hi

    def test_numeric_and_object_units_give_one_interval(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=30)
        config = BootstrapConfig(resamples=300, seed=2)
        numeric = bootstrap_ci(values, lambda xs: float(np.mean(xs)), config)
        objects = bootstrap_ci([{"x": float(v)} for v in values],
                               lambda us: float(np.mean([u["x"] for u in us])), config)
        assert numeric.lo == pytest.approx(objects.lo, abs=1e-12)
        assert numeric.hi == pytest.approx(objects.hi, abs=1e-12)

    def test_rough_coverage_on_bernoulli_mean(self):
        # light version of the acceptance check: 200 trials, wide bounds
        hits = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            sample = rng.integers(0, 2, size=200).astype(float)
            interval = bootstrap_ci(sample, lambda xs: float(np.mean(xs)),
                                    BootstrapConfig(resamples=400, seed=seed))
            if interval.lo <= 0.5 <= interval.hi:
                hits += 1
        assert 0.88 <= hits / trials <= 1.0


class TestBootstrapRatioCi:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_index_blocks_stack_to_the_single_draw(self, n):
        # unit indices (high = n) and sign flips (high = 2) take the same path
        rows = 3 * _BLOCK_ROWS + 5
        for high in (n, 2):
            single = np.random.default_rng(9).integers(0, high, size=(rows, n))
            blocks = list(_draw_blocks(high, rows, n, 9))
            assert [b.shape[0] for b in blocks] == [_BLOCK_ROWS] * 3 + [5]
            assert np.array_equal(np.vstack(blocks), single)

    @pytest.mark.parametrize("resamples", [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 37])
    def test_matches_callable_path(self, resamples):
        rng = np.random.default_rng(17)
        num = rng.uniform(-5.0, 5.0, size=(3, 23))
        den = rng.uniform(0.5, 4.0, size=(3, 23))
        den[2] = 1.0  # a plain mean
        config = BootstrapConfig(resamples=resamples, seed=4)
        intervals = bootstrap_ratio_ci(num, den, config)
        assert len(intervals) == 3
        units = np.arange(num.shape[1])
        for k, (lo, hi) in enumerate(intervals):
            ref = bootstrap_ci(
                units, lambda idx, k=k: num[k, idx].sum() / den[k, idx].sum(), config)
            assert lo == pytest.approx(ref.lo, abs=1e-12)
            assert hi == pytest.approx(ref.hi, abs=1e-12)

    def test_one_dimensional_input_is_one_statistic(self):
        config = BootstrapConfig(resamples=300, seed=8)
        female = np.array([3.0, 0.0, 5.0, 2.0])
        total = np.array([4.0, 2.0, 5.0, 6.0])
        assert bootstrap_ratio_ci(female, total, config) == bootstrap_ratio_ci(
            female[None, :], total[None, :], config)

    def test_integer_ratios_of_one_stay_exact(self):
        counts = np.array([[3.0, 7.0, 1.0, 12.0]])
        (interval,) = bootstrap_ratio_ci(100.0 * counts, counts,
                                         BootstrapConfig(resamples=500, seed=2))
        assert interval == (100.0, 100.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(StatsError):
            bootstrap_ratio_ci(np.ones((2, 5)), np.ones((2, 4)))

    @given(m=st.integers(1, 4))
    def test_zero_units_raise(self, m):
        with pytest.raises(StatsError):
            bootstrap_ratio_ci(np.ones((m, 0)), np.ones((m, 0)))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 3),
        n=st.integers(1, 12),
        resamples=st.integers(1, 300),
        level=st.floats(0.5, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_intervals_ordered_and_within_unit_ratios(self, data, m, n, resamples,
                                                      level, seed):
        values = st.floats(-1e3, 1e3, allow_nan=False)
        positive = st.floats(1e-3, 1e3, allow_nan=False)
        num = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                          min_size=m, max_size=m)))
        den = np.array(data.draw(st.lists(st.lists(positive, min_size=n, max_size=n),
                                          min_size=m, max_size=m)))
        intervals = bootstrap_ratio_ci(
            num, den, BootstrapConfig(resamples=resamples, level=level, seed=seed))
        ratios = num / den
        for k, (lo, hi) in enumerate(intervals):
            slack = 1e-9 * max(1.0, float(np.abs(ratios[k]).max()))
            assert lo <= hi
            assert ratios[k].min() - slack <= lo
            assert hi <= ratios[k].max() + slack


class TestSignFlip:
    @pytest.mark.parametrize("permutations", [1, 511, 512, 513, 1537])
    @pytest.mark.parametrize("n", [1, 37, 600])
    def test_equals_the_whole_matrix_formula(self, permutations, n):
        deltas = np.random.default_rng(n).normal(0.02, 1.0, size=n)
        for seed in (0, 5):
            # the reference draws the whole (permutations, n) sign matrix at once
            rng = np.random.default_rng(seed)
            signs = rng.integers(0, 2, size=(permutations, n)) * 2 - 1
            permuted = np.abs((signs * deltas[None, :]).mean(axis=1))
            extreme = int((permuted >= abs(float(deltas.mean()))).sum())
            assert _sign_flip_p(deltas, permutations, seed) == (1 + extreme) / (permutations + 1)
