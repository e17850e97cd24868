"""Scalar quantizer kernels and reference ops.

The ops return the engine's Round: per_client and indices are (n, 1),
the estimate a (1,) array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrq.randomness import build_context, trial_seeds
from corrq.scalar_quant import (
    ScalarBatch,
    concentration_stats,
    correlated_bits,
    independent_sq,
    k_level_cq,
    level_cells,
    level_spacing,
    one_bit_cq,
    uniform_grid_cells,
)


def batch01(values):
    return ScalarBatch(np.asarray(values, dtype=float), 0.0, 1.0)


class TestScalarBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScalarBatch(np.array([0.5]), 1.0, 0.0)
        with pytest.raises(ValueError):
            ScalarBatch(np.array([1.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            ScalarBatch(np.array([np.nan]), 0.0, 1.0)
        with pytest.raises(ValueError):
            ScalarBatch(np.array([]), 0.0, 1.0)

    def test_constant_batch_mean_is_exact(self):
        # 100 copies of 0.01 defeat a naive float mean by one ulp
        assert batch01(np.full(100, 0.01)).mean() == 0.01
        for n in (3, 7, 49, 100, 1000):
            for v in (0.01, 0.07, 1 / 3, 0.99):
                assert ScalarBatch(np.full(n, v), 0.0, 1.0).mean() == v

    def test_mean_matches_fsum(self):
        values = np.random.default_rng(0).random(1000)
        b = batch01(values)
        assert abs(b.mean() - float(np.mean(values))) < 1e-12

    def test_normalized(self):
        # the ops normalize by (v - lower) / width: the bounds map to 0 and
        # 1, which the one-bit rule sends deterministically
        b = ScalarBatch(np.array([-2.0, 0.0, 6.0]), -2.0, 6.0)
        assert b.width == 8.0
        assert b.n == 3
        for key in range(20):
            assert one_bit_cq(b, key).indices[[0, 2], 0].tolist() == [0, 1]


class TestKernels:
    def test_correlated_bits_extremes(self):
        ctx = build_context(5, n=8)
        perm = ctx.permutations[0]
        units = ctx.offset_units[0]
        assert not correlated_bits(np.zeros(8), perm, units).any()
        assert correlated_bits(np.ones(8), perm, units).all()

    def test_correlated_bits_threshold_is_exact_on_grid(self):
        # frac = s/n compares as pi + unit < s: client fires exactly when
        # its permutation slot is below s
        ctx = build_context(11, n=10)
        perm = ctx.permutations[0]
        units = ctx.offset_units[0]
        for s in range(11):
            bits = correlated_bits(np.full(10, s / 10), perm, units)
            assert np.array_equal(bits, perm < s)

    def test_level_cells_on_level_fires_deterministically(self):
        k = 5
        first = -0.1
        levels = first + np.arange(k) * level_spacing(k)
        cell, frac = level_cells(levels[1:-1], first, k)
        assert np.array_equal(cell, [0, 1, 2])
        assert np.allclose(frac, 1.0)

    def test_level_cells_range(self):
        y = np.linspace(0, 1, 101)
        cell, frac = level_cells(y, -0.05, 6)
        assert cell.min() >= 0 and cell.max() <= 4
        assert frac.min() >= 0 and frac.max() <= 1

    def test_uniform_grid_cells_endpoints(self):
        cell, frac = uniform_grid_cells(np.array([0.0, 3.0]), 4)
        assert np.array_equal(cell, [0, 2])
        assert np.allclose(frac, [0.0, 1.0])


class TestOneBit:
    def test_exact_on_grid(self):
        for n in (2, 5, 16):
            for s in range(n + 1):
                b = batch01(np.full(n, s / n))
                for seed in range(20):
                    out = one_bit_cq(b, seed)
                    assert out.estimate.tolist() == [s / n]

    def test_outputs_are_bits(self):
        b = batch01([0.2, 0.8, 0.5])
        out = one_bit_cq(b, 3)
        assert out.indices.shape == out.per_client.shape == (3, 1)
        assert set(np.unique(out.indices)) <= {0, 1}
        assert np.array_equal(out.per_client, out.indices.astype(float))

    def test_unbiased(self):
        b = ScalarBatch(np.array([0.1, 0.35, 0.8, 0.55]), 0.0, 1.0)
        seeds = trial_seeds(17, 40_000)
        acc = 0.0
        for t in range(len(seeds)):
            acc += one_bit_cq(b, int(seeds[t])).estimate[0]
        # estimate variance is at most 1/(4n) per trial
        se = np.sqrt(0.25 / 4 / len(seeds))
        assert abs(acc / len(seeds) - b.mean()) < 4 * se

    def test_respects_bounds_scaling(self):
        b = ScalarBatch(np.array([-3.0, 5.0]), -3.0, 5.0)
        out = one_bit_cq(b, 0)
        assert set(np.unique(out.per_client)) <= {-3.0, 5.0}


class TestKLevel:
    def test_k2_delegates_to_one_bit(self):
        b = batch01([0.3, 0.6, 0.9])
        a = k_level_cq(b, 2, 8)
        o = one_bit_cq(b, 8)
        assert np.array_equal(a.estimate, o.estimate)
        assert np.array_equal(a.indices, o.indices)

    def test_indices_within_grid(self):
        b = batch01(np.linspace(0, 1, 9))
        for k in (3, 4, 8, 33):
            out = k_level_cq(b, k, 2)
            assert out.indices.shape == (9, 1)
            assert out.indices.min() >= 0
            assert out.indices.max() <= k - 1

    def test_per_client_error_bounded_by_spacing(self):
        rng = np.random.default_rng(4)
        b = batch01(rng.random(50))
        for k in (3, 5, 16):
            out = k_level_cq(b, k, 9)
            err = np.abs(out.per_client[:, 0] - b.values)
            assert err.max() <= level_spacing(k) + 1e-12

    def test_unbiased(self):
        b = ScalarBatch(np.array([0.05, 0.42, 0.77, 0.31, 0.66]), 0.0, 1.0)
        seeds = trial_seeds(23, 40_000)
        acc = 0.0
        for t in range(len(seeds)):
            acc += k_level_cq(b, 4, int(seeds[t])).estimate[0]
        se = np.sqrt(level_spacing(4) ** 2 / 4 / 5 / len(seeds))
        assert abs(acc / len(seeds) - b.mean()) < 4 * se

    def test_dimension_mismatch_rejected(self):
        # the round's shapes come from the batch and k alone; one value per
        # client, and a level count the wire header holds
        with pytest.raises(ValueError):
            k_level_cq(ScalarBatch(np.full((2, 2), 0.5), 0.0, 1.0), 4, 0)
        for k in (1, 2**16):
            with pytest.raises(ValueError):
                k_level_cq(batch01([0.1, 0.9]), k, 0)


class TestIndependent:
    def test_unbiased(self):
        b = ScalarBatch(np.array([0.15, 0.5, 0.85]), 0.0, 1.0)
        trials = 40_000
        keys = trial_seeds(77, trials)
        acc = sum(independent_sq(b, 4, int(key)).estimate[0] for key in keys)
        se = np.sqrt((1 / 3) ** 2 / 4 / 3 / trials)
        assert abs(acc / trials - b.mean()) < 4 * se

    def test_grid_points_only(self):
        b = batch01([0.3, 0.7])
        out = independent_sq(b, 5, key=0)
        assert np.all(np.isin(out.per_client, np.linspace(0, 1, 5)))

    def test_key_is_reduced_mod_2_64(self):
        b = batch01(np.linspace(0.05, 0.95, 40))
        want = independent_sq(b, 4, key=2**64 - 1).per_client
        for key in (-1, 2**128 - 1):
            assert np.array_equal(independent_sq(b, 4, key=key).per_client, want)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            independent_sq(batch01([0.5]), 1, key=0)


def test_concentration_stats():
    b = batch01([0.0, 0.5, 1.0])
    stats = concentration_stats(b)
    assert stats.sigma_md == pytest.approx(1 / 3)
    assert stats.sigma == pytest.approx(np.sqrt(1 / 6))
    assert stats.sigma_max == 0.5
    const = concentration_stats(batch01(np.full(10, 0.3)))
    assert const.sigma_md == 0.0 and const.sigma_max == 0.0


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1,
        max_size=30,
    ),
    seed=st.integers(min_value=0, max_value=2**32),
    k=st.integers(min_value=2, max_value=12),
)
def test_klevel_per_client_stays_in_randomized_span(values, seed, k):
    b = batch01(values)
    out = k_level_cq(b, k, seed)
    bound = level_spacing(k) if k > 2 else 1.0
    assert np.all(np.abs(out.per_client[:, 0] - b.values) <= bound + 1e-12)
    assert out.indices.min() >= 0 and out.indices.max() <= k - 1
