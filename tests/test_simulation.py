"""Tests for the sample-and-sort generators.

The generators are themselves the brute-force oracles for the analytic
densities, so the checks here go the other way: distributional agreement
with the closed forms (KS, total variation, chi-square) plus the exact
mechanical properties of rank interpolation and seeding.
"""

import math

import numpy as np
import pytest
from scipy import stats

from qmatch.distributions import cdf, dist
from qmatch.orderstats import uniform_os_cdf
from qmatch.simulation import (
    SimConfig,
    _uniform_rows,
    empirical_cdf_ensemble,
    os_marginal_oracle,
    simulate_quantile_data,
)

from helpers import (adaptive_simpson, gauss_legendre, joint_uniform_os_logpdf,
                     os_logpdf)


class TestSimConfig:
    def test_coerces_and_stores(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.25, 0.75),
                        reps=3, seed=11)
        assert cfg.n_total == 20
        assert cfg.q == (0.25, 0.75)

    @pytest.mark.parametrize("kwargs", [
        dict(n_total=0, q=(0.5,)),
        dict(n_total=20, q=()),
        dict(n_total=20, q=(0.0,)),
        dict(n_total=20, q=(1.0,)),
        dict(n_total=20, q=(0.5, 0.5)),
        dict(n_total=20, q=(0.7, 0.3)),
        dict(n_total=20, q=(0.5,), reps=0),
        dict(n_total=20.7, q=(0.5,)),
        dict(n_total=20, q=(0.5,), reps=2.5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(d=dist("normal", 0, 1), **kwargs)

    @pytest.mark.parametrize("name", ["n_total", "reps"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_a_count_that_is_not_finite(self, name, value):
        counts = dict(n_total=20, reps=2) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be a count >= 1"):
            SimConfig(d=dist("normal", 0, 1), q=(0.5,), **counts)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.inf, math.nan])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.5,),
                      seed=seed)

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=np.int64(20),
                        q=(0.5,), reps=np.int64(2))
        assert (cfg.n_total, cfg.reps) == (20, 2)
        assert type(cfg.n_total) is int and type(cfg.reps) is int


class TestSimulateQuantileData:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.25, 0.5),
                        seed=42)
        a = simulate_quantile_data(cfg)
        b = simulate_quantile_data(cfg)
        assert a.x == b.x

    def test_sample_median_bias_of_twenty_gaussians(self):
        # rank 0.5*20 = 10 is the tenth order statistic, which sits a hair
        # below zero; the symmetric midpoint at rank 10.5 is exactly unbiased
        d = dist("normal", 0.0, 1.0)
        total_rank10 = 0.0
        total_mid = 0.0
        reps = 5000
        for seed in range(reps):
            cfg = SimConfig(d=d, n_total=20, q=(0.5, 0.525), seed=seed)
            obs = simulate_quantile_data(cfg)
            total_rank10 += obs.x[0]
            total_mid += obs.x[1]
        # segment the axis: the order statistic's mass lives within +-2 and
        # a single wide panel would fool the adaptive error estimate
        expected_rank10 = sum(
            adaptive_simpson(lambda t: t * math.exp(os_logpdf(d, 20, 10, t)),
                             a, b, tol=1e-11)
            for a, b in [(-2.0, -0.5), (-0.5, 0.0), (0.0, 0.5), (0.5, 2.0)])
        assert expected_rank10 == pytest.approx(-0.062, abs=2e-3)
        assert total_rank10 / reps == pytest.approx(expected_rank10, abs=0.015)
        assert abs(total_mid / reps) < 0.015

    def test_output_strictly_increasing_for_every_seed(self):
        d = dist("normal", 3.0, 1.5)
        for seed in range(200):
            cfg = SimConfig(d=d, n_total=40, q=(0.25, 0.5, 0.75), seed=seed)
            obs = simulate_quantile_data(cfg)  # constructor enforces order
            assert obs.n_total == 40.0

    def test_integer_rank_picks_the_order_statistic(self):
        d = dist("weibull", 2.0, 1.0)
        cfg = SimConfig(d=d, n_total=20, q=(0.25, 0.5), seed=9)
        obs = simulate_quantile_data(cfg)
        sorted_x = np.sort(d.sample(np.random.default_rng(9), 20))
        assert obs.x[0] == sorted_x[4]
        assert obs.x[1] == sorted_x[9]

    def test_fractional_rank_interpolates_linearly(self):
        d = dist("normal", 0.0, 1.0)
        cfg = SimConfig(d=d, n_total=10, q=(0.55,), seed=3)
        obs = simulate_quantile_data(cfg)
        sorted_x = np.sort(d.sample(np.random.default_rng(3), 10))
        assert obs.x[0] == pytest.approx(
            0.5 * (sorted_x[4] + sorted_x[5]), abs=1e-15)

    def test_rank_below_one_is_rejected(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.01,), seed=0)
        with pytest.raises(ValueError, match="outside the realized"):
            simulate_quantile_data(cfg)


class TestEmpiricalCdfEnsemble:
    def test_shapes_and_rank_grid(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.5,),
                        reps=100, seed=1)
        values, ranks = empirical_cdf_ensemble(cfg)
        assert values.shape == (100, 20)
        np.testing.assert_allclose(ranks, np.arange(1, 21) / 20.0)
        assert ranks[-1] == 1.0

    def test_rows_sorted(self):
        cfg = SimConfig(d=dist("gamma", 2.0, 1.0), n_total=20, q=(0.5,),
                        reps=100, seed=2)
        values, _ = empirical_cdf_ensemble(cfg)
        assert np.all(np.diff(values, axis=1) >= 0)

    def test_tails_spread_more_than_the_middle(self):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.5,),
                        reps=100, seed=3)
        values, _ = empirical_cdf_ensemble(cfg)
        assert values[:, 9].std() < values[:, 18].std()

    def test_pooled_samples_match_generating_cdf(self):
        d = dist("normal", 0.0, 1.0)
        cfg = SimConfig(d=d, n_total=20, q=(0.5,), reps=5000, seed=4)
        values, _ = empirical_cdf_ensemble(cfg)
        pooled = np.sort(values.ravel())
        n = pooled.size
        grid = np.arange(1, n + 1) / n
        theo = np.array([d.cdf(v) for v in pooled])
        ks = max(np.max(np.abs(grid - theo)),
                 np.max(np.abs(grid - 1.0 / n - theo)))
        assert ks < 0.01

    def test_replicate_streams_are_order_independent(self):
        d = dist("normal", 0, 1)
        big = empirical_cdf_ensemble(
            SimConfig(d=d, n_total=10, q=(0.5,), reps=50, seed=7))[0]
        small = empirical_cdf_ensemble(
            SimConfig(d=d, n_total=10, q=(0.5,), reps=20, seed=7))[0]
        np.testing.assert_array_equal(big[:20], small)


class TestUniformRows:
    """The re-seeded generator must reproduce default_rng([seed, i]) bit
    for bit, including seeds that span several 32-bit entropy words."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 2, 2**32 - 1, 2**32,
                                      2**64 + 5, 2**100 + 7, 2**160 + 3,
                                      np.int64(12)])
    def test_rows_match_default_rng(self, seed):
        rows = _uniform_rows(seed, 300, 9)
        expected = np.stack([
            np.clip(np.random.default_rng([seed, i]).random(9), 5e-324, None)
            for i in range(300)])
        assert rows.tobytes() == expected.tobytes()

    def test_rows_match_default_rng_across_hash_chunks(self):
        rows = _uniform_rows(3, 9000, 2)
        expected = np.stack([np.random.default_rng([3, i]).random(2)
                             for i in range(9000)])
        assert rows.tobytes() == expected.tobytes()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError,
                           match=r"seed must be an integer >= 0, got -1"):
            _uniform_rows(-1, 3, 4)


class TestOsMarginalOracle:
    def test_uniform_equivalent_draws_follow_the_beta_law(self):
        d = dist("normal", 0.0, 1.0)
        for k in (1, 5, 20):
            draws = os_marginal_oracle(d, 20, k, reps=100_000, seed=k)
            u = np.sort(cdf(d.spec, d.theta, draws))
            n = u.size
            grid = np.arange(1, n + 1) / n
            theo = uniform_os_cdf(20, k, u)
            ks = max(np.max(np.abs(grid - theo)),
                     np.max(np.abs(grid - 1.0 / n - theo)))
            assert ks < 0.01

    def test_last_order_statistic_is_the_row_maximum(self):
        d = dist("lognormal", 0.0, 0.5)
        draws = os_marginal_oracle(d, 15, 15, reps=100, seed=5)
        rebuilt = np.array([
            max(d.quantile(max(v, 5e-324))
                for v in np.random.default_rng([5, i]).random(15))
            for i in range(100)
        ])
        np.testing.assert_allclose(draws, rebuilt, rtol=1e-12)

    def test_same_seed_columns_are_comonotone(self):
        # same replicate streams, so the k=9 draw never exceeds the k=10 one
        d = dist("normal", 0.0, 1.0)
        lo = os_marginal_oracle(d, 10, 9, reps=500, seed=6)
        hi = os_marginal_oracle(d, 10, 10, reps=500, seed=6)
        assert np.all(lo <= hi)

    def test_histogram_matches_analytic_marginal(self):
        d = dist("normal", 0.0, 1.0)
        draws = os_marginal_oracle(d, 20, 5, reps=100_000, seed=8)
        edges = np.linspace(-3.0, 3.0, 41)
        counts, _ = np.histogram(draws, bins=edges)
        probs = np.array([
            adaptive_simpson(lambda t: math.exp(os_logpdf(d, 20, 5, t)),
                             a, b, tol=1e-10)
            for a, b in zip(edges[:-1], edges[1:])
        ])
        assert abs(counts.sum() / draws.size - 1.0) < 1e-6  # no mass escapes
        tv = 0.5 * np.sum(np.abs(counts / draws.size - probs))
        assert tv < 0.02

    def test_rejects_invalid_k_and_reps(self):
        d = dist("normal", 0, 1)
        with pytest.raises(ValueError):
            os_marginal_oracle(d, 10, 0, reps=10)
        with pytest.raises(ValueError):
            os_marginal_oracle(d, 10, 11, reps=10)
        with pytest.raises(ValueError):
            os_marginal_oracle(d, 10, 2.5, reps=10)
        with pytest.raises(ValueError):
            os_marginal_oracle(d, 10, 2, reps=0)
        with pytest.raises(ValueError, match="n_total must be a count >= 1"):
            os_marginal_oracle(d, 20.9, 3, reps=4)
        with pytest.raises(ValueError, match="reps must be a count >= 1"):
            os_marginal_oracle(d, 20, 3, reps=4.7)
        for v in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError,
                               match="n_total must be a count >= 1"):
                os_marginal_oracle(d, v, 3, reps=4)
            with pytest.raises(ValueError, match="reps must be a count >= 1"):
                os_marginal_oracle(d, 20, 3, reps=v)

    def test_accepts_numpy_integers(self):
        d = dist("normal", 0, 1)
        draws = os_marginal_oracle(d, np.int64(20), 3, np.int64(4), seed=2)
        np.testing.assert_array_equal(draws, os_marginal_oracle(d, 20, 3, 4,
                                                                seed=2))


class TestJointAgreement:
    def pair_draws(self, reps=4000):
        cfg = SimConfig(d=dist("normal", 0, 1), n_total=20, q=(0.5,),
                        reps=reps, seed=13)
        values, _ = empirical_cdf_ensemble(cfg)
        return values[:, 4], values[:, 9]  # (X_(5), X_(10))

    def test_order_statistics_are_positively_dependent(self):
        lo, hi = self.pair_draws()
        rho = stats.spearmanr(lo, hi).statistic
        assert rho > 0.3

    def test_pair_histogram_matches_joint_density(self):
        lo, hi = self.pair_draws()
        d = dist("normal", 0.0, 1.0)
        k = (5.0, 10.0)

        def joint_pdf(x1, x2):
            if x2 <= x1:
                return 0.0
            u = (d.cdf(x1), d.cdf(x2))
            return math.exp(joint_uniform_os_logpdf(20, k, u)
                            + d.log_pdf(x1) + d.log_pdf(x2))

        # cell edges at marginal quintiles keeps every expected count high
        e1 = np.quantile(lo, np.linspace(0, 1, 6))
        e2 = np.quantile(hi, np.linspace(0, 1, 6))
        e1[0], e1[-1] = -8.0, 8.0
        e2[0], e2[-1] = -8.0, 8.0
        counts, _, _ = np.histogram2d(lo, hi, bins=(e1, e2))

        pts, wts = gauss_legendre(24)
        expected = np.empty_like(counts)
        for i in range(5):
            for j in range(5):
                w1 = e1[i + 1] - e1[i]
                w2 = e2[j + 1] - e2[j]
                total = 0.0
                for p1, wt1 in zip(pts, wts):
                    x1 = e1[i] + w1 * p1
                    for p2, wt2 in zip(pts, wts):
                        total += wt1 * wt2 * joint_pdf(x1, e2[j] + w2 * p2)
                expected[i, j] = total * w1 * w2
        assert expected.sum() == pytest.approx(1.0, abs=5e-3)

        n = lo.size
        exp_counts = expected * n
        mask = exp_counts > 1e-3  # impossible corner cells carry no draws
        assert counts[~mask].sum() == 0
        chi2 = np.sum((counts[mask] - exp_counts[mask]) ** 2
                      / exp_counts[mask])
        dof = int(mask.sum()) - 1
        assert stats.chi2.sf(chi2, dof) > 0.01
