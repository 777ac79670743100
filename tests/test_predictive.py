"""Tests for posterior-predictive queries, scores, and fit reports."""

import math

import numpy as np
import pytest
import scipy.stats

from qmatch import predictive
from qmatch.distributions import cdf, dist, get_family, ppf
from qmatch.inference import (
    PosteriorDraws,
    SamplerConfig,
    build_model,
    sample_posterior,
)
from qmatch.orderstats import (QuantileObservation, compile_loglik_rows,
                               joint_os_loglik)
from qmatch.predictive import (
    FitReport,
    ParamSummary,
    Score,
    compare_models,
    kde_curve,
    make_fit_report,
    predictive_cdf,
    predictive_quantile,
    score_model,
)

from helpers import reference_predictive_cdf

QUARTILES = (0.25, 0.5, 0.75)


def el_observation() -> QuantileObservation:
    return QuantileObservation(
        q=QUARTILES,
        x=(4930.0, 7500.0, 11000.0),
        n_total=12918,
        scale_divisor=7500.0,
    )


@pytest.fixture(scope="module")
def el_obs():
    return el_observation().normalized()


@pytest.fixture(scope="module")
def el_gamma(el_obs):
    model = build_model("gamma", el_obs)
    return model, sample_posterior(model, SamplerConfig(seed=11))


@pytest.fixture(scope="module")
def el_chi_square(el_obs):
    model = build_model("chi_square", el_obs)
    return model, sample_posterior(model, SamplerConfig(seed=11))


def draws_pd(draws) -> PosteriorDraws:
    """One chain holding the given (n, d) parameter rows as its draws."""
    draws = np.asarray(draws, dtype=float)
    return PosteriorDraws(
        draws=draws,
        chain_id=np.zeros(len(draws), dtype=np.intp),
        log_likelihood=np.zeros(len(draws)),
        seed=0,
        warmup=0,
        acceptance_rate=(1.0,),
    )


# parameter draws with medians near 1, as in the normalized salary fits,
# from two columns of standard normals z
_SPREAD = {
    "gamma": lambda z: (np.exp(1.0 + 0.3 * z[0]), np.exp(-1.0 + 0.2 * z[1])),
    "lognormal": lambda z: (0.1 * z[0], np.exp(-0.7 + 0.1 * z[1])),
    "weibull": lambda z: (np.exp(0.5 + 0.2 * z[0]), np.exp(0.1 * z[1])),
}


def spread_pd(family, n_draws) -> PosteriorDraws:
    """n_draws parameter rows of family, scattered like a posterior."""
    z = np.random.default_rng(7).standard_normal((2, n_draws))
    return draws_pd(np.column_stack(_SPREAD[family](z)))


def held_pd(family, n_states) -> PosteriorDraws:
    """n_states parameter rows of family, each held for 1-5 consecutive
    draws, as sample_posterior lays out the states a chain rejected from."""
    counts = np.random.default_rng(3).integers(1, 6, n_states)
    return draws_pd(np.repeat(spread_pd(family, n_states).draws, counts,
                              axis=0))


def single_draw_pd(theta) -> PosteriorDraws:
    """A degenerate posterior concentrated on one parameter vector."""
    return draws_pd([theta])


class TestPredictiveCdf:
    def test_bands_bracket_mean_pointwise(self, el_gamma):
        _, pd = el_gamma
        grid = np.linspace(0.1, 4.0, 80)
        curve = predictive_cdf(pd, "gamma", grid)
        assert np.all(curve.lo <= curve.mean + 1e-12)
        assert np.all(curve.mean <= curve.hi + 1e-12)

    def test_mean_curve_is_nondecreasing(self, el_gamma):
        _, pd = el_gamma
        grid = np.linspace(0.05, 5.0, 120)
        curve = predictive_cdf(pd, "gamma", grid)
        assert np.all(np.diff(curve.mean) >= 0.0)
        assert np.all(np.diff(curve.lo) >= 0.0)
        assert np.all(np.diff(curve.hi) >= 0.0)

    def test_recovers_observed_quartiles(self, el_obs, el_gamma):
        # the fitted CDF should pass close to the three observed points
        _, pd = el_gamma
        curve = predictive_cdf(pd, "gamma", np.asarray(el_obs.x))
        for q, got in zip(QUARTILES, curve.mean):
            assert got == pytest.approx(q, abs=0.02)

    def test_single_draw_matches_exact_cdf(self):
        pd = single_draw_pd((2.0, 1.3))
        d = dist("weibull", 2.0, 1.3)
        grid = np.linspace(0.1, 4.0, 15)
        curve = predictive_cdf(pd, "weibull", grid)
        exact = np.asarray([d.cdf(v) for v in grid])
        np.testing.assert_allclose(curve.mean, exact, rtol=1e-12)
        np.testing.assert_allclose(curve.lo, exact, rtol=1e-12)
        np.testing.assert_allclose(curve.hi, exact, rtol=1e-12)

    @pytest.mark.parametrize("fixture", ["el_gamma", "el_chi_square"])
    def test_column_at_a_time_matches_whole_block(self, fixture, request):
        # reference: every draw x grid value in one block; the mean is
        # summed exactly, since a sum down the block's axis 0 rounds worse
        model, pd = request.getfixturevalue(fixture)
        family = model.family.name
        grid = np.linspace(0.05, 4.0, 37)
        cols = tuple(c[:, None] for c in pd.draws.T)
        block = cdf(family, cols, grid[None, :])
        curve = predictive_cdf(pd, family, grid)
        exact_mean = [math.fsum(col) / pd.n_draws for col in block.T]
        np.testing.assert_allclose(curve.mean, exact_mean, rtol=0, atol=1e-15)
        np.testing.assert_allclose(curve.lo, np.quantile(block, 0.05, axis=0),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(curve.hi, np.quantile(block, 0.95, axis=0),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", ["gamma", "lognormal", "weibull"])
    @pytest.mark.parametrize("size", ["one", "block", "block_plus_one",
                                      "default"])
    def test_blocks_match_per_point_reference(self, family, size):
        pd = spread_pd(family, 4000)
        rows = max(1, predictive._CDF_BLOCK_ELEMENTS // pd.n_draws)
        n = {"one": 1, "block": rows, "block_plus_one": rows + 1,
             "default": 201}[size]
        grid = np.linspace(0.02, 6.0, n)
        curve = predictive_cdf(pd, family, grid)
        for got, want in zip((curve.mean, curve.lo, curve.hi),
                             reference_predictive_cdf(pd, family, grid)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_draws", [
        4000, predictive._CDF_BLOCK_ELEMENTS + 1])
    def test_blocks_stay_within_the_element_budget(self, n_draws,
                                                   monkeypatch):
        # more draws than the budget leaves one grid point per block
        pd = spread_pd("gamma", n_draws)
        grid = np.linspace(0.05, 8.0, 11)
        rows = max(1, predictive._CDF_BLOCK_ELEMENTS // n_draws)
        shapes = []

        def recording_cdf(family, theta, x):
            values = cdf(family, theta, x)
            shapes.append(values.shape)
            return values

        monkeypatch.setattr(predictive, "cdf", recording_cdf)
        curve = predictive_cdf(pd, "gamma", grid)
        monkeypatch.undo()
        assert shapes == [(min(rows, grid.size - j), n_draws)
                          for j in range(0, grid.size, rows)]
        for got, want in zip((curve.mean, curve.lo, curve.hi),
                             reference_predictive_cdf(pd, "gamma", grid)):
            assert got.tobytes() == want.tobytes()

    def test_rejects_bad_grid(self, el_gamma):
        _, pd = el_gamma
        with pytest.raises(ValueError):
            predictive_cdf(pd, "gamma", np.empty(0))
        with pytest.raises(ValueError):
            predictive_cdf(pd, "gamma", np.zeros((3, 3)))


class TestPredictiveQuantile:
    def test_el_gamma_99th_percentile(self, el_gamma):
        _, pd = el_gamma
        pq = predictive_quantile(pd, "gamma", 0.99, scale_divisor=7500.0)
        assert pq.value == pytest.approx(23268.6, rel=0.03)
        assert (pq.hi - pq.lo) == pytest.approx(406.8 + 400.4, rel=0.3)

    def test_bounds_bracket_point(self, el_gamma):
        _, pd = el_gamma
        pq = predictive_quantile(pd, "gamma", 0.9)
        assert pq.lo <= pq.value <= pq.hi

    def test_nondecreasing_in_p(self, el_gamma):
        _, pd = el_gamma
        values = [predictive_quantile(pd, "gamma", p).value
                  for p in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)

    def test_divisor_scales_exactly(self, el_gamma):
        # de-normalization must be a single multiplication, no rounding slack
        _, pd = el_gamma
        base = predictive_quantile(pd, "gamma", 0.99, scale_divisor=1.0)
        scaled = predictive_quantile(pd, "gamma", 0.99, scale_divisor=7500.0)
        assert scaled.value == base.value * 7500.0
        assert scaled.lo == base.lo * 7500.0
        assert scaled.hi == base.hi * 7500.0

    def test_matches_per_draw_quantiles(self, el_chi_square):
        _, pd = el_chi_square
        q = np.array([dist("chi_square", *row).quantile(0.9)
                      for row in pd.draws[:500]])
        part = PosteriorDraws(draws=pd.draws[:500], chain_id=pd.chain_id[:500],
                              log_likelihood=pd.log_likelihood[:500],
                              seed=pd.seed, warmup=pd.warmup,
                              acceptance_rate=pd.acceptance_rate)
        pq = predictive_quantile(part, "chi_square", 0.9)
        assert pq.value == pytest.approx(q.mean(), rel=1e-15)
        assert pq.lo == np.quantile(q, 0.05)
        assert pq.hi == np.quantile(q, 0.95)

    def test_single_draw_is_exact_quantile(self):
        pd = single_draw_pd((2.0, 1.3))
        d = dist("weibull", 2.0, 1.3)
        pq = predictive_quantile(pd, "weibull", 0.7)
        assert pq.value == pytest.approx(d.quantile(0.7), rel=1e-12)
        assert pq.lo == pytest.approx(pq.value, rel=1e-12)
        assert pq.hi == pytest.approx(pq.value, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_rejects_p_outside_open_interval(self, el_gamma, p):
        _, pd = el_gamma
        with pytest.raises(ValueError, match="p must lie"):
            predictive_quantile(pd, "gamma", p)

    @pytest.mark.parametrize("divisor", [0.0, -1.0, math.nan])
    def test_rejects_bad_divisor(self, el_gamma, divisor):
        _, pd = el_gamma
        with pytest.raises(ValueError, match="scale_divisor"):
            predictive_quantile(pd, "gamma", 0.5, scale_divisor=divisor)


class TestHeldStates:
    @pytest.mark.parametrize("family", ["gamma", "lognormal", "weibull"])
    def test_kernels_see_each_state_once_and_outputs_keep_their_bytes(
            self, family, monkeypatch):
        pd = held_pd(family, 1500)
        widths = []

        def recording(kernel):
            def call(family, theta, x):
                widths.append(np.broadcast_shapes(*map(np.shape, theta))[-1])
                return kernel(family, theta, x)
            return call

        monkeypatch.setattr(predictive, "cdf", recording(cdf))
        monkeypatch.setattr(predictive, "ppf", recording(ppf))
        grid = np.linspace(0.02, 6.0, 201)
        curve = predictive_cdf(pd, family, grid)
        ps = (0.01, 0.5, 0.99)
        got = [predictive_quantile(pd, family, p, 7500.0) for p in ps]
        monkeypatch.undo()
        assert pd.n_draws > 4000 and set(widths) == {1500}
        for values, want in zip((curve.mean, curve.lo, curve.hi),
                                reference_predictive_cdf(pd, family, grid)):
            assert values.tobytes() == want.tobytes()
        theta = tuple(np.ascontiguousarray(pd.draws.T))
        for p, pq in zip(ps, got):
            q = ppf(family, theta, p)
            lo, hi = np.quantile(q, (0.05, 0.95)).tolist()
            assert (pq.value, pq.lo, pq.hi) == (float(q.mean()) * 7500.0,
                                                lo * 7500.0, hi * 7500.0)


class TestScoreModel:
    def test_el_gamma_score_near_reference(self, el_gamma):
        _, pd = el_gamma
        score = score_model(pd)
        assert score.mean == pytest.approx(10.2, abs=1.5)

    def test_el_chi_square_score(self, el_chi_square):
        _, pd = el_chi_square
        score = score_model(pd)
        assert score.mean == pytest.approx(-2063.9, rel=0.05)

    def test_mean_matches_recomputed_loglik(self, el_obs, el_gamma):
        # stored per-draw values must BE the joint order-statistics
        # log-likelihood, so the score mean is exactly reproducible: from
        # the array likelihood that the sampler scores proposals with, and
        # to rounding from the plain-float one behind joint_os_loglik
        _, pd = el_gamma
        spec = get_family("gamma")
        recomputed = compile_loglik_rows(spec, el_obs)(pd.draws)
        assert score_model(pd).mean == np.mean(recomputed)
        scalar = np.fromiter(
            (joint_os_loglik(dist(spec.name, *row), el_obs)
             for row in pd.draws),
            dtype=float, count=pd.n_draws)
        np.testing.assert_allclose(recomputed, scalar, rtol=1e-10,
                                   atol=1e-10)

    def test_constant_loglik_gives_zero_widths(self):
        pd = PosteriorDraws(
            draws=np.ones((64, 1)),
            chain_id=np.zeros(64, dtype=np.intp),
            log_likelihood=np.full(64, -3.25),
            seed=0,
            warmup=0,
            acceptance_rate=(1.0,),
        )
        score = score_model(pd)
        assert score == Score(mean=-3.25, minus=0.0, plus=0.0)

    def test_distances_are_nonnegative(self, el_gamma, el_chi_square):
        for _, pd in (el_gamma, el_chi_square):
            score = score_model(pd)
            assert score.minus >= 0.0
            assert score.plus >= 0.0


def fake_report(family: str, mean_score: float,
                obs: QuantileObservation) -> FitReport:
    spec = get_family(family)
    params = tuple(
        ParamSummary(name=ps.name, mean=1.0, sd=0.1, q05=0.9, q50=1.0, q95=1.1)
        for ps in spec.params)
    return FitReport(
        family=spec.name,
        likelihood_kind="order_statistics",
        sigma_noise=0.05,
        params=params,
        diag=None,
        score=Score(mean=mean_score, minus=1.0, plus=1.0),
        predictive=(),
        obs=obs,
        seed=0,
    )


class TestCompareModels:
    def test_orders_by_mean_score_descending(self, el_obs):
        reports = [fake_report("weibull", -6.9, el_obs),
                   fake_report("gamma", 10.2, el_obs),
                   fake_report("lognormal", 4.3, el_obs)]
        ranked = compare_models(reports)
        assert [r.family for r in ranked] == ["gamma", "lognormal", "weibull"]

    def test_tie_breaks_on_family_name(self, el_obs):
        reports = [fake_report("weibull", 2.0, el_obs),
                   fake_report("gamma", 2.0, el_obs)]
        ranked = compare_models(reports)
        assert [r.family for r in ranked] == ["gamma", "weibull"]

    def test_single_report_is_best(self, el_obs):
        only = fake_report("gamma", 10.2, el_obs)
        assert compare_models([only]) == (only,)

    def test_rejects_mixed_observations(self, el_obs):
        other = QuantileObservation(
            q=QUARTILES, x=(0.5, 1.0, 1.5), n_total=100)
        with pytest.raises(ValueError, match="different observations"):
            compare_models([fake_report("gamma", 1.0, el_obs),
                            fake_report("weibull", 0.0, other)])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_models([])


class TestKdeCurve:
    def test_matches_scipy_gaussian_kde(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=4000)
        grid = np.linspace(-4.0, 4.0, 201)
        ours = kde_curve(samples, grid)
        factor = 1.06 * samples.size ** (-0.2)
        oracle = scipy.stats.gaussian_kde(samples, bw_method=factor)(grid)
        np.testing.assert_allclose(ours, oracle, rtol=1e-10)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(loc=3.0, scale=0.5, size=2000)
        h = 1.06 * samples.std(ddof=1) * samples.size ** (-0.2)
        grid = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, 2001)
        mass = np.trapezoid(kde_curve(samples, grid), grid)
        assert mass == pytest.approx(1.0, abs=0.01)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            kde_curve(np.full(10, 2.5), np.linspace(0, 5, 11))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="at least two"):
            kde_curve(np.asarray([1.0]), np.linspace(0, 2, 5))


class TestFitReport:
    def test_make_fit_report_fields(self, el_obs, el_gamma):
        model, pd = el_gamma
        report = make_fit_report(model, pd, predictive_ps=(0.5, 0.99))
        assert report.family == "gamma"
        assert report.likelihood_kind == "order_statistics"
        assert [p.name for p in report.params] == ["shape", "scale"]
        assert report.obs == el_obs
        assert report.seed == pd.seed
        assert report.draws is pd
        assert len(report.diag.ess) == 2
        assert report.diag.r_hat is not None
        assert [pq.p for pq in report.predictive] == [0.5, 0.99]

    def test_summary_quantiles_are_ordered(self, el_gamma):
        model, pd = el_gamma
        report = make_fit_report(model, pd)
        for ps in report.params:
            assert ps.q05 <= ps.q50 <= ps.q95
            assert ps.sd > 0.0

    def test_predictive_entries_are_denormalized(self, el_gamma):
        model, pd = el_gamma
        report = make_fit_report(model, pd, predictive_ps=(0.99,))
        direct = predictive_quantile(pd, "gamma", 0.99,
                                     model.obs.scale_divisor)
        assert report.predictive[0] == direct

    def test_without_draws_drops_only_draws(self, el_gamma):
        model, pd = el_gamma
        report = make_fit_report(model, pd)
        trimmed = report.without_draws()
        assert trimmed.draws is None
        assert trimmed.score == report.score
        assert trimmed.params == report.params

    def test_include_draws_false(self, el_gamma):
        model, pd = el_gamma
        assert make_fit_report(model, pd, include_draws=False).draws is None

    def test_rejects_out_of_domain_summary(self, el_obs):
        bad = ParamSummary(name="scale", mean=-1.0, sd=0.1,
                           q05=-1.2, q50=-1.0, q95=-0.8)
        good = ParamSummary(name="shape", mean=2.0, sd=0.1,
                            q05=1.8, q50=2.0, q95=2.2)
        with pytest.raises(ValueError, match="domain"):
            FitReport(family="gamma", likelihood_kind="order_statistics",
                      sigma_noise=0.05, params=(good, bad), diag=None,
                      score=Score(1.0, 0.5, 0.5), predictive=(),
                      obs=el_obs, seed=0)

    def test_rejects_wrong_arity(self, el_obs):
        one = ParamSummary(name="rate", mean=1.0, sd=0.1,
                           q05=0.9, q50=1.0, q95=1.1)
        with pytest.raises(ValueError, match="parameters"):
            FitReport(family="gamma", likelihood_kind="order_statistics",
                      sigma_noise=0.05, params=(one,), diag=None,
                      score=Score(1.0, 0.5, 0.5), predictive=(),
                      obs=el_obs, seed=0)

    def test_rejects_negative_score_distance(self, el_obs):
        with pytest.raises(ValueError, match="bracket"):
            fake_report("gamma", 1.0, el_obs).__class__(
                **{**fake_report("gamma", 1.0, el_obs).__dict__,
                   "score": Score(mean=1.0, minus=-0.5, plus=0.5)})
