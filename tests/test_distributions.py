"""Distribution family tests: pinned values, scipy cross-checks, invariants."""

import math

import numpy as np
import pytest
from scipy import stats

from qmatch.distributions import FAMILY_NAMES, Dist, cdf, dist, get_family, ppf

from helpers import SEEDS, adaptive_simpson, central_diff, ks_distance

# representative parameter draws per family for the invariant sweeps;
# regenerated per seed inside the tests
def random_theta(name, rng):
    loc = rng.uniform(-5.0, 5.0)
    scale = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
    shape = math.exp(rng.uniform(0.0, math.log(5.0)))
    return {
        "normal": (loc, scale),
        "cauchy": (loc, scale),
        "lognormal": (rng.uniform(-2.0, 2.0), math.exp(rng.uniform(math.log(0.3), math.log(1.5)))),
        "weibull": (shape, scale),
        "gamma": (shape, scale),
        "inv_gamma": (1.0 + shape, scale),
        "frechet": (1.0 + shape, scale),
        "chi_square": (math.exp(rng.uniform(0.0, math.log(20.0))),),
        "exponential": (scale,),
    }[name]


SCIPY_EQUIV = {
    "normal": lambda th: stats.norm(loc=th[0], scale=th[1]),
    "lognormal": lambda th: stats.lognorm(th[1], scale=math.exp(th[0])),
    "weibull": lambda th: stats.weibull_min(th[0], scale=th[1]),
    "gamma": lambda th: stats.gamma(th[0], scale=th[1]),
    "inv_gamma": lambda th: stats.invgamma(th[0], scale=th[1]),
    "frechet": lambda th: stats.invweibull(th[0], scale=th[1]),
    "chi_square": lambda th: stats.chi2(th[0]),
    "exponential": lambda th: stats.expon(scale=1.0 / th[0]),
    "cauchy": lambda th: stats.cauchy(loc=th[0], scale=th[1]),
}


class TestPinnedValues:
    def test_log_pdf_examples(self):
        assert math.isclose(dist("normal", 0, 1).log_pdf(0.0),
                            -0.5 * math.log(2 * math.pi), rel_tol=1e-12)
        assert dist("exponential", 1.0).log_pdf(0.0) == 0.0
        assert math.isclose(dist("weibull", 2, 1).log_pdf(1.0),
                            math.log(2.0) - 1.0, rel_tol=1e-12)

    def test_cdf_examples(self):
        assert math.isclose(dist("normal", 3, 1.5).cdf(3.0), 0.5, abs_tol=1e-14)
        assert math.isclose(dist("weibull", 1.7, 2.2).cdf(2.2),
                            1.0 - math.exp(-1.0), rel_tol=1e-12)
        assert math.isclose(dist("gamma", 2, 1).cdf(1.0),
                            1.0 - 2.0 * math.exp(-1.0), rel_tol=1e-12)

    def test_quantile_examples(self):
        assert abs(dist("normal", 0, 1).quantile(0.5)) < 1e-12
        assert math.isclose(dist("exponential", 1.0).quantile(1.0 - math.exp(-1.0)),
                            1.0, rel_tol=1e-10)

    def test_support_boundaries(self):
        d = dist("lognormal", 0, 1)
        assert d.log_pdf(-1.0) == -math.inf
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(0.0) == 0.0
        assert dist("weibull", 2, 1).log_pdf(0.0) == -math.inf
        assert dist("weibull", 1, 2).log_pdf(0.0) == math.log(0.5)
        assert dist("gamma", 0.5, 1).log_pdf(0.0) == math.inf
        assert dist("gamma", 1, 2).log_pdf(0.0) == -math.log(2.0)
        assert dist("chi_square", 2).log_pdf(0.0) == -math.log(2.0)
        assert dist("chi_square", 1).log_pdf(0.0) == math.inf


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ["weibull", "frechet"])
def test_subnormal_x_over_scale_takes_the_support_edge_limit(name, shape):
    # x / scale underflows to 0: the per-point kernels return the x = 0
    # limit, as the array cdf and scipy do, instead of a math domain error
    for scale, x in [(2.0, 5e-324), (1e10, 5e-324), (1e10, 1e-320)]:
        assert x / scale == 0.0
        d = dist(name, shape, scale)
        assert d.log_pdf(x) == SCIPY_EQUIV[name]((shape, scale)).logpdf(x)
        assert d.cdf(x) == float(cdf(name, (shape, scale), x))


class TestValidation:
    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            dist("normal", 0.0, -1.0)
        with pytest.raises(ValueError):
            dist("gamma", 0.0, 1.0)
        with pytest.raises(ValueError):
            dist("gamma", 1.0)
        with pytest.raises(ValueError):
            dist("normal", float("nan"), 1.0)

    def test_unknown_family_lists_choices(self):
        with pytest.raises(ValueError, match="gamma"):
            get_family("gaussian")

    def test_non_finite_x_rejected(self):
        d = dist("normal", 0, 1)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                d.log_pdf(bad)
            with pytest.raises(ValueError):
                d.cdf(bad)

    def test_quantile_domain(self):
        d = dist("gamma", 2, 1)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                d.quantile(bad)

    @pytest.mark.parametrize("name, theta, error", [
        ("gamma", (1e306, 1.0), OverflowError),
        ("inv_gamma", (1e306, 1.0), OverflowError),
        ("chi_square", (1e306,), OverflowError),
        ("chi_square", (5e-324,), ValueError),
    ])
    def test_shape_past_ln_gamma_raises_at_every_x(self, name, theta, error):
        # the per-point kernel takes ln Gamma before its first point, so a
        # shape past its range raises below the support too, as it does
        # inside it; chi_square's df 5e-324 halves to a shape of 0
        d = dist(name, *theta)
        for x in (-1.0, 0.0, 1.0):
            with pytest.raises(error):
                d.cdf(x)
            with pytest.raises(error):
                d.log_pdf(x)

    def test_largest_shape_in_ln_gamma_range_still_evaluates(self):
        d = dist("gamma", 2.5e305, 1.0)
        assert (d.cdf(0.0), d.log_pdf(-1.0), d.log_pdf(0.0)) == (
            0.0, -math.inf, -math.inf)


@pytest.mark.parametrize("name", FAMILY_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
class TestInvariants:
    def _grid(self, d):
        lo = d.quantile(1e-4)
        hi = d.quantile(1.0 - 1e-4)
        return np.linspace(lo, hi, 1000)

    def test_cdf_nondecreasing_on_grid(self, name, seed):
        d = dist(name, *random_theta(name, np.random.default_rng(seed)))
        vals = [d.cdf(x) for x in self._grid(d)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_pdf_mass_matches_cdf(self, name, seed):
        d = dist(name, *random_theta(name, np.random.default_rng(seed)))
        g = self._grid(d)
        lo, hi = float(g[0]), float(g[-1])
        integral = adaptive_simpson(lambda x: math.exp(d.log_pdf(x)), lo, hi)
        assert abs(integral - (d.cdf(hi) - d.cdf(lo))) < 1e-6
        # total mass including the two analytic tails
        assert abs(integral + d.cdf(lo) + (1.0 - d.cdf(hi)) - 1.0) < 1.1e-6

    def test_cdf_derivative_matches_pdf(self, name, seed):
        d = dist(name, *random_theta(name, np.random.default_rng(seed)))
        g = self._grid(d)
        for x in g[5:995:10][:100]:
            x = float(x)
            h = 1e-5 * (1.0 + abs(x))
            fd = central_diff(d.cdf, x, h)
            pdf = math.exp(d.log_pdf(x))
            assert fd == pytest.approx(pdf, rel=1e-6, abs=1e-300)

    def test_quantile_cdf_roundtrips(self, name, seed):
        d = dist(name, *random_theta(name, np.random.default_rng(seed)))
        for p in np.linspace(0.01, 0.99, 23):
            p = float(p)
            x = d.quantile(p)
            assert abs(d.cdf(x) - p) < 1e-9
        for x in self._grid(d)[::97]:
            x = float(x)
            p = d.cdf(x)
            if 1e-9 < p < 1.0 - 1e-9:
                assert d.quantile(p) == pytest.approx(x, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_matches_reference_distribution(name):
    # pins each family's identity (and our parameterization) to scipy's
    rng = np.random.default_rng(7)
    th = random_theta(name, rng)
    d = dist(name, *th)
    ref = SCIPY_EQUIV[name](th)
    for p in (0.05, 0.3, 0.5, 0.8, 0.99):
        x = float(ref.ppf(p))
        assert d.cdf(x) == pytest.approx(float(ref.cdf(x)), rel=1e-9, abs=1e-12)
        assert d.log_pdf(x) == pytest.approx(float(ref.logpdf(x)), rel=1e-9, abs=1e-9)
        assert d.quantile(p) == pytest.approx(x, rel=1e-7)
    if d.spec.support == "real":
        return
    # the support edge: a CDF of 0 or a subnormal, and the log-density's
    # limit, so both compare exactly.  At 5e-324 weibull and frechet take
    # the x = 0 limit of an underflowed x / scale and inv_gamma's scale / x
    # overflows; the other log-densities are rounded values there, and
    # scipy's, taken from a subnormal x / scale, are not exact
    for x in (-1.0, -5e-324, 0.0, 5e-324):
        assert d.cdf(x) == float(ref.cdf(x))
        if x <= 0.0 or name in ("weibull", "frechet", "inv_gamma"):
            assert d.log_pdf(x) == float(ref.logpdf(x)), x


class TestSampling:
    def test_normal_moments(self):
        d = dist("normal", 3.0, 1.5)
        xs = d.sample(np.random.default_rng(42), 10**5)
        assert abs(xs.mean() - 3.0) < 0.02
        assert abs(xs.std() - 1.5) < 0.02

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_ks_against_cdf(self, name):
        rng = np.random.default_rng(11)
        d = dist(name, *random_theta(name, rng))
        xs = d.sample(np.random.default_rng(12), 10**5)
        assert ks_distance(xs, d.cdf) < 0.01

    def test_determinism(self):
        d = dist("gamma", 2.5, 1.2)
        a = d.sample(np.random.default_rng(99), 512)
        b = d.sample(np.random.default_rng(99), 512)
        assert np.array_equal(a, b)

    def test_empty_and_invalid(self):
        d = dist("exponential", 2.0)
        assert d.sample(np.random.default_rng(0), 0).size == 0
        with pytest.raises(ValueError):
            d.sample(np.random.default_rng(0), -1)


# theta sets per family for the array kernels: the seeded draws plus shapes
# on both sides of 1 (or df of 2), where densities change behaviour at x = 0
EDGE_THETAS = {
    "normal": [(0.0, 1.0), (-3.0, 0.01)],
    "lognormal": [(0.0, 1.0), (2.0, 0.05)],
    "weibull": [(0.5, 1.0), (1.0, 2.0), (8.0, 0.3)],
    "gamma": [(0.3, 1.0), (1.0, 2.0), (40.0, 0.1)],
    "inv_gamma": [(0.3, 1.0), (1.0, 2.0), (40.0, 0.1)],
    "frechet": [(0.5, 1.0), (1.0, 2.0), (8.0, 0.3)],
    "chi_square": [(0.7,), (2.0,), (60.0,)],
    "exponential": [(0.01,), (1.0,), (50.0,)],
    "cauchy": [(0.0, 1.0), (4.0, 0.01)],
}


def kernel_thetas(name):
    seeded = [random_theta(name, np.random.default_rng(s)) for s in SEEDS]
    return seeded + EDGE_THETAS[name]


P_GRID = np.array([1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10, 1e-5, 0.01,
                   0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-5, 1.0 - 1e-10,
                   1.0 - 1e-16])


@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestArrayKernels:
    def test_cdf_matches_scalar(self, name):
        for th in kernel_thetas(name):
            d = dist(name, *th)
            inner = [d.quantile(p)
                     for p in (1e-12, 0.01, 0.5, 0.99, 1.0 - 1e-12)]
            x = np.array(inner + [0.0, -1.0, -1e-300, 1e-300, 1e-8,
                                  1e300, -1e300, th[0]])
            got = cdf(name, th, x)
            want = [d.cdf(v) for v in x]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_cdf_over_theta_columns_matches_scalar(self, name):
        # one call over every theta set, each column broadcast against x
        thetas = kernel_thetas(name)
        cols = [np.array(c)[:, None] for c in zip(*thetas)]
        x = np.linspace(-2.0, 6.0, 17)
        got = cdf(name, cols, x)
        assert got.shape == (len(thetas), x.size)
        for row, th in zip(got, thetas):
            d = dist(name, *th)
            np.testing.assert_allclose(row, [d.cdf(v) for v in x],
                                       rtol=0, atol=1e-14)

    def test_ppf_matches_scipy_and_inverts_cdf(self, name):
        for th in kernel_thetas(name)[:len(SEEDS)]:
            got = ppf(name, th, P_GRID)
            np.testing.assert_allclose(got, SCIPY_EQUIV[name](th).ppf(P_GRID),
                                       rtol=1e-10, atol=0)
            assert np.max(np.abs(cdf(name, th, got) - P_GRID)) <= 1e-10

    def test_ppf_inverts_cdf_at_edge_thetas(self, name):
        for th in EDGE_THETAS[name]:
            got = ppf(name, th, P_GRID)
            assert np.all(np.diff(got) >= 0.0)
            assert np.max(np.abs(cdf(name, th, got) - P_GRID)) <= 1e-10

    def test_quantile_and_sample_go_through_ppf(self, name):
        th = random_theta(name, np.random.default_rng(SEEDS[0]))
        d = dist(name, *th)
        assert d.quantile(0.3) == float(ppf(name, th, 0.3))
        u = np.maximum(np.random.default_rng(8).random(50), 5e-324)
        np.testing.assert_array_equal(d.sample(np.random.default_rng(8), 50),
                                      ppf(name, th, u))


class TestArrayKernelShapes:
    def test_theta_columns_broadcast_against_x(self):
        mu = np.array([0.0, 1.0, 2.0])[:, None]
        sg = np.array([1.0, 2.0, 3.0])[:, None]
        x = np.linspace(-1.0, 1.0, 5)
        assert cdf("normal", (mu, sg), x).shape == (3, 5)
        assert cdf("normal", (mu, 1.0), x).shape == (3, 5)
        assert cdf("normal", (mu.ravel(), sg.ravel()), 0.5).shape == (3,)
        assert cdf("normal", (0.0, 1.0), 0.5).shape == ()
        assert ppf("gamma", (mu.ravel() + 1.0, 2.0), 0.5).shape == (3,)
        u = np.full((3, 4), 0.25)
        assert ppf("gamma", (mu + 1.0, sg), u).shape == (3, 4)
        assert ppf("weibull", (2.0, 1.0), np.empty(0)).shape == (0,)

    def test_family_spec_accepted(self):
        spec = get_family("lognormal")
        assert cdf(spec, (0.0, 1.0), 1.0) == cdf("lognormal", (0.0, 1.0), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="scale"):
            cdf("normal", (np.zeros(3), np.array([1.0, -1.0, 1.0])), 0.0)
        with pytest.raises(ValueError, match="expects 2"):
            ppf("gamma", (1.0,), 0.5)
        with pytest.raises(ValueError, match="finite"):
            cdf("normal", (0.0, 1.0), [0.0, math.inf])
        with pytest.raises(ValueError, match="p in"):
            ppf("normal", (0.0, 1.0), [0.5, 1.0])
        with pytest.raises(ValueError, match="gamma"):
            cdf("gaussian", (0.0, 1.0), 0.0)


def _outcome(f):
    """The bits of f()'s values, or the type of what it raises."""
    try:
        return np.asarray(f(), dtype=float).tobytes()
    except Exception as exc:    # the type is what is compared
        return type(exc)


class TestChiSquareIsGamma:
    """chi_square(df) is gamma(df / 2, 2): every kernel and every consumer of
    the kernels gives the bits, or the exception type, of gamma at
    (df / 2, 2)."""

    DFS = np.geomspace(1e-3, 1e5, 23).tolist() + [0.5, 1.0, 2.0, 3.3]
    XS = [-1.0, -5e-324, 0.0, 5e-324, 1e-300, 1e-8, 0.01, 0.3, 1.0, 2.5,
          7.0, 30.0, 1e3, 1e5, 1e300]

    def test_dist_cdf_log_pdf_and_quantile(self):
        for df in self.DFS:
            chi, gam = dist("chi_square", df), dist("gamma", 0.5 * df, 2.0)
            for x in self.XS:
                assert _outcome(lambda: chi.cdf(x)) == _outcome(
                    lambda: gam.cdf(x)), (df, x)
                assert _outcome(lambda: chi.log_pdf(x)) == _outcome(
                    lambda: gam.log_pdf(x)), (df, x)
            for p in P_GRID[::2]:
                assert _outcome(lambda: chi.quantile(p)) == _outcome(
                    lambda: gam.quantile(p)), (df, p)

    def test_array_cdf_and_ppf(self):
        df = np.array(self.DFS)[:, None]
        x = np.array(self.XS)
        np.testing.assert_array_equal(cdf("chi_square", (df,), x),
                                      cdf("gamma", (0.5 * df, 2.0), x))
        np.testing.assert_array_equal(ppf("chi_square", (df,), P_GRID),
                                      ppf("gamma", (0.5 * df, 2.0), P_GRID))

    @pytest.mark.parametrize("kind", ["order_statistics", "gaussian_noise"])
    def test_compiled_likelihoods(self, kind):
        from qmatch.orderstats import QuantileObservation, compile_loglik

        chi, gam = get_family("chi_square"), get_family("gamma")
        for q, x, n in [((0.25, 0.5, 0.75), (0.5, 1.4, 2.8), 100.0),
                        ((0.1, 0.5, 0.9), (0.0, 3.0, 40.0), 2000.0),
                        ((0.1, 0.9), (-1.0, 1e-300), 50.0),
                        ((0.5, 0.99), (1e3, 1e5), 1e4)]:
            obs = QuantileObservation(q, x, n)
            f, g = compile_loglik(chi, obs, kind), compile_loglik(gam, obs, kind)
            for df in self.DFS:
                assert _outcome(lambda: f((df,))) == _outcome(
                    lambda: g((0.5 * df, 2.0))), (q, x, df)

    @pytest.mark.parametrize("df", [0.5, 2.0, 3.3])
    def test_penalty_curves(self, df):
        from qmatch.orderstats import penalty_curves

        grid = [-1.0, 0.0, 5e-324, 1e-300] + np.linspace(0.01, 12.0, 300).tolist()
        for q, n in [(0.5, 100.0), (0.04, 100.0), (0.1, 5.0), (0.001, 500.0)]:
            got = penalty_curves(dist("chi_square", df), q, n, grid)
            want = penalty_curves(dist("gamma", 0.5 * df, 2.0), q, n, grid)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_same_exception_past_ln_gamma_range(self):
        from qmatch.distributions import _CDF_ARRAY, _PPF, _TERMS

        # df = 5e-324 halves to a gamma shape of 0, which Dist rejects, so
        # gamma's side is its raw kernels at (0.0, 2.0)
        for df, error in [(5e-324, ValueError), (1e306, OverflowError)]:
            chi, a = dist("chi_square", df), np.array(0.5 * df)
            calls = [lambda: chi.quantile(0.5),
                     lambda: cdf("chi_square", (df,), [0.0, 1.0]),
                     lambda: ppf("chi_square", (df,), 0.3),
                     lambda: _CDF_ARRAY["gamma"]((a, 2.0), np.array([0.0, 1.0])),
                     lambda: _PPF["gamma"]((a, 2.0), np.array(0.3))]
            for x in (-1.0, 0.0, 1.0):
                calls += [lambda x=x: chi.cdf(x), lambda x=x: chi.log_pdf(x),
                          lambda x=x: _TERMS["gamma"]((x,))((0.5 * df, 2.0))]
            assert [_outcome(f) for f in calls] == [error] * len(calls)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_grids_and_draws_never_reach_the_per_point_kernel(name, monkeypatch):
    # the fused per-point kernels serve single points and the plain-float
    # likelihood only: a grid, a set of draws or a batch of uniforms goes
    # to the array kernels
    from qmatch.distributions import _TERMS
    from qmatch.inference import PosteriorDraws
    from qmatch.orderstats import penalty_curves
    from qmatch.predictive import predictive_cdf, predictive_quantile

    def refuse(xs):
        raise AssertionError("per-point kernel called")

    for family in FAMILY_NAMES:
        monkeypatch.setitem(_TERMS, family, refuse)
    d = dist(name, *EDGE_THETAS[name][0])
    grid = np.linspace(-0.5, 4.0, 41)
    for os_curve, gn_curve in (penalty_curves(d, 0.25, 100.0, grid),
                               penalty_curves(d, 0.001, 1000.0, grid)):
        assert os_curve.shape == gn_curve.shape == grid.shape
    draws = np.array(d.theta) * np.linspace(0.9, 1.1, 12)[:, None]
    pd = PosteriorDraws(draws=draws, chain_id=np.zeros(12, dtype=int),
                        log_likelihood=np.zeros(12), seed=0, warmup=1,
                        acceptance_rate=(1.0,))
    assert predictive_cdf(pd, d.spec, grid).mean.shape == grid.shape
    assert math.isfinite(predictive_quantile(pd, d.spec, 0.3).value)
    assert ppf(name, d.theta, [0.1, 0.9]).shape == (2,)
    assert math.isfinite(d.quantile(0.4))
    assert d.sample(np.random.default_rng(0), 5).shape == (5,)
    with pytest.raises(AssertionError, match="per-point kernel called"):
        d.cdf(1.0)
