"""Tests for the posterior machinery: bijection, MCMC, MAP, diagnostics.

Statistical assertions run on fixed seeds, so they are deterministic; the
tolerances were sized from the analytic sampling noise of each statistic.
"""

import itertools
import math

import numpy as np
import pytest

import qmatch.inference as inference
import qmatch.orderstats as orderstats
from qmatch.datasets import load_salaries
from qmatch.distributions import _TERMS, FAMILY_NAMES, Dist, dist, get_family
from qmatch.inference import (
    LIKELIHOOD_KINDS,
    Diagnostics,
    ModelSpec,
    PosteriorDraws,
    PriorSpec,
    SamplerConfig,
    build_model,
    diagnostics,
    log_posterior,
    map_estimate,
    sample_posterior,
    to_constrained,
    to_unconstrained,
)
from qmatch.orderstats import (QuantileObservation, compile_loglik,
                               compile_loglik_rows, joint_os_loglik)
from qmatch.simulation import SimConfig, simulate_quantile_data

from helpers import (SEEDS, pareto_khat, reference_gaussian_noise_loglik,
                     reference_joint_os_loglik)


def el_obs() -> QuantileObservation:
    return QuantileObservation(q=(0.25, 0.5, 0.75),
                               x=(4930.0, 7500.0, 11000.0),
                               n_total=12918, scale_divisor=7500.0).normalized()


def figure3_obs(seed=7) -> QuantileObservation:
    q = tuple(np.linspace(0.05, 0.95, 10))
    cfg = SimConfig(d=dist("normal", 3.0, 1.5), n_total=200, q=q, seed=seed)
    return simulate_quantile_data(cfg)


def true_quantile_obs(n_total, q=None, d=None) -> QuantileObservation:
    d = d or dist("normal", 3.0, 1.5)
    q = q or tuple(np.linspace(0.05, 0.95, 10))
    return QuantileObservation(q=q, x=tuple(d.quantile(p) for p in q),
                               n_total=n_total)


class TestPriorSpec:
    def test_broad_default(self):
        p = PriorSpec.broad(2)
        assert p.means == (0.0, 0.0)
        assert p.sds == (100.0, 100.0)

    @pytest.mark.parametrize("means,sds", [
        ((), ()), ((0.0,), (1.0, 1.0)), ((0.0,), (0.0,)),
        ((0.0,), (-1.0,)), ((math.inf,), (1.0,)),
    ])
    def test_rejects_invalid(self, means, sds):
        with pytest.raises(ValueError):
            PriorSpec(means, sds)


class TestModelSpec:
    def test_build_model_defaults(self):
        m = build_model("gamma", el_obs())
        assert m.family.name == "gamma"
        assert m.likelihood_kind == "order_statistics"
        assert m.prior == PriorSpec.broad(2)
        assert m.sigma_noise == 0.05

    def test_rejects_bad_kind_and_dims(self):
        with pytest.raises(ValueError, match="likelihood_kind"):
            build_model("gamma", el_obs(), likelihood_kind="exact")
        with pytest.raises(ValueError, match="parameters"):
            ModelSpec(family=get_family("gamma"), prior=PriorSpec.broad(1),
                      obs=el_obs())
        with pytest.raises(ValueError, match="sigma_noise"):
            build_model("gamma", el_obs(), sigma_noise=0.0)

    def test_rejects_x_outside_the_support(self):
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(-0.5, 0.1, 0.8),
                                  n_total=100)
        with pytest.raises(ValueError,
                           match=r"gamma has support x > 0.*x = -0\.5"):
            build_model("gamma", obs)
        zero = QuantileObservation(q=(0.5, 0.75), x=(0.0, 1.0), n_total=100)
        with pytest.raises(ValueError, match="weibull has support x > 0"):
            build_model("weibull", zero)
        # real-line families take any x
        assert build_model("normal", obs).family.name == "normal"
        assert build_model("cauchy", obs).family.name == "cauchy"


class TestBijection:
    def test_normal_pair(self):
        fam = get_family("normal")
        eta = to_unconstrained(fam, (3.0, 1.5))
        np.testing.assert_allclose(eta, [3.0, math.log(1.5)], rtol=1e-15)
        theta, log_jac = to_constrained(fam, eta)
        np.testing.assert_allclose(theta, [3.0, 1.5], rtol=1e-12)
        assert log_jac == pytest.approx(math.log(1.5), abs=1e-12)

    def test_exponential_identity_point(self):
        fam = get_family("exponential")
        theta, log_jac = to_constrained(fam, np.zeros(1))
        assert theta[0] == 1.0
        assert log_jac == 0.0
        assert to_unconstrained(fam, (1.0,))[0] == 0.0

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_roundtrip_on_random_etas(self, name):
        fam = get_family(name)
        rng = np.random.default_rng(5)
        for _ in range(100):
            eta = rng.standard_normal(fam.arity) * 3.0
            theta, _ = to_constrained(fam, eta)
            back = to_unconstrained(fam, theta)
            np.testing.assert_allclose(back, eta, atol=1e-12)

    def test_rejects_constraint_violations(self):
        fam = get_family("gamma")
        with pytest.raises(ValueError, match="violates"):
            to_unconstrained(fam, (-1.0, 2.0))
        with pytest.raises(ValueError):
            to_unconstrained(fam, (1.0,))
        with pytest.raises(ValueError):
            to_constrained(fam, np.zeros(3))


class TestLogPosterior:
    def test_composition_order_statistics(self):
        model = build_model("gamma", el_obs())
        eta = np.array([0.8, -0.7])
        theta, log_jac = to_constrained(model.family, eta)
        d = dist("gamma", *theta)
        expected = reference_joint_os_loglik(d, model.obs) + log_jac
        for v, s in zip(theta, (100.0, 100.0)):
            expected += -0.5 * (v / s) ** 2 - math.log(s) \
                - 0.5 * math.log(2 * math.pi)
        assert log_posterior(model, eta) == pytest.approx(expected, rel=1e-13)

    def test_composition_gaussian_noise(self):
        model = build_model("normal", figure3_obs(),
                            likelihood_kind="gaussian_noise", sigma_noise=0.07)
        eta = np.array([2.5, 0.3])
        theta, log_jac = to_constrained(model.family, eta)
        d = dist("normal", *theta)
        base = reference_gaussian_noise_loglik(d, model.obs, 0.07) + log_jac
        for v in theta:
            base += -0.5 * (v / 100.0) ** 2 - math.log(100.0) \
                - 0.5 * math.log(2 * math.pi)
        assert log_posterior(model, eta) == pytest.approx(base, rel=1e-13)

    def test_mode_follows_data_not_prior(self):
        # single median observation of an exponential: the posterior mode
        # lands at the data-implied rate ln2/x, two orders of magnitude
        # away from the prior mean
        x_med = 6.93
        obs = QuantileObservation(q=(0.5,), x=(x_med,), n_total=50)
        theta, _ = map_estimate(build_model("exponential", obs), restarts=3)
        assert theta[0] == pytest.approx(math.log(2.0) / x_med, rel=0.05)

    def test_location_mode_without_scale_divergence(self):
        # two quantiles pin both normal parameters; mode sits at the data
        d_true = dist("normal", 40.0, 3.0)
        obs = QuantileObservation(
            q=(0.25, 0.75),
            x=(d_true.quantile(0.25), d_true.quantile(0.75)), n_total=400)
        theta, _ = map_estimate(build_model("normal", obs), restarts=3)
        assert theta[0] == pytest.approx(40.0, abs=0.1)

    def test_translation_equivariance_of_location_argmax(self):
        shift = 2.0
        obs0 = true_quantile_obs(200)
        obs1 = QuantileObservation(q=obs0.q,
                                   x=tuple(v + shift for v in obs0.x),
                                   n_total=200)
        t0, _ = map_estimate(build_model("normal", obs0), restarts=2)
        t1, _ = map_estimate(build_model("normal", obs1), restarts=2)
        assert t1[0] - t0[0] == pytest.approx(shift, abs=1e-3)
        assert t1[1] == pytest.approx(t0[1], abs=1e-3)

    def test_finite_on_random_eta_cloud(self):
        model = build_model("gamma", el_obs())
        rng = np.random.default_rng(17)
        for _ in range(100):
            lp = log_posterior(model, rng.standard_normal(2))
            assert math.isfinite(lp)

    def test_zero_density_returns_minus_inf(self):
        model = build_model("gamma", el_obs())
        assert log_posterior(model, np.array([-800.0, 0.0])) == -math.inf

    @pytest.mark.parametrize("name", ["normal", "cauchy"])
    def test_real_parameter_of_zero_has_density(self, name):
        # a location of exactly 0.0 is inside the domain; only a positive
        # parameter that underflows to 0.0 has zero density
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(-0.7, 0.0, 0.7),
                                  n_total=100)
        model = build_model(name, obs)
        expected = 0.0
        for z in (0.0, 0.01):   # theta = (0, 1) under the N(0, 100^2) prior
            expected += (-0.5 * z * z - math.log(100.0)
                         - 0.5 * math.log(2 * math.pi))
        expected += joint_os_loglik(dist(name, 0.0, 1.0), obs)
        assert math.isfinite(expected)
        assert log_posterior(model, [0.0, 0.0]) == expected

    def test_nonfinite_eta_is_an_error(self):
        model = build_model("gamma", el_obs())
        with pytest.raises(ValueError):
            log_posterior(model, np.array([math.nan, 0.0]))


def composed_log_posterior(model, eta):
    """The log-posterior assembled from independent pieces: to_constrained,
    the Gaussian prior sum, the reference likelihood on a Dist, and the
    Jacobian.
    Returns (theta-space value, log-Jacobian, log-likelihood), with
    (-inf, log_jac, None) where the prior already vanishes."""
    theta, log_jac = to_constrained(model.family, eta)
    total = 0.0
    for v, p, m, s in zip(theta, model.family.params, model.prior.means,
                          model.prior.sds):
        if not p.contains(v):   # an underflowed positive parameter is 0
            return -math.inf, log_jac, None
        z = (v - m) / s
        with np.errstate(over="ignore"):    # z * z = inf is the intent
            total += (-0.5 * z * z - math.log(s)
                      - 0.5 * math.log(2.0 * math.pi))
        if total == -math.inf:
            return -math.inf, log_jac, None
    d = Dist(model.family, tuple(theta))
    if model.likelihood_kind == "order_statistics":
        ll = reference_joint_os_loglik(d, model.obs)
    else:
        ll = reference_gaussian_noise_loglik(d, model.obs, model.sigma_noise)
    if ll == -math.inf:
        return -math.inf, log_jac, ll
    return total + ll, log_jac, ll


# per component: underflow to theta = 0, tails that tie the CDFs, the bulk,
# and values above the exp() cap
ETA_GRID = (-800.0, -40.0, -3.0, -0.5, 0.0, 1.2, 4.0, 40.0, 700.5, 900.0)


class TestCompiledDensity:
    @pytest.mark.parametrize("kind", LIKELIHOOD_KINDS)
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_equals_public_composition_bit_for_bit(self, name, kind):
        model = build_model(name, el_obs(), likelihood_kind=kind,
                            sigma_noise=0.07)
        target = inference._log_density(model)
        theta_space = inference._log_density(model, jacobian=False)
        loglik = compile_loglik(model.family, model.obs, kind, 0.07)
        arity = model.family.arity
        rng = np.random.default_rng(23)
        etas = ([tuple(rng.standard_normal(arity) * 2.0) for _ in range(60)]
                + list(itertools.product(ETA_GRID, repeat=arity)))
        ties = finite = 0
        for eta in etas:
            before = orderstats.tie_events
            try:
                value, log_jac, ll = composed_log_posterior(model,
                                                            np.array(eta))
            except ArithmeticError as exc:
                # the scalar incomplete gamma fails at a = x ~ 1e17; the
                # compiled density makes the same calls, so it fails alike
                with pytest.raises(type(exc)):
                    target(list(eta))
                continue
            tied = orderstats.tie_events - before
            assert tied in (0, 1)
            ties += tied
            lp = target(list(eta))
            assert orderstats.tie_events - before == 2 * tied
            lp_theta = theta_space(list(eta))
            assert orderstats.tie_events - before == 3 * tied
            if value == -math.inf:
                assert lp == lp_theta == -math.inf
                continue
            finite += 1
            assert lp == value + log_jac
            assert lp_theta == value
            # the density's likelihood, the compiled closure, is the
            # reference's to the bit
            theta, _ = to_constrained(model.family, np.array(eta))
            assert loglik(theta.tolist()) == ll
            assert log_posterior(model, np.array(eta)) == lp
        assert finite >= 30
        if kind == "order_statistics":
            assert ties >= 1

    @pytest.mark.parametrize("kind", LIKELIHOOD_KINDS)
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_array_density_matches_the_scalar_closure(self, name, kind):
        # the sampler scores its proposals with the array density: over the
        # grid above it gives the scalar closure's -inf rows, and its values
        # to 1e-9 of max(1, |value|) (the worst row, frechet's with every
        # CDF within 2e-8 of 1, reads 1.1e-10: one ulp of u there moves
        # the log of a gap by 6e-9); a tie adds one event per tied row
        model = build_model(name, el_obs(), likelihood_kind=kind,
                            sigma_noise=0.07)
        scalar = inference._log_density(model)
        loglik = compile_loglik(model.family, model.obs, kind, 0.07)
        arity = model.family.arity
        rng = np.random.default_rng(23)
        etas = ([tuple(rng.standard_normal(arity) * 2.0) for _ in range(60)]
                + list(itertools.product(ETA_GRID, repeat=arity)))
        rows, want, failing = [], [], []
        before = orderstats.tie_events
        for eta in etas:
            try:
                want.append(scalar(list(eta)))
                rows.append(eta)
            except ArithmeticError:     # the incomplete gamma at a = x ~ 1e17
                failing.append(eta)
        tied = orderstats.tie_events - before
        # the log-likelihood where the density is finite (no tie there),
        # and -inf where the density vanishes
        want_ll = [loglik(to_constrained(model.family, np.array(eta))[0]
                          .tolist()) if v > -math.inf else -math.inf
                   for eta, v in zip(rows, want)]
        before = orderstats.tie_events
        lp, ll = inference._log_density_rows(model)(np.array(rows))
        assert orderstats.tie_events - before == tied
        for got, expected in ((lp, want), (ll, want_ll)):
            expected = np.array(expected)
            np.testing.assert_array_equal(np.isneginf(got),
                                          np.isneginf(expected))
            finite = np.isfinite(expected)
            assert finite.sum() >= 30 and not np.isnan(got).any()
            got, expected = got[finite], expected[finite]
            assert np.all(np.abs(got - expected)
                          <= 1e-9 * np.maximum(1.0, np.abs(expected)))
        if kind == "order_statistics":
            assert tied >= 1
        for eta in failing:         # a row that fails fails the whole call
            with pytest.raises(ArithmeticError):
                inference._log_density_rows(model)(np.array([eta, etas[0]]))

    def test_every_family_has_fused_terms(self):
        assert set(_TERMS) == set(FAMILY_NAMES)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_fused_terms_match_one_point_terms(self, name):
        # a kernel over a whole xs tuple gives each point the bits of the
        # one-point kernel that Dist.cdf and Dist.log_pdf build, over
        # parameters up to the sampler's exp(700) cap and x at the support
        # edges
        spec = get_family(name)
        values = (5e-324, 1e-300, 1e-10, 0.3, 1.0, 3.7, 1e3, 1e16, 1e304)
        rng = np.random.default_rng(31)
        thetas = [theta for theta in itertools.product(
            *[values if p.domain == "positive" else (-1e3, -0.5, 0.0, 2.0)
              for p in spec.params])]
        thetas += [tuple(np.exp(rng.standard_normal(spec.arity) * 4.0))
                   for _ in range(200)]
        for xs in ((-1.0, -5e-324, 0.0, 5e-324, 0.657, 1.0, 1.4667, 40.0),
                   (1e-3, 0.999e16, 1e16, 2e16)):
            terms = _TERMS[name](xs)
            for theta in thetas:
                d = Dist(spec, tuple(float(v) for v in theta))
                want = []
                for x in xs:
                    try:
                        want.append((d.cdf(x).hex(), d.log_pdf(x).hex()))
                    except (ArithmeticError, ValueError) as exc:
                        # the incomplete gamma fails at large a, x near a,
                        # and ln Gamma at chi_square's df 5e-324, which
                        # halves to 0: the whole kernel raises at the first
                        # point that raises alone
                        with pytest.raises(type(exc)):
                            terms(d.theta)
                        break
                else:
                    cdfs, log_fs = terms(d.theta)
                    assert [(u.hex(), lf.hex()) for u, lf in
                            zip(cdfs, log_fs)] == want, theta

    def test_rejections_return_minus_inf(self):
        # the three rejections the grid above reaches, on one model: a
        # scale that underflows to 0, one above the exp() cap (exp(900)
        # would overflow), and a location that ties every CDF at 0
        density = inference._log_density(build_model("normal", el_obs()))
        before = orderstats.tie_events
        assert density([0.0, -800.0]) == -math.inf
        assert density([0.0, 900.0]) == -math.inf
        assert orderstats.tie_events == before
        assert density([900.0, 0.0]) == -math.inf
        assert orderstats.tie_events == before + 1

    def test_log_posterior_validates_eta(self):
        model = build_model("gamma", el_obs())
        with pytest.raises(ValueError, match="finite"):
            log_posterior(model, np.array([math.inf, 0.0]))
        with pytest.raises(ValueError, match="takes 2 parameters"):
            log_posterior(model, np.zeros(3))


class TestSamplePosterior:
    def test_figure3_style_credible_intervals_cover_truth(self):
        pd = sample_posterior(build_model("normal", figure3_obs()),
                              SamplerConfig())
        mu, sigma = pd.draws[:, 0], pd.draws[:, 1]
        assert np.quantile(mu, 0.025) < 3.0 < np.quantile(mu, 0.975)
        assert np.quantile(sigma, 0.025) < 1.5 < np.quantile(sigma, 0.975)

    def test_posterior_sd_shrinks_with_n(self):
        sds = []
        for n in (50, 200, 1000):
            pd = sample_posterior(build_model("normal", true_quantile_obs(n)),
                                  SamplerConfig())
            sds.append(pd.draws[:, 0].std())
        assert sds[0] > sds[1] > sds[2]

    def test_gaussian_noise_understates_location_uncertainty(self):
        obs = figure3_obs()
        sd_os = sample_posterior(build_model("normal", obs),
                                 SamplerConfig()).draws[:, 0].std()
        sd_gn = sample_posterior(
            build_model("normal", obs, likelihood_kind="gaussian_noise"),
            SamplerConfig()).draws[:, 0].std()
        assert sd_gn < sd_os

    def test_bitwise_determinism(self):
        model = build_model("gamma", el_obs())
        cfg = SamplerConfig(chains=2, warmup=300, samples_per_chain=300,
                            seed=12)
        a = sample_posterior(model, cfg)
        b = sample_posterior(model, cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.chain_id, b.chain_id)
        np.testing.assert_array_equal(a.log_likelihood, b.log_likelihood)
        assert a.acceptance_rate == b.acceptance_rate

    def test_draw_layout_and_metadata(self):
        cfg = SamplerConfig(chains=3, warmup=200, samples_per_chain=150,
                            seed=2)
        pd = sample_posterior(build_model("gamma", el_obs()), cfg)
        assert pd.draws.shape == (450, 2)
        np.testing.assert_array_equal(np.unique(pd.chain_id), [0, 1, 2])
        np.testing.assert_array_equal(pd.chain_id[:150], np.zeros(150))
        assert np.all(pd.draws > 0)    # both gamma parameters are positive
        assert pd.seed == 2
        assert pd.warmup == 200
        assert len(pd.acceptance_rate) == 3
        assert all(0.0 <= r <= 1.0 for r in pd.acceptance_rate)

    def test_per_draw_loglik_is_order_statistics_valued(self):
        obs = el_obs()
        for name, kind in itertools.product(("gamma", "lognormal"),
                                            LIKELIHOOD_KINDS):
            pd = sample_posterior(
                build_model(name, obs, likelihood_kind=kind),
                SamplerConfig(chains=2, warmup=200, samples_per_chain=300))
            # the value of the array likelihood at the draw, which is the
            # reference's to rounding
            np.testing.assert_array_equal(
                pd.log_likelihood,
                compile_loglik_rows(get_family(name), obs)(pd.draws))
            for i in range(pd.n_draws):
                d = Dist(get_family(name), tuple(pd.draws[i]))
                assert pd.log_likelihood[i] == pytest.approx(
                    reference_joint_os_loglik(d, obs), rel=1e-10, abs=1e-10)

    def test_unreachable_support_fails_initialization(self):
        # negative data under a positive-support family: -inf everywhere;
        # build_model rejects such data, so the spec is assembled directly
        obs = QuantileObservation(q=(0.25, 0.75), x=(-5.0, -4.0), n_total=50)
        model = ModelSpec(family=get_family("weibull"),
                          prior=PriorSpec.broad(2), obs=obs)
        with pytest.raises(RuntimeError, match="starting point"):
            sample_posterior(model, SamplerConfig(chains=1))

    def test_stuck_warmup_reports_eta(self, monkeypatch):
        calls = {"n": 0}
        real = inference._log_density

        def gated_builder(model, jacobian=True):
            density = real(model, jacobian)

            def gated(eta):
                calls["n"] += 1
                return density(eta) if calls["n"] == 1 else -math.inf
            return gated

        monkeypatch.setattr(inference, "_log_density", gated_builder)
        # no mode search, so the chain's start is the one finite evaluation
        monkeypatch.setattr(
            inference, "_start",
            lambda f, arity, cfg: (np.zeros(arity), np.eye(arity), 0.1))
        with pytest.raises(RuntimeError, match="stuck at eta"):
            sample_posterior(build_model("gamma", el_obs()),
                             SamplerConfig(chains=1, warmup=100,
                                           samples_per_chain=10))

    def test_paired_contraction_across_seeds(self):
        for seed in range(5):
            cfg_small = SamplerConfig(seed=seed)
            sd_small = sample_posterior(
                build_model("normal", true_quantile_obs(100)),
                cfg_small).draws[:, 0].std()
            sd_big = sample_posterior(
                build_model("normal", true_quantile_obs(200)),
                cfg_small).draws[:, 0].std()
            assert sd_big < sd_small

    def test_scale_invariance_of_scale_draws(self):
        a = 3.0
        obs1 = figure3_obs(seed=21)
        obs2 = QuantileObservation(q=obs1.q, x=tuple(a * v for v in obs1.x),
                                   n_total=obs1.n_total)
        d1 = sample_posterior(build_model("normal", obs1),
                              SamplerConfig(seed=4)).draws
        d2 = sample_posterior(build_model("normal", obs2),
                              SamplerConfig(seed=4)).draws
        for p in (0.25, 0.5, 0.75):
            assert np.quantile(d2[:, 1], p) == pytest.approx(
                a * np.quantile(d1[:, 1], p), rel=0.05)

    def test_detailed_balance_against_numeric_posterior(self):
        # one-parameter model with a quadrature-normalized posterior
        obs = QuantileObservation(q=(0.5,), x=(6.93,), n_total=50)
        model = build_model("exponential", obs)
        pd = sample_posterior(model, SamplerConfig(chains=10,
                                                   samples_per_chain=4000,
                                                   seed=3))
        draws = np.sort(pd.draws[:, 0])
        assert draws.size == 40_000

        grid = np.linspace(1e-4, 0.6, 4001)
        log_dens = np.array([
            log_posterior(model, np.array([math.log(r)])) - math.log(r)
            for r in grid])     # divide out the bijection jacobian
        dens = np.exp(log_dens - log_dens.max())
        cdf = np.concatenate([[0.0],
                              np.cumsum((dens[1:] + dens[:-1]) / 2
                                        * np.diff(grid))])
        cdf /= cdf[-1]
        theo = np.interp(draws, grid, cdf)
        n = draws.size
        ranks = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(ranks - theo)),
                 np.max(np.abs(ranks - 1.0 / n - theo)))
        assert ks < 0.02

    def test_two_parameter_moments_match_grid_quadrature(self):
        # normal(mu, sigma) on 3 quantiles with N = 50: the eta-space
        # posterior on a grid, weighted by exp(log_posterior), against the
        # sampler's mean and sd of mu and sigma within 4 Monte-Carlo
        # standard errors from the diagnostics' ESS
        obs = true_quantile_obs(50, q=(0.25, 0.5, 0.75))
        model = build_model("normal", obs)
        pd = sample_posterior(model, SamplerConfig(seed=5))
        ess = diagnostics(pd).ess

        mus = np.linspace(0.0, 6.0, 241)
        log_sigmas = np.linspace(math.log(0.4), math.log(8.0), 241)
        log_post = np.array([[log_posterior(model, np.array([m, ls]))
                              for ls in log_sigmas] for m in mus])
        weight = np.exp(log_post - log_post.max())
        assert weight[[0, -1], :].max() < 1e-9      # the grid holds the mass
        assert weight[:, [0, -1]].max() < 1e-9
        weight /= weight.sum()
        mu_grid, sigma_grid = np.meshgrid(mus, np.exp(log_sigmas),
                                          indexing="ij")
        for p, grid in enumerate((mu_grid, sigma_grid)):
            mean = float((weight * grid).sum())
            sd = math.sqrt(float((weight * (grid - mean) ** 2).sum()))
            x = pd.draws[:, p]
            kurtosis = float(np.mean((x - x.mean()) ** 4)) / x.var() ** 2
            assert abs(x.mean() - mean) < 4.0 * sd / math.sqrt(ess[p])
            assert abs(x.std() - sd) < 4.0 * sd * math.sqrt(
                (kurtosis - 1.0) / (4.0 * ess[p]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_chains_started_without_a_laplace_fit_learn_their_proposal(
            self, seed, monkeypatch):
        # each chain's sampling proposal comes from its own warmup, so
        # chains started at N(0, I) draws with the fallback step still mix
        model = build_model("gamma", el_obs())
        laplace = sample_posterior(model, SamplerConfig(seed=seed)).draws
        monkeypatch.setattr(
            inference, "_start",
            lambda f, arity, cfg: (np.zeros(arity), np.eye(arity),
                                   inference._FALLBACK_STEP))
        pd = sample_posterior(model, SamplerConfig(seed=seed))
        diag = diagnostics(pd)
        assert max(diag.r_hat) < 1.05
        assert min(diag.ess) >= 1000
        shift = np.abs(pd.draws.mean(axis=0) - laplace.mean(axis=0))
        assert np.all(shift < 0.1 * laplace.std(axis=0))

    def test_each_chain_scores_its_sampling_phase_in_one_array_call(
            self, monkeypatch):
        # the random walk ends with a _moments call; after it a chain makes
        # one array call over its warmup // 4 batch proposals, a weighted
        # _moments call, and one array call over its state and
        # samples_per_chain proposals, and no scalar density call
        calls = {"scalar": 0, "rows": []}
        marks, ends = [], []
        real_density = inference._log_density
        real_rows = inference._log_density_rows
        real_moments = inference._moments
        real_chain = inference._run_chain

        def counted_builder(model, jacobian=True):
            density = real_density(model, jacobian)

            def counted(eta):
                calls["scalar"] += 1
                return density(eta)
            return counted

        def counted_rows_builder(model):
            density = real_rows(model)

            def counted(etas):
                calls["rows"].append(len(etas))
                return density(etas)
            return counted

        def marked_moments(points, weights=None):
            marks.append((calls["scalar"], len(calls["rows"])))
            return real_moments(points, weights)

        def ended_chain(*args, **kwargs):
            out = real_chain(*args, **kwargs)
            ends.append((calls["scalar"], len(calls["rows"]), marks[-2],
                         marks[-1]))
            return out

        monkeypatch.setattr(inference, "_log_density", counted_builder)
        monkeypatch.setattr(inference, "_log_density_rows",
                            counted_rows_builder)
        monkeypatch.setattr(inference, "_moments", marked_moments)
        monkeypatch.setattr(inference, "_run_chain", ended_chain)
        cfg = SamplerConfig(chains=3, warmup=400, samples_per_chain=250,
                            seed=4)
        for name in ("gamma", "normal"):
            for kind in LIKELIHOOD_KINDS:
                ends.clear()
                calls["rows"].clear()
                sample_posterior(build_model(name, el_obs(), kind), cfg)
                assert len(ends) == cfg.chains
                for scalar, rows, walk_end, batch_end in ends:
                    assert scalar == walk_end[0] == batch_end[0]
                    assert rows == batch_end[1] + 1 == walk_end[1] + 2
                assert calls["rows"] == [cfg.warmup // 4,
                                         cfg.samples_per_chain + 1] * 3

    def test_gaussian_noise_draws_do_not_depend_on_n(self):
        # the chains see only the CDF-regression likelihood, which N does
        # not enter; the order-statistics log-likelihood each draw carries
        # is computed after them
        obs = figure3_obs()
        cfg = SamplerConfig(seed=3)
        fits = [sample_posterior(build_model("normal", QuantileObservation(
                    obs.q, obs.x, n), "gaussian_noise"), cfg)
                for n in (50, 800)]
        np.testing.assert_array_equal(fits[0].draws, fits[1].draws)
        assert fits[0].acceptance_rate == fits[1].acceptance_rate
        for pd, n in zip(fits, (50, 800)):
            os_obs = QuantileObservation(obs.q, obs.x, n)
            for i in range(0, pd.n_draws, 97):
                d = Dist(get_family("normal"), tuple(pd.draws[i]))
                assert pd.log_likelihood[i] == pytest.approx(
                    reference_joint_os_loglik(d, os_obs), rel=1e-10,
                    abs=1e-10)

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            SamplerConfig(chains=0)
        with pytest.raises(ValueError):
            SamplerConfig(warmup=0)
        with pytest.raises(ValueError):
            SamplerConfig(samples_per_chain=0)

    @pytest.mark.parametrize("name", ["chains", "warmup", "samples_per_chain"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_a_count_that_is_not_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a count >= 1"):
            SamplerConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 2.5, math.inf, math.nan])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self, seed):
        # rejected where it is built, not when the first chain seeds
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SamplerConfig(seed=seed)

    def test_accepts_numpy_integer_seeds(self):
        cfg = SamplerConfig(seed=np.int64(7))
        assert cfg.seed == 7 and type(cfg.seed) is int


def _gaussian_2d(rho):
    """Plain-float standard bivariate Gaussian log density with correlation
    rho, like the compiled model density."""
    def density(eta):
        a, b = eta
        return -0.5 * (a * a - 2.0 * rho * a * b + b * b) / (1.0 - rho * rho)
    return density


def _rows(density):
    """The array form of a plain-float density: each row in turn, its
    value standing in for the log-likelihood too."""
    def rows(etas):
        lp = np.array(list(map(density, etas.tolist())))
        return lp, lp
    return rows


def _recorded_factors(monkeypatch):
    """Every Cholesky factor the sampler normalizes, in call order: a
    chain's start factor, then one per warmup milestone."""
    factors = []
    real = inference._unit_factor
    monkeypatch.setattr(inference, "_unit_factor",
                        lambda chol: factors.append(chol) or real(chol))
    return factors


class TestAdaptiveProposal:
    def test_learns_a_correlated_target(self, monkeypatch):
        factors = _recorded_factors(monkeypatch)
        cfg = SamplerConfig(seed=1)
        start = (np.zeros(2), np.eye(2), inference._FALLBACK_STEP)
        target = _gaussian_2d(0.99)
        blocks = []
        for c in range(cfg.chains):
            etas, counts, lls, _ = inference._run_chain(
                target, _rows(target), cfg, c, *start)
            assert len(etas) == len(counts) == len(lls)
            assert counts.min() >= 1
            assert counts.sum() == cfg.samples_per_chain
            blocks.append(np.repeat(etas, counts, axis=0))
        pd = PosteriorDraws(draws=np.vstack(blocks),
                            chain_id=np.repeat(np.arange(cfg.chains),
                                               cfg.samples_per_chain),
                            log_likelihood=np.zeros(4000), seed=1,
                            warmup=cfg.warmup, acceptance_rate=(0.3,) * 4)
        assert min(diagnostics(pd).ess) >= 300
        assert len(factors) == 3 * cfg.chains
        for frozen in factors[2::3]:         # the last milestone's factor
            cov = frozen @ frozen.T
            corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
            assert corr == pytest.approx(0.99, abs=0.05)

    def test_warmup_that_stops_moving_keeps_sampling(self):
        # finite for the first 60 evaluations, -inf after: the second half
        # of the warmup buffer is one repeated state, whose covariance is 0
        calls = {"n": 0}
        target = _gaussian_2d(0.5)

        def freezing(eta):
            calls["n"] += 1
            return target(eta) if calls["n"] <= 60 else -math.inf

        cfg = SamplerConfig(warmup=400, samples_per_chain=100, seed=3)
        etas, counts, lls, rate = inference._run_chain(
            freezing, _rows(freezing), cfg, 0, np.zeros(2), np.eye(2), 0.1)
        # one state, the one warmup ended in, holds every draw
        assert rate == 0.0 and etas.shape == (1, 2) and len(lls) == 1
        assert counts.tolist() == [cfg.samples_per_chain]

    @pytest.mark.parametrize("name", ["exponential", "chi_square"])
    def test_arity_one_families_take_the_cholesky_path(self, name,
                                                       monkeypatch):
        factors = _recorded_factors(monkeypatch)
        model = build_model(name, el_obs())
        cfg = SamplerConfig(seed=2)
        _, factor, step = inference._start(inference._log_density(model), 1,
                                           cfg)
        assert factor.shape == (1, 1) and step == 2.38
        pd = sample_posterior(model, cfg)
        assert len(factors) == 12
        assert all(f.shape == (1, 1) for f in factors)
        assert diagnostics(pd).r_hat[0] < 1.05

    def test_non_positive_definite_hessian_falls_back(self, monkeypatch):
        # no curvature along eta[1] at the mode: a singular Hessian
        def flat_in_b(eta):
            return -0.5 * eta[0] ** 2 if abs(eta[1]) < 3.0 else -math.inf

        starts = []
        real = inference._run_chain
        monkeypatch.setattr(inference, "_log_density",
                            lambda model, jacobian=True: flat_in_b)
        monkeypatch.setattr(inference, "_log_density_rows",
                            lambda model: _rows(flat_in_b))
        monkeypatch.setattr(
            inference, "_run_chain",
            lambda f, rows, cfg, chain, *start: (
                starts.append(start) or real(f, rows, cfg, chain, *start)))
        cfg = SamplerConfig(chains=2, warmup=200, samples_per_chain=100)
        sample_posterior(build_model("normal", el_obs()), cfg)
        assert len(starts) == 2
        for center, factor, step in starts:
            np.testing.assert_array_equal(center, np.zeros(2))
            np.testing.assert_array_equal(factor, np.eye(2))
            assert step == inference._FALLBACK_STEP

    @pytest.mark.parametrize("name,country,seed", list(itertools.product(
        ("gamma", "inv_gamma"), ("EL", "LU"), (1, 2))))
    def test_salary_fits_of_correlated_families_mix(self, name, country,
                                                    seed):
        model = build_model(name, load_salaries(country).normalized())
        diag = diagnostics(sample_posterior(model, SamplerConfig(seed=seed)))
        assert max(diag.r_hat) < 1.05
        assert min(diag.ess) >= 800     # the 8 cases read 2283 to 3098

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_el_order_statistics_fits_clear_the_mixing_floor(self, name):
        # the importance-weighted batch gives the sampling proposal the
        # posterior's moments; under the random walk's moments widened
        # 1.3x, 6 of these 9 fits read 1264 to 1842
        pd = sample_posterior(build_model(name, el_obs()),
                              SamplerConfig(seed=1))
        assert min(diagnostics(pd).ess) >= 2000

    @pytest.mark.parametrize("kind", LIKELIHOOD_KINDS)
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_el_sampling_ratios_have_finite_variance(self, name, kind,
                                                     monkeypatch):
        # Pareto k-hat of each chain's importance ratios pi / q over its
        # samples_per_chain proposals, the rows after the chain's state in
        # its sampling-phase array call
        cfg = SamplerConfig(seed=1)
        scored, log_q = [], []
        real_rows, real_t = inference._log_density_rows, inference._log_t

        def recorded_rows(model):
            density = real_rows(model)
            return lambda etas: scored.append(density(etas)) or scored[-1]

        monkeypatch.setattr(inference, "_log_density_rows", recorded_rows)
        monkeypatch.setattr(inference, "_log_t", lambda *args: (
            log_q.append(real_t(*args)) or log_q[-1]))
        sample_posterior(build_model(name, el_obs(), kind), cfg)
        k_hats = [pareto_khat(lp[1:] - lq[1:])
                  for (lp, _), lq in zip(scored, log_q)
                  if len(lp) == cfg.samples_per_chain + 1]
        assert len(k_hats) == cfg.chains
        assert max(k_hats) < 0.5, k_hats

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
    def test_pareto_khat_recovers_the_generalized_pareto_shape(self, k):
        # 1000 draws by inversion; the fit sees their 95 largest, so its
        # standard error is about 0.1 to 0.15 and the bound about one of it
        u = np.random.default_rng(0).random(1000)
        assert abs(pareto_khat(np.log(((1.0 - u) ** -k - 1.0) / k)) - k) \
            <= 0.15

    def test_a_batch_without_a_finite_weight_keeps_the_walk_moments(
            self, monkeypatch):
        target = _gaussian_2d(0.5)
        moments, proposals = [], []
        real_moments, real_t = inference._moments, inference._log_t
        monkeypatch.setattr(inference, "_moments", lambda p, w=None: (
            moments.append((w, real_moments(p, w))) or moments[-1][1]))
        monkeypatch.setattr(inference, "_log_t", lambda etas, m, s: (
            proposals.append((m, s)) or real_t(etas, m, s)))

        cfg = SamplerConfig(warmup=400, samples_per_chain=200, seed=3)

        def no_batch(etas):
            # every batch proposal scores -inf, the sampling phase does not
            lp = _rows(target)(etas)[0]
            if len(etas) == cfg.warmup // 4:
                lp[:] = -math.inf
            return lp, lp

        for rows, refit in ((_rows(target), True), (no_batch, False)):
            moments.clear()
            proposals.clear()
            inference._run_chain(target, rows, cfg, 0, np.zeros(2),
                                 np.eye(2), 0.1)
            walk = next(m for w, m in reversed(moments) if w is None)
            assert (moments[-1][0] is not None) == refit
            center, scale = proposals[-1]
            assert (np.array_equal(center, walk[0])
                    and np.array_equal(scale, walk[1])) != refit

    @pytest.mark.parametrize("warmup", [1, 2, 3, 4, 5])
    def test_short_warmups_sample_or_stop_on_the_stuck_error(self, warmup):
        # a warmup under 4 has an empty batch, and a walk of 1 to 4 steps
        # may never move; neither divides by zero
        cfg = dict(warmup=warmup, samples_per_chain=100)
        for name, seed in itertools.product(("normal", "gamma"), (1, 2, 3)):
            model = build_model(name, el_obs())
            try:
                pd = sample_posterior(model, SamplerConfig(seed=seed, **cfg))
            except RuntimeError as err:
                assert "the sampler is stuck" in str(err)
                assert f"over a warmup of {warmup})" in str(err)
            else:
                assert pd.n_draws == 400 and np.isfinite(pd.draws).all()


class TestLargeN:
    @pytest.mark.parametrize("n_total", [10**2, 10**4, 10**6, 10**9, 10**12])
    def test_el_quartile_fits_converge(self, n_total):
        obs = QuantileObservation(q=(0.25, 0.5, 0.75),
                                  x=(4930.0, 7500.0, 11000.0),
                                  n_total=n_total,
                                  scale_divisor=7500.0).normalized()
        for name, warmup in itertools.product(
                ("normal", "gamma", "lognormal"), (1000, 500)):
            diag = diagnostics(sample_posterior(build_model(name, obs),
                                                SamplerConfig(warmup=warmup)))
            assert max(diag.r_hat) < 1.05, (name, warmup)
            assert min(diag.ess) >= 200, (name, warmup)


class TestMapEstimate:
    def test_consistency_at_large_n(self):
        obs = true_quantile_obs(100_000)
        theta, _ = map_estimate(build_model("normal", obs), restarts=2)
        assert theta[0] == pytest.approx(3.0, abs=0.01)
        assert theta[1] == pytest.approx(1.5, abs=0.01)

    def test_map_dominates_mcmc_draws(self):
        # the returned value maximizes likelihood + prior over theta, so no
        # retained draw may beat it in that same objective
        model = build_model("gamma", el_obs())
        theta, lp_map = map_estimate(model, restarts=3)
        pd = sample_posterior(model, SamplerConfig(chains=2, warmup=400,
                                                   samples_per_chain=400))
        for i in range(0, pd.n_draws, 97):
            eta = to_unconstrained(model.family, pd.draws[i])
            _, log_jac = to_constrained(model.family, eta)
            assert lp_map >= log_posterior(model, eta) - log_jac - 1e-6

    def test_restart_count_does_not_move_the_optimum(self):
        model = build_model("gamma", el_obs())
        t1, _ = map_estimate(model, restarts=1)
        t10, _ = map_estimate(model, restarts=10)
        np.testing.assert_allclose(t1, t10, atol=1e-4)

    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self):
        model = build_model("normal", el_obs())
        for seed in (-1, 0.5):
            with pytest.raises(ValueError,
                               match="seed must be an integer >= 0"):
                map_estimate(model, seed=seed)

    def test_errors(self):
        model = build_model("gamma", el_obs())
        with pytest.raises(ValueError):
            map_estimate(model, restarts=0)
        obs_neg = QuantileObservation(q=(0.25, 0.75), x=(-5.0, -4.0),
                                      n_total=50)
        # assembled directly: build_model rejects data outside the support
        unreachable = ModelSpec(family=get_family("weibull"),
                                prior=PriorSpec.broad(2), obs=obs_neg)
        with pytest.raises(RuntimeError, match="initialization"):
            map_estimate(unreachable, restarts=2)

    def test_no_start_error_names_the_cause_and_the_remedy(self):
        # quartiles of normal(1000, 1), not rescaled: every start ties the
        # CDF values; a prior whose density underflows at every start
        # rejects them without a tie
        far = QuantileObservation(q=(0.25, 0.5, 0.75),
                                  x=(999.3255, 1000.0, 1000.6745),
                                  n_total=10_000)
        with pytest.raises(RuntimeError, match=(
                r"\(2 restarts x 100 tries\); every try tied the model's "
                r"CDF values .*: rescale x with the dataset's scale_divisor "
                r"or --divisor$")):
            map_estimate(build_model("gamma", far), restarts=2)
        narrow = ModelSpec(family=get_family("gamma"),
                           prior=PriorSpec((0.0, 0.0), (1e-300, 1e-300)),
                           obs=el_obs())
        for fit in (lambda: map_estimate(narrow),
                    lambda: sample_posterior(narrow, SamplerConfig(chains=1))):
            with pytest.raises(RuntimeError,
                               match="far from the origin can do this: "
                                     "rescale x") as info:
                fit()
            assert "tied" not in str(info.value)

    def test_cauchy_data_inflates_order_statistics_sigma(self):
        # a normal fit to heavy-tailed data: the CDF regression (the
        # Gaussian-noise MAP under a flat prior) stays close to the central
        # quantiles, the full likelihood inflates sigma to reach the
        # extreme ones
        q = tuple(np.linspace(0.05, 0.95, 20))
        cfg = SimConfig(d=dist("cauchy", 3.0, 1.5), n_total=200, q=q, seed=2)
        obs = simulate_quantile_data(cfg)
        flat = PriorSpec((0.0, 0.0), (1e8, 1e8))
        sigma_gn = map_estimate(build_model("normal", obs, "gaussian_noise",
                                            prior=flat), restarts=3)[0][1]
        sigma_os = map_estimate(build_model("normal", obs), restarts=3)[0][1]
        assert sigma_os > sigma_gn


def synthetic_pd(gen, draws_per_chain, chains=4):
    blocks = [gen(c, draws_per_chain) for c in range(chains)]
    draws = np.concatenate(blocks)[:, None]
    cid = np.repeat(np.arange(chains), draws_per_chain)
    return PosteriorDraws(draws=draws, chain_id=cid,
                          log_likelihood=np.zeros(draws.shape[0]),
                          seed=0, warmup=0, acceptance_rate=(1.0,) * chains)


class TestDiagnostics:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iid_chains_pass(self, seed):
        rng = np.random.default_rng(seed)
        pd = synthetic_pd(lambda c, n: rng.standard_normal(n), 1000)
        diag = diagnostics(pd)
        assert diag.r_hat[0] == pytest.approx(1.0, abs=0.01)
        assert 0.7 < diag.ess[0] / 4000 < 1.3

    def test_separated_chains_flagged(self):
        pd = synthetic_pd(
            lambda c, n: np.random.default_rng(c).standard_normal(n) + 10.0 * c,
            500, chains=2)
        assert diagnostics(pd).r_hat[0] > 2.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ar1_effective_sample_size(self, seed):
        rho = 0.9
        rng = np.random.default_rng(seed)

        def ar1(c, n):
            x = np.empty(n)
            x[0] = rng.standard_normal()
            innov = rng.standard_normal(n) * math.sqrt(1 - rho * rho)
            for i in range(1, n):
                x[i] = rho * x[i - 1] + innov[i]
            return x

        pd = synthetic_pd(ar1, 10_000)
        expected = 40_000 * (1 - rho) / (1 + rho)
        assert diagnostics(pd).ess[0] == pytest.approx(expected, rel=0.2)

    def test_single_chain_has_no_rhat_but_an_ess(self):
        rng = np.random.default_rng(0)
        pd = synthetic_pd(lambda c, n: rng.standard_normal(n), 1000, chains=1)
        diag = diagnostics(pd)
        assert diag.r_hat is None
        assert 0.7 < diag.ess[0] / 1000 < 1.3

    def test_needs_four_draws_per_chain(self):
        pd = synthetic_pd(lambda c, n: np.random.default_rng(c).standard_normal(n),
                          3, chains=2)
        with pytest.raises(ValueError, match="at least 4"):
            diagnostics(pd)

    def test_constant_draws(self):
        pd = synthetic_pd(lambda c, n: np.zeros(n), 100)
        diag = diagnostics(pd)
        assert diag.r_hat[0] == 1.0
        assert diag.ess[0] == 400.0
