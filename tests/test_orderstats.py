"""Tests for the order-statistics likelihood kernels.

Oracle notes: normalization and marginalization checks integrate the joint
density with nested Gauss-Legendre quadrature (exact for the integer-order
cases, where the integrand is polynomial); sampling checks compare against
numpy-sorted uniforms; cross-implementation pins were computed with scipy
and mpmath and are frozen as literals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch.distributions import dist, get_family
from qmatch.orderstats import (
    QuantileObservation,
    compile_loglik,
    compile_loglik_rows,
    gaussian_noise_loglik,
    joint_os_loglik,
    log_norm_const,
    penalty_curves,
    reset_tie_events,
    uniform_os_cdf,
)
import qmatch.orderstats as orderstats

from helpers import (adaptive_simpson, gauss_legendre, joint_uniform_os_logpdf,
                     log_beta, nested_gl_mass, os_logpdf,
                     reference_joint_os_loglik, reference_penalty_curves,
                     uniform_os_logpdf)


def el_observation() -> QuantileObservation:
    # raw quartiles of a salary-like sample of 12918; the median is the divisor
    return QuantileObservation(
        q=(0.25, 0.5, 0.75),
        x=(4930.0, 7500.0, 11000.0),
        n_total=12918,
        scale_divisor=7500.0,
    )


class TestQuantileObservation:
    def test_basic_fields(self):
        obs = el_observation()
        assert obs.m == 3
        assert obs.n_total == 12918.0
        assert obs.q == (0.25, 0.5, 0.75)

    def test_normalized_divides_x_once(self):
        obs = QuantileObservation(q=(0.5,), x=(7500.0,), n_total=100,
                                  scale_divisor=7500.0)
        norm = obs.normalized()
        assert norm.x == (1.0,)
        assert norm.scale_divisor == 7500.0
        assert obs.x == (7500.0,)

    @pytest.mark.parametrize("kwargs", [
        dict(q=(), x=(), n_total=10),
        dict(q=(0.5,), x=(1.0, 2.0), n_total=10),
        dict(q=(0.0, 0.5), x=(1.0, 2.0), n_total=10),
        dict(q=(0.5, 1.0), x=(1.0, 2.0), n_total=10),
        dict(q=(0.5, 0.5), x=(1.0, 2.0), n_total=10),
        dict(q=(0.25, 0.5), x=(2.0, 1.0), n_total=10),
        dict(q=(0.25, 0.5), x=(1.0, 1.0), n_total=10),
        dict(q=(0.5,), x=(math.nan,), n_total=10),
        dict(q=(0.5,), x=(math.inf,), n_total=10),
        dict(q=(0.5,), x=(1.0,), n_total=0),
        dict(q=(0.5,), x=(1.0,), n_total=10, scale_divisor=0.0),
        dict(q=(0.5,), x=(1.0,), n_total=10, scale_divisor=-1.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuantileObservation(**kwargs)


class TestUniformOsCdf:
    def test_pinned_values(self):
        # single draw: P(U <= x) = x
        assert uniform_os_cdf(1, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        # max of two: x^2
        assert uniform_os_cdf(2, 2, 0.5) == pytest.approx(0.25, abs=1e-15)
        # min of three: 1 - (1-x)^3
        assert uniform_os_cdf(3, 1, 0.5) == pytest.approx(0.875, abs=1e-15)

    def test_endpoints(self):
        assert uniform_os_cdf(7, 3, 0.0) == 0.0
        assert uniform_os_cdf(7, 3, 1.0) == 1.0

    def test_matches_integrated_pdf(self):
        for x0 in (0.1, 0.25, 0.5, 0.8):
            integral = adaptive_simpson(
                lambda t: math.exp(uniform_os_logpdf(20, 5, t)), 0.0, x0,
                tol=1e-11)
            assert uniform_os_cdf(20, 5, x0) == pytest.approx(integral, abs=1e-9)

    def test_against_sorted_uniform_draws(self):
        rng = np.random.default_rng(7)
        sorted_rows = np.sort(rng.random((100_000, 20)), axis=1)
        for k in (1, 5, 20):
            samples = np.sort(sorted_rows[:, k - 1])
            n = samples.size
            grid = np.arange(1, n + 1) / n
            theo = uniform_os_cdf(20, k, samples)
            ks = max(np.max(np.abs(grid - theo)),
                     np.max(np.abs(grid - 1.0 / n - theo)))
            assert ks < 0.01

    def test_array_matches_floats_and_the_exact_sum(self):
        # the binomial tail in exact rational arithmetic on the float x
        def exact(n, k, x):
            x = Fraction(x)
            return float(sum(math.comb(n, i) * x ** i * (1 - x) ** (n - i)
                             for i in range(k, n + 1)))

        x = np.concatenate([np.random.default_rng(3).random(20),
                            [0.0, 1.0, 1e-12, 0.5, 1.0 - 2**-53, 2**-40]])
        for n in (1, 2, 5, 20, 40):
            for k in range(1, n + 1):
                values = uniform_os_cdf(n, k, x)
                assert values.shape == x.shape
                for xi, v in zip(x.tolist(), values.tolist()):
                    scalar = uniform_os_cdf(n, k, xi)
                    assert type(scalar) is float
                    assert v == pytest.approx(scalar, abs=1e-13)
                    assert v == pytest.approx(exact(n, k, xi), abs=1e-13)
        assert uniform_os_cdf(7, 3, x.reshape(2, 13)).shape == (2, 13)

    @pytest.mark.parametrize("args", [
        (0, 1, 0.5), (5, 0, 0.5), (5, 6, 0.5), (5, 2.5, 0.5),
        (5, 2, -0.1), (5, 2, 1.1), (5, 2, np.array([0.5, math.nan])),
    ])
    def test_rejects_invalid(self, args):
        with pytest.raises(ValueError):
            uniform_os_cdf(*args)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25), data=st.data())
    def test_monotone_in_x_and_k(self, n, data):
        k = data.draw(st.integers(1, n))
        x1 = data.draw(st.floats(0.0, 1.0))
        x2 = data.draw(st.floats(0.0, 1.0))
        lo, hi = min(x1, x2), max(x1, x2)
        assert uniform_os_cdf(n, k, lo) <= uniform_os_cdf(n, k, hi) + 1e-12
        if k < n:
            # the (k+1)-th order statistic is stochastically larger
            assert uniform_os_cdf(n, k + 1, x1) <= uniform_os_cdf(n, k, x1) + 1e-12


class TestUniformOsLogpdf:
    def test_pinned_beta_2_2(self):
        # Beta(2, 2) density at 1/2 is 1.5
        assert uniform_os_logpdf(3, 2, 0.5) == pytest.approx(math.log(1.5),
                                                             abs=1e-14)

    def test_outside_open_interval_is_minus_inf(self):
        assert uniform_os_logpdf(3, 2, 0.0) == -math.inf
        assert uniform_os_logpdf(3, 2, 1.0) == -math.inf
        assert uniform_os_logpdf(3, 2, -0.5) == -math.inf
        assert uniform_os_logpdf(3, 2, 1.5) == -math.inf

    def test_fractional_order_normalizes(self):
        integral = adaptive_simpson(
            lambda t: math.exp(uniform_os_logpdf(7.25, 2.5, t)),
            1e-12, 1.0 - 1e-12, tol=1e-10)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(5, 0), (5, -1), (5, 5.5), (5, 6)])
    def test_rejects_order_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            uniform_os_logpdf(n, k, 0.5)


class TestOsLogpdf:
    def test_composition(self):
        d = dist("normal", 0.0, 1.0)
        x = 0.37
        expected = uniform_os_logpdf(20, 5, d.cdf(x)) + d.log_pdf(x)
        assert os_logpdf(d, 20, 5, x) == expected

    def test_normalizes_over_x(self):
        d = dist("normal", 0.0, 1.0)
        integral = adaptive_simpson(
            lambda t: math.exp(os_logpdf(d, 20, 5, t)), -8.0, 8.0, tol=1e-10)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_location_scale_change_of_variables(self):
        d0 = dist("normal", 0.0, 1.0)
        d1 = dist("normal", 3.0, 2.0)
        x = 1.7
        assert os_logpdf(d1, 12, 4, 3.0 + 2.0 * x) == pytest.approx(
            os_logpdf(d0, 12, 4, x) - math.log(2.0), abs=1e-12)


class TestLogNormConst:
    def test_single_low_order(self):
        # n=2, k=(1,): 2!/Gamma(1)/Gamma(2) = 2
        assert log_norm_const(2, (1.0,)) == pytest.approx(math.log(2.0),
                                                          abs=1e-14)

    def test_full_rank_vector(self):
        # all five orders of n=5 leave only the 5! term
        assert log_norm_const(5, (1.0, 2.0, 3.0, 4.0, 5.0)) == pytest.approx(
            math.log(120.0), abs=1e-12)

    def test_single_order_matches_beta(self):
        assert log_norm_const(20, (5.0,)) == pytest.approx(
            -log_beta(5.0, 16.0), rel=1e-12)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            log_norm_const(5, (0.0, 2.0))
        with pytest.raises(ValueError):
            log_norm_const(5, (2.0, 6.0))
        with pytest.raises(ValueError, match="too close"):
            log_norm_const(5, (2.0, 2.0))


class TestJointUniformOsLogpdf:
    def test_two_orders_of_two_is_constant(self):
        # n=2, k=(1,2): all exponents vanish, density is the constant 2
        for u in [(0.1, 0.2), (0.3, 0.7), (0.5, 0.99)]:
            assert joint_uniform_os_logpdf(2, (1.0, 2.0), u) == pytest.approx(
                math.log(2.0), abs=1e-14)

    def test_single_order_matches_marginal(self):
        for u in (0.05, 0.3, 0.77):
            assert joint_uniform_os_logpdf(9, (3.0,), (u,)) == pytest.approx(
                uniform_os_logpdf(9, 3, u), rel=1e-13)

    def test_normalizes_integer_orders(self):
        assert nested_gl_mass(5, (2.0, 4.0)) == pytest.approx(1.0, abs=1e-10)
        assert nested_gl_mass(8, (2.0, 4.0, 7.0), nodes=32) == pytest.approx(
            1.0, abs=1e-8)

    def test_normalizes_fractional_orders(self):
        # verified against mpmath 2-d quadrature
        mass = nested_gl_mass(6.25, (2.5, 4.75), nodes=220)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_marginalizes_to_single_order(self):
        # integrating out u2 from the (3,7)-of-9 pair recovers Beta(3, 7)
        pts, wts = gauss_legendre(64)
        for u1 in (0.1, 0.37, 0.62, 0.9):
            width = 1.0 - u1
            total = width * sum(
                w * math.exp(joint_uniform_os_logpdf(9, (3.0, 7.0),
                                                     (u1, u1 + width * p)))
                for p, w in zip(pts, wts))
            assert total == pytest.approx(
                math.exp(uniform_os_logpdf(9, 3, u1)), rel=1e-10)

    def test_nonincreasing_u_is_minus_inf(self):
        assert joint_uniform_os_logpdf(5, (2.0, 4.0), (0.7, 0.3)) == -math.inf
        assert joint_uniform_os_logpdf(5, (2.0, 4.0), (0.5, 0.5)) == -math.inf

    def test_boundary_with_zero_exponent_is_finite(self):
        # k=1 at u=0: Beta(1, n) density equals n at the origin
        assert joint_uniform_os_logpdf(10, (1.0,), (0.0,)) == pytest.approx(
            math.log(10.0), abs=1e-13)
        assert joint_uniform_os_logpdf(10, (10.0,), (1.0,)) == pytest.approx(
            math.log(10.0), abs=1e-13)

    def test_boundary_with_positive_exponent_is_minus_inf(self):
        assert joint_uniform_os_logpdf(10, (5.0,), (0.0,)) == -math.inf
        assert joint_uniform_os_logpdf(10, (5.0,), (1.0,)) == -math.inf

    def test_boundary_with_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="diverges"):
            joint_uniform_os_logpdf(10, (0.5,), (0.0,))

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            joint_uniform_os_logpdf(5, (2.0, 4.0), (0.3,))
        with pytest.raises(ValueError):
            joint_uniform_os_logpdf(5, (2.0, 4.0), (0.3, 1.2))
        with pytest.raises(ValueError):
            joint_uniform_os_logpdf(5, (2.0, 4.0), (-0.1, 0.5))

    def test_order_pairing_symmetry(self):
        # the density depends only on the sorted (k, u) pairing
        pairs = [(2.0, 0.15), (4.0, 0.5), (7.0, 0.81)]
        ref = joint_uniform_os_logpdf(9, tuple(p[0] for p in pairs),
                                      tuple(p[1] for p in pairs))
        shuffled = [pairs[2], pairs[0], pairs[1]]
        resorted = sorted(shuffled)
        val = joint_uniform_os_logpdf(9, tuple(p[0] for p in resorted),
                                      tuple(p[1] for p in resorted))
        assert val == ref


# (family, theta, x) where the fused likelihood kernels take a branch:
# support edges, overflow limits, tied CDFs and incomplete-gamma failures
FUSED_EDGE_CASES = [
    # x = 0 with the shape below, at and above 1: the density's limit
    *[(name, (shape, 1.5), (0.0, 0.5, 2.0))
      for name in ("gamma", "weibull") for shape in (0.5, 1.0, 2.5)],
    *[("chi_square", (df,), (0.0, 0.5, 2.0)) for df in (1.0, 2.0, 5.0)],
    # x <= 0 as the first point, under each positive-support family
    *[(name, theta, (x0, 0.5, 2.0)) for x0 in (-1.0, 0.0)
      for name, theta in (
        ("lognormal", (0.0, 1.0)), ("weibull", (1.5, 1.0)),
        ("gamma", (2.0, 1.0)), ("inv_gamma", (2.0, 1.0)),
        ("frechet", (1.5, 1.0)), ("chi_square", (3.0,)),
        ("exponential", (1.0,)))],
    # x / scale is subnormal and underflows to 0 (or to -0.0 below 0)
    *[(name, (shape, 2.0), (x0, 0.5, 2.0)) for x0 in (5e-324, -5e-324)
      for name in ("weibull", "frechet") for shape in (0.5, 1.0, 2.0)],
    # k log r >= 709: t = exp(k log r) overflows to inf
    ("weibull", (300.0, 1.0), (0.5, 1.0, 20.0)),
    ("frechet", (300.0, 1.0), (0.05, 1.0, 2.0)),
    # every CDF in one tail, tied after the clamp
    *[(name, theta, (10.0, 11.0, 12.0)) for name, theta in (
        ("normal", (0.0, 1e-12)), ("lognormal", (0.0, 1e-3)),
        ("weibull", (2.0, 0.01)), ("gamma", (2.0, 1e-3)),
        ("inv_gamma", (2.0, 1e5)), ("frechet", (50.0, 1e-3)),
        ("chi_square", (1e6,)), ("exponential", (100.0,)),
        ("cauchy", (0.0, 1e-30)))],
    # the incomplete gamma raises at large a with x near a
    ("gamma", (1e15, 1.0), (0.9995e15, 1e15, 1.0005e15)),
    ("gamma", (1e16, 1.0), (1.0, 1e16, 2e16)),
    ("inv_gamma", (1e16, 1e16), (0.9995, 1.0, 1.0005)),
    ("chi_square", (2e16,), (0.9995 * 2e16, 2e16, 1.0005 * 2e16)),
]


def _outcome(loglik):
    # the value, or the type of the arithmetic error raised, and the number
    # of tie events the call added
    before = orderstats.tie_events
    try:
        value = loglik()
    except ArithmeticError as exc:
        value = type(exc)
    return value, orderstats.tie_events - before


_BELOW_ONE = math.nextafter(1.0, 0.0)
# CDF values fed to the closure, and whether they tie once clamped to
# [1e-300, nextafter(1, 0)]; a NaN passes the clamp and ties with nothing
CLAMP_CASES = [
    ((0.0, 5e-324, 0.5), True), ((5e-324, 1e-300, 0.5), True),
    ((0.0, 1e-300, 0.5), True), ((0.2, _BELOW_ONE, 1.0), True),
    ((0.2, 1.0, 1.0), True), ((0.2, 0.5, 0.5), True), ((0.2, 0.6, 0.4), True),
    ((math.nan, 0.5, 0.5), True), ((0.0, 0.5, 1.0), False),
    ((5e-324, 0.3, _BELOW_ONE), False), ((1e-300, 0.3, 0.9), False),
    ((math.nan, 0.5, 0.9), False), ((0.1, math.nan, 0.9), False),
    ((0.1, 0.5, math.nan), False)]


class TestJointOsLoglik:
    @pytest.mark.parametrize("cdfs, tied", CLAMP_CASES)
    def test_clamp_and_ties_match_the_composition(self, monkeypatch, cdfs,
                                                  tied):
        # a stand-in normal kernel that returns the given CDF values at x
        x, log_fs = (1.0, 2.0, 3.0), (-1.0, -0.5, -2.0)
        table = dict(zip(x, zip(cdfs, log_fs)))
        monkeypatch.setitem(orderstats._TERMS, "normal", lambda xs: lambda t: (
            [table[v][0] for v in xs], [table[v][1] for v in xs]))
        d = dist("normal", 0.0, 1.0)
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=x, n_total=40)
        value, ties = _outcome(lambda: joint_os_loglik(d, obs))
        assert ties == (1 if tied else 0)
        assert (value == -math.inf) == tied
        want, _ = _outcome(lambda: reference_joint_os_loglik(d, obs))
        assert value.hex() == want.hex()        # NaN's hex is "nan"
        if any(math.isnan(v) for v in cdfs):
            return                  # outside joint_uniform_os_logpdf's domain
        u = [min(max(d.cdf(v), 1e-300), _BELOW_ONE) for v in x]
        composed = joint_uniform_os_logpdf(40.0, (10.0, 20.0, 30.0), u)
        composed += sum(d.log_pdf(v) for v in x)
        assert value == pytest.approx(composed, rel=1e-13)

    @pytest.mark.parametrize("name, theta, x", FUSED_EDGE_CASES)
    def test_fused_terms_match_the_scalar_kernels(self, name, theta, x):
        # the closure's one call over all x against Dist's one-point calls
        d = dist(name, *theta)
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=x, n_total=100)
        got = _outcome(lambda: joint_os_loglik(d, obs))
        assert got == _outcome(lambda: reference_joint_os_loglik(d, obs))
        assert got[1] in (0, 1)     # a tie counts once per call

    def test_composition_with_clamped_cdf(self):
        d = dist("normal", 0.2, 1.3)
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(-0.7, 0.2, 1.1),
                                  n_total=40)
        u = tuple(d.cdf(v) for v in obs.x)
        k = tuple(v * obs.n_total for v in obs.q)
        expected = joint_uniform_os_logpdf(obs.n_total, k, u)
        expected += sum(d.log_pdf(v) for v in obs.x)
        assert joint_os_loglik(d, obs) == pytest.approx(expected, rel=1e-13)

    def test_salary_quartiles_under_fitted_gamma(self):
        # maximum-likelihood gamma for the 12918-sample quartile triple;
        # the pinned value was cross-computed with an independent stack
        d = dist("gamma", 3.1132, 0.3608)
        ll = joint_os_loglik(d, el_observation().normalized())
        assert ll == pytest.approx(11.24239210373315, abs=1e-6)
        assert 8.7 < ll < 11.7

    def test_affine_reparameterization(self):
        obs0 = QuantileObservation(q=(0.2, 0.5, 0.8), x=(-1.0, 0.1, 0.9),
                                   n_total=55)
        a, b = 2.0, 3.0
        obs1 = QuantileObservation(q=obs0.q,
                                   x=tuple(a * v + b for v in obs0.x),
                                   n_total=55)
        d0 = dist("normal", 0.0, 1.0)
        d1 = dist("normal", b, a)
        assert joint_os_loglik(d1, obs1) == pytest.approx(
            joint_os_loglik(d0, obs0) - obs0.m * math.log(a), abs=1e-10)

    def test_true_parameters_beat_distant_ones(self):
        d_true = dist("normal", 0.0, 1.0)
        obs = QuantileObservation(
            q=(0.25, 0.5, 0.75),
            x=tuple(d_true.quantile(p) for p in (0.25, 0.5, 0.75)),
            n_total=500)
        assert joint_os_loglik(d_true, obs) > joint_os_loglik(
            dist("normal", 3.0, 1.0), obs)
        assert joint_os_loglik(d_true, obs) > joint_os_loglik(
            dist("normal", 0.0, 4.0), obs)

    def test_cdf_ties_return_minus_inf_and_count(self):
        reset_tie_events()
        d = dist("normal", 0.0, 1e-12)
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(10.0, 11.0, 12.0),
                                  n_total=100)
        assert orderstats.tie_events == 0
        assert joint_os_loglik(d, obs) == -math.inf
        assert orderstats.tie_events == 1
        assert joint_os_loglik(d, obs) == -math.inf
        assert orderstats.tie_events == 2
        reset_tie_events()
        assert orderstats.tie_events == 0

    def test_support_miss_is_minus_inf_not_error(self):
        # first quartile below a gamma's support: zero density, no exception
        d = dist("gamma", 2.0, 1.0)
        obs = QuantileObservation(q=(0.25, 0.5), x=(-1.0, 1.0), n_total=100)
        assert joint_os_loglik(d, obs) == -math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        loc=st.floats(-50.0, 50.0),
        scale=st.floats(1e-6, 1e6),
        n=st.floats(3.0, 1e7),
    )
    def test_never_nan_for_normal(self, loc, scale, n):
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(0.66, 1.0, 1.47),
                                  n_total=n)
        ll = joint_os_loglik(dist("normal", loc, scale), obs)
        assert not math.isnan(ll)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.floats(1e-3, 1e3),
        scale=st.floats(1e-6, 1e6),
    )
    def test_never_nan_for_weibull(self, shape, scale):
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(0.66, 1.0, 1.47),
                                  n_total=12918)
        ll = joint_os_loglik(dist("weibull", shape, scale), obs)
        assert not math.isnan(ll)


class TestGaussianNoiseLoglik:
    def test_pinned_value(self):
        # cross-computed with an independent normal logpdf implementation
        d = dist("normal", 0.0, 1.0)
        obs = QuantileObservation(q=(0.25, 0.5, 0.75), x=(0.0, 1.0, 2.0),
                                  n_total=100)
        assert gaussian_noise_loglik(d, obs, 0.1) == pytest.approx(
            -7.381997230540281, abs=1e-12)

    def test_perfect_fit_leaves_only_the_constant(self):
        d = dist("normal", 0.0, 1.0)
        q = (0.1, 0.5, 0.9)
        obs = QuantileObservation(q=q, x=tuple(d.quantile(p) for p in q),
                                  n_total=100)
        expected = 3 * (-0.5 * math.log(2 * math.pi * 0.05 ** 2))
        assert gaussian_noise_loglik(d, obs, 0.05) == pytest.approx(
            expected, abs=1e-9)

    def test_does_not_depend_on_n(self):
        d = dist("normal", 0.0, 1.0)
        obs_a = QuantileObservation(q=(0.5,), x=(0.3,), n_total=10)
        obs_b = QuantileObservation(q=(0.5,), x=(0.3,), n_total=1_000_000)
        assert gaussian_noise_loglik(d, obs_a, 0.05) == gaussian_noise_loglik(
            d, obs_b, 0.05)

    def test_rejects_nonpositive_sigma(self):
        d = dist("normal", 0.0, 1.0)
        obs = QuantileObservation(q=(0.5,), x=(0.0,), n_total=10)
        with pytest.raises(ValueError):
            gaussian_noise_loglik(d, obs, 0.0)
        with pytest.raises(ValueError):
            gaussian_noise_loglik(d, obs, -0.1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("build", [compile_loglik, compile_loglik_rows])
    def test_builders_reject_a_sigma_that_is_not_positive(self, build, sigma):
        obs = QuantileObservation(q=(0.5,), x=(0.0,), n_total=10)
        with pytest.raises(ValueError, match="sigma_noise must be positive"):
            build(get_family("normal"), obs, "gaussian_noise", sigma)

    @pytest.mark.parametrize("build", [compile_loglik, compile_loglik_rows])
    def test_builders_reject_an_unknown_kind(self, build):
        obs = QuantileObservation(q=(0.5,), x=(0.0,), n_total=10)
        with pytest.raises(ValueError, match="likelihood_kind must be one of"):
            build(get_family("normal"), obs, "least_squares")


class TestPenaltyCurves:
    GRID = np.linspace(-6.0, 6.0, 24001)

    def curves_at_tail_point(self, q, n):
        d = dist("normal", 0.0, 1.0)
        os_c, gn_c = penalty_curves(d, q, n, self.GRID)
        # index of the grid point where F(x) = q/10
        i = int(np.argmin(np.abs(self.GRID - d.quantile(q / 10.0))))
        return os_c, gn_c, i

    def test_both_curves_peak_at_one(self):
        os_c, gn_c, _ = self.curves_at_tail_point(0.01, 1000.0)
        assert os_c.max() == pytest.approx(1.0, abs=1e-15)
        assert gn_c.max() == pytest.approx(1.0, abs=1e-15)
        assert os_c.shape == self.GRID.shape
        assert gn_c.shape == self.GRID.shape

    def test_tenth_of_a_percent_of_a_thousand(self):
        # k = qN = 1: the sample minimum keeps a heavy left shoulder, the
        # Gaussian-noise curve is flat there to four decimal places
        os_c, gn_c, i = self.curves_at_tail_point(0.001, 1000.0)
        assert os_c[i] == pytest.approx(0.2880699454382898, abs=5e-4)
        assert gn_c[i] == pytest.approx(0.9998380155926727, abs=1e-4)

    def test_one_percent_of_a_thousand(self):
        # k = 10: the order-statistics curve already shuts the tail off
        os_c, gn_c, i = self.curves_at_tail_point(0.01, 1000.0)
        assert os_c[i] == pytest.approx(9.89003103591313e-07, rel=2e-2)
        assert gn_c[i] == pytest.approx(0.9839332890391455, abs=1e-3)
        assert os_c[i] < 0.05
        assert gn_c[i] > 0.5

    def test_ten_percent_of_a_thousand(self):
        # k = 100: both curves are narrow; only the Gaussian one still
        # assigns fifth-of-peak plausibility a decade into the tail
        os_c, gn_c, i = self.curves_at_tail_point(0.1, 1000.0)
        assert os_c[i] < 1e-60
        assert gn_c[i] == pytest.approx(0.19786982332585853, abs=1e-3)

    def test_larger_n_sharpens_the_order_statistics_curve(self):
        os_small, _, i = self.curves_at_tail_point(0.001, 1000.0)
        os_large, gn_large, _ = self.curves_at_tail_point(0.001, 10000.0)
        assert os_large[i] == pytest.approx(9.490119875059066e-07, rel=2e-2)
        assert os_large[i] < os_small[i] / 1000.0
        # the Gaussian-noise curve ignores N entirely
        assert gn_large[i] == pytest.approx(0.9998380155926727, abs=1e-4)

    @pytest.mark.parametrize("name, theta", [
        ("normal", (0.0, 1.0)), ("gamma", (0.5, 1.5)), ("gamma", (1.0, 1.5)),
        ("gamma", (3.0, 1.5)), ("weibull", (2.0, 1.5)),
        ("weibull", (0.7, 1.5)), ("chi_square", (1.0,))])
    def test_curves_match_one_point_formula_across_support_edge(self, name,
                                                               theta):
        # below, at and just above the support edge, then inside it
        d = dist(name, *theta)
        grid = np.array([-2.0, -5e-324, 0.0, 5e-324, 1e-3, 0.3, 1.0, 2.5, 6.0])
        for q, n in ((0.1, 100.0), (0.5, 7.0), (0.001, 1000.0)):
            got = penalty_curves(d, q, n, grid, 0.07)
            want = reference_penalty_curves(d, q, n, grid.tolist(), 0.07)
            for g, w in zip(got, want):
                assert [v.hex() for v in g.tolist()] == [
                    v.hex() for v in w.tolist()], (q, n)

    @pytest.mark.parametrize("name, theta", [
        ("gamma", (0.5, 1.5)), ("weibull", (0.5, 1.5)), ("chi_square", (1.0,))])
    def test_finite_limit_where_the_density_diverges(self, name, theta):
        # s = 0.5 and k = qN = 2: F^{k-1} f tends to C^2 s at x = 0, which
        # the one-point formula at x = 1e-30 gives to within O(x^s)
        d = dist(name, *theta)
        got, _ = penalty_curves(d, 0.25, 8.0, [0.0, 1e-3, 0.3, 1.0, 4.0])
        want, _ = reference_penalty_curves(d, 0.25, 8.0,
                                           [1e-30, 1e-3, 0.3, 1.0, 4.0], 0.05)
        assert got[0] == got.max() == 1.0
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_sigma_default_is_half_a_decile(self):
        d = dist("normal", 0.0, 1.0)
        grid = np.linspace(-4, 4, 101)
        _, gn_default = penalty_curves(d, 0.5, 100.0, grid)
        _, gn_explicit = penalty_curves(d, 0.5, 100.0, grid, sigma_noise=0.05)
        np.testing.assert_array_equal(gn_default, gn_explicit)

    def test_rejects_invalid_inputs(self):
        d = dist("normal", 0.0, 1.0)
        grid = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError):
            penalty_curves(d, 0.0, 100.0, grid)
        with pytest.raises(ValueError):
            penalty_curves(d, 1.0, 100.0, grid)
        with pytest.raises(ValueError):
            penalty_curves(d, 0.5, 100.0, grid[::-1])
        with pytest.raises(ValueError):
            penalty_curves(d, 0.5, 100.0, np.array([0.0, math.inf]))
        with pytest.raises(ValueError):
            penalty_curves(d, 0.5, 100.0, np.array([]))
        for n in (0.0, 0.5, -5.0, math.nan):
            with pytest.raises(ValueError, match="n must be >= 1"):
                penalty_curves(d, 0.5, n, grid)
        for sigma in (0.0, -0.05, math.nan):
            with pytest.raises(ValueError, match="sigma_noise must be"):
                penalty_curves(d, 0.5, 100.0, grid, sigma_noise=sigma)
