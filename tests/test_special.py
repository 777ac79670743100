"""Accuracy tests for the special functions.

mpmath (50-digit working precision) is the oracle; the standard library's
math.lgamma backs the thin wrapper and serves as a cross-check.  The array
functions are held to the same mpmath grids as the scalar ones.
"""

import math

import mpmath
import numpy as np
import pytest

from helpers import log_beta, reference_p_series
from qmatch import special
from qmatch.distributions import _std_normal_cdf_array, cdf, dist
from qmatch.special import (
    gamma_pq,
    gamma_pq_inverse,
    log_gamma,
    std_normal_ppf,
)

mpmath.mp.dps = 50


def scalar_p(a, x):
    """P(a, x) from the plain-float incomplete gamma, given ln Gamma(a)
    as the fused kernels give it."""
    return special._incomplete_gamma(a, x, False, math.lgamma(a))


def scalar_q(a, x):
    """Q(a, x) from the plain-float incomplete gamma."""
    return special._incomplete_gamma(a, x, True, math.lgamma(a))


def rel_err(got, want):
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


class TestLogGamma:
    def test_known_values(self):
        assert abs(log_gamma(1.0)) < 1e-12
        assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-12)
        assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), rel_tol=1e-12)

    @pytest.mark.parametrize("z", [1e-3, 0.01, 0.1, 0.5, 0.99, 1.0, 1.5, 2.0,
                                   3.7, 10.0, 171.6, 1e3, 1e5, 1e8])
    def test_against_mpmath(self, z):
        want = float(mpmath.loggamma(mpmath.mpf(z)))
        # relative where ln Gamma is away from its zeros, absolute nearby
        if abs(want) > 1e-3:
            assert rel_err(log_gamma(z), want) < 1e-10
        else:
            assert abs(log_gamma(z) - want) < 1e-12

    def test_against_libm(self):
        z = 1e-3
        while z < 1e8:
            assert rel_err(log_gamma(z), math.lgamma(z)) < 1e-10 or \
                abs(log_gamma(z) - math.lgamma(z)) < 1e-12
            z *= 3.7

    def test_recurrence_property(self):
        # ln Gamma(z+1) = ln Gamma(z) + ln z
        for z in (0.002, 0.3, 1.7, 42.0):
            assert math.isclose(log_gamma(z + 1.0), log_gamma(z) + math.log(z),
                                rel_tol=0, abs_tol=1e-10 * (1 + abs(log_gamma(z))))

    def test_domain(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestLogBeta:
    def test_symmetry_and_value(self):
        assert math.isclose(log_beta(2.0, 3.0), math.log(1.0 / 12.0), rel_tol=1e-12)
        assert log_beta(4.5, 1.25) == log_beta(1.25, 4.5)


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("xf", [0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
    def test_against_mpmath(self, a, xf):
        x = a * xf
        want_p = float(mpmath.gammainc(a, 0, x, regularized=True))
        want_q = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        got_p, got_q = gamma_pq(a, x)
        for p, q in ((scalar_p(a, x), scalar_q(a, x)), (got_p, got_q)):
            assert rel_err(p, want_p) < 1e-12 or abs(p - want_p) < 1e-15
            assert rel_err(q, want_q) < 1e-12 or abs(q - want_q) < 1e-15

    def test_array_matches_mpmath_on_the_same_grid(self):
        # the whole grid of test_against_mpmath in one call, plus deep tails
        a = np.array([0.5, 1.0, 2.5, 10.0, 100.0, 1000.0])[:, None]
        xf = np.array([0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
        a, x = np.broadcast_arrays(a, a * xf)
        a = np.append(a.ravel(), [2.0, 0.5, 30.0])
        x = np.append(x.ravel(), [200.0, 300.0, 1e-3])
        got_p, got_q = gamma_pq(a, x)
        for i in range(a.size):
            want_p = float(mpmath.gammainc(a[i], 0, x[i], regularized=True))
            want_q = float(mpmath.gammainc(a[i], x[i], mpmath.inf,
                                           regularized=True))
            assert rel_err(got_p[i], want_p) < 1e-12 or \
                abs(got_p[i] - want_p) < 1e-15
            assert rel_err(got_q[i], want_q) < 1e-12 or \
                abs(got_q[i] - want_q) < 1e-15

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(math.log(0.05), math.log(2000.0), 400))
        x = a * np.exp(rng.uniform(-5.0, 3.0, 400))
        x[:5] = 0.0
        x[5:10] = math.inf
        p, q = gamma_pq(a, x)
        np.testing.assert_allclose(
            p, [scalar_p(ai, xi) for ai, xi in zip(a, x)], rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            q, [scalar_q(ai, xi) for ai, xi in zip(a, x)], rtol=0, atol=1e-15)

    def test_array_broadcasts_and_keeps_shape(self):
        p, q = gamma_pq(np.array([[1.0], [2.0]]), np.array([0.5, 1.0, 3.0]))
        assert p.shape == q.shape == (2, 3)
        assert gamma_pq(2.0, 1.0)[0].shape == ()
        assert gamma_pq(np.empty(0), 1.0)[0].shape == (0,)

    def test_each_value_is_independent_of_the_others(self):
        # the array loops retire converged elements in batches that depend
        # on the whole call; no element's bits may depend on them
        rng = np.random.default_rng(8)
        a = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 300))
        x = a * np.exp(rng.uniform(-4.0, 4.0, 300))
        # underflow cut-off on each branch and either side of it, then the
        # edges x = 0 and x = inf
        a = np.append(a, [1e3, 1e6, 1e6, 2.0, 2.0, 3.0, 0.5, 7.0, 7.0])
        x = np.append(x, [1e-300, 1.0, 9.9e5, 745.0, 760.0, 0.0, 0.0,
                          math.inf, math.inf])
        p, q = gamma_pq(a, x)
        series = x < a + 1.0
        assert 50 < np.count_nonzero(series[:300]) < 250
        assert p[300] == p[301] == q[304] == 0.0
        assert 0.0 < p[302] < 1.0 and 0.0 < q[303] < 1.0
        order = rng.permutation(a.size)
        got_p, got_q = gamma_pq(a[order], x[order])
        assert got_p.tobytes() == p[order].tobytes()
        assert got_q.tobytes() == q[order].tobytes()
        for i in range(a.size):
            one_p, one_q = gamma_pq(a[i:i + 1], x[i:i + 1])
            assert one_p.tobytes() == p[i:i + 1].tobytes()
            assert one_q.tobytes() == q[i:i + 1].tobytes()

    def test_array_loops_take_empty_input(self):
        empty = np.empty(0)
        for loop in (special._p_series_array,
                     special._q_continued_fraction_array):
            assert loop(empty, empty, empty).shape == (0,)

    def test_fraction_convergence_is_delta_equal_to_one(self):
        # the fractions stop at delta == 1.0, which in binary64 is the
        # relative test |delta - 1| < _REL_EPS: the floats nearest 1 sit
        # 2**-53 below and 2**-52 above it, both wider than 1e-17
        below, above = [1.0], [1.0]
        for _ in range(64):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 2.0))
        deltas = np.array(below[::-1] + above[1:])
        assert np.unique(deltas).size == 129
        np.testing.assert_array_equal(
            np.abs(deltas - 1.0) < special._REL_EPS, deltas == 1.0)

    def test_log_gamma_runs_before_broadcasting(self, monkeypatch):
        # a as a (1, D) row against x as a (B, 1) column: ln Gamma runs on
        # the D values of a, and P, Q equal the call on broadcast arrays
        rng = np.random.default_rng(5)
        a = np.exp(rng.uniform(math.log(0.1), math.log(500.0), (1, 300)))
        x = np.exp(rng.uniform(math.log(0.01), math.log(800.0), (4, 1)))
        want_p, want_q = gamma_pq(*(np.ascontiguousarray(v) for v in
                                    np.broadcast_arrays(a, x)))
        sizes = []
        lgamma = special._lgamma

        def recording_lgamma(v):
            sizes.append(np.size(v))
            return lgamma(v)

        monkeypatch.setattr(special, "_lgamma", recording_lgamma)
        got_p, got_q = gamma_pq(a, x)
        assert sizes == [a.size]
        assert got_p.shape == got_q.shape == (4, 300)
        assert got_p.tobytes() == want_p.tobytes()
        assert got_q.tobytes() == want_q.tobytes()
        sizes.clear()
        given_p, given_q = gamma_pq(a, x, lga=lgamma(a))
        assert sizes == []
        assert given_p.tobytes() == want_p.tobytes()
        assert given_q.tobytes() == want_q.tobytes()

    def test_deep_tails_keep_relative_accuracy(self):
        # the far upper tail must not be computed as 1 - P
        got = scalar_q(2.0, 200.0)
        want = float(mpmath.gammainc(2.0, 200.0, mpmath.inf, regularized=True))
        assert rel_err(got, want) < 1e-12
        assert rel_err(gamma_pq(2.0, 200.0)[1], want) < 1e-12

    def test_complementarity(self):
        for a in (0.3, 1.0, 7.7):
            for x in (0.01, 0.9, 2.5, 40.0):
                assert math.isclose(scalar_p(a, x) + scalar_q(a, x), 1.0,
                                    abs_tol=1e-14)
                p, q = gamma_pq(a, x)
                assert math.isclose(p + q, 1.0, abs_tol=1e-14)

    def test_edges(self):
        for p, q in ((scalar_p(3.0, 0.0), scalar_q(3.0, 0.0)),
                     gamma_pq(3.0, 0.0)):
            assert p == 0.0 and q == 1.0
        for p, q in ((scalar_p(3.0, math.inf), scalar_q(3.0, math.inf)),
                     gamma_pq(3.0, math.inf)):
            assert p == 1.0 and q == 0.0


def test_array_lgamma_and_erfc_keep_each_libm_value_and_the_shape():
    rng = np.random.default_rng(11)
    for v in (np.float64(0.3), np.asarray(2.5), np.empty((0, 3)),
              rng.uniform(0.1, 40.0, (3, 4)), rng.uniform(0.1, 40.0, (4, 3)).T):
        for got, want in ((special._lgamma(v), math.lgamma),
                          (_std_normal_cdf_array(v),
                           lambda w: 0.5 * math.erfc(-w / math.sqrt(2.0)))):
            assert got.shape == np.shape(v) and got.dtype == np.float64
            assert [w.hex() for w in got.ravel().tolist()] == [
                want(w).hex() for w in np.ravel(v).tolist()]


def _series_outcome(f, a, x, lga):
    try:
        return f(a, x, lga).hex()
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestPSeries:
    """``_p_series`` tests convergence after every 4th term and must give
    the bits of the series that tests after every term."""

    @pytest.mark.parametrize("a", np.logspace(-300.0, 6.0, 52).tolist()
                             + [0.5, 1.0, 2.5, 7.0, 1e7])
    def test_matches_one_term_at_a_time(self, a):
        below = math.nextafter(a + 1.0, 0.0)   # the largest x on the branch
        xs = [below, 0.5 * below, 1e-3 * below, 1e-300, 1e-310, 5e-324]
        for x in xs:
            assert x < a + 1.0
            lga = math.lgamma(a)
            got = _series_outcome(special._p_series, a, x, lga)
            assert got == _series_outcome(reference_p_series, a, x, lga)

    def test_scale_underflow_returns_zero(self):
        for a, x in ((1e3, 1e-300), (50.0, 5e-324), (1e6, 1.0)):
            lga = math.lgamma(a)
            assert special._p_series(a, x, lga) == 0.0
            assert reference_p_series(a, x, lga) == 0.0

    def test_nonconvergence_still_raises_after_ten_thousand_terms(self):
        lga = math.lgamma(1e15)
        with pytest.raises(ArithmeticError, match="series failed to converge"):
            special._p_series(1e15, 1e15, lga)
        assert (_series_outcome(special._p_series, 1e15, 1e15, lga)
                == _series_outcome(reference_p_series, 1e15, 1e15, lga))


class TestErf:
    """math.erfc as the package uses it: the normal CDF 0.5 erfc(-z / sqrt 2),
    scalar and array, at z = +-x sqrt 2."""

    @pytest.mark.parametrize("x", [0.0, 1e-8, 0.1, 0.46, 0.5, 1.0, 1.49, 1.5,
                                   1.51, 2.0, 3.0, 5.0, 8.0, 15.0, 26.0])
    def test_against_mpmath(self, x):
        std = dist("normal", 0.0, 1.0)
        for z in (x * math.sqrt(2.0), -x * math.sqrt(2.0)):
            want = float(mpmath.ncdf(z))
            assert rel_err(std.cdf(z), want) < 1e-13
            assert rel_err(float(cdf("normal", (0.0, 1.0), z)), want) < 1e-13


def _mp_normal_ppf(p):
    # the root of ln Phi(v) = ln(tail) at 50 digits, on the smaller tail
    tail = mpmath.mpf(p) if p < 0.5 else 1 - mpmath.mpf(p)
    v = mpmath.findroot(
        lambda v: mpmath.log(mpmath.ncdf(v)) - mpmath.log(tail),
        -mpmath.sqrt(-2 * mpmath.log(tail)))
    return float(v if p < 0.5 else -v)


class TestStdNormalPpf:
    # both tails, and both sides of the 0.425 and 5.0 branch points of AS241
    PS = (1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-5, 0.001, 0.02, 0.0749,
          0.075, 0.0751, 0.3, 0.4999, 0.5001, 0.7, 0.925, 0.9999,
          1.0 - 1e-10, 1.0 - 2.0 ** -53)

    def test_against_mpmath(self):
        got = std_normal_ppf(np.array(self.PS))
        for p, z in zip(self.PS, got):
            assert rel_err(z, _mp_normal_ppf(p)) < 1e-15

    def test_center_and_symmetry(self):
        assert std_normal_ppf(0.5) == 0.0
        # levels whose complement is exact in binary
        for p in (2.0 ** -50, 2.0 ** -20, 0.125, 0.25, 0.375):
            assert std_normal_ppf(p) == -std_normal_ppf(1.0 - p)


class TestGammaInverse:
    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 3.7, 50.0, 1000.0])
    def test_inverts_both_tails(self, a):
        ps = np.array([1e-300, 1e-100, 1e-10, 0.01, 0.3, 0.5, 0.7, 0.99,
                       1.0 - 1e-10])
        qs = 1.0 - ps
        t = gamma_pq_inverse(a, ps, qs)
        p_got, q_got = gamma_pq(a, t)
        small = np.minimum(ps, qs)
        got = np.where(ps <= qs, p_got, q_got)
        # relative on the smaller tail, unless the root underflowed to 0
        ok = (np.abs(got - small) <= 1e-10 * small) | (t == 0.0)
        assert ok.all(), (t, got, small)
        # a root of 0 is only right when even the smallest double overshoots
        assert (gamma_pq(a, 5e-324)[0] >= ps[t == 0.0]).all()

    def test_upper_tail_is_solved_on_q(self):
        # with q passed exactly, a root far out in the upper tail is found
        t = float(gamma_pq_inverse(2.0, 1.0, 1e-300))
        want = float(mpmath.findroot(
            lambda v: mpmath.log(mpmath.gammainc(2.0, v, mpmath.inf,
                                                 regularized=True))
            - mpmath.log(mpmath.mpf(1e-300)), 700.0))
        assert rel_err(t, want) < 1e-12

    def test_each_root_is_independent_of_the_others(self):
        rng = np.random.default_rng(9)
        a = np.exp(rng.uniform(math.log(0.05), math.log(500.0), 200))
        p = np.concatenate([rng.uniform(0.0, 1.0, 150),
                            10.0 ** rng.uniform(-300.0, -5.0, 50)])
        upper = np.arange(a.size) % 3 == 0    # solved on the upper tail
        p, q = np.where(upper, 1.0 - p, p), np.where(upper, p, 1.0 - p)
        t = gamma_pq_inverse(a, p, q)
        order = rng.permutation(a.size)
        assert (gamma_pq_inverse(a[order], p[order], q[order]).tobytes()
                == t[order].tobytes())
        for i in range(a.size):
            one = gamma_pq_inverse(a[i:i + 1], p[i:i + 1], q[i:i + 1])
            assert one.tobytes() == t[i:i + 1].tobytes()

    def test_shapes(self):
        assert gamma_pq_inverse(2.0, 0.3, 0.7).shape == ()
        assert gamma_pq_inverse(np.ones((2, 1)), np.full(3, 0.5),
                                np.full(3, 0.5)).shape == (2, 3)
        assert gamma_pq_inverse(2.0, np.empty(0), np.empty(0)).shape == (0,)
