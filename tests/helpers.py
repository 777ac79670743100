"""Shared oracles for the test suite: quadrature, KS distance, seed matrix,
and reference likelihoods."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

# every stochastic property in the suite runs under this fixed seed matrix
SEEDS = (101, 202, 303)


def adaptive_simpson(f, a, b, tol=1e-9, max_depth=50):
    """Adaptive Simpson quadrature of f over [a, b] with Richardson control."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        la, lb = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        fla, flb = f(la), f(lb)
        left = simpson(x0, x1, f0, fla, f1)
        right = simpson(x1, x2, f1, flb, f2)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, x1, f0, fla, f1, left, 0.5 * tol, depth + 1)
                + recurse(x1, x2, f1, flb, f2, right, 0.5 * tol, depth + 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov sup distance between a sample and a scalar CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    f = np.array([cdf(x) for x in xs])
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(grid_hi - f)), np.max(np.abs(f - grid_lo))))


def ks_distance_precomputed(samples, f_values):
    """KS distance when the CDF has already been evaluated at the samples."""
    order = np.argsort(np.asarray(samples, dtype=float))
    f = np.asarray(f_values, dtype=float)[order]
    n = f.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(grid_hi - f)), np.max(np.abs(f - grid_lo))))


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def gauss_legendre(n):
    """Nodes and weights on [0, 1]; thin wrapper over numpy's leggauss."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def log_mean_exp(values):
    values = np.asarray(values, dtype=float)
    m = values.max()
    if not math.isfinite(m):
        return m
    return m + math.log(np.mean(np.exp(values - m)))


def nested_gl_mass(n, k, nodes=48):
    """Integrate exp(joint_uniform_os_logpdf) over the ordered simplex by
    recursively mapping Gauss-Legendre nodes onto (u_{m-1}, next bound)."""
    pts, wts = gauss_legendre(nodes)
    m = len(k)

    def level(idx, lower, prefix):
        width = 1.0 - lower
        total = 0.0
        for p, w in zip(pts, wts):
            u = lower + width * p
            if idx == m - 1:
                val = math.exp(joint_uniform_os_logpdf(n, k, prefix + (u,)))
            else:
                val = level(idx + 1, u, prefix + (u,))
            total += w * val
        return total * width

    return level(0, 0.0, ())


def src_env():
    """os.environ with the tested qmatch's src/ first on PYTHONPATH, so a
    child interpreter imports the same qmatch as the suite."""
    import qmatch

    src = str(Path(qmatch.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def exit_worker(*args, **kwargs):
    """Stand-in for a fit whose process dies without raising, as a worker
    killed by the operating system does."""
    os._exit(3)


def reference_p_series(a, x, lga):
    """The incomplete gamma series P(a, x) for x < a + 1, testing
    convergence after every term: ``special._p_series`` tests after every
    4th and must give the same bits.  lga is ln Gamma(a)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(10_000):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * 1.0e-17:
            scale = a * math.log(x) - x - lga
            if scale < -745.0:
                return 0.0
            return total * math.exp(scale)
    raise ArithmeticError(f"incomplete gamma series failed to converge: "
                          f"a={a}, x={x}")


# -- uniform order-statistic oracles ------------------------------------------
# Densities of uniform order statistics written out one point at a time,
# for the tests that integrate them or compare the likelihood against them.

def _pow_term(e, v):
    if e == 0.0:
        return 0.0
    if v <= 0.0:
        if e > 0.0:
            return -math.inf
        raise ValueError(
            f"density diverges: boundary value with negative exponent {e}"
        )
    return e * math.log(v)


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b), for a, b > 0."""
    from qmatch.special import log_gamma

    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def uniform_os_logpdf(n, k, x):
    """log Beta(x | k, n - k + 1): marginal density of the k-th uniform
    order statistic, generalized to real-valued k through the gamma
    function."""
    n = float(n)
    k = float(k)
    if not 0.0 < k <= n:
        raise ValueError(f"order k must satisfy 0 < k <= n, got k={k}, n={n}")
    x = float(x)
    if not 0.0 < x < 1.0:
        return -math.inf
    return ((k - 1.0) * math.log(x) + (n - k) * math.log1p(-x)
            - log_beta(k, n - k + 1.0))


def os_logpdf(d, n, k, x):
    """Log-density of the k-th order statistic of n draws from d at x:
    the uniform marginal evaluated at F(x) plus the Jacobian log f(x)."""
    u = d.cdf(x)
    return uniform_os_logpdf(n, k, u) + d.log_pdf(x)


def joint_uniform_os_logpdf(n, k, u):
    """Joint log-density of M uniform order statistics with real-valued
    orders k at points u; -inf (zero density) off the ordered simplex,
    error on boundary values whose exponent is negative."""
    from qmatch.orderstats import log_norm_const

    kk = tuple(float(v) for v in k)
    uu = tuple(float(v) for v in u)
    if len(uu) != len(kk):
        raise ValueError(f"dimension mismatch: {len(kk)} orders, {len(uu)} points")
    for v in uu:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"u values must lie in [0, 1], got {v!r}")
    if any(b <= a for a, b in zip(uu, uu[1:])):
        return -math.inf
    total = log_norm_const(n, kk)
    total += _pow_term(kk[0] - 1.0, uu[0])
    total += _pow_term(float(n) - kk[-1], 1.0 - uu[-1])
    for m in range(1, len(uu)):
        total += _pow_term(kk[m] - kk[m - 1] - 1.0, uu[m] - uu[m - 1])
    return total


# -- reference likelihoods ----------------------------------------------------
# Plain evaluations on a Dist, written out independently of
# orderstats.compile_loglik, so tests can hold the compiled closure to them
# bit for bit.

_CDF_CLAMP = 1e-300
_CDF_CLAMP_HI = math.nextafter(1.0, 0.0)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def reference_joint_os_loglik(d, obs):
    """Joint order-statistics log-likelihood of obs under d, with the
    package's CDF clamp; tied CDF values return -inf and increment
    ``orderstats.tie_events``."""
    from qmatch import orderstats

    n = obs.n_total
    q = obs.q
    x = obs.x
    cdf = d.cdf
    log_pdf = d.log_pdf

    u = [min(max(cdf(v), _CDF_CLAMP), _CDF_CLAMP_HI) for v in x]
    for a, b in zip(u, u[1:]):
        if b <= a:
            orderstats.tie_events += 1
            return -math.inf

    total = orderstats.log_norm_const(n, tuple(v * n for v in q))
    k1 = q[0] * n
    km = q[-1] * n
    total += _pow_term(k1 - 1.0, u[0])
    if n != km:
        total += (n - km) * math.log1p(-u[-1])
    for m in range(1, len(u)):
        e = (q[m] - q[m - 1]) * n - 1.0
        if e != 0.0:
            total += e * math.log(u[m] - u[m - 1])
    for v in x:
        total += log_pdf(v)
    return total


def reference_gaussian_noise_loglik(d, obs, sigma_noise):
    """CDF-regression baseline: sum_m log N(q_m | F_theta(x_m), sigma_noise^2)."""
    sigma_noise = float(sigma_noise)
    if not sigma_noise > 0.0:
        raise ValueError(f"sigma_noise must be positive, got {sigma_noise!r}")
    cdf = d.cdf
    const = -_HALF_LOG_TWO_PI - math.log(sigma_noise)
    inv_two_var = 0.5 / (sigma_noise * sigma_noise)
    total = 0.0
    for qm, xm in zip(obs.q, obs.x):
        r = qm - cdf(xm)
        total += const - r * r * inv_two_var
    return total


# theta -> (s, C) with F(x) ~ C x^s as x -> 0, for the families whose
# density can diverge there
_EDGE = {"weibull": lambda k, lam: (k, lam ** -k),
         "gamma": lambda a, sc: (a, sc ** -a / math.gamma(a + 1.0)),
         "chi_square": lambda nu: (nu / 2.0, 2.0 ** (-nu / 2.0)
                                   / math.gamma(nu / 2.0 + 1.0))}


def _np_pow_term(e, v):
    """e ln v with numpy's log, 0 for e = 0, for v > 0."""
    return float(e * np.log(np.float64(v))) if e != 0.0 else 0.0


def reference_penalty_curves(d, q, n, grid, sigma_noise):
    """penalty_curves one grid point at a time, from the family's array CDF
    and array log-density on that point alone, with numpy's log as
    ``penalty_curves`` takes it: (os_curve, gn_curve), each max-normalized.
    Where the density is +inf (x = 0), the os term is its limit
    C^k s x^{sk-1}; an os curve that is +inf somewhere is 1 there and 0
    elsewhere."""
    from qmatch.distributions import _CDF_ARRAY, _LOG_PDF_ARRAY

    cdf, log_pdf = _CDF_ARRAY[d.spec.name], _LOG_PDF_ARRAY[d.spec.name]
    theta = tuple(np.asarray(d.theta))
    k = q * n
    log_os, resid = [], []
    for x in grid:
        with np.errstate(all="ignore"):
            u = min(max(float(cdf(theta, np.array([x]))[0]), _CDF_CLAMP),
                    _CDF_CLAMP_HI)
            lf = float(log_pdf(theta, np.array([x]))[0])
        if lf == math.inf:
            s, c = _EDGE[d.spec.name](*d.theta)
            log_os.append(math.log(c ** k * s) if s * k == 1.0
                          else math.inf if s * k < 1.0 else -math.inf)
        else:
            log_os.append(_np_pow_term(k - 1.0, u)
                          + _np_pow_term(n - k, 1.0 - u) + lf)
        resid.append((u - q) * (u - q))
    log_os, resid = np.array(log_os), np.array(resid)
    m = log_os.max()
    if math.isfinite(m):
        os_curve = np.exp(log_os - m)
    else:   # +inf where os diverges (or -inf everywhere)
        os_curve = np.array([1.0 if v == math.inf else 0.0 for v in log_os])
    gn_curve = np.exp(-(resid - resid.min()) / (2.0 * sigma_noise ** 2))
    return os_curve, gn_curve


def reference_predictive_cdf(pd, family, grid):
    """predictive_cdf one grid point at a time: (mean, lo, hi) of each
    point's per-draw CDF values, by ``.mean()`` and ``np.quantile``."""
    from qmatch.distributions import cdf

    theta = tuple(np.ascontiguousarray(pd.draws.T))
    grid = np.asarray(grid, dtype=float)
    mean, lo, hi = (np.empty(grid.size) for _ in range(3))
    for j, x in enumerate(grid):
        values = cdf(family, theta, x)
        mean[j] = values.mean()
        lo[j], hi[j] = np.quantile(values, (0.05, 0.95))
    return mean, lo, hi


def pareto_khat(log_ratios):
    """Pareto k-hat of the importance ratios exp(log_ratios) (Vehtari,
    Simpson, Gelman, Yao & Gabry 2024, "Pareto smoothed importance
    sampling", JMLR 25(72)): the generalized Pareto shape fitted to the
    exceedances of the M = min(ceil(0.2 n), ceil(3 sqrt(n))) largest ratios
    over the next largest, by the profile-likelihood posterior mean of
    Zhang & Stephens 2009 (Technometrics 51(3)), then pulled towards 0.5
    by the paper's weak prior, worth 10 observations.  Below 0.5 the
    ratios have finite variance; above 0.7 they have no usable estimate of
    it."""
    lr = np.sort(np.asarray(log_ratios, dtype=float))
    n = lr.size
    tail = min(math.ceil(0.2 * n), math.ceil(3.0 * math.sqrt(n)))
    ratios = np.exp(lr[-tail - 1:] - lr[-1])
    x = ratios[1:] - ratios[0]              # ascending exceedances
    m = 30 + int(math.sqrt(tail))
    theta = (1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))) / (
        3.0 * x[int(tail / 4 + 0.5) - 1]) + 1.0 / x[-1]
    k = np.log1p(-theta[:, None] * x).mean(axis=1)
    log_lik = tail * (np.log(-theta / k) - k - 1.0)
    weights = 1.0 / np.exp(log_lik - log_lik[:, None]).sum(axis=1)
    theta_hat = (theta * weights).sum() / weights.sum()
    k_hat = float(np.log1p(-theta_hat * x).mean())
    return (tail * k_hat + 10 * 0.5) / (tail + 10)
