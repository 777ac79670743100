"""Shared oracles for the test suite: quadrature, KS distance, seed matrix,
and reference likelihoods."""

from __future__ import annotations

import math
import os

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
    from qmatch.orderstats import joint_uniform_os_logpdf

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


def exit_worker(*args, **kwargs):
    """Stand-in for a fit whose process dies without raising, as a worker
    killed by the operating system does."""
    os._exit(3)


# -- reference likelihoods ----------------------------------------------------
# Plain evaluations on a Dist, written out independently of
# orderstats.compile_loglik, so tests can hold the compiled closure to them
# bit for bit.

_CDF_CLAMP = 1e-300
_CDF_CLAMP_HI = math.nextafter(1.0, 0.0)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


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
