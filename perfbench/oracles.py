"""Independent reference computations built on scipy alone.

Nothing here imports qmatch: every value is recomputed from the published
definitions (family densities from ``scipy.stats``, the joint
order-statistics density from its closed form, posterior moments by
quadrature), so a fault in the program cannot leak into its own check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special
import scipy.stats

# which qmatch parameters are sampled on the log scale, per family
POSITIVE = {
    "normal": (False, True),
    "cauchy": (False, True),
    "lognormal": (False, True),
    "weibull": (True, True),
    "gamma": (True, True),
    "inv_gamma": (True, True),
    "frechet": (True, True),
    "chi_square": (True,),
    "exponential": (True,),
}


def frozen(family: str, theta):
    """scipy frozen distribution for a qmatch family; theta is a sequence of
    columns (scalars or arrays that broadcast)."""
    a = [np.asarray(v, dtype=float) for v in theta]
    if family == "normal":
        return scipy.stats.norm(loc=a[0], scale=a[1])
    if family == "cauchy":
        return scipy.stats.cauchy(loc=a[0], scale=a[1])
    if family == "lognormal":
        return scipy.stats.lognorm(s=a[1], scale=np.exp(a[0]))
    if family == "weibull":
        return scipy.stats.weibull_min(c=a[0], scale=a[1])
    if family == "gamma":
        return scipy.stats.gamma(a=a[0], scale=a[1])
    if family == "inv_gamma":
        return scipy.stats.invgamma(a=a[0], scale=a[1])
    if family == "frechet":
        return scipy.stats.invweibull(c=a[0], scale=a[1])
    if family == "chi_square":
        return scipy.stats.chi2(df=a[0])
    if family == "exponential":
        return scipy.stats.expon(scale=1.0 / a[0])
    raise ValueError(f"no scipy counterpart for family {family!r}")


def os_loglik(family: str, theta, q, x, n: float) -> np.ndarray:
    """Joint order-statistics log-likelihood of (q, x, N), vectorised over
    theta columns: log c + (k1-1) log F(x1) + (N-kM) log S(xM)
    + sum (k_m - k_{m-1} - 1) log(F(x_m) - F(x_{m-1})) + sum log f(x_m)."""
    q = np.asarray(q, dtype=float)
    k = q * n
    dk = np.diff(k)
    log_c = (scipy.special.gammaln(n + 1.0) - scipy.special.gammaln(k[0])
             - scipy.special.gammaln(n - k[-1] + 1.0)
             - scipy.special.gammaln(dk).sum())
    d = frozen(family, [np.asarray(v, dtype=float)[..., None] for v in theta])
    xs = np.asarray(x, dtype=float)
    cdf = d.cdf(xs)
    sf = d.sf(xs)
    total = log_c + (k[0] - 1.0) * np.log(cdf[..., 0])
    if n != k[-1]:
        total = total + (n - k[-1]) * np.log(sf[..., -1])
    if xs.size > 1:
        # difference of whichever tail is smaller keeps relative accuracy
        gap = np.where(cdf[..., :-1] < 0.5, cdf[..., 1:] - cdf[..., :-1],
                       sf[..., :-1] - sf[..., 1:])
        total = total + ((dk - 1.0) * np.log(gap)).sum(axis=-1)
    return total + d.logpdf(xs).sum(axis=-1)


def log_prior(theta, sd: float = 100.0) -> np.ndarray:
    """The package default prior: independent N(0, sd^2) on each
    constrained parameter."""
    return sum(scipy.stats.norm.logpdf(np.asarray(v, dtype=float), scale=sd)
               for v in theta)


def posterior_moments(family: str, q, x, n: float, draws: np.ndarray,
                      points: int = 161, width: float = 10.0):
    """Posterior mean and sd of each constrained parameter under the order-
    statistics likelihood and the default prior, by quadrature.

    The grid is uniform in whitened sampling coordinates (log for positive
    parameters): centred on the draws' mean and rotated and scaled by their
    covariance, +-width sds per axis.  Only the grid placement uses the
    draws; the integrand is exact.  The grid is widened until the density on
    its rim is negligible.  Returns (mean, sd).
    """
    pos = POSITIVE[family]
    eta = np.column_stack([np.log(draws[:, i]) if p else draws[:, i]
                           for i, p in enumerate(pos)])
    centre = eta.mean(axis=0)
    cov = np.atleast_2d(np.cov(eta, rowvar=False))
    dim = len(pos)
    # floor the scale so that a chain stuck at one point still gets a grid
    vals, vecs = np.linalg.eigh(cov)
    root = vecs * np.sqrt(np.maximum(vals, 1e-10 * max(vals.max(), 1e-12)))
    for _ in range(4):
        axis = np.linspace(-width, width, points)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        z = np.stack([m.ravel() for m in mesh], axis=1)
        e = centre + z @ root.T
        theta = [np.exp(e[:, i]) if p else e[:, i] for i, p in enumerate(pos)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lp = (os_loglik(family, theta, q, x, n) + log_prior(theta)
                  + sum(e[:, i] for i, p in enumerate(pos) if p))
        lp = np.where(np.isnan(lp), -np.inf, lp)
        peak = lp.max()
        w = np.exp(lp - peak).reshape(mesh[0].shape)
        rim = max(float(np.max(np.abs(np.take(w, idx, axis=ax))))
                  for ax in range(dim) for idx in (0, -1))
        if rim < 1e-9:
            break
        width *= 2.0
    w = w.ravel()
    w = w / w.sum()
    mean = np.array([float(np.dot(w, t)) for t in theta])
    sd = np.array([math.sqrt(max(float(np.dot(w, (t - m) ** 2)), 0.0))
                   for t, m in zip(theta, mean)])
    return mean, sd


def ks_to_cdf(f_values) -> float:
    """Kolmogorov-Smirnov distance of values already mapped through the
    hypothesised CDF, against the uniform distribution."""
    f = np.sort(np.asarray(f_values, dtype=float))
    n = f.size
    return float(max(np.max(np.arange(1, n + 1) / n - f),
                     np.max(f - np.arange(0, n) / n)))


def dkw_bound(n: int, alpha: float = 1e-6) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: P(KS > eps) <= 2 exp(-2 n eps^2) = alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def binom_lower(n: int, p: float, alpha: float = 1e-6) -> int:
    """Largest c with P(Binomial(n, p) < c) <= alpha: fewer than c successes
    is a false alarm with probability at most alpha."""
    return max(int(scipy.stats.binom.ppf(alpha, n, p)), 0)
