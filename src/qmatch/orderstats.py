"""Order-statistics likelihood kernels, all in log domain.

Given M empirical quantile levels ``q`` with values ``x`` computed from a
hidden sample of size N, the joint density of the corresponding order
statistics is, with k_m = q_m * N (real-valued orders; ranks between
integers are understood through the usual interpolation),

    c * u_1^{k_1 - 1} * (1 - u_M)^{N - k_M}
      * prod_{m=2}^{M} (u_m - u_{m-1})^{k_m - k_{m-1} - 1}
      * prod_m f_theta(x_m),          u_m = F_theta(x_m),

    ln c = ln N! - ln Gamma(k_1) - ln Gamma(N - k_M + 1)
                 - sum_{m=2}^{M} ln Gamma(k_m - k_{m-1}).

``compile_loglik`` is the one implementation of that likelihood and of the
CDF-regression baseline, which treats the quantile levels as Gaussian
observations of F_theta(x).  It computes what does not depend on theta
once and returns a closure over plain floats; the sampler, ``map_estimate``
and the public ``joint_os_loglik``/``gaussian_noise_loglik`` on a ``Dist``
all evaluate that closure.  ``penalty_curves`` renders both as normalized
one-point likelihood curves for comparing their tail behavior.

Numerical conventions
---------------------
* Exponents such as k_m - k_{m-1} - 1 may be negative when quantiles sit
  closer than 1/N; that keeps a valid (integrable) density while the
  exponent stays above -1, and is rejected with a clear error at <= -1.
* F_theta(x) is clamped to [1e-300, 1 - 1e-300] before taking logs, so an
  underflowed CDF cannot masquerade as a genuine zero-density region.
* CDF values that tie at machine precision (catastrophically misfit
  parameters pushing several x into one tail) yield -inf and bump the
  module-level ``tie_events`` counter instead of raising, so samplers can
  simply reject the proposal.

All functions are pure; ``tie_events`` is the only piece of module state
and is a monotone diagnostic counter.  It counts only evaluations made in
the current process, so the fits that ``qmatch compare`` runs in worker
processes do not add to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .distributions import _CDF, _LOG_PDF, Dist, FamilySpec
from .special import log_beta, log_gamma

__all__ = [
    "LIKELIHOOD_KINDS",
    "QuantileObservation",
    "uniform_os_cdf",
    "uniform_os_logpdf",
    "os_logpdf",
    "log_norm_const",
    "joint_uniform_os_logpdf",
    "compile_loglik",
    "joint_os_loglik",
    "gaussian_noise_loglik",
    "penalty_curves",
    "tie_events",
    "reset_tie_events",
]

_INF = math.inf
_CDF_CLAMP = 1e-300
# 1 - 1e-300 is not representable; the closest honest upper clamp is the
# largest double below 1, which log1p still resolves to a finite log
_CDF_CLAMP_HI = math.nextafter(1.0, 0.0)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

LIKELIHOOD_KINDS = ("order_statistics", "gaussian_noise")

# diagnostic counter: number of order-statistics evaluations rejected on
# tied CDFs
tie_events: int = 0


def reset_tie_events() -> None:
    global tie_events
    tie_events = 0


@dataclass(frozen=True)
class QuantileObservation:
    """The observed triple (q, x, N) plus the normalization divisor.

    ``x`` is stored in whatever units the likelihood should consume;
    ``scale_divisor`` records the factor that maps those units back to the
    raw ones (``raw = x * scale_divisor``), e.g. the median used to
    normalize salary data.  ``normalized()`` performs that division once.
    """

    q: tuple[float, ...]
    x: tuple[float, ...]
    n_total: float
    scale_divisor: float = 1.0

    def __post_init__(self) -> None:
        q = tuple(float(v) for v in self.q)
        x = tuple(float(v) for v in self.x)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n_total", float(self.n_total))
        object.__setattr__(self, "scale_divisor", float(self.scale_divisor))
        if len(q) == 0 or len(q) != len(x):
            raise ValueError(f"q and x must be equal-length, non-empty "
                             f"(got {len(q)} and {len(x)})")
        for v in q:
            if not 0.0 < v < 1.0:
                raise ValueError(f"quantile levels must lie in (0, 1), got {v!r}")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ValueError(f"quantile levels must be strictly increasing: {q}")
        for v in x:
            if not math.isfinite(v):
                raise ValueError(f"x values must be finite, got {v!r}")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError(f"x values must be strictly increasing: {x}")
        if not self.n_total >= 1.0:
            raise ValueError(f"n_total must be >= 1, got {self.n_total!r}")
        if not self.scale_divisor > 0.0:
            raise ValueError(f"scale_divisor must be positive, "
                             f"got {self.scale_divisor!r}")

    @property
    def m(self) -> int:
        return len(self.q)

    def normalized(self) -> "QuantileObservation":
        """Divide x by scale_divisor (the divisor stays, for de-normalizing)."""
        return replace(self, x=tuple(v / self.scale_divisor for v in self.x))


def uniform_os_cdf(n: int, k: int, x):
    """P(U_(k) <= x) for the k-th of n iid uniforms: the at-least-k sum
    sum_{i=k}^{n} C(n,i) x^i (1-x)^{n-i}, integer k only.  x is a float,
    which gives a float, or an array, which gives an array of its shape."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not float(k).is_integer() or not 1 <= int(k) <= n:
        raise ValueError(f"k must be an integer in [1, {n}], got {k!r}")
    k = int(k)
    u = np.asarray(x, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    i = np.arange(k, n + 1)
    log_c = [log_gamma(n + 1.0) - log_gamma(j + 1.0) - log_gamma(n - j + 1.0)
             for j in range(k, n + 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        # one row of terms per x; the endpoints are set exactly below
        terms = np.exp(np.array(log_c) + i * np.log(u)[..., None]
                       + (n - i) * np.log1p(-u)[..., None])
    total = np.where(u == 1.0, 1.0, np.minimum(terms.sum(axis=-1), 1.0))
    return float(total) if total.ndim == 0 else total


def _pow_term(e: float, v: float) -> float:
    # e * ln(v) with the boundary conventions: exponent 0 contributes nothing
    # even at v = 0; a genuinely negative exponent at v = 0 is a divergence.
    if e == 0.0:
        return 0.0
    if v <= 0.0:
        if e > 0.0:
            return -_INF
        raise ValueError(
            f"density diverges: boundary value with negative exponent {e}"
        )
    return e * math.log(v)


def uniform_os_logpdf(n: float, k: float, x: float) -> float:
    """log Beta(x | k, n - k + 1): marginal density of the k-th uniform
    order statistic, generalized to real-valued k through the gamma
    function."""
    n = float(n)
    k = float(k)
    if not 0.0 < k <= n:
        raise ValueError(f"order k must satisfy 0 < k <= n, got k={k}, n={n}")
    x = float(x)
    if not 0.0 < x < 1.0:
        return -_INF
    return ((k - 1.0) * math.log(x) + (n - k) * math.log1p(-x)
            - log_beta(k, n - k + 1.0))


def os_logpdf(d: Dist, n: float, k: float, x: float) -> float:
    """Log-density of the k-th order statistic of n draws from d at x:
    the uniform marginal evaluated at F(x) plus the Jacobian log f(x)."""
    u = d.cdf(x)
    return uniform_os_logpdf(n, k, u) + d.log_pdf(x)


def _k_diffs(k: tuple[float, ...]) -> tuple[float, ...]:
    diffs = tuple(b - a for a, b in zip(k, k[1:]))
    for d in diffs:
        if d <= 0.0:
            raise ValueError(
                f"order spacing must be positive (quantiles too close given N); "
                f"got difference {d!r} in k={k}"
            )
    return diffs


def log_norm_const(n: float, k) -> float:
    """ln of the joint-density normalization constant:
    ln N! - ln Gamma(k_1) - ln Gamma(N - k_M + 1) - sum ln Gamma(k_m - k_{m-1})."""
    kk = tuple(float(v) for v in k)
    n = float(n)
    if kk[0] <= 0.0:
        raise ValueError(f"orders must be positive, got k_1 = {kk[0]!r}")
    if kk[-1] > n:
        raise ValueError(f"largest order {kk[-1]!r} exceeds n = {n!r}")
    diffs = _k_diffs(kk)
    total = log_gamma(n + 1.0) - log_gamma(kk[0]) - log_gamma(n - kk[-1] + 1.0)
    for d in diffs:
        total -= log_gamma(d)
    return total


def joint_uniform_os_logpdf(n: float, k, u) -> float:
    """Joint log-density of M uniform order statistics with real-valued
    orders k at points u; -inf (zero density) off the ordered simplex,
    error on boundary values whose exponent is negative."""
    kk = tuple(float(v) for v in k)
    uu = tuple(float(v) for v in u)
    if len(uu) != len(kk):
        raise ValueError(f"dimension mismatch: {len(kk)} orders, {len(uu)} points")
    for v in uu:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"u values must lie in [0, 1], got {v!r}")
    if any(b <= a for a, b in zip(uu, uu[1:])):
        return -_INF
    total = log_norm_const(n, kk)
    total += _pow_term(kk[0] - 1.0, uu[0])
    total += _pow_term(float(n) - kk[-1], 1.0 - uu[-1])
    for m in range(1, len(uu)):
        total += _pow_term(kk[m] - kk[m - 1] - 1.0, uu[m] - uu[m - 1])
    return total


@lru_cache(maxsize=4096)
def _cached_norm_const(n: float, q: tuple[float, ...]) -> float:
    return log_norm_const(n, tuple(v * n for v in q))


def compile_loglik(family: FamilySpec, obs: QuantileObservation,
                   kind: str = "order_statistics",
                   sigma_noise: float = 0.05):
    """theta -> the `kind` log-likelihood of obs under `family`, with theta
    a sequence of plain floats inside the parameter domains.

    "order_statistics" is ``joint_uniform_os_logpdf(N, q*N, F(x)) + sum
    log f(x_m)`` with the CDF clamp described in the module docstring;
    tied CDF values give -inf and increment ``tie_events``.
    "gaussian_noise" is sum_m log N(q_m | F_theta(x_m), sigma_noise^2).
    What does not depend on theta (the family's scalar kernels, the
    normalising constant, the exponents, the Gaussian-noise constants) is
    computed here, once; per call the closure builds no ``Dist`` and does
    no numpy work.
    """
    if kind not in LIKELIHOOD_KINDS:
        raise ValueError(f"likelihood kind must be one of {LIKELIHOOD_KINDS}, "
                         f"got {kind!r}")
    cdf = _CDF[family.name]
    log_pdf = _LOG_PDF[family.name]
    xs = obs.x

    if kind == "gaussian_noise":
        const = -_HALF_LOG_TWO_PI - math.log(sigma_noise)
        inv_two_var = 0.5 / (sigma_noise * sigma_noise)
        pairs = tuple(zip(obs.q, xs))

        def gaussian_noise(theta) -> float:
            total = 0.0
            for qm, xm in pairs:
                r = qm - cdf(theta, xm)
                total += const - r * r * inv_two_var
            return total

        return gaussian_noise

    n, q = obs.n_total, obs.q
    norm = _cached_norm_const(n, q)
    low = q[0] * n - 1.0                        # k_1 - 1
    high = n - q[-1] * n                        # N - k_M
    spacing = tuple((b - a) * n - 1.0 for a, b in zip(q, q[1:]))
    log, log1p, lo, hi = math.log, math.log1p, _CDF_CLAMP, _CDF_CLAMP_HI

    def order_statistics(theta) -> float:
        global tie_events
        u = [min(max(cdf(theta, v), lo), hi) for v in xs]
        for a, b in zip(u, u[1:]):
            if b <= a:
                tie_events += 1
                return -_INF
        total = norm
        if low != 0.0:          # u is clamped above 0, so the log is finite
            total += low * log(u[0])
        if high != 0.0:
            total += high * log1p(-u[-1])
        for e, a, b in zip(spacing, u, u[1:]):
            if e != 0.0:
                total += e * log(b - a)
        for v in xs:
            total += log_pdf(theta, v)
        return total

    return order_statistics


def joint_os_loglik(d: Dist, obs: QuantileObservation) -> float:
    """Joint order-statistics log-likelihood of obs under d: the
    ``compile_loglik`` closure at d.theta."""
    return compile_loglik(d.spec, obs)(d.theta)


def gaussian_noise_loglik(d: Dist, obs: QuantileObservation,
                          sigma_noise: float) -> float:
    """CDF-regression baseline: sum_m log N(q_m | F_theta(x_m), sigma_noise^2)."""
    sigma_noise = float(sigma_noise)
    if not sigma_noise > 0.0:
        raise ValueError(f"sigma_noise must be positive, got {sigma_noise!r}")
    return compile_loglik(d.spec, obs, "gaussian_noise", sigma_noise)(d.theta)


def penalty_curves(d: Dist, q: float, n: float, x_grid,
                   sigma_noise: float = 0.05):
    """Single-point likelihood curves over x_grid under both models, each
    max-normalized to 1: returns (os_curve, gn_curve) as numpy arrays.

    os: F(x)^{qN-1} (1-F(x))^{N-qN} f(x);  gn: exp(-(F(x)-q)^2 / 2 sigma^2).
    """
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("x_grid must be a non-empty 1-D vector")
    if not np.all(np.isfinite(grid)):
        raise ValueError("x_grid must be finite")
    if np.any(np.diff(grid) < 0):
        raise ValueError("x_grid must be sorted ascending")
    k = q * float(n)
    e_lo = k - 1.0
    e_hi = float(n) - k
    log_os = np.empty(grid.size)
    gn_resid = np.empty(grid.size)
    for i, xv in enumerate(grid):
        xv = float(xv)
        u = min(max(d.cdf(xv), _CDF_CLAMP), _CDF_CLAMP_HI)
        log_os[i] = (_pow_term(e_lo, u) + _pow_term(e_hi, 1.0 - u)
                     + d.log_pdf(xv))
        r = u - q
        gn_resid[i] = r * r
    m = log_os.max()
    os_curve = (np.exp(log_os - m) if math.isfinite(m)
                else np.zeros(grid.size))
    gn_curve = np.exp(-(gn_resid - gn_resid.min()) / (2.0 * sigma_noise ** 2))
    return os_curve, gn_curve
