"""Order-statistics likelihoods in log domain, and ``uniform_os_cdf``.

Given M empirical quantile levels ``q`` with values ``x`` computed from a
hidden sample of size N, the joint density of the corresponding order
statistics is, with k_m = q_m * N (real-valued orders; ranks between
integers are understood through the usual interpolation),

    c * u_1^{k_1 - 1} * (1 - u_M)^{N - k_M}
      * prod_{m=2}^{M} (u_m - u_{m-1})^{k_m - k_{m-1} - 1}
      * prod_m f_theta(x_m),          u_m = F_theta(x_m),

    ln c = ln N! - ln Gamma(k_1) - ln Gamma(N - k_M + 1)
                 - sum_{m=2}^{M} ln Gamma(k_m - k_{m-1}).

``compile_loglik`` implements that likelihood and the CDF-regression
baseline, which treats the quantile levels as Gaussian observations of
F_theta(x), over one parameter vector; ``compile_loglik_rows`` implements
both over the rows of an array of them.  Each computes what does not
depend on theta once (``_os_constants``, ``_noise_constants``) and
returns a closure.  The sampler's start and warmup, ``map_estimate`` and
the public ``joint_os_loglik``/``gaussian_noise_loglik`` on a ``Dist``
evaluate the plain-float closure.  Its order-statistics form gets every
F_theta(x_m) and log f_theta(x_m) from one call of the family's fused
kernel (``distributions._TERMS``) and clamps and tie-checks the u_m in one
pass; its Gaussian-noise form reads only the CDFs of that call.  The
sampling phase evaluates the array closure, one call per chain: its
order-statistics form calls the family's array CDF and array
log-density, its Gaussian-noise form the array CDF alone.  A
Gaussian-noise fit gets the order-statistics likelihood of the states
its chains entered from one more array call after they end.
``penalty_curves`` renders both as normalized one-point likelihood
curves for comparing their tail behavior, from one call each of the
family's array CDF and array log-density over its whole grid.

Numerical conventions
---------------------
* Exponents such as k_m - k_{m-1} - 1 may be negative when quantiles sit
  closer than 1/N; that keeps a valid (integrable) density while the
  exponent stays above -1, and is rejected with a clear error at <= -1.
* F_theta(x) is clamped to [1e-300, nextafter(1, 0)], a NaN passing, before
  logs, so an underflowed CDF cannot masquerade as a zero-density region.
* CDF values that tie once clamped (catastrophically misfit parameters
  pushing several x into one tail) yield -inf and add one per parameter
  vector to the module-level ``tie_events`` counter instead of raising,
  so samplers can simply reject the proposal.

All functions are pure; ``tie_events`` is the only piece of module state
and is a monotone diagnostic counter.  It counts only evaluations made in
the current process, so the fits that ``qmatch compare`` runs in worker
processes do not add to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (_CDF_ARRAY, _HALF_LOG_TWO_PI, _LOG_PDF_ARRAY,
                            _TERMS, Dist, FamilySpec, _edge_power)
from .special import log_gamma

__all__ = [
    "LIKELIHOOD_KINDS",
    "QuantileObservation",
    "uniform_os_cdf",
    "log_norm_const",
    "compile_loglik",
    "compile_loglik_rows",
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

LIKELIHOOD_KINDS = ("order_statistics", "gaussian_noise")

# diagnostic counter: number of order-statistics evaluations rejected on
# tied CDFs
tie_events: int = 0


def reset_tie_events() -> None:
    global tie_events
    tie_events = 0


def _count(name: str, value, least: int = 1) -> int:
    """value as an int, if it is a whole number >= least (numpy integers
    too): the rule for every sample size, replicate and chain count."""
    # compared before int(), which raises its own error on inf and NaN
    if not least <= value < math.inf or int(value) != value:
        kind = "a count" if least else "an integer"
        raise ValueError(f"{name} must be {kind} >= {least}, got {value!r}")
    return int(value)


def _seed(name: str, value) -> int:
    """value as an int, if it is an integer >= 0: the rule for every seed."""
    return _count(name, value, least=0)


def _check_levels(q: tuple[float, ...]) -> None:
    """Quantile levels must lie in (0, 1) and strictly increase."""
    for v in q:
        if not 0.0 < v < 1.0:
            raise ValueError(f"quantile levels must lie in (0, 1), got {v!r}")
    if any(b <= a for a, b in zip(q, q[1:])):
        raise ValueError(f"quantile levels must be strictly increasing: {q}")


def _sigma_noise(value) -> float:
    """value as a float, if it is a positive Gaussian-noise scale."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"sigma_noise must be positive, got {value!r}")
    return value


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
        _check_levels(q)
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


def log_norm_const(n: float, k) -> float:
    """ln of the joint-density normalization constant:
    ln N! - ln Gamma(k_1) - ln Gamma(N - k_M + 1) - sum ln Gamma(k_m - k_{m-1})."""
    kk = tuple(float(v) for v in k)
    n = float(n)
    if kk[0] <= 0.0:
        raise ValueError(f"orders must be positive, got k_1 = {kk[0]!r}")
    if kk[-1] > n:
        raise ValueError(f"largest order {kk[-1]!r} exceeds n = {n!r}")
    diffs = [b - a for a, b in zip(kk, kk[1:])]
    for d in diffs:
        if d <= 0.0:
            raise ValueError(
                f"order spacing must be positive (quantiles too close given N); "
                f"got difference {d!r} in k={kk}"
            )
    total = log_gamma(n + 1.0) - log_gamma(kk[0]) - log_gamma(n - kk[-1] + 1.0)
    for d in diffs:
        total -= log_gamma(d)
    return total


def _check_kind(kind: str) -> None:
    if kind not in LIKELIHOOD_KINDS:
        raise ValueError(f"likelihood_kind must be one of {LIKELIHOOD_KINDS}, "
                         f"got {kind!r}")


def _os_constants(obs: QuantileObservation):
    """What the order-statistics likelihood of obs takes from (q, N) alone:
    ln c, the exponents (k_1 - 1, k_2 - k_1 - 1, ..., k_M - k_{M-1} - 1)
    of the gaps u_1, u_2 - u_1, ..., and N - k_M."""
    n, q = obs.n_total, obs.q
    norm = log_norm_const(n, tuple(v * n for v in q))
    expo = (q[0] * n - 1.0,) + tuple((b - a) * n - 1.0
                                     for a, b in zip(q, q[1:]))
    return norm, expo, n - q[-1] * n


def _noise_constants(sigma_noise: float):
    # the log-normalizer of one Gaussian-noise term and 1 / (2 sigma^2)
    sigma_noise = _sigma_noise(sigma_noise)
    return (-_HALF_LOG_TWO_PI - math.log(sigma_noise),
            0.5 / (sigma_noise * sigma_noise))


def compile_loglik(family: FamilySpec, obs: QuantileObservation,
                   kind: str = "order_statistics",
                   sigma_noise: float = 0.05):
    """theta -> the `kind` log-likelihood of obs under `family`, with theta
    a sequence of plain floats inside the parameter domains.

    "order_statistics" is the log of the module docstring's joint density
    at k = q*N, with its CDF clamp; tied CDF values give -inf and
    increment ``tie_events``.
    "gaussian_noise" is sum_m log N(q_m | F_theta(x_m), sigma_noise^2).
    What does not depend on theta (the family's fused kernel over obs.x,
    the normalising constant, the exponents, the Gaussian-noise constants)
    is computed here, once.  Per call each closure makes one fused-kernel
    call for all the CDF and log-density values.  The Gaussian-noise
    closure reads only the CDF list; the order-statistics closure sums the
    log-densities after the CDF terms.  Neither builds a ``Dist`` or does
    numpy work.
    """
    _check_kind(kind)
    terms = _TERMS[family.name](obs.x)
    if kind == "gaussian_noise":
        q = obs.q
        const, inv_two_var = _noise_constants(sigma_noise)

        def gaussian_noise(theta):
            total = 0.0
            for qm, u in zip(q, terms(theta)[0]):
                r = qm - u
                total += const - r * r * inv_two_var
            return total

        return gaussian_noise

    norm, (low, *rest), high = _os_constants(obs)
    spacing = (0.0, *rest)
    log, log1p, lo, hi = math.log, math.log1p, _CDF_CLAMP, _CDF_CLAMP_HI

    def order_statistics(theta) -> float:
        global tie_events
        cdfs, log_fs = terms(theta)
        gaps, prev = [], 0.0    # u_m - u_{m-1} from u_0 = 0: first is u_1
        for v in cdfs:          # clamp (NaN passes), reject ties
            v = lo if v < lo else hi if v > hi else v
            if v <= prev:
                tie_events += 1
                return -_INF
            gaps.append(v - prev)
            prev = v
        total = norm
        if low != 0.0:          # u is clamped above 0, so the log is finite
            total += low * log(gaps[0])
        if high != 0.0:
            total += high * log1p(-prev)
        for e, g in zip(spacing, gaps):     # the leading 0.0 skips u_1
            if e != 0.0:
                total += e * log(g)
        for v in log_fs:
            total += v
        return total

    return order_statistics


def compile_loglik_rows(family: FamilySpec, obs: QuantileObservation,
                        kind: str = "order_statistics",
                        sigma_noise: float = 0.05):
    """theta -> the `kind` log-likelihood of obs at each row of theta, an
    (n, arity) array of parameters inside their domains: the values of the
    ``compile_loglik`` closure to rounding, with its clamp, tie rule and
    normalising constant, from one array call for all the rows.

    ``tie_events`` rises by one per tied row.  The Gaussian-noise closure
    calls only the family's array CDF; the order-statistics closure adds
    its array log-density.
    """
    _check_kind(kind)
    x = np.array(obs.x)
    cdf = _CDF_ARRAY[family.name]
    if kind == "gaussian_noise":
        q = np.array(obs.q)
        const, inv_two_var = _noise_constants(sigma_noise)

        def gaussian_noise(theta):
            with np.errstate(all="ignore"):
                r = q - cdf(tuple(theta.T[:, :, None]), x)
                return (const - r * r * inv_two_var).sum(axis=1)

        return gaussian_noise

    log_pdf = _LOG_PDF_ARRAY[family.name]
    norm, expo, high = _os_constants(obs)
    expo = np.array(expo)

    def order_statistics(theta):
        global tie_events
        cols = tuple(theta.T[:, :, None])   # (n, 1) each, against x
        with np.errstate(all="ignore"):
            u = np.clip(cdf(cols, x), _CDF_CLAMP, _CDF_CLAMP_HI)  # NaN passes
            gaps = np.diff(u, axis=1, prepend=0.0)
            tied = (gaps <= 0.0).any(axis=1)
            # no matmul: each row's value depends on that row alone
            total = (norm + (np.log(gaps) * expo).sum(axis=1)
                     + high * np.log1p(-u[:, -1])
                     + log_pdf(cols, x).sum(axis=1))
        tie_events += int(np.count_nonzero(tied))
        total[tied] = -_INF
        return total

    return order_statistics


def joint_os_loglik(d: Dist, obs: QuantileObservation) -> float:
    """Joint order-statistics log-likelihood of obs under d: the
    ``compile_loglik`` closure at d.theta."""
    return compile_loglik(d.spec, obs)(d.theta)


def gaussian_noise_loglik(d: Dist, obs: QuantileObservation,
                          sigma_noise: float) -> float:
    """CDF-regression baseline: sum_m log N(q_m | F_theta(x_m), sigma_noise^2)."""
    return compile_loglik(d.spec, obs, "gaussian_noise", sigma_noise)(d.theta)


def penalty_curves(d: Dist, q: float, n: float, x_grid,
                   sigma_noise: float = 0.05):
    """Single-point likelihood curves over x_grid under both models, each
    max-normalized to 1: returns (os_curve, gn_curve) as numpy arrays.

    os: F(x)^{qN-1} (1-F(x))^{N-qN} f(x);  gn: exp(-(F(x)-q)^2 / 2 sigma^2).
    Where f diverges at x = 0 and F ~ C x^s, os is its limit C^k s x^{sk-1}
    there (k = qN): 0, C^k s, or for sk < 1 +inf, leaving 1 there, 0 elsewhere.
    """
    q, n = float(q), float(n)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    if not n >= 1.0:
        raise ValueError(f"n must be >= 1, got {n!r}")
    sigma_noise = _sigma_noise(sigma_noise)
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("x_grid must be a non-empty 1-D vector")
    if not np.all(np.isfinite(grid)):
        raise ValueError("x_grid must be finite")
    if np.any(np.diff(grid) < 0):
        raise ValueError("x_grid must be sorted ascending")
    k = q * n
    theta = tuple(np.asarray(d.theta))     # the array kernels take numpy
    with np.errstate(all="ignore"):
        u = np.clip(_CDF_ARRAY[d.spec.name](theta, grid), _CDF_CLAMP,
                    _CDF_CLAMP_HI)      # NaN passes
        # the clamp keeps u and 1 - u positive, so a zero exponent adds 0
        log_os = ((k - 1.0) * np.log(u) + (n - k) * np.log(1.0 - u)
                  + _LOG_PDF_ARRAY[d.spec.name](theta, grid))
    if log_os.max() == _INF:    # f diverges at x = 0: F ~ C x^s there, so
        s, log_c = _edge_power(d.spec.name, d.theta)
        e = s * k - 1.0         # F^{k-1} f ~ C^k s x^e
        log_os[log_os == _INF] = -_INF if e > 0.0 else _INF if e < 0.0 else (
            k * log_c + math.log(s))
    gn_resid = (u - q) ** 2
    m = log_os.max()
    os_curve = (np.exp(log_os - m) if math.isfinite(m)
                else np.where(log_os == _INF, 1.0, 0.0))
    gn_curve = np.exp(-(gn_resid - gn_resid.min()) / (2.0 * sigma_noise ** 2))
    return os_curve, gn_curve
