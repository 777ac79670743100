"""Special functions backing the distribution families.

Plain-float functions serve the fused per-point kernels, which the
sampler's sequential steps call on a handful of points; array functions
serve everything else, such as the sampling phase, the
posterior-predictive queries and the sort-and-pick oracles, which
evaluate one family over thousands of parameter draws or uniforms at
once.

* ``log_gamma`` -- a validated wrapper over the C library's ``lgamma`` as
  exposed by ``math``, so values may differ across platforms in the last
  bits.
* ``gamma_pq`` -- the regularized incomplete gammas P(a, x) and Q(a, x) on
  arrays, via the power series for x < a + 1 and the Lentz-evaluated
  continued fraction otherwise (Abramowitz & Stegun 6.5.29 / 6.5.31), so
  both tails keep full relative accuracy.  Converged elements keep their
  value and ride along, and leave the live set together once at least
  half of it has converged, so each element gets the bits it would get
  alone.  ``_incomplete_gamma`` runs the same two iterations on plain
  floats for the fused per-point kernels, which pass ln Gamma(a) taken
  once per parameter vector.
* ``std_normal_ppf`` -- the standard normal inverse CDF on arrays by
  Wichura's algorithm AS241 (PPND16, Applied Statistics 37(3), 1988),
  relative accuracy about 1e-16 down to p = 1e-300.
* ``gamma_pq_inverse`` -- the inverse of the regularized incomplete gamma
  on arrays: Newton steps in log t on whichever tail is smaller, kept
  inside a bracket with a bisection fallback.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "gamma_pq",
    "gamma_pq_inverse",
    "std_normal_ppf",
]

_REL_EPS = 1.0e-17
_TINY = 1.0e-300
# exp() underflows to 0 below roughly -745; callers treat that as a true zero
_LOG_UNDERFLOW = -745.0
_MAX_ITER = 10_000


def _elementwise(f, a) -> np.ndarray:
    """The plain-float function f (math.lgamma, math.erfc, math.exp) on each
    element of the float array a, in its shape, with the C library's bits."""
    return np.fromiter(map(f, a.ravel().tolist()), float,
                       a.size).reshape(a.shape)


def _lgamma(a) -> np.ndarray:
    """math.lgamma on each element of the float array a, in its shape."""
    return _elementwise(math.lgamma, a)


def log_gamma(z: float) -> float:
    """Natural logarithm of the gamma function for z > 0."""
    if not z > 0.0:  # also rejects NaN
        raise ValueError(f"log_gamma requires z > 0, got {z!r}")
    return math.lgamma(z)


def _p_series(a: float, x: float, lga: float) -> float:
    # P(a,x) = x^a e^{-x} / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n)).
    # All terms positive, falling for x < a + 1, so testing every 4th keeps
    # the bits: after one below total * 1e-17 each is below half an ulp of
    # total.  lga is ln Gamma(a).
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER // 4):
        term *= x / (denom := denom + 1.0)
        total += term
        term *= x / (denom := denom + 1.0)
        total += term
        term *= x / (denom := denom + 1.0)
        total += term
        term *= x / (denom := denom + 1.0)
        total += term
        if term < total * _REL_EPS:
            scale = a * math.log(x) - x - lga
            if scale < _LOG_UNDERFLOW:
                return 0.0
            return total * math.exp(scale)
    raise ArithmeticError(f"incomplete gamma series failed to converge: a={a}, x={x}")


def _q_continued_fraction(a: float, x: float, lga: float) -> float:
    # Q(a,x) = x^a e^{-x} / Gamma(a) * CF, with the even contraction of the
    # continued fraction evaluated by the modified Lentz algorithm.
    scale = a * math.log(x) - x - lga
    if scale < _LOG_UNDERFLOW:
        return 0.0
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_ITER):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if delta == 1.0:    # the binary64 floats within _REL_EPS of 1
            return math.exp(scale) * h
    raise ArithmeticError(f"incomplete gamma fraction failed to converge: a={a}, x={x}")


def _incomplete_gamma(a: float, x: float, upper: bool, lga: float) -> float:
    # P(a, x), or Q(a, x) when `upper`, for a > 0 and x >= 0, unchecked:
    # the series below a + 1 and the fraction above, each giving its own
    # tail directly and the other as one minus it.  lga is ln Gamma(a).
    if x == 0.0:
        return 1.0 if upper else 0.0
    if math.isinf(x):
        return 0.0 if upper else 1.0
    if x < a + 1.0:
        v = _p_series(a, x, lga)
        return 1.0 - v if upper else v
    v = _q_continued_fraction(a, x, lga)
    return v if upper else 1.0 - v


def _log_prefactor(a, x, lga):
    # ln(x^a e^{-x} / Gamma(a)), the factor both expansions share
    return a * np.log(x) - x - lga


def _split(done):
    # Integer indices of the finished and of the live elements.  They index
    # as the masks do, but a mask about half True in no order, as the draws
    # of a well-mixed chain give, costs numpy a mispredicted branch per
    # element: 8 arrays of 8000 took 265 us that way and 46 us this way.
    return np.flatnonzero(done), np.flatnonzero(~done)


def _p_series_array(a, x, lga):
    # _p_series on 1-D arrays.  Converged elements ride along until at
    # least half the live set has converged, then leave together: the terms
    # fall, so a converged total keeps its bits, as in _p_series.
    out = np.empty(a.size)
    idx = np.arange(a.size)
    term = 1.0 / a
    total = term.copy()
    denom = a.copy()
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        done = term < total * _REL_EPS
        if 2 * np.count_nonzero(done) >= done.size:
            done, keep = _split(done)
            scale = _log_prefactor(a[done], x[done], lga[done])
            out[idx[done]] = np.where(scale < _LOG_UNDERFLOW, 0.0,
                                      total[done] * np.exp(scale))
            if not keep.size:
                return out
            idx, a, x, lga = idx[keep], a[keep], x[keep], lga[keep]
            term, total, denom = term[keep], total[keep], denom[keep]
    stuck = ~(term < total * _REL_EPS)
    raise ArithmeticError(f"incomplete gamma series failed to converge: "
                          f"a={a[stuck][0]}, x={x[stuck][0]}")


def _floor_tiny(v, mag):
    # v[|v| < _TINY] = _TINY in place, with mag as scratch; the masked
    # assignment runs only when some |v| is below _TINY or NaN, which a
    # Lentz step rarely meets
    if not np.abs(v, out=mag).min() >= _TINY:
        v[mag < _TINY] = _TINY


def _q_continued_fraction_array(a, x, lga):
    # _q_continued_fraction on 1-D arrays, updated in place.  Each
    # element's value is written at its first convergence, since h moves on
    # after it; written elements ride along until they are at least half
    # the live set, then leave together.
    out = np.zeros(a.size)
    scale = _log_prefactor(a, x, lga)
    live = scale >= _LOG_UNDERFLOW
    idx = np.flatnonzero(live)
    if not idx.size:
        return out
    a, x, scale = a[live], x[live], scale[live]
    b = x + 1.0 - a
    c = np.full(a.size, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    an, delta, mag = (np.empty(a.size) for _ in range(3))
    pending = np.ones(a.size, dtype=bool)
    for n in range(1, _MAX_ITER):
        np.subtract(n, a, out=an)
        an *= -n
        b += 2.0
        d *= an
        d += b
        _floor_tiny(d, mag)
        np.divide(an, c, out=c)
        c += b
        _floor_tiny(c, mag)
        np.divide(1.0, d, out=d)
        np.multiply(d, c, out=delta)
        h *= delta
        done = pending & (delta == 1.0)
        if done.any():
            done = np.flatnonzero(done)
            out[idx[done]] = np.exp(scale[done]) * h[done]
            pending[done] = False
            if 2 * np.count_nonzero(pending) <= idx.size:
                keep = np.flatnonzero(pending)
                if not keep.size:
                    return out
                idx, a, x, scale = idx[keep], a[keep], x[keep], scale[keep]
                b, c, d, h = b[keep], c[keep], d[keep], h[keep]
                an, delta, mag = (v[:keep.size] for v in (an, delta, mag))
                pending = np.ones(keep.size, dtype=bool)
    raise ArithmeticError(f"incomplete gamma fraction failed to converge: "
                          f"a={a[pending][0]}, x={x[pending][0]}")


def gamma_pq(a, x, lga=None):
    """(P(a, x), Q(a, x)) elementwise for arrays a > 0 and x >= 0.

    a and x broadcast against each other.  Each element takes the series
    for x < a + 1 and the continued fraction otherwise, and the other value
    is one minus it, so P and Q keep full relative accuracy in their own
    tails.  ``lga`` is
    ln Gamma(a), for callers that evaluate the same a repeatedly.  Without
    it, ln Gamma is computed on a as passed, before a is broadcast against
    x: a of shape (1, n) against x of shape (m, 1) costs n evaluations,
    not m * n.  Arguments are not validated.
    """
    a = np.asarray(a, dtype=float)
    lga = _lgamma(a) if lga is None else np.asarray(lga, dtype=float)
    a, x, lga = np.broadcast_arrays(a, np.asarray(x, dtype=float), lga)
    p = np.zeros(a.shape)
    q = np.ones(a.shape)
    top = np.isinf(x)
    p[top], q[top] = 1.0, 0.0
    inner = (x > 0.0) & ~top
    series = inner & (x < a + 1.0)
    fraction = inner & ~series
    with np.errstate(over="ignore", under="ignore"):
        if series.any():
            v = _p_series_array(a[series], x[series], lga[series])
            p[series], q[series] = v, 1.0 - v
        if fraction.any():
            v = _q_continued_fraction_array(a[fraction], x[fraction],
                                            lga[fraction])
            p[fraction], q[fraction] = 1.0 - v, v
    return p, q


# AS241 (PPND16) coefficients, Wichura 1988
_AS241_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
            1.9715909503065514427e3, 1.3731693765509461125e4,
            4.5921953931549871457e4, 6.7265770927008700853e4,
            3.3430575583588128105e4, 2.5090809287301226727e3)
_AS241_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
            5.3941960214247511077e3, 2.1213794301586595867e4,
            3.9307895800092710610e4, 2.8729085735721942674e4,
            5.2264952788528545610e3)
_AS241_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
            5.76949722146069140550e0, 3.64784832476320460504e0,
            1.27045825245236838258e0, 2.41780725177450611770e-1,
            2.27238449892691845833e-2, 7.74545014278341407640e-4)
_AS241_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
            6.89767334985100004550e-1, 1.48103976427480074590e-1,
            1.51986665636164571966e-2, 5.47593808499534494600e-4,
            1.05075007164441684324e-9)
_AS241_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
            1.78482653991729133580e0, 2.96560571828504891230e-1,
            2.65321895265761230930e-2, 1.24266094738807843860e-3,
            2.71155556874348757815e-5, 2.01033439929228813265e-7)
_AS241_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
            1.48753612908506148525e-2, 7.86869131145613259100e-4,
            1.84631831751005468180e-5, 1.42151175831644588870e-7,
            2.04426310338993978564e-15)


def _ratio(num, den, r):
    # num(r) / den(r) with coefficients listed from the constant term up
    return np.polyval(num[::-1], r) / np.polyval(den[::-1], r)


def std_normal_ppf(p):
    """Standard normal inverse CDF (AS241) elementwise on p in (0, 1).

    Central region |p - 1/2| <= 0.425 by one rational function in
    (p - 1/2)^2; tails by two rational functions in sqrt(-ln min(p, 1-p)),
    so the lower tail is resolved down to the smallest p.  Arguments are
    not validated.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    r = 0.180625 - q * q
    z = q * _ratio(_AS241_A, _AS241_B, r)
    if not central.all():
        t = np.where(central, 0.5, np.minimum(p, 1.0 - p))
        s = np.sqrt(-np.log(t))
        near = s <= 5.0
        tail = np.where(near, _ratio(_AS241_C, _AS241_D, s - 1.6),
                        _ratio(_AS241_E, _AS241_F, s - 5.0))
        z = np.where(central, z, np.where(q < 0.0, -tail, tail))
    return z


def _gamma_inverse_start(a, p, target, lower, lga):
    # The larger of Wilson-Hilferty and the root of P(a,t) ~ t^a/Gamma(a+1);
    # P(a,t) <= t^a/Gamma(a+1) everywhere, so the latter never overshoots
    z = std_normal_ppf(target)
    z = np.where(lower, z, -z)
    g = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))
    wilson = a * np.maximum(g, 0.0) ** 3
    small = np.exp((np.log(p) + lga + np.log(a)) / a)
    return np.maximum(wilson, small)


def gamma_pq_inverse(a, p, q):
    """t > 0 with P(a, t) = p and Q(a, t) = q, elementwise.

    The caller passes both p and q = 1 - p so that the smaller of the two
    carries full relative precision; the root is found on that tail.
    Each element takes Newton steps in ln t on ln P (or ln Q), kept inside
    a bracket from the signs seen so far, with bisection whenever a step
    would leave it, and stops once a step moves t by under 1e-12 of
    itself.  A root below the smallest double comes back as 0.  Arguments
    are not validated.
    """
    a, p, q = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                    for v in (a, p, q)))
    shape = a.shape
    a, p, q = a.ravel(), p.ravel(), q.ravel()
    lower = p <= q
    target = np.where(lower, p, q)
    log_target = np.log(target)
    lga = _lgamma(a)
    out = np.empty(a.size)
    idx = np.arange(a.size)
    with np.errstate(divide="ignore", over="ignore", under="ignore",
                     invalid="ignore"):
        t = _gamma_inverse_start(a, p, target, lower, lga)
        lo = np.zeros(a.size)
        hi = np.full(a.size, math.inf)
        for _ in range(200):
            if idx.size == 0:
                break
            pp, qq = gamma_pq(a, t, lga)
            # h increases with t and vanishes at the root
            h = np.where(lower, np.log(pp) - log_target,
                         log_target - np.log(qq))
            above = h > 0.0
            hi = np.where(above, t, hi)
            lo = np.where(above, lo, t)
            log_dens = (a - 1.0) * np.log(t) - t - lga
            # d h / d ln t = t f(t) / P  (or / Q)
            slope = np.exp(log_dens + np.log(t)
                           - np.log(np.where(lower, pp, qq)))
            newton = t * np.exp(-h / slope)
            done = (np.abs(newton - t) <= 1e-12 * t) | (t == 0.0)
            if done.any():
                done, keep = _split(done)
                out[idx[done]] = np.where(t[done] == 0.0, 0.0, newton[done])
                idx, a, lga, lower = idx[keep], a[keep], lga[keep], lower[keep]
                log_target = log_target[keep]
                t, lo, hi, newton = t[keep], lo[keep], hi[keep], newton[keep]
            inside = (newton > lo) & (newton < hi)
            t = np.where(inside, newton, np.where(
                np.isinf(hi), 2.0 * np.maximum(t, 1.0),
                np.where(lo > 0.0, np.sqrt(lo * hi), 0.5 * hi)))
    out[idx] = t
    return out.reshape(shape)
