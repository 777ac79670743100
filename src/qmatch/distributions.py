"""Parametric distribution families: log-density, CDF, inverse CDF, sampling.

Nine families are exposed through a single immutable ``Dist`` value:
``normal``, ``lognormal``, ``weibull``, ``gamma``, ``inv_gamma``,
``frechet``, ``chi_square``, ``exponential`` and ``cauchy``.

Parameterizations
-----------------
======================  =============================================
normal, cauchy          (location, scale),           scale > 0
lognormal               (log-location, log-scale),   log-scale > 0
weibull, frechet        (shape, scale),              both > 0
gamma                   (shape, scale),  density x^{a-1} e^{-x/s}
inv_gamma               (shape, scale),  density x^{-a-1} e^{-s/x}
chi_square              (df,) = gamma(df / 2, 2)     > 0, real-valued
exponential             (rate,)                      > 0
======================  =============================================

Conventions: ``log_pdf`` returns ``-inf`` outside the support rather than
raising, so likelihood code can reject naturally; positive-support families
evaluated exactly at ``x = 0`` return the limiting value of the log-density
(finite, ``-inf``, or ``+inf`` for shape < 1 where the density diverges);
weibull and frechet take the same limit where a subnormal ``x / scale``
underflows to 0, as the array kernels and scipy do.

Each family has two kinds of kernel.  The array kernels ``cdf(family,
theta, x)`` and ``ppf(family, theta, p)`` take one value or numpy array per
parameter, broadcast against ``x`` or ``p``, so a whole set of posterior
draws, or a whole batch of uniforms, is one call.  The inverse CDF exists
only as an array kernel: closed forms where they exist, the AS241 normal
inverse, and a bracketed Newton inverse of the incomplete gamma otherwise;
either way ``|cdf(ppf(p)) - p| <= 1e-10``.  ``Dist.quantile`` and
``Dist.sample`` go through it.  Beside the array CDF ``_CDF_ARRAY`` sits
an array log-density ``_LOG_PDF_ARRAY``, broadcast the same way.  The
sampler's array likelihood (``orderstats.compile_loglik_rows``) calls
both over a chain's proposals; ``cdf``, ``ppf`` and the predictive
queries call only the CDF.  Both follow the fused kernel's formulas
operation for operation, so they agree with it to rounding: numpy's exp
and log are not the C library's to the last bit.  The fused per-point
kernel ``_TERMS[name](xs)`` is plain-float code that returns ``theta -> (CDF
values, log-density values)`` at the points xs.  It takes log x once per
point set and the parameters' logs and ln Gamma once per theta, and shares
z, x / scale, its log and the Weibull/Frechet t between a point's CDF and
log-density; a handful of points per call is too few for numpy's per-call
overhead to pay.  It is the only per-point kernel: ``Dist.cdf`` and
``Dist.log_pdf`` call it on their one point, the plain-float likelihood
(``orderstats.compile_loglik``) on all of its.  One theta over a grid of
points, as in ``orderstats.penalty_curves``, goes to the array kernels
instead.  ``_edge_power`` gives the power law F ~ C x^s at x = 0 of the
families whose density can diverge there.  Because ln Gamma comes before
the first point, a gamma or inv_gamma shape above about 2.5e305, or a
chi_square df above about 5e305 or of 5e-324 (which halves to 0), raises
``OverflowError`` or ``ValueError`` at every x, x <= 0 included.  Such
parameters raise at every x > 0 in any case, and the sampler's exp(700)
cap keeps fits far below them.  Sampling is inverse-transform from a
``numpy.random.Generator`` uniform stream, which keeps every family on one
code path and makes draws reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import (_elementwise, _incomplete_gamma, _lgamma, gamma_pq,
                      gamma_pq_inverse, std_normal_ppf)

__all__ = [
    "FAMILY_NAMES",
    "FamilySpec",
    "ParamSpec",
    "Dist",
    "get_family",
    "dist",
    "cdf",
    "ppf",
]

_SQRT2 = math.sqrt(2.0)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_EXP_OVERFLOW = 709.0  # exp() overflows above this
_INF = math.inf


def _std_normal_cdf_array(z):
    return 0.5 * _elementwise(math.erfc, -z / _SQRT2)


@dataclass(frozen=True)
class ParamSpec:
    """Name and constraint domain ('real' or 'positive') of one parameter."""

    name: str
    domain: str

    def __post_init__(self) -> None:
        if self.domain not in ("real", "positive"):
            raise ValueError(f"unknown constraint domain {self.domain!r}")

    def contains(self, value: float) -> bool:
        if not math.isfinite(value):
            return False
        return True if self.domain == "real" else value > 0.0


@dataclass(frozen=True)
class FamilySpec:
    """A named family, its per-parameter constraint domains, and its support:
    'real' (every x) or 'positive' (x > 0)."""

    name: str
    params: tuple[ParamSpec, ...]
    support: str

    @property
    def arity(self) -> int:
        return len(self.params)


_REGISTRY: dict[str, FamilySpec] = {
    name: FamilySpec(name,
                     tuple(ParamSpec(pname, dom) for pname, dom in params),
                     "real" if name in ("normal", "cauchy") else "positive")
    for name, params in {
        "normal": (("location", "real"), ("scale", "positive")),
        "lognormal": (("log_location", "real"), ("log_scale", "positive")),
        "weibull": (("shape", "positive"), ("scale", "positive")),
        "gamma": (("shape", "positive"), ("scale", "positive")),
        "inv_gamma": (("shape", "positive"), ("scale", "positive")),
        "frechet": (("shape", "positive"), ("scale", "positive")),
        "chi_square": (("df", "positive"),),
        "exponential": (("rate", "positive"),),
        "cauchy": (("location", "real"), ("scale", "positive")),
    }.items()
}

FAMILY_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def get_family(name: str) -> FamilySpec:
    """Look up a family by name; unknown names raise with the valid choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose one of {', '.join(FAMILY_NAMES)}"
        ) from None


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return x


# --- fused per-point kernels (see the module docstring): _TERMS[name](xs)
# precomputes what depends only on the points (log x, 0.5 x) and returns
# theta -> (CDF values, log-density values) at xs, theta being the
# validated constrained vector.


def _edge_log_pdf(shape: float, log_scale: float) -> float:
    # limit at x = 0 of a density ~ x^(shape - 1) / scale
    if shape > 1.0:
        return -_INF
    return -log_scale if shape == 1.0 else _INF


def _log_x(xs):
    return tuple((x, math.log(x) if x > 0.0 else 0.0) for x in xs)


def _normal_terms(xs):
    log, erfc = math.log, math.erfc

    def terms(theta):
        mu, sg = theta
        c = -log(sg) - _HALF_LOG_TWO_PI
        us, lfs = [], []
        for x in xs:
            z = (x - mu) / sg
            us.append(0.5 * erfc(-z / _SQRT2))
            lfs.append(c - 0.5 * z * z)
        return us, lfs

    return terms


def _lognormal_terms(xs):
    log, erfc, pts = math.log, math.erfc, _log_x(xs)

    def terms(theta):
        mu, sg = theta
        lsg = log(sg)
        us, lfs = [], []
        for x, lx in pts:
            if x <= 0.0:
                us.append(0.0)
                lfs.append(-_INF)
                continue
            lz = (lx - mu) / sg
            us.append(0.5 * erfc(-lz / _SQRT2))
            lfs.append(-lx - lsg - _HALF_LOG_TWO_PI - 0.5 * lz * lz)
        return us, lfs

    return terms


def _weibull_terms(xs):
    log, exp, expm1 = math.log, math.exp, math.expm1

    def terms(theta):
        k, lam = theta
        llam = log(lam)
        c, km1 = log(k) - llam, k - 1.0
        us, lfs = [], []
        for x in xs:
            r = x / lam
            if r <= 0.0:    # x <= 0, or a subnormal x / lam underflowed to 0
                us.append(0.0)
                lfs.append(-_INF if x < 0.0 else _edge_log_pdf(k, llam))
                continue
            lz = log(r)
            lt = k * lz
            t = exp(lt) if lt < _LOG_EXP_OVERFLOW else _INF
            us.append(-expm1(-t))
            lfs.append(c + km1 * lz - t)
        return us, lfs

    return terms


def _gamma_terms(xs):
    log, lgamma, pts = math.log, math.lgamma, _log_x(xs)

    def terms(theta):
        a, s = theta
        ls, lga = log(s), lgamma(a)
        am1, als = a - 1.0, a * ls
        us, lfs = [], []
        for x, lx in pts:
            if x <= 0.0:
                us.append(0.0)
                lfs.append(-_INF if x < 0.0 else _edge_log_pdf(a, ls))
                continue
            r = x / s
            us.append(_incomplete_gamma(a, r, False, lga))
            lfs.append(am1 * lx - r - lga - als)
        return us, lfs

    return terms


def _inv_gamma_terms(xs):
    log, lgamma, pts = math.log, math.lgamma, _log_x(xs)

    def terms(theta):
        a, b = theta
        lga = lgamma(a)
        c, ap1 = a * log(b) - lga, a + 1.0
        us, lfs = [], []
        for x, lx in pts:
            if x <= 0.0:
                us.append(0.0)
                lfs.append(-_INF)
                continue
            y = b / x
            us.append(_incomplete_gamma(a, y, True, lga))
            lfs.append(c - ap1 * lx - y)
        return us, lfs

    return terms


def _frechet_terms(xs):
    log, exp = math.log, math.exp

    def terms(theta):
        a, s = theta
        c, na, ap1 = log(a) - log(s), -a, 1.0 + a
        us, lfs = [], []
        for x in xs:
            r = x / s
            if r <= 0.0:    # x <= 0, or a subnormal x / s underflowed to 0
                us.append(0.0)
                lfs.append(-_INF)
                continue
            lz = log(r)
            lt = na * lz
            t = exp(lt) if lt < _LOG_EXP_OVERFLOW else _INF
            us.append(exp(-t))
            lfs.append(c - ap1 * lz - t)
        return us, lfs

    return terms


def _exponential_terms(xs):
    log, expm1 = math.log, math.expm1

    def terms(theta):
        (rate,) = theta
        lr = log(rate)
        us, lfs = [], []
        for x in xs:
            rx = rate * x
            us.append(-expm1(-rx) if x > 0.0 else 0.0)
            lfs.append(lr - rx if x >= 0.0 else -_INF)
        return us, lfs

    return terms


def _cauchy_terms(xs):
    log, log1p, atan2 = math.log, math.log1p, math.atan2

    def terms(theta):
        loc, sc = theta
        c = -log(math.pi * sc)
        us, lfs = [], []
        for x in xs:
            z = (x - loc) / sc
            us.append(atan2(1.0, -z) / math.pi)
            lfs.append(c - log1p(z * z))
        return us, lfs

    return terms


# --- array kernels: theta holds one value or array per parameter, each
# broadcast against x or p.  The CDFs follow the fused kernels' CDFs
# operation for operation; x <= 0 is replaced by a harmless stand-in
# before logs are taken and masked out of the result.


def _normal_cdf_array(theta, x):
    mu, sg = theta
    return _std_normal_cdf_array((x - mu) / sg)


def _normal_log_pdf_array(theta, x):
    mu, sg = theta
    z = (x - mu) / sg
    return -np.log(sg) - _HALF_LOG_TWO_PI - 0.5 * z * z


def _normal_ppf(theta, p):
    mu, sg = theta
    return mu + sg * std_normal_ppf(p)


def _lognormal_cdf_array(theta, x):
    mu, sg = theta
    pos = x > 0.0
    lx = np.log(np.where(pos, x, 1.0))
    return np.where(pos, _std_normal_cdf_array((lx - mu) / sg), 0.0)


def _lognormal_log_pdf_array(theta, x):
    mu, sg = theta
    pos = x > 0.0
    lx = np.log(np.where(pos, x, 1.0))
    lz = (lx - mu) / sg
    return np.where(pos, -lx - np.log(sg) - _HALF_LOG_TWO_PI - 0.5 * lz * lz,
                    -_INF)


def _lognormal_ppf(theta, p):
    mu, sg = theta
    return np.exp(mu + sg * std_normal_ppf(p))


def _weibull_cdf_array(theta, x):
    k, lam = theta
    pos = x > 0.0
    t = np.exp(k * np.log(np.where(pos, x, lam) / lam))
    return np.where(pos, -np.expm1(-t), 0.0)


def _edge_log_pdf_array(shape, log_scale, x):
    # _edge_log_pdf at x = 0 (or where x / scale underflowed), -inf at x < 0
    edge = np.where(shape > 1.0, -_INF,
                    np.where(shape == 1.0, -log_scale, _INF))
    return np.where(x < 0.0, -_INF, edge)


def _edge_power(name: str, theta):
    """(s, ln C) with F(x) ~ C x^s as x -> 0, for the families whose density
    can diverge there: (x / scale)^shape, over Gamma(shape + 1) for gamma
    and chi_square."""
    s, scale = _chi_square_as_gamma(theta) if name == "chi_square" else theta
    log_c = -s * math.log(scale)
    return s, log_c if name == "weibull" else log_c - math.lgamma(s + 1.0)


def _capped_exp(lt):
    # exp(lt) with the fused kernels' cut-off: inf from _LOG_EXP_OVERFLOW on
    return np.where(lt < _LOG_EXP_OVERFLOW, np.exp(lt), _INF)


def _weibull_log_pdf_array(theta, x):
    k, lam = theta
    llam = np.log(lam)
    r = x / lam
    pos = r > 0.0       # x <= 0, or a subnormal x / lam underflowed to 0
    lz = np.log(np.where(pos, r, 1.0))
    lf = np.log(k) - llam + (k - 1.0) * lz - _capped_exp(k * lz)
    return np.where(pos, lf, _edge_log_pdf_array(k, llam, x))


def _weibull_ppf(theta, p):
    k, lam = theta
    return lam * (-np.log1p(-p)) ** (1.0 / k)


def _gamma_cdf_array(theta, x):
    a, s = theta
    return gamma_pq(a, np.where(x > 0.0, x, 0.0) / s)[0]


def _gamma_log_pdf_array(theta, x):
    a, s = theta
    ls = np.log(s)
    pos = x > 0.0
    lx = np.log(np.where(pos, x, 1.0))
    lf = (a - 1.0) * lx - x / s - _lgamma(a) - a * ls
    return np.where(pos, lf, _edge_log_pdf_array(a, ls, x))


def _gamma_ppf(theta, p):
    a, s = theta
    return s * gamma_pq_inverse(a, p, 1.0 - p)


def _inv_gamma_cdf_array(theta, x):
    a, b = theta
    pos = x > 0.0
    return gamma_pq(a, np.where(pos, b / np.where(pos, x, 1.0), _INF))[1]


def _inv_gamma_log_pdf_array(theta, x):
    a, b = theta
    pos = x > 0.0
    xp = np.where(pos, x, 1.0)
    lf = a * np.log(b) - _lgamma(a) - (a + 1.0) * np.log(xp) - b / xp
    return np.where(pos, lf, -_INF)


def _inv_gamma_ppf(theta, p):
    a, b = theta
    return b / gamma_pq_inverse(a, 1.0 - p, p)


def _frechet_cdf_array(theta, x):
    a, s = theta
    pos = x > 0.0
    t = np.exp(-a * np.log(np.where(pos, x, s) / s))
    return np.where(pos, np.exp(-t), 0.0)


def _frechet_log_pdf_array(theta, x):
    a, s = theta
    r = x / s
    pos = r > 0.0       # x <= 0, or a subnormal x / s underflowed to 0
    lz = np.log(np.where(pos, r, 1.0))
    lf = np.log(a) - np.log(s) - (1.0 + a) * lz - _capped_exp(-a * lz)
    return np.where(pos, lf, -_INF)


def _frechet_ppf(theta, p):
    a, s = theta
    return s * (-np.log(p)) ** (-1.0 / a)


def _exponential_cdf_array(theta, x):
    (rate,) = theta
    return np.where(x > 0.0, -np.expm1(-rate * x), 0.0)


def _exponential_log_pdf_array(theta, x):
    (rate,) = theta
    return np.where(x >= 0.0, np.log(rate) - rate * x, -_INF)


def _exponential_ppf(theta, p):
    (rate,) = theta
    return -np.log1p(-p) / rate


def _cauchy_cdf_array(theta, x):
    loc, sc = theta
    return np.arctan2(1.0, -(x - loc) / sc) / math.pi


def _cauchy_log_pdf_array(theta, x):
    loc, sc = theta
    z = (x - loc) / sc
    return -np.log(math.pi * sc) - np.log1p(z * z)


def _cauchy_ppf(theta, p):
    loc, sc = theta
    # tan of the smaller tail area keeps relative accuracy in both tails
    z = np.where(p < 0.5, -1.0 / np.tan(math.pi * p),
                 1.0 / np.tan(math.pi * (1.0 - p)))
    return loc + sc * np.where(p == 0.5, 0.0, z)


def _chi_square_as_gamma(theta):
    # chi_square(df) is gamma(df / 2, 2) (Johnson, Kotz & Balakrishnan
    # 1994, Continuous Univariate Distributions, vol. 1)
    return 0.5 * theta[0], 2.0


def _as_gamma(kind):
    """chi_square's kernel of `kind`: gamma's, behind _chi_square_as_gamma."""
    kernel = globals()[f"_gamma_{kind}"]
    if kind == "terms":     # xs -> theta -> (CDF values, log-densities)
        return lambda xs: lambda theta, terms=kernel(xs): terms(
            _chi_square_as_gamma(theta))
    return lambda theta, v: kernel(_chi_square_as_gamma(theta), v)


# per family, found by name (_<family>_<kind>): the array CDF, log-density
# and inverse CDF, and the fused per-point kernel; chi_square's are gamma's
# (_as_gamma)
_CDF_ARRAY, _LOG_PDF_ARRAY, _PPF, _TERMS = (
    {name: _as_gamma(kind) if name == "chi_square"
     else globals()[f"_{name}_{kind}"] for name in FAMILY_NAMES}
    for kind in ("cdf_array", "log_pdf_array", "ppf", "terms"))


def _run(kernel, theta, v) -> np.ndarray:
    # overflow to inf and underflow to 0 are the intended limits here
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return np.asarray(kernel(theta, v), dtype=float)


def _array_theta(spec: FamilySpec, theta) -> tuple[np.ndarray, ...]:
    theta = tuple(np.asarray(v, dtype=float) for v in theta)
    if len(theta) != spec.arity:
        raise ValueError(f"{spec.name} expects {spec.arity} parameters, "
                         f"got {len(theta)}")
    for pspec, value in zip(spec.params, theta):
        ok = np.isfinite(value)
        if pspec.domain == "positive":
            ok &= value > 0.0
        if not ok.all():
            raise ValueError(
                f"{spec.name}.{pspec.name}={float(value[~ok].flat[0])!r} "
                f"violates domain {pspec.domain!r}")
    return theta


def _resolve(family) -> FamilySpec:
    return get_family(family) if isinstance(family, str) else family


def cdf(family, theta, x) -> np.ndarray:
    """F_theta(x) elementwise, for a family name or FamilySpec.

    theta holds one value or array per parameter; each broadcasts against
    x, so parameter columns of shape (n, 1) and x of shape (m,) give an
    (n, m) result.  Values agree with ``Dist.cdf`` to rounding.
    """
    spec = _resolve(family)
    theta = _array_theta(spec, theta)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return _run(_CDF_ARRAY[spec.name], theta, x)


def ppf(family, theta, p) -> np.ndarray:
    """Inverse CDF elementwise at p in (0, 1), broadcast as in ``cdf``,
    with |cdf(ppf(p)) - p| <= 1e-10."""
    spec = _resolve(family)
    theta = _array_theta(spec, theta)
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("ppf requires every p in (0, 1)")
    return _run(_PPF[spec.name], theta, p)


@dataclass(frozen=True)
class Dist:
    """An immutable distribution: a family plus a constrained parameter vector."""

    spec: FamilySpec
    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        theta = _array_theta(self.spec, self.theta)
        object.__setattr__(self, "theta", tuple(float(v) for v in theta))

    def log_pdf(self, x: float) -> float:
        """Natural log of the density; -inf outside the support."""
        return _TERMS[self.spec.name]((_check_x(x),))(self.theta)[1][0]

    def cdf(self, x: float) -> float:
        """P(X <= x), exactly 0 below the support and 1 in the upper limit."""
        return _TERMS[self.spec.name]((_check_x(x),))(self.theta)[0][0]

    def quantile(self, p: float) -> float:
        """Inverse CDF at p in (0,1), with |cdf(quantile(p)) - p| <= 1e-10."""
        p = float(p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile requires p in (0, 1), got {p!r}")
        return float(_run(_PPF[self.spec.name], self.theta, p))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n iid draws by inverse transform on rng's uniform stream."""
        n = int(n)
        if n < 0:
            raise ValueError(f"sample requires n >= 0, got {n}")
        # rng.random() lands in [0, 1); nudge exact zeros
        u = np.maximum(rng.random(n), 5e-324)
        return _run(_PPF[self.spec.name], self.theta, u)


def dist(name: str, *theta: float) -> Dist:
    """Convenience constructor: ``dist('gamma', 3.0, 0.4)``."""
    return Dist(get_family(name), tuple(theta))
