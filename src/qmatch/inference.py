"""Posterior machinery: priors, reparameterization, MCMC, MAP.

Sampling runs in an unconstrained space; positive parameters get a log
bijection.  Chains start at draws from the Laplace approximation at the
mode; where the density has no finite start or no negative-definite
Hessian there, they start at N(0, 1) draws.  Warmup is adaptive
random-walk Metropolis (Haario, Saksman & Tamminen 2001): it proposes with
the Laplace fit's Cholesky factor (else the identity with step
``_FALLBACK_STEP``, 0.1), a Robbins-Monro step tunes the acceptance rate
towards ``_TARGET_ACCEPTANCE`` (0.3), and each quarter the factor becomes
the Cholesky factor of the ridged covariance of the last half of the
warmup draws.  The walk takes the first three quarters of warmup.  The
last quarter is one batch of t proposals at the walk's mean and factor,
scored in one array call; their self-normalised importance weights give
the sampling proposal its mean and covariance, one population Monte Carlo
step (Cappé, Guillin, Marin & Robert 2004).  Sampling is independence
Metropolis (Tierney 1994): each chain proposes mu + L t, t a Student t
with 5 degrees of freedom, mu and L L^T that weighted mean and ridged
covariance.  The t's heavy tails are there to keep pi / q bounded, the
condition under which an independence sampler is uniformly ergodic
(Mengersen & Tweedie 1996).

Priors are Gaussians on the *constrained* parameters (broad by default:
mean 0, sd 100), so the Jacobian term enters only through the bijection.

``_log_density(model)`` compiles the model once per fit into a closure
from eta (plain floats) to the log-posterior, through the plain-float
``orderstats.compile_loglik``.  ``log_posterior``, ``map_estimate``, the
start and the random walk evaluate it, one call per step.
``_log_density_rows(model)`` is the same density over the rows of an
array, through ``_bijection`` and ``orderstats.compile_loglik_rows``,
and gives each row's log-likelihood beside it.  A
chain draws its random numbers up front and builds its batch and its
sampling proposals in numpy; since they do not depend on its state, one
array call scores each set and the accept/reject pass is a scan over plain
floats.  Each draw carries the order-statistics log-likelihood of its
state: an order-statistics fit keeps what that array call gave, a
Gaussian-noise fit computes it for the states a chain entered in one
array call after the chain ends.

Chains own private RNG streams seeded by (seed, chain_id): results are
reproducible bit-for-bit and independent of evaluation order.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .distributions import _HALF_LOG_TWO_PI, FamilySpec, get_family
from . import orderstats
from .optimize import nelder_mead
from .orderstats import (LIKELIHOOD_KINDS, QuantileObservation, _check_kind,
                         _count, _seed, _sigma_noise, compile_loglik,
                         compile_loglik_rows)
from .special import _elementwise

__all__ = [
    "LIKELIHOOD_KINDS",
    "PriorSpec",
    "ModelSpec",
    "SamplerConfig",
    "PosteriorDraws",
    "Diagnostics",
    "build_model",
    "to_unconstrained",
    "to_constrained",
    "log_posterior",
    "sample_posterior",
    "map_estimate",
    "diagnostics",
]

# exp() saturates here; the Gaussian prior has annihilated the posterior
# long before, so capping keeps arithmetic silent without changing results
_ETA_CAP = 700.0
_TARGET_ACCEPTANCE = 0.3   # the warmup's Robbins-Monro target
_FALLBACK_STEP = 0.1       # the step of chains started without a Laplace fit
# the degrees of freedom of the batch's and the sampling phase's t
_T_DOF = 5.0


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gaussian priors, one (mean, sd) pair per parameter."""

    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self) -> None:
        means = tuple(float(v) for v in self.means)
        sds = tuple(float(v) for v in self.sds)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)
        if len(means) != len(sds) or not means:
            raise ValueError("means and sds must be equal-length and non-empty")
        for v in means:
            if not math.isfinite(v):
                raise ValueError(f"prior means must be finite, got {v!r}")
        for v in sds:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"prior sds must be positive, got {v!r}")

    @classmethod
    def broad(cls, arity: int) -> "PriorSpec":
        """The default: mean 0, sd 100 on every parameter."""
        return cls((0.0,) * arity, (100.0,) * arity)


@dataclass(frozen=True)
class ModelSpec:
    """Family + prior + data + choice of likelihood."""

    family: FamilySpec
    prior: PriorSpec
    obs: QuantileObservation
    likelihood_kind: str = "order_statistics"
    sigma_noise: float = 0.05

    def __post_init__(self) -> None:
        _check_kind(self.likelihood_kind)
        if len(self.prior.means) != self.family.arity:
            raise ValueError(
                f"prior has {len(self.prior.means)} components but family "
                f"{self.family.name!r} has {self.family.arity} parameters")
        object.__setattr__(self, "sigma_noise",
                           _sigma_noise(self.sigma_noise))


def build_model(family, obs: QuantileObservation,
                likelihood_kind: str = "order_statistics",
                prior: PriorSpec | None = None,
                sigma_noise: float = 0.05) -> ModelSpec:
    """ModelSpec factory accepting a family name and defaulting the prior.

    Observed x outside the family's support are rejected here, where the
    family, its support and the offending value can all be named.
    """
    spec = get_family(family) if isinstance(family, str) else family
    if spec.support == "positive" and not obs.x[0] > 0.0:
        # x is strictly increasing, so x[0] is the first value outside
        raise ValueError(
            f"{spec.name} has support x > 0, but the observed quantile at "
            f"q = {obs.q[0]!r} is x = {obs.x[0]!r}")
    if prior is None:
        prior = PriorSpec.broad(spec.arity)
    return ModelSpec(family=spec, prior=prior, obs=obs,
                     likelihood_kind=likelihood_kind, sigma_noise=sigma_noise)


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 1000
    samples_per_chain: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("chains", "warmup", "samples_per_chain"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "seed", _seed("seed", self.seed))


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained draws in constrained space, merged in chain order."""

    draws: np.ndarray            # (D, P)
    chain_id: np.ndarray         # (D,)
    log_likelihood: np.ndarray   # (D,) order-statistics loglik at each draw
    seed: int
    warmup: int
    acceptance_rate: tuple[float, ...]   # post-warmup, per chain

    def __post_init__(self) -> None:
        if self.draws.ndim != 2 or self.draws.shape[0] < 1:
            raise ValueError("draws must be a non-empty D x P matrix")
        d = self.draws.shape[0]
        if self.chain_id.shape != (d,) or self.log_likelihood.shape != (d,):
            raise ValueError("chain_id and log_likelihood must have one "
                             "entry per draw")

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def to_unconstrained(family: FamilySpec, theta) -> np.ndarray:
    """Map constrained parameters to sampling space (log for positives)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (family.arity,):
        raise ValueError(f"family {family.name!r} takes {family.arity} "
                         f"parameters, got {theta.shape}")
    eta = np.empty_like(theta)
    for i, (ps, v) in enumerate(zip(family.params, theta)):
        if not ps.contains(v):
            raise ValueError(
                f"{family.name}.{ps.name} = {v!r} violates domain {ps.domain}")
        eta[i] = math.log(v) if ps.domain == "positive" else v
    return eta


def _bijection(family: FamilySpec, eta: np.ndarray):
    """The inverse bijection on each row of the (n, arity) array eta:
    theta, exp(eta) capped at exp(_ETA_CAP) on the positive parameters and
    eta on the others; the log-Jacobian of each row, the sum of its capped
    positive etas; and a flag on each row with a positive parameter that
    underflowed to 0 or a parameter that is not finite.  exp is math.exp,
    so theta has the bits that the scalar ``_log_density`` gives it."""
    pos = [ps.domain == "positive" for ps in family.params]
    capped = np.minimum(eta[:, pos], _ETA_CAP)
    theta = eta.copy()
    theta[:, pos] = _elementwise(math.exp, capped)
    bad = (theta[:, pos] == 0.0).any(axis=1) | ~np.isfinite(theta).all(axis=1)
    return theta, capped.sum(axis=1), bad


def to_constrained(family: FamilySpec, eta) -> tuple[np.ndarray, float]:
    """Inverse bijection plus its log-Jacobian (sum of eta over positives)."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (family.arity,):
        raise ValueError(f"family {family.name!r} takes {family.arity} "
                         f"parameters, got {eta.shape}")
    theta, log_jac, _ = _bijection(family, eta[None])
    return theta[0], float(log_jac[0])


def _log_density(model: ModelSpec, jacobian: bool = True):
    """Compile the model to log_density(eta) -> log_post.

    eta is a sequence of finite plain floats in sampling space.  log_post
    is the unnormalized log-posterior: log-likelihood plus log-prior at
    theta = to_constrained(eta), plus the bijection Jacobian when
    `jacobian` is set (the MCMC target) and without it otherwise (the
    theta-space density that optimization targets).  It is -inf, and
    nothing raises, wherever the density vanishes.  ``_log_density_rows``
    is the same density over rows of an array, with the log-likelihood of
    each row beside it.
    """
    loglik = compile_loglik(model.family, model.obs, model.likelihood_kind,
                            model.sigma_noise)
    params = tuple((ps.domain == "positive", m, s, math.log(s))
                   for ps, m, s in zip(model.family.params, model.prior.means,
                                       model.prior.sds))
    exp, isfinite, inf = math.exp, math.isfinite, math.inf

    def log_density(eta):
        theta = []
        log_jac = total = 0.0
        for e, (pos, m, s, log_s) in zip(eta, params):
            if pos:
                e = _ETA_CAP if e > _ETA_CAP else e
                log_jac += e
                e = exp(e)
            if (e == 0.0 and pos) or not isfinite(e):
                return -inf         # underflowed or overflowed parameter
            z = (e - m) / s
            total += -0.5 * z * z - log_s - _HALF_LOG_TWO_PI
            if total == -inf:
                return -inf
            theta.append(e)
        total += loglik(theta)
        return total + log_jac if jacobian else total

    return log_density


def _log_density_rows(model: ModelSpec):
    """Compile the model to log_density(etas) -> (log_post, log_lik), each
    an (n,) array over the rows of the (n, arity) array etas: log_post is
    what ``_log_density(model)`` gives at each row, to rounding, and
    log_lik the model's log-likelihood there, from one array call of the
    likelihood.  A row whose parameter underflows or overflows gets -inf
    in both, as does a row where the prior vanishes; neither reaches the
    likelihood."""
    family = model.family
    loglik = compile_loglik_rows(family, model.obs, model.likelihood_kind,
                                 model.sigma_noise)
    means = np.array(model.prior.means)
    sds = np.array(model.prior.sds)
    const = -(np.log(sds) + _HALF_LOG_TWO_PI).sum()

    def log_density(etas):
        theta, log_jac, bad = _bijection(family, etas)
        with np.errstate(over="ignore"):    # z * z = inf: the prior vanishes
            z = (theta - means) / sds
            prior = const - 0.5 * (z * z).sum(axis=1)
        live = np.flatnonzero(~bad & (prior > -math.inf))
        lp = np.full(len(etas), -math.inf)
        ll = lp.copy()
        ll[live] = loglik(theta[live])
        lp[live] = prior[live] + ll[live] + log_jac[live]
        return lp, ll

    return log_density


def log_posterior(model: ModelSpec, eta) -> float:
    """Unnormalized log-posterior density of eta, the MCMC target: the
    theta-space posterior plus the bijection Jacobian.  Returns -inf,
    never raises, wherever the density vanishes."""
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise ValueError(f"eta must be finite, got {eta}")
    if eta.shape != (model.family.arity,):
        raise ValueError(f"family {model.family.name!r} takes "
                         f"{model.family.arity} parameters, got {eta.shape}")
    return _log_density(model)(eta.tolist())


def _random_start(f, rng: np.random.Generator, center, factor):
    """The first of up to 100 draws center + factor @ N(0, I) of eta at
    which f(eta) is finite, with that value; (the last eta drawn, None) if
    there is none."""
    for _ in range(100):
        eta = (center + factor @ rng.standard_normal(len(center))).tolist()
        value = f(eta)
        if math.isfinite(value):
            return eta, value
    return eta, None


def _no_start(message: str, tries: int, ties_before: int) -> RuntimeError:
    """The error for a density that was -inf at all `tries` starts, with the
    cause if each start tied the CDF values (``orderstats.tie_events`` rose
    by `tries` since `ties_before`), and the remedy."""
    cause = ("every try tied the model's CDF values at the observed x, as "
             "data far from the origin do"
             if orderstats.tie_events - ties_before == tries
             else "data far from the origin can do this")
    return RuntimeError(f"{message}; {cause}: rescale x with the dataset's "
                        f"scale_divisor or --divisor")


def _find_mode(log_density, arity: int, rngs):
    """Nelder-Mead maximum of log_density from one N(0, 1) start per
    generator: (eta, log density), or (None, -inf) if none is finite."""
    def f(eta):
        return -log_density(np.asarray(eta, dtype=float).tolist())

    best_eta, best_val = None, math.inf
    for rng in rngs:
        eta0, val0 = _random_start(f, rng, np.zeros(arity), np.eye(arity))
        if val0 is None:
            continue
        eta, val = nelder_mead(f, eta0)
        if val < best_val:
            best_eta, best_val = eta, val
    return best_eta, -best_val


def _start(log_density, arity: int, cfg: SamplerConfig):
    """(center, Cholesky factor, step) of the chains: the Laplace fit at
    the mode, found on stream (seed, 2**32 - 1) that no chain uses, and
    2.38 / sqrt(arity); or the origin, the identity and _FALLBACK_STEP
    where there is no finite start or negative-definite Hessian."""
    mode, _ = _find_mode(log_density, arity,
                         [np.random.default_rng([cfg.seed, 2**32 - 1])])
    if mode is not None:
        h = 1e-4 * np.maximum(1.0, np.abs(mode))

        def lp(eta):
            return log_density(eta.tolist())

        hess = np.array([[lp(mode + a + b) - lp(mode + a - b)
                          - lp(mode - a + b) + lp(mode - a - b)
                          for b in np.diag(h)] for a in np.diag(h)])
        with contextlib.suppress(np.linalg.LinAlgError):
            factor = np.linalg.cholesky(-4.0 * np.linalg.inv(hess)
                                        * np.outer(h, h))
            if np.isfinite(factor).all():
                return mode, factor, 2.38 / math.sqrt(arity)
    return np.zeros(arity), np.eye(arity), _FALLBACK_STEP


def _unit_factor(chol: np.ndarray) -> tuple[np.ndarray, float]:
    """chol divided by the geometric mean of its diagonal, and that mean."""
    gm = math.exp(float(np.mean(np.log(np.diag(chol)))))
    return chol / gm, gm


def _moments(points, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean and Cholesky factor of the covariance of the rows of `points`,
    weighted by `weights` (none: equally), ridged so that equal rows (a
    walk that never moved, a batch with one finite weight) still factor."""
    points = np.asarray(points)
    cov = np.atleast_2d(np.cov(points, rowvar=False, bias=True,
                               aweights=weights))
    cov += (1e-10 * np.trace(cov) + 1e-24) * np.eye(len(cov))
    return (np.average(points, axis=0, weights=weights),
            np.linalg.cholesky(cov))


def _log_t(etas: np.ndarray, center: np.ndarray, scale: np.ndarray):
    """Log density, up to a constant, of the multivariate t with _T_DOF
    degrees of freedom, location center and scale factor scale at each
    row of etas."""
    r = np.linalg.solve(scale, (etas - center).T)
    return -0.5 * (_T_DOF + len(center)) * np.log1p(
        (r * r).sum(axis=0) / _T_DOF)


def _run_chain(log_density, log_density_rows, cfg: SamplerConfig,
               chain: int, center, factor, step):
    """One chain on private RNG stream (seed, chain), started at a draw of
    center + factor @ N(0, I).

    Warmup is cfg.warmup proposals.  The first warmup - warmup // 4 are
    random-walk Metropolis proposing step * factor @ N(0, I), the step
    tuned by Robbins-Monro and the factor refreshed at each quarter of
    warmup; each step is one call of the scalar ``log_density``.  The last
    warmup // 4 are one batch of t draws mu + L t, mu and L L^T the mean
    and covariance of the last half of the walk, scored in one call of
    ``log_density_rows``.  The batch's self-normalised importance weights
    pi / q give the sampling proposal's mu and L L^T, their weighted mean
    and covariance (population Monte Carlo); a batch with no finite
    weight, and the empty batch of a warmup under 4, leaves the walk's.
    Sampling is independence Metropolis from mu + L t, so every chain
    learns its own proposal.  Its proposals do not depend on the state,
    so one call of ``log_density_rows`` scores the state warmup ended in
    and every proposal, and the accept/reject pass is a scan over plain
    floats.  A walk that accepted under 1e-3 of its proposals raises,
    naming its length, since a short one may not have moved yet.

    Returns the states the sampling phase entered, in order (one row
    each), how many of the samples_per_chain draws each state holds, the
    log-likelihood (the second value of ``log_density_rows``) of each, and
    the sampling acceptance rate.
    """
    arity = len(center)
    rng = np.random.default_rng([cfg.seed, chain])
    ties = orderstats.tie_events
    eta, lp = _random_start(log_density, rng, center, factor)
    if lp is None:
        raise _no_start(f"failed to find a finite starting point in 100 "
                        f"tries; last eta = {np.asarray(eta)}", 100, ties)

    warmup, n = cfg.warmup, cfg.samples_per_chain
    quarter = warmup // 4
    walk = warmup - quarter
    z = rng.standard_normal((warmup + n, arity))
    log_u = np.log(rng.random(walk + n))
    # z[walk:] over sqrt(chi^2_5 / 5): the batch's and the sampling
    # phase's standard t draws
    std_t = z[walk:] / np.sqrt(rng.chisquare(_T_DOF, quarter + n)
                               / _T_DOF)[:, None]

    factor, gm = _unit_factor(factor)
    step *= gm
    # the factor changes at each quarter of warmup: one product of
    # increments per segment
    bounds = sorted({0, quarter, 2 * quarter, walk})
    states, moves = [], 0
    for a, b in zip(bounds, bounds[1:]):
        if a:
            factor, _ = _unit_factor(_moments(states[len(states) // 2:])[1])
        # rows become float lists one at a time, which keeps fewer small
        # objects alive than converting the whole block
        for t, inc, lu in zip(range(a, b),
                              map(np.ndarray.tolist, z[a:b] @ factor.T),
                              log_u[a:b].tolist()):
            prop = [e + step * d for e, d in zip(eta, inc)]
            lp_prop = log_density(prop)
            accept = lp_prop - lp >= lu
            if accept:
                eta, lp = prop, lp_prop
                moves += 1
            states.append(eta)
            step *= math.exp((t + 1.0) ** -0.6 * (
                (1.0 if accept else 0.0) - _TARGET_ACCEPTANCE))
    if moves / walk < 1e-3:
        raise RuntimeError(
            f"chain {chain} rejected essentially every warmup proposal "
            f"(acceptance {moves / walk:.2e} in the {walk} random-walk "
            f"steps over a warmup of {warmup}); the sampler is stuck at "
            f"eta = {np.asarray(eta)}.  A short warmup can end before its "
            f"first move: try a longer warmup (--warmup)")

    mu, chol = _moments(states[len(states) // 2:])
    batch = mu + std_t[:quarter] @ chol.T
    log_w = log_density_rows(batch)[0] - _log_t(batch, mu, chol)
    if np.isfinite(log_w).any():    # else the walk's moments stay
        mu, chol = _moments(batch, np.exp(log_w - log_w.max()))

    # Row 0 holds the state warmup ended in, row t + 1 the proposal of step
    # t.  Step t accepts when [lp(eta') - lq(eta')] - [lp(eta) - lq(eta)]
    # >= log u, and every term but the current state's is known up front.
    etas = np.vstack([eta, mu + std_t[quarter:] @ chol.T])
    lp, ll = log_density_rows(etas)
    weights = (lp - _log_t(etas, mu, chol)).tolist()
    current, entered, rows = weights[0], [0], [0]
    for t, weight, lu in zip(range(n), weights[1:], log_u[walk:].tolist()):
        if weight - current >= lu:
            current = weight
            entered.append(t + 1)
            rows.append(t)
    rate = (len(rows) - 1) / n
    if len(rows) > 1 and rows[1] == 0:      # the first proposal was accepted
        del rows[0], entered[0]
    return etas[entered], np.diff(rows, append=n), ll[entered], rate


def sample_posterior(model: ModelSpec, cfg: SamplerConfig) -> PosteriorDraws:
    """cfg.chains independent chains started as ``_start`` says, each
    cfg.warmup warmup proposals (adaptive random-walk steps, then a batch
    of warmup // 4 t proposals that refits the t by importance weights)
    and then cfg.samples_per_chain independence Metropolis steps from that
    t, scored in one array call (see ``_run_chain``).

    Each draw carries the order-statistics log-likelihood of its state.
    An order-statistics fit keeps the value its chain's array call gave
    for each state entered; a Gaussian-noise fit computes it for the
    states a chain entered in one array call after the chain ends, so it
    never feeds back into the chain.  Either way a state that repeats is
    not evaluated again.
    """
    family = model.family
    log_density = _log_density(model)
    log_density_rows = _log_density_rows(model)
    os_loglik = (compile_loglik_rows(family, model.obs)
                 if model.likelihood_kind == "gaussian_noise" else None)
    start = _start(log_density, family.arity, cfg)
    draws, lls, rates = [], [], []
    for chain in range(cfg.chains):
        etas, counts, ll, rate = _run_chain(log_density, log_density_rows,
                                            cfg, chain, *start)
        # each state entered maps to theta as the array density mapped it
        theta, _, _ = _bijection(family, etas)
        if os_loglik is not None:
            ll = os_loglik(theta)
        draws.append(np.repeat(theta, counts, axis=0))
        lls.append(np.repeat(ll, counts))
        rates.append(rate)
    return PosteriorDraws(
        draws=np.vstack(draws),
        chain_id=np.repeat(np.arange(cfg.chains), cfg.samples_per_chain),
        log_likelihood=np.concatenate(lls), seed=cfg.seed,
        warmup=cfg.warmup, acceptance_rate=tuple(rates))


def map_estimate(model: ModelSpec, restarts: int = 1,
                 seed: int = 0) -> tuple[np.ndarray, float]:
    """Posterior mode by Nelder-Mead, best of `restarts` N(0,1) starts.

    The objective is the posterior density over theta (likelihood + prior,
    no bijection Jacobian), searched in unconstrained coordinates; the
    theta mode is what "maximize the likelihood/posterior" means, and it is
    invariant to the choice of sampling parameterization.  Returns (theta,
    that log-density at theta).
    """
    if int(restarts) < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")
    seed = _seed("seed", seed)
    ties = orderstats.tie_events
    best_eta, best_val = _find_mode(
        _log_density(model, jacobian=False), model.family.arity,
        (np.random.default_rng([seed, r]) for r in range(int(restarts))))
    if best_eta is None:
        raise _no_start(f"log posterior was -inf at every initialization "
                        f"({restarts} restarts x 100 tries)",
                        100 * int(restarts), ties)
    theta, _ = to_constrained(model.family, best_eta)
    return theta, best_val


@dataclass(frozen=True)
class Diagnostics:
    """Split chain-halves convergence summary, one entry per parameter."""

    r_hat: tuple[float, ...] | None
    ess: tuple[float, ...]


def _split_sequences(pd: PosteriorDraws) -> tuple[np.ndarray, int]:
    ids = np.unique(pd.chain_id)
    per_chain = [pd.draws[pd.chain_id == c] for c in ids]
    shortest = min(len(b) for b in per_chain)
    half = shortest // 2
    if half < 2:
        raise ValueError("need at least 4 draws per chain for diagnostics")
    seqs = []
    for block in per_chain:
        seqs.append(block[:half])
        seqs.append(block[half: 2 * half])
    return np.stack(seqs), len(ids)


def diagnostics(pd: PosteriorDraws) -> Diagnostics:
    """Split R-hat and initial-positive-sequence ESS per parameter.

    With a single chain R-hat is unavailable (None); ESS still uses the
    chain's two halves.
    """
    seqs, n_chains = _split_sequences(pd)   # (S, T, P)
    s_count, t_len, arity = seqs.shape

    r_hat = []
    ess = []
    for p in range(arity):
        x = seqs[:, :, p]
        means = x.mean(axis=1)
        variances = x.var(axis=1, ddof=1)
        w = float(variances.mean())
        b = t_len * float(means.var(ddof=1))
        var_hat = (t_len - 1.0) / t_len * w + b / t_len

        if w > 0.0:
            r_hat.append(math.sqrt(var_hat / w))
        else:
            r_hat.append(1.0 if b == 0.0 else math.inf)

        if var_hat <= 0.0:        # all draws identical
            ess.append(float(s_count * t_len))
            continue
        centered = x - means[:, None]
        acov = np.zeros(t_len)
        for s in range(s_count):
            c = np.correlate(centered[s], centered[s], mode="full")
            acov += c[t_len - 1:] / t_len
        acov /= s_count
        rho = 1.0 - (w - acov) / var_hat
        rho[0] = 1.0
        tau = 0.0
        for k in range(t_len // 2):
            pair = rho[2 * k] + (rho[2 * k + 1] if 2 * k + 1 < t_len else 0.0)
            if k > 0 and pair <= 0.0:
                break
            tau += 2.0 * pair
        tau -= 1.0
        ess.append(s_count * t_len / max(tau, 1e-12))

    return Diagnostics(
        r_hat=None if n_chains < 2 else tuple(r_hat),
        ess=tuple(ess),
    )
