"""Posterior machinery: priors, reparameterization, MCMC, MAP.

Sampling is adaptive random-walk Metropolis (Haario, Saksman & Tamminen
2001) in an unconstrained space; positive parameters get a log bijection.
Chains start at draws from the Laplace approximation at the mode and
propose with the Cholesky factor of its covariance; where the density has
no finite start or no negative-definite Hessian there, they start at
N(0, 1) draws with an identity factor and step ``_FALLBACK_STEP`` (0.1).
In warmup a Robbins-Monro step tunes the acceptance rate towards
``_TARGET_ACCEPTANCE`` (0.3) and, each quarter, the factor becomes the
Cholesky factor of the ridged covariance of the last half of the warmup
draws; both then freeze, so the retained chain is a genuine Metropolis
chain.

Priors are Gaussians on the *constrained* parameters (broad by default:
mean 0, sd 100), so the Jacobian term enters only through the bijection.

``_log_density(model)`` compiles the model once per fit into a closure
from eta (plain floats) to (log-posterior, log-likelihood), the likelihood
being ``orderstats.compile_loglik``'s.  ``log_posterior``, the sampler and
``map_estimate`` all evaluate it; per step the sampler does no numpy work
and records the order-statistics log-likelihood of each state it enters.

Chains own private RNG streams seeded by (seed, chain_id): results are
reproducible bit-for-bit and independent of evaluation order.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .distributions import FamilySpec, get_family
from . import orderstats
from .optimize import nelder_mead
from .orderstats import LIKELIHOOD_KINDS, QuantileObservation, compile_loglik

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

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# exp() saturates here; the Gaussian prior has annihilated the posterior
# long before, so capping keeps arithmetic silent without changing results
_ETA_CAP = 700.0
_TARGET_ACCEPTANCE = 0.3   # the warmup's Robbins-Monro target
_FALLBACK_STEP = 0.1       # the step of chains started without a Laplace fit


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
        if self.likelihood_kind not in LIKELIHOOD_KINDS:
            raise ValueError(
                f"likelihood_kind must be one of {LIKELIHOOD_KINDS}, "
                f"got {self.likelihood_kind!r}")
        if len(self.prior.means) != self.family.arity:
            raise ValueError(
                f"prior has {len(self.prior.means)} components but family "
                f"{self.family.name!r} has {self.family.arity} parameters")
        object.__setattr__(self, "sigma_noise", float(self.sigma_noise))
        if not self.sigma_noise > 0.0:
            raise ValueError(f"sigma_noise must be positive, "
                             f"got {self.sigma_noise!r}")


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
            v = getattr(self, name)
            if int(v) != v or int(v) < 1:
                raise ValueError(f"{name} must be a count >= 1, got {v!r}")
            object.__setattr__(self, name, int(v))


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


def to_constrained(family: FamilySpec, eta) -> tuple[np.ndarray, float]:
    """Inverse bijection plus its log-Jacobian (sum of eta over positives)."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (family.arity,):
        raise ValueError(f"family {family.name!r} takes {family.arity} "
                         f"parameters, got {eta.shape}")
    theta = np.empty_like(eta)
    log_jac = 0.0
    for i, ps in enumerate(family.params):
        if ps.domain == "positive":
            e = min(eta[i], _ETA_CAP)
            theta[i] = math.exp(e)
            log_jac += e
        else:
            theta[i] = eta[i]
    return theta, log_jac


def _log_density(model: ModelSpec, jacobian: bool = True):
    """Compile the model to log_density(eta) -> (log_post, log_lik).

    eta is a sequence of finite plain floats in sampling space.  log_post
    is the unnormalized log-posterior: log-likelihood plus log-prior at
    theta = to_constrained(eta), plus the bijection Jacobian when
    `jacobian` is set (the MCMC target) and without it otherwise (the
    theta-space density that optimization targets).  log_lik is the
    model's own log-likelihood at theta.  Both are -inf, and nothing
    raises, wherever the density vanishes.
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
                return -inf, -inf   # underflowed or overflowed parameter
            z = (e - m) / s
            total += -0.5 * z * z - log_s - _HALF_LOG_TWO_PI
            if total == -inf:
                return -inf, -inf
            theta.append(e)
        ll = loglik(theta)
        if ll == -inf:
            return -inf, ll
        total += ll
        return (total + log_jac if jacobian else total), ll

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
    return _log_density(model)(eta.tolist())[0]


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
        return -log_density(np.asarray(eta, dtype=float).tolist())[0]

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
            return log_density(eta.tolist())[0]

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


def _run_chain(log_density, cfg: SamplerConfig, chain: int, center,
               factor, step):
    """One chain on private RNG stream (seed, chain), started at a draw of
    center + factor @ N(0, I), proposing step * factor @ N(0, I) at first.

    Returns the sampling-phase states (samples_per_chain x arity), the
    rows where the state changed (row 0 first), the log-likelihood of the
    state entered at each of those rows, and the sampling acceptance rate.
    """
    arity = len(center)
    rng = np.random.default_rng([cfg.seed, chain])
    ties = orderstats.tie_events
    eta, lp = _random_start(lambda e: log_density(e)[0], rng, center, factor)
    if lp is None:
        raise _no_start(f"failed to find a finite starting point in 100 "
                        f"tries; last eta = {np.asarray(eta)}", 100, ties)

    warmup = cfg.warmup
    z = rng.standard_normal((warmup + cfg.samples_per_chain, arity))
    log_u = np.log(rng.random(len(z))).tolist()

    factor, gm = _unit_factor(factor)
    step *= gm
    quarter = warmup // 4
    # the factor changes at each quarter of warmup and freezes with the
    # step when sampling starts: one product of increments per segment
    bounds = sorted({0, quarter, 2 * quarter, 3 * quarter, warmup, len(z)})
    states, rows, lls = [], [], []
    for a, b in zip(bounds, bounds[1:]):
        if a == warmup:
            if len(rows) / warmup < 1e-3:
                raise RuntimeError(
                    f"chain {chain} rejected essentially every warmup "
                    f"proposal (acceptance {len(rows) / warmup:.2e}); the "
                    f"sampler is stuck at eta = {np.asarray(eta)}")
            # row 0 of the sampling phase holds the state warmup ended in
            states, rows, lls = [], [0], lls[-1:]
        elif a:
            # the ridge lets a buffer that never moved still factor
            cov = np.atleast_2d(np.cov(np.array(states[len(states) // 2:]),
                                       rowvar=False, bias=True))
            cov += (1e-10 * np.trace(cov) + 1e-24) * np.eye(arity)
            factor, _ = _unit_factor(np.linalg.cholesky(cov))
        # rows become float lists one at a time, which keeps fewer small
        # objects alive than converting the whole block
        for t, inc, lu in zip(range(a, b),
                              map(np.ndarray.tolist, z[a:b] @ factor.T),
                              log_u[a:b]):
            prop = [e + step * d for e, d in zip(eta, inc)]
            lp_prop, ll_prop = log_density(prop)
            accept = lp_prop - lp >= lu
            if accept:
                eta, lp = prop, lp_prop
                rows.append(t - warmup)
                lls.append(ll_prop)
            states.append(eta)
            if t < warmup:
                step *= math.exp((t + 1.0) ** -0.6 * (
                    (1.0 if accept else 0.0) - _TARGET_ACCEPTANCE))
    rate = (len(rows) - 1) / cfg.samples_per_chain
    if len(rows) > 1 and rows[1] == 0:      # the first proposal was accepted
        del rows[0], lls[0]
    return np.array(states), rows, lls, rate


def sample_posterior(model: ModelSpec, cfg: SamplerConfig) -> PosteriorDraws:
    """Adaptive random-walk Metropolis, cfg.chains independent chains
    started as ``_start`` says.

    Each draw's order-statistics log-likelihood is recorded as the chain
    enters its state, so a state that repeats is not evaluated again.
    """
    family = model.family
    arity = family.arity
    log_density = _log_density(model)
    start = _start(log_density, arity, cfg)
    blocks, rates, rows, lls = [], [], [], []
    for chain in range(cfg.chains):
        etas, moved, ll, rate = _run_chain(log_density, cfg, chain, *start)
        blocks.append(etas)
        rates.append(rate)
        rows.extend(chain * cfg.samples_per_chain + r for r in moved)
        lls.extend(ll)

    eta_draws = np.vstack(blocks)
    chain_id = np.repeat(np.arange(cfg.chains), cfg.samples_per_chain)

    draws = np.empty_like(eta_draws)
    for i, ps in enumerate(family.params):
        col = eta_draws[:, i]
        draws[:, i] = np.exp(col) if ps.domain == "positive" else col

    # The order-statistics loglik must be that of the stored draw.  Under
    # the order-statistics likelihood the chain recorded it at theta =
    # math.exp(eta), which np.exp may round one ulp differently: evaluate
    # again only where it did.  Under the Gaussian-noise likelihood it is
    # evaluated once per state entered.
    rows = np.array(rows)
    if model.likelihood_kind == "order_statistics":
        values = np.array(lls)
        stale = np.zeros(rows.size, dtype=bool)
        for i, ps in enumerate(family.params):
            if ps.domain == "positive":
                exact = [math.exp(min(e, _ETA_CAP))
                         for e in eta_draws[rows, i].tolist()]
                stale |= draws[rows, i] != exact
    else:
        values = np.empty(rows.size)
        stale = np.ones(rows.size, dtype=bool)
    os_loglik = compile_loglik(family, model.obs)
    for j in np.flatnonzero(stale):
        values[j] = os_loglik(draws[rows[j]].tolist())
    log_lik = np.repeat(values, np.diff(rows, append=draws.shape[0]))

    return PosteriorDraws(draws=draws, chain_id=chain_id,
                          log_likelihood=log_lik, seed=cfg.seed,
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
