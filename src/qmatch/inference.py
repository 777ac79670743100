"""Posterior machinery: priors, reparameterization, MCMC, MAP, MSE fit.

The parameter spaces are one or two dimensional, so sampling uses adaptive
random-walk Metropolis in an unconstrained space (positive parameters get a
log bijection).  A scalar step size is tuned by Robbins-Monro during warmup
toward a target acceptance rate, multiplied by a per-parameter width vector
refreshed from the running warmup spread; both freeze when sampling starts,
keeping the retained chain a genuine Metropolis chain.

Priors are Gaussians on the *constrained* parameters (broad by default:
mean 0, sd 100), so the Jacobian term enters only through the bijection.

Chains own private RNG streams seeded by (seed, chain_id): results are
reproducible bit-for-bit and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Dist, FamilySpec, get_family
from .optimize import nelder_mead
from .orderstats import (
    QuantileObservation,
    gaussian_noise_loglik,
    joint_os_loglik,
)

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
    "mse_fit",
    "diagnostics",
]

LIKELIHOOD_KINDS = ("order_statistics", "gaussian_noise")

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# exp() saturates here; the Gaussian prior has annihilated the posterior
# long before, so capping keeps arithmetic silent without changing results
_ETA_CAP = 700.0


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
    target_acceptance: float = 0.3
    initial_step_scale: float = 0.1

    def __post_init__(self) -> None:
        for name in ("chains", "warmup", "samples_per_chain"):
            v = getattr(self, name)
            if int(v) != v or int(v) < 1:
                raise ValueError(f"{name} must be a count >= 1, got {v!r}")
            object.__setattr__(self, name, int(v))
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError(f"target_acceptance must lie in (0, 1), "
                             f"got {self.target_acceptance!r}")
        if not self.initial_step_scale > 0.0:
            raise ValueError(f"initial_step_scale must be positive, "
                             f"got {self.initial_step_scale!r}")


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


def _log_lik(d: Dist, model: ModelSpec) -> float:
    if model.likelihood_kind == "order_statistics":
        return joint_os_loglik(d, model.obs)
    return gaussian_noise_loglik(d, model.obs, model.sigma_noise)


def _theta_log_posterior(model: ModelSpec, eta: np.ndarray) -> float:
    """log-likelihood + log-prior at to_constrained(eta): the posterior
    density over theta, which optimization targets; no Jacobian."""
    theta, _ = to_constrained(model.family, eta)
    total = 0.0
    for v, m, s in zip(theta, model.prior.means, model.prior.sds):
        if v == 0.0 or not math.isfinite(v):
            return -math.inf   # underflowed or overflowed positive parameter
        z = (v - m) / s
        total += -0.5 * z * z - math.log(s) - _HALF_LOG_TWO_PI
        if total == -math.inf:
            return -math.inf
    d = Dist(model.family, tuple(theta))
    ll = _log_lik(d, model)
    if ll == -math.inf:
        return -math.inf
    return total + ll


def log_posterior(model: ModelSpec, eta) -> float:
    """Unnormalized log-posterior density of eta, the MCMC target: the
    theta-space posterior plus the bijection Jacobian.  Returns -inf,
    never raises, wherever the density vanishes."""
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise ValueError(f"eta must be finite, got {eta}")
    value = _theta_log_posterior(model, eta)
    if value == -math.inf:
        return -math.inf
    _, log_jac = to_constrained(model.family, eta)
    return value + log_jac


def _init_chain(model: ModelSpec, rng: np.random.Generator,
                arity: int) -> tuple[np.ndarray, float]:
    eta = None
    for _ in range(100):
        eta = rng.standard_normal(arity)
        lp = log_posterior(model, eta)
        if lp > -math.inf:
            return eta, lp
    raise RuntimeError(
        f"failed to find a finite starting point in 100 tries; last eta "
        f"= {eta}")


def _run_chain(model: ModelSpec, cfg: SamplerConfig,
               chain: int) -> tuple[np.ndarray, float]:
    arity = model.family.arity
    rng = np.random.default_rng([cfg.seed, chain])
    eta, lp = _init_chain(model, rng, arity)

    total = cfg.warmup + cfg.samples_per_chain
    z = rng.standard_normal((total, arity))
    log_u = np.log(rng.random(total))

    step = cfg.initial_step_scale
    width = np.ones(arity)
    target = cfg.target_acceptance
    warm_buf = np.empty((cfg.warmup, arity))
    quarter = cfg.warmup // 4
    milestones = {quarter, 2 * quarter, 3 * quarter} - {0}

    accepted_warm = 0
    for t in range(cfg.warmup):
        prop = eta + step * width * z[t]
        lp_prop = log_posterior(model, prop)
        accept = lp_prop - lp >= log_u[t]
        if accept:
            eta, lp = prop, lp_prop
            accepted_warm += 1
        warm_buf[t] = eta
        step *= math.exp((t + 1.0) ** -0.6 * ((1.0 if accept else 0.0) - target))
        if (t + 1) in milestones:
            sds = np.maximum(warm_buf[: t + 1].std(axis=0), 1e-12)
            width = sds / math.exp(float(np.mean(np.log(sds))))

    if accepted_warm / cfg.warmup < 1e-3:
        raise RuntimeError(
            f"chain {chain} rejected essentially every warmup proposal "
            f"(acceptance {accepted_warm / cfg.warmup:.2e}); the sampler is "
            f"stuck at eta = {eta}")

    out = np.empty((cfg.samples_per_chain, arity))
    accepted = 0
    for t in range(cfg.warmup, total):
        prop = eta + step * width * z[t]
        lp_prop = log_posterior(model, prop)
        if lp_prop - lp >= log_u[t]:
            eta, lp = prop, lp_prop
            accepted += 1
        out[t - cfg.warmup] = eta
    return out, accepted / cfg.samples_per_chain


def sample_posterior(model: ModelSpec, cfg: SamplerConfig) -> PosteriorDraws:
    """Adaptive random-walk Metropolis, cfg.chains independent chains."""
    family = model.family
    blocks = []
    rates = []
    for chain in range(cfg.chains):
        etas, rate = _run_chain(model, cfg, chain)
        blocks.append(etas)
        rates.append(rate)

    eta_draws = np.vstack(blocks)
    chain_id = np.repeat(np.arange(cfg.chains), cfg.samples_per_chain)

    draws = np.empty_like(eta_draws)
    for i, ps in enumerate(family.params):
        col = eta_draws[:, i]
        draws[:, i] = np.exp(col) if ps.domain == "positive" else col

    # per-draw order-statistics loglik; rejected proposals repeat the
    # previous row, so cache across identical neighbors
    log_lik = np.empty(draws.shape[0])
    prev = None
    prev_val = 0.0
    for i in range(draws.shape[0]):
        row = draws[i]
        if prev is None or not np.array_equal(row, prev):
            prev_val = joint_os_loglik(Dist(family, tuple(row)), model.obs)
            prev = row
        log_lik[i] = prev_val

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
    best_eta = None
    best_val = math.inf

    def objective(e):
        return -_theta_log_posterior(model, np.asarray(e, dtype=float))

    for r in range(int(restarts)):
        rng = np.random.default_rng([seed, r])
        eta0 = None
        for _ in range(100):
            eta0 = rng.standard_normal(model.family.arity)
            if math.isfinite(objective(eta0)):
                break
        else:
            continue
        eta_opt, val = nelder_mead(objective, eta0)
        if val < best_val:
            best_eta, best_val = eta_opt, val

    if best_eta is None:
        raise RuntimeError(
            f"log posterior was -inf at every initialization "
            f"({restarts} restarts x 100 tries)")
    theta, _ = to_constrained(model.family, best_eta)
    return theta, -best_val


def mse_fit(family, obs: QuantileObservation, restarts: int = 1,
            seed: int = 0) -> np.ndarray:
    """Least-squares CDF regression: minimize sum_m (q_m - F_theta(x_m))^2.

    Same simplex machinery and restart scheme as map_estimate; coincides
    with the gaussian_noise maximum under a flat prior, whatever sigma.
    """
    spec = get_family(family) if isinstance(family, str) else family
    if int(restarts) < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts!r}")

    def objective(eta):
        theta, _ = to_constrained(spec, eta)
        for v in theta:
            if v == 0.0 or not math.isfinite(v):
                return math.inf
        d = Dist(spec, tuple(theta))
        return math.fsum((qm - d.cdf(xm)) ** 2
                         for qm, xm in zip(obs.q, obs.x))

    best_eta = None
    best_val = math.inf
    for r in range(int(restarts)):
        rng = np.random.default_rng([seed, r])
        eta0 = None
        for _ in range(100):
            eta0 = rng.standard_normal(spec.arity)
            if math.isfinite(objective(eta0)):
                break
        else:
            continue
        eta_opt, val = nelder_mead(objective, eta0)
        if val < best_val:
            best_eta, best_val = eta_opt, val
    if best_eta is None:
        raise RuntimeError("objective was non-finite at every initialization")
    theta, _ = to_constrained(spec, best_eta)
    return theta


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
