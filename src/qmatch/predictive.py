"""Posterior-predictive queries, model scores, and fit summaries.

Every quantity here is a plain Monte-Carlo functional of the retained
draws: the predictive CDF averages F_theta over draws (with pointwise 5/95%
draw-quantile bands), predictive quantiles invert each draw's CDF, and
model scores summarize the stored per-draw order-statistics
log-likelihood.  Each query evaluates the family's array kernel once per
distinct posterior state, with those states' parameter columns as theta
(quantiles over all of them at once, the CDF over all of them and a block
of grid points at a time), and gathers the values back to every draw
before averaging.  A Metropolis chain repeats its state on every rejected
proposal, so the draws hold fewer states than rows.

Scores stay in the units the model was fitted in (median-normalized for
the salary data); only quantile outputs are de-normalized, via the
scale_divisor carried by the observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import cdf, get_family, ppf
from .inference import Diagnostics, ModelSpec, PosteriorDraws, diagnostics
from .orderstats import QuantileObservation

__all__ = [
    "ParamSummary",
    "Score",
    "PredictiveQuantile",
    "PredictiveCurve",
    "FitReport",
    "predictive_cdf",
    "predictive_quantile",
    "score_model",
    "compare_models",
    "kde_curve",
    "make_fit_report",
]


# values per predictive_cdf block: 4 grid points at 4000 draws, which ran
# faster than 1, 2, 3 or 6 points (per-call overhead against working set)
_CDF_BLOCK_ELEMENTS = 2 ** 14


def _distinct_states(pd: PosteriorDraws):
    """(theta, which): the parameter columns of the draws that differ from
    the row before them, and each draw's index into those columns.

    The sampler lays a held state out as consecutive copies, so comparing
    neighbours finds every repeat it made.  Values gathered back with
    ``take(which, axis=1)`` are the per-draw values in the per-draw layout,
    so means and quantiles over them keep their bits.
    """
    d = pd.draws
    new = np.ones(pd.n_draws, dtype=bool)
    np.any(d[1:] != d[:-1], axis=1, out=new[1:])
    return tuple(np.ascontiguousarray(d[new].T)), np.cumsum(new) - 1


@dataclass(frozen=True)
class ParamSummary:
    """Marginal posterior summary of one parameter."""

    name: str
    mean: float
    sd: float
    q05: float
    q50: float
    q95: float


@dataclass(frozen=True)
class Score:
    """Mean per-draw log-likelihood and distances to its 5/95% quantiles."""

    mean: float
    minus: float   # mean - q05
    plus: float    # q95 - mean


@dataclass(frozen=True)
class PredictiveQuantile:
    """De-normalized predictive quantile with 5/95% credible bounds."""

    p: float
    value: float
    lo: float
    hi: float


@dataclass(frozen=True)
class PredictiveCurve:
    """Pointwise posterior-predictive CDF: mean with 5/95% bands."""

    x: np.ndarray
    mean: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class FitReport:
    """Everything a fit produced, sufficient to rank, predict, and rerun."""

    family: str
    likelihood_kind: str
    sigma_noise: float
    params: tuple[ParamSummary, ...]
    diag: Diagnostics
    score: Score
    predictive: tuple[PredictiveQuantile, ...]
    obs: QuantileObservation
    seed: int
    draws: PosteriorDraws | None = None

    def __post_init__(self) -> None:
        spec = get_family(self.family)
        if len(self.params) != spec.arity:
            raise ValueError(f"{spec.name} has {spec.arity} parameters, "
                             f"summary lists {len(self.params)}")
        for ps, summ in zip(spec.params, self.params):
            for label in ("mean", "q05", "q50", "q95"):
                v = getattr(summ, label)
                if not ps.contains(v):
                    raise ValueError(
                        f"reported {spec.name}.{ps.name} {label}={v!r} "
                        f"violates domain {ps.domain}")
        if self.score.minus < 0.0 or self.score.plus < 0.0:
            raise ValueError(
                "score quantile distances must bracket the mean "
                f"(got -{self.score.minus}/+{self.score.plus})")

    def without_draws(self) -> "FitReport":
        return replace(self, draws=None)


def predictive_cdf(pd: PosteriorDraws, family, x_grid) -> PredictiveCurve:
    """Monte-Carlo posterior-predictive CDF over x_grid.

    The grid goes through the family's kernel in blocks of rows, each one
    (rows x distinct states) array, gathered to (rows x draws) values, at
    most _CDF_BLOCK_ELEMENTS of them (at least one row), so memory is
    bounded by that budget whatever the grid size.
    """
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("x_grid must be a non-empty 1-D vector")
    theta, which = _distinct_states(pd)
    theta = tuple(col[None, :] for col in theta)
    rows = max(1, _CDF_BLOCK_ELEMENTS // pd.n_draws)
    mean = np.empty(grid.size)
    band = np.empty((2, grid.size))
    for j in range(0, grid.size, rows):
        values = cdf(family, theta, grid[j:j + rows, None]).take(which, axis=1)
        mean[j:j + rows] = values.mean(axis=1)
        # the same values as without the sort; np.quantile partitions, and
        # on well-mixed draws, with few repeated states, partitioning sorted
        # rows after numpy's SIMD sort took half the time
        band[:, j:j + rows] = np.quantile(np.sort(values, axis=1),
                                          (0.05, 0.95), axis=1)
    return PredictiveCurve(x=grid, mean=mean, lo=band[0], hi=band[1])


def predictive_quantile(pd: PosteriorDraws, family, p: float,
                        scale_divisor: float = 1.0) -> PredictiveQuantile:
    """Mean of the per-draw p-quantile with 5/95% bounds, de-normalized."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    scale_divisor = float(scale_divisor)
    if not scale_divisor > 0.0:
        raise ValueError(f"scale_divisor must be positive, "
                         f"got {scale_divisor!r}")
    theta, which = _distinct_states(pd)
    q = ppf(family, theta, p).take(which)
    lo, hi = np.quantile(q, (0.05, 0.95)).tolist()
    return PredictiveQuantile(
        p=p,
        value=float(q.mean()) * scale_divisor,
        lo=lo * scale_divisor,
        hi=hi * scale_divisor,
    )


def score_model(pd: PosteriorDraws) -> Score:
    """Summary of the stored per-draw log-likelihood values."""
    ll = pd.log_likelihood
    mean = float(ll.mean())
    q05, q95 = np.quantile(ll, (0.05, 0.95)).tolist()
    return Score(mean=mean, minus=mean - q05, plus=q95 - mean)


def compare_models(reports) -> tuple[FitReport, ...]:
    """Rank fits of the same observation by mean score, best first.

    Ties break alphabetically by family name, so the ranking is a
    deterministic function of its inputs.
    """
    reports = tuple(reports)
    if not reports:
        raise ValueError("need at least one report to rank")
    first = reports[0].obs
    for r in reports[1:]:
        if r.obs != first:
            raise ValueError(
                f"reports describe different observations: {r.family} was "
                f"fitted to different data than {reports[0].family}")
    return tuple(sorted(reports,
                        key=lambda r: (-r.score.mean, r.family)))


def kde_curve(samples, grid) -> np.ndarray:
    """Gaussian kernel density with Silverman's bandwidth on the grid."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples for a density estimate")
    sd = float(samples.std(ddof=1))
    if sd == 0.0:
        raise ValueError("samples have zero variance")
    h = 1.06 * sd * samples.size ** (-0.2)
    z = (grid[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (
        samples.size * h * math.sqrt(2.0 * math.pi))


def make_fit_report(model: ModelSpec, pd: PosteriorDraws,
                    predictive_ps=(), include_draws: bool = True) -> FitReport:
    """Assemble the full report for one finished fit."""
    spec = model.family
    params = []
    for i, ps in enumerate(spec.params):
        col = pd.draws[:, i]
        q05, q50, q95 = np.quantile(col, (0.05, 0.50, 0.95)).tolist()
        params.append(ParamSummary(
            name=ps.name,
            mean=float(col.mean()),
            sd=float(col.std(ddof=1)),
            q05=q05,
            q50=q50,
            q95=q95,
        ))
    predictive = tuple(
        predictive_quantile(pd, spec, p, model.obs.scale_divisor)
        for p in predictive_ps)
    return FitReport(
        family=spec.name,
        likelihood_kind=model.likelihood_kind,
        sigma_noise=model.sigma_noise,
        params=tuple(params),
        diag=diagnostics(pd),
        score=score_model(pd),
        predictive=predictive,
        obs=model.obs,
        seed=pd.seed,
        draws=pd if include_draws else None,
    )
