"""Simulation-based calibration of the posterior (Talts, Betancourt,
Simpson, Vehtari & Gelman 2018, "Validating Bayesian inference algorithms
with simulation-based calibration", arXiv:1804.06788).

Each replicate draws theta from a proper Gaussian prior, simulates a
sample of N = 200 from it, reads off the quantiles at q = (0.1, 0.25,
0.5, 0.75, 0.9) (every qN is an integer, so these are exact order
statistics), fits under the same prior with the default sampler, and
ranks theta among 99 evenly spaced posterior draws.  When the posterior
is right the ranks are uniform on 0..99; each parameter's ranks are
binned into 10 bins and compared with uniform by Pearson's chi^2 with 9
degrees of freedom.

The bound is the 99.9% point of chi^2_9, so the six order-statistics
statistics together fail by chance with probability under 1%.  The
Gaussian-noise fit of the normal family is the check's own control: its
sigma posterior is too wide (the ranks heap in the middle), and the
check must flag it.  Seeds and replicate counts are fixed; a failure is
a finding, not a reason to draw new ones.

This takes about a minute (one core of a 2-core VM), so it runs outside
the tier-1 suite:

    python -m pytest -q -s calibration/test_sbc.py
"""

import numpy as np
import pytest

from qmatch import (PriorSpec, SamplerConfig, SimConfig, build_model, dist,
                    get_family, sample_posterior, simulate_quantile_data)

N_TOTAL = 200
LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)
REPLICATES = 300
RANKED_DRAWS = 99
BINS = 10
BOUND = 27.88   # the 99.9% point of chi^2 with BINS - 1 degrees of freedom

# family -> the prior theta is drawn from and fitted under; positive
# parameters are drawn by rejection, which is that prior restricted to
# the parameter domain, as the model sees it
PRIORS = {
    "normal": PriorSpec((3.0, 1.5), (1.0, 0.3)),
    "gamma": PriorSpec((3.0, 1.0), (0.5, 0.2)),
    "weibull": PriorSpec((2.0, 1.0), (0.3, 0.2)),
    "cauchy": PriorSpec((3.0, 1.0), (1.0, 0.2)),
}
SEEDS = {("normal", "order_statistics"): 4101,
         ("gamma", "order_statistics"): 4102,
         ("weibull", "order_statistics"): 4103,
         ("normal", "gaussian_noise"): 4104,
         ("cauchy", "order_statistics"): 4105}


def _prior_draw(family, prior, rng):
    theta = []
    for param, m, s in zip(get_family(family).params, prior.means,
                           prior.sds):
        v = rng.normal(m, s)
        while not param.contains(v):
            v = rng.normal(m, s)
        theta.append(v)
    return np.array(theta)


def _chi_square(ranks):
    counts = np.bincount(ranks * BINS // (RANKED_DRAWS + 1), minlength=BINS)
    expected = len(ranks) / BINS
    return float(((counts - expected) ** 2 / expected).sum())


def calibration(family, kind):
    """Pearson's chi^2 of each parameter's SBC ranks."""
    prior, seed = PRIORS[family], SEEDS[family, kind]
    ranks = []
    for r in range(REPLICATES):
        rng = np.random.default_rng([seed, r])
        theta = _prior_draw(family, prior, rng)
        data_seed, sampler_seed = (int(v) for v in rng.integers(0, 2**31, 2))
        obs = simulate_quantile_data(SimConfig(
            dist(family, *theta), N_TOTAL, LEVELS, seed=data_seed))
        pd = sample_posterior(build_model(family, obs, kind, prior),
                              SamplerConfig(seed=sampler_seed))
        kept = np.round(np.linspace(0, pd.n_draws - 1, RANKED_DRAWS))
        ranks.append((pd.draws[kept.astype(int)] < theta).sum(axis=0))
    stats = [_chi_square(col) for col in np.array(ranks).T]
    print(f"\nSBC {family} {kind}: chi^2 "
          + ", ".join(f"{p.name} {v:.1f}" for p, v in
                      zip(get_family(family).params, stats)))
    return stats


@pytest.mark.parametrize("family", ["normal", "gamma", "weibull", "cauchy"])
def test_order_statistics_posteriors_are_calibrated(family):
    stats = calibration(family, "order_statistics")
    assert max(stats) < BOUND, stats


def test_gaussian_noise_sigma_posterior_is_flagged():
    _, sigma = calibration("normal", "gaussian_noise")
    assert sigma > BOUND, sigma
