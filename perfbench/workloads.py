"""The three benchmark workloads: inputs from the seed, and the operations.

Each workload is set up once (``setup``), then runs whole rounds of
operations; ``round_ops(r)`` lists the operations of round r, all derived
from the workload seed, so a given seed always yields the same inputs.
An operation returns a JSON-ready record; what it wrote to disk and the
values it produced are checked later, outside the timed region, by
``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

COUNTRIES = ("EL", "ES", "FR", "IT", "LU", "NL", "SE", "UK")


def _cli(argv) -> tuple[int, str]:
    """Run the qmatch CLI in-process; returns (exit code, stderr text)."""
    from qmatch import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


class SalaryCompare:
    """The paper's real-world application: rank all nine families on one
    bundled salary dataset, then read the winner's 99% predictive quantile
    out of the ranking file.  One round is one country."""

    name = "salary_compare"

    def setup(self, seed: int, workdir: Path) -> None:
        from qmatch.datasets import dataset_path

        rng = np.random.default_rng(seed)
        self.order = [COUNTRIES[i] for i in rng.permutation(len(COUNTRIES))]
        self.fit_seeds = [int(v) for v in rng.integers(1, 2**31 - 1, 64)]
        self.paths = {c: str(dataset_path(c)) for c in COUNTRIES}
        self.workdir = workdir

    def round_ops(self, r: int) -> list[dict]:
        country = self.order[r % len(self.order)]
        return [{"kind": "compare", "country": country,
                 "seed": self.fit_seeds[r % len(self.fit_seeds)],
                 "data": self.paths[country],
                 "out": str(self.workdir / f"ranking-{r}-{country}.json")}]

    def run(self, op: dict) -> dict:
        from qmatch.dataio import ranking_from_json
        from qmatch.predictive import predictive_quantile

        rc, err = _cli(["compare", op["data"], "--families", "all",
                        "--seed", op["seed"], "--out", op["out"]])
        if rc == 1:
            return {"rc": rc, "error": err.strip()}
        reports, _, _ = ranking_from_json(Path(op["out"]).read_text())
        best = reports[0]
        pq = predictive_quantile(best.draws, best.family, 0.99,
                                 best.obs.scale_divisor)
        return {"rc": rc, "warnings": err.count("warning:"),
                "ess": sum(min(r.diag.ess) for r in reports),
                "p99": [pq.value, pq.lo, pq.hi]}


class PredictiveQueries:
    """Query stored reports without sampling: ``qmatch predict`` and
    ``qmatch curves --mode predictive`` against gamma, lognormal and
    weibull fits, one per special-function path (incomplete gamma, erfc,
    closed form).  The reports are fitted once in setup to the EL data at
    a fixed sampler seed, so their draws and ESS do not vary with the
    workload seed; the seed draws the query levels and grid ranges.  One
    round is a predict and a curves query on each report."""

    name = "predictive_queries"
    families = ("gamma", "lognormal", "weibull")
    fit_seed = 1
    points = 51

    def setup(self, seed: int, workdir: Path) -> None:
        from qmatch.dataio import report_from_json
        from qmatch.datasets import dataset_path

        self.workdir = workdir
        self.reports = {}
        self.ess = {}
        for family in self.families:
            path = workdir / f"report-{family}.json"
            rc, err = _cli(["fit", dataset_path("EL"), "--family", family,
                            "--seed", self.fit_seed, "--out", path])
            if rc == 1:
                raise RuntimeError(f"setup fit of {family} failed: {err}")
            report = report_from_json(path.read_text())
            self.reports[family] = str(path)
            self.ess[family] = min(report.diag.ess)
        x = report.obs.x
        self.x_lo, self.x_hi = min(x), max(x)
        self.rng_seed = seed

    def round_ops(self, r: int) -> list[dict]:
        rng = np.random.default_rng([self.rng_seed, r])
        ops = []
        for family in self.families:
            ps = (round(rng.uniform(0.05, 0.5), 4),
                  round(rng.uniform(0.9, 0.995), 4))
            lo = self.x_lo * rng.uniform(0.2, 0.6)
            hi = self.x_hi * rng.uniform(1.5, 3.0)
            stem = self.workdir / f"{r}-{family}"
            ops.append({"kind": "predict", "family": family,
                        "report": self.reports[family], "p": list(ps),
                        "out": f"{stem}-predict.csv"})
            ops.append({"kind": "curves", "family": family,
                        "report": self.reports[family], "x_range": [lo, hi],
                        "points": self.points, "out": f"{stem}-curves.csv"})
        return ops

    def run(self, op: dict) -> dict:
        if op["kind"] == "predict":
            argv = ["predict", op["report"],
                    "--p", ",".join(repr(p) for p in op["p"])]
        else:
            lo, hi = op["x_range"]
            argv = ["curves", "--mode", "predictive", "--report", op["report"],
                    f"--x-range={lo!r}:{hi!r}", "--points", op["points"]]
        rc, err = _cli(argv + ["--out", op["out"]])
        if rc != 0:
            return {"rc": rc, "error": err.strip()}
        return {"rc": rc, "ess": self.ess[op["family"]]}


class SimulationStudy:
    """The paper's simulated examples.  A replicate draws 10 quantiles of
    normal(3, 1.5) from a hidden sample of N = 50, fits the order-statistics
    and Gaussian-noise likelihoods at N and at 16 N (same x), and runs
    map_estimate; a sort-and-pick batch draws 20000 k-th order
    statistics of 20 with os_marginal_oracle.  One round is one replicate
    and one batch each for the normal and weibull families.  The seed
    draws the data, sampler and oracle seeds and the batch orders; the
    generator stays fixed, because the sampler's cost and ESS depend on
    where the posterior sits."""

    name = "simulation_study"
    theta = (3.0, 1.5)
    n_small = 50
    n_big = 800
    levels = tuple(float(v) for v in np.linspace(0.05, 0.95, 10))
    oracle_n = 20
    oracle_reps = 20_000
    oracle_dists = {"normal": (0.0, 1.0), "weibull": (2.0, 1.0)}

    def setup(self, seed: int, workdir: Path) -> None:
        self.rng_seed = seed
        self.workdir = workdir

    def round_ops(self, r: int) -> list[dict]:
        rng = np.random.default_rng([self.rng_seed, r])
        seeds = [int(v) for v in rng.integers(1, 2**31 - 1, 4)]
        ops = [{"kind": "replicate", "theta": list(self.theta),
                "n": self.n_small, "n_big": self.n_big, "q": self.levels,
                "sim_seed": seeds[0], "fit_seed": seeds[1],
                "out": str(self.workdir / f"replicate-{r}.npz")}]
        for (family, theta), s in zip(self.oracle_dists.items(), seeds[2:]):
            ops.append({"kind": "oracle", "family": family,
                        "theta": list(theta), "n": self.oracle_n,
                        "k": int(rng.integers(1, self.oracle_n + 1)),
                        "reps": self.oracle_reps, "seed": s,
                        "out": str(self.workdir / f"oracle-{r}-{family}.npy")})
        return ops

    def run(self, op: dict) -> dict:
        if op["kind"] == "oracle":
            return self._oracle(op)
        return self._replicate(op)

    def _oracle(self, op: dict) -> dict:
        from qmatch.distributions import dist
        from qmatch.simulation import os_marginal_oracle

        draws = os_marginal_oracle(dist(op["family"], *op["theta"]), op["n"],
                                   op["k"], op["reps"], seed=op["seed"])
        return {"rc": 0, "arrays": {"draws": draws}}

    def _replicate(self, op: dict) -> dict:
        from qmatch.distributions import dist
        from qmatch.inference import (SamplerConfig, build_model, diagnostics,
                                      map_estimate, sample_posterior)
        from qmatch.orderstats import QuantileObservation
        from qmatch.simulation import SimConfig, simulate_quantile_data

        obs = simulate_quantile_data(SimConfig(
            d=dist("normal", *op["theta"]), n_total=op["n"], q=op["q"],
            seed=op["sim_seed"]))
        big = QuantileObservation(q=obs.q, x=obs.x, n_total=op["n_big"])
        cfg = SamplerConfig(seed=op["fit_seed"])
        arrays = {"x": np.asarray(obs.x)}
        ess = 0.0
        for label, o, kind in (("os", obs, "order_statistics"),
                               ("os_big", big, "order_statistics"),
                               ("gn", obs, "gaussian_noise"),
                               ("gn_big", big, "gaussian_noise")):
            pd = sample_posterior(build_model("normal", o, kind), cfg)
            ess += min(diagnostics(pd).ess)
            arrays[label] = pd.draws
            arrays[label + "_loglik"] = pd.log_likelihood
        theta_map, lp_map = map_estimate(build_model("normal", obs),
                                         seed=op["fit_seed"])
        arrays["map"] = np.append(theta_map, lp_map)
        return {"rc": 0, "ess": ess, "arrays": arrays}


WORKLOADS = {w.name: w for w in (SalaryCompare, PredictiveQueries,
                                 SimulationStudy)}
