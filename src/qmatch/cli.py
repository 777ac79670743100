"""Command-line front end.

Subcommands: `fit` runs one posterior fit and writes a JSON report,
`compare` fits several families and ranks them, `predict` reads a report
back and evaluates predictive quantiles, `simulate` writes a synthetic
dataset, and `curves` dumps plot-ready CSV grids (penalty curves,
predictive CDF bands, or an empirical-CDF ensemble).

`compare` fits in up to one worker process per core; same bytes at any count.

Exit codes: 0 success, 1 input error, 2 completed with warnings (fit did
not pass the convergence check, or some compared families failed).
Every command is deterministic under fixed flags; the seed falls back to
the QMATCH_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .dataio import (
    DataError,
    dataset_text,
    ranking_to_json,
    read_dataset,
    report_from_json,
    report_to_json,
    write_text,
)
from .distributions import FAMILY_NAMES, dist
from .inference import SamplerConfig, build_model, sample_posterior
from .orderstats import penalty_curves
from .predictive import (
    compare_models,
    make_fit_report,
    predictive_cdf,
    predictive_quantile,
)
from .simulation import SimConfig, empirical_cdf_ensemble, simulate_quantile_data

__all__ = ["main"]

_KINDS = {"os": "order_statistics", "gn": "gaussian_noise"}


class CliError(Exception):
    """Bad input caught by the CLI layer; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for
    # completed-with-warnings, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QMATCH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"QMATCH_SEED={env!r} is not an integer")
    return 0


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise CliError(f"{flag} expects comma-separated numbers, "
                       f"got {text!r}")
    if not values:
        raise CliError(f"{flag} must not be empty")
    return values


def _parse_qrange(text: str) -> tuple[float, ...]:
    """`a:b:M` means M equidistant levels from a to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--quantiles expects a:b:M, got {text!r}")
    try:
        a, b, m = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"--quantiles expects a:b:M with numeric a, b and "
                       f"integer M, got {text!r}")
    if m < 1:
        raise CliError(f"--quantiles needs M >= 1, got {m}")
    if m == 1 and a != b:
        raise CliError("--quantiles with M=1 needs a == b")
    return tuple(float(v) for v in np.linspace(a, b, m))


def _parse_xrange(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"--x-range expects lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(f"--x-range expects numeric lo:hi, got {text!r}")
    if not lo < hi:
        raise CliError(f"--x-range needs lo < hi, got {text!r}")
    return lo, hi


def _emit_output(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _read_report(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    return report_from_json(text)


def _convergence_warnings(reports) -> list[str]:
    notes = []
    for report in reports:
        if report.diag is None or report.diag.r_hat is None:
            notes.append(f"{report.family}: R-hat unavailable "
                         f"(single chain), convergence not assessed")
            continue
        bad = [f"{p.name}={r:.3f}"
               for p, r in zip(report.params, report.diag.r_hat)
               if not r < 1.05]
        if bad:
            notes.append(f"{report.family}: R-hat above 1.05 "
                         f"({', '.join(bad)})")
    return notes


def _fit_settings(args) -> tuple:
    """`_fit_one`'s arguments after (family, obs), as plain data."""
    config = SamplerConfig(chains=args.chains, warmup=args.warmup,
                           samples_per_chain=args.samples,
                           seed=_resolve_seed(args))
    return _KINDS[args.likelihood], args.sigma_noise, config, not args.no_draws


def _fit_one(family: str, obs, likelihood_kind: str, sigma_noise: float,
             config: SamplerConfig, include_draws: bool):
    model = build_model(family, obs.normalized(),
                        likelihood_kind=likelihood_kind,
                        sigma_noise=sigma_noise)
    pd = sample_posterior(model, config)
    return make_fit_report(model, pd, include_draws=include_draws)


def cmd_fit(args) -> int:
    obs = read_dataset(args.data, n_total=args.n_total,
                       scale_divisor=args.divisor)
    report = _fit_one(args.family, obs, *_fit_settings(args))
    _emit_output(report_to_json(report), args.out)
    notes = _convergence_warnings([report])
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return 2 if notes else 0


def cmd_compare(args) -> int:
    # imported here: the pool's modules would add to every command's start-up
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    obs = read_dataset(args.data, n_total=args.n_total,
                       scale_divisor=args.divisor)
    if args.families == "all":
        families = FAMILY_NAMES
    else:
        families = tuple(args.families.split(","))
        if "" in families:
            raise CliError(f"--families has an empty name: "
                           f"{args.families!r}")
        repeated = sorted({f for f in families if families.count(f) > 1})
        if repeated:
            raise CliError(f"--families repeats {', '.join(repeated)}")
        unknown = [f for f in families if f not in FAMILY_NAMES]
        if unknown:
            raise CliError(f"unknown families: {', '.join(unknown)}; "
                           f"choices: {', '.join(FAMILY_NAMES)}")
    settings = _fit_settings(args)
    reports, failures = [], []
    with ProcessPoolExecutor(min(len(families), os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_fit_one, family, obs, *settings)
                   for family in families]
        for family, future in zip(families, futures):
            try:
                reports.append(future.result())
            except BrokenProcessPool:
                raise  # a worker died: the whole compare fails, exit 1
            except (ValueError, RuntimeError) as exc:
                failures.append((family, str(exc)))
    if not reports:
        detail = "; ".join(f"{f}: {e}" for f, e in failures)
        raise CliError(f"every family failed to fit: {detail}")
    ranked = compare_models(reports)
    _emit_output(ranking_to_json(ranked, failures), args.out)
    notes = _convergence_warnings(ranked)
    for family, error in failures:
        print(f"warning: {family} failed: {error}", file=sys.stderr)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return 2 if failures or notes else 0


def cmd_predict(args) -> int:
    report = _read_report(args.report)
    if report.draws is None:
        raise CliError("report has no embedded draws; rerun the fit "
                       "without --no-draws")
    ps = _parse_floats(args.p, "--p")
    divisor = args.divisor
    if divisor is None:
        divisor = report.obs.scale_divisor
    lines = ["p,value,lo,hi"]
    for p in ps:
        pq = predictive_quantile(report.draws, report.family, p, divisor)
        lines.append(f"{pq.p!r},{pq.value!r},{pq.lo!r},{pq.hi!r}")
    _emit_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    d = dist(args.dist, *_parse_floats(args.params, "--params"))
    cfg = SimConfig(d=d, n_total=args.n, q=_parse_qrange(args.quantiles),
                    reps=1, seed=_resolve_seed(args))
    obs = simulate_quantile_data(cfg)
    _emit_output(dataset_text(obs), args.out)
    return 0


_MODE_FLAGS = {
    "penalty": ("dist", "params", "n", "q", "sigma_noise",
                "x_range", "points"),
    "predictive": ("report", "x_range", "points"),
    "ensemble": ("dist", "params", "n", "reps"),
}
_MODE_REQUIRED = {
    "penalty": ("dist", "params", "n"),
    "predictive": ("report",),
    "ensemble": ("dist", "params", "n"),
}


def _check_mode_flags(args) -> None:
    allowed = _MODE_FLAGS[args.mode]
    every = sorted({f for flags in _MODE_FLAGS.values() for f in flags})
    for flag in every:
        if getattr(args, flag) is not None and flag not in allowed:
            raise CliError(f"--{flag.replace('_', '-')} does not apply to "
                           f"mode {args.mode!r}")
    for flag in _MODE_REQUIRED[args.mode]:
        if getattr(args, flag) is None:
            raise CliError(f"mode {args.mode!r} requires "
                           f"--{flag.replace('_', '-')}")


def _csv_lines(header: str, columns) -> str:
    rows = zip(*columns)
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_curves(args) -> int:
    _check_mode_flags(args)
    points = args.points
    if args.mode == "penalty":
        d = dist(args.dist, *_parse_floats(args.params, "--params"))
        qs = _parse_floats(args.q or "0.1,0.01,0.001", "--q")
        if args.x_range is not None:
            lo, hi = _parse_xrange(args.x_range)
        else:
            lo, hi = d.quantile(1e-6), d.quantile(1.0 - 1e-6)
        grid = np.linspace(lo, hi, points or 2001)
        columns = [grid]
        names = ["x"]
        sigma = args.sigma_noise if args.sigma_noise is not None else 0.05
        for q in qs:
            os_curve, gn_curve = penalty_curves(d, q, args.n, grid,
                                                sigma_noise=sigma)
            columns.extend([os_curve, gn_curve])
            names.extend([f"os_{q!r}", f"gn_{q!r}"])
        _emit_output(_csv_lines(",".join(names), columns), args.out)
        return 0
    if args.mode == "predictive":
        report = _read_report(args.report)
        if report.draws is None:
            raise CliError("report has no embedded draws; rerun the fit "
                           "without --no-draws")
        obs = report.obs
        if args.x_range is not None:
            lo, hi = _parse_xrange(args.x_range)
        else:
            lo, hi = min(obs.x) * 0.5, max(obs.x) * 2.0
        grid = np.linspace(lo, hi, points or 201)
        curve = predictive_cdf(report.draws, report.family, grid)
        _emit_output(_csv_lines("x,mean,lo,hi",
                                [curve.x, curve.mean, curve.lo, curve.hi]),
                     args.out)
        return 0
    # ensemble: the rank grid is the header, one sorted sample per row
    d = dist(args.dist, *_parse_floats(args.params, "--params"))
    cfg = SimConfig(d=d, n_total=args.n, q=(0.5,),
                    reps=args.reps if args.reps is not None else 100,
                    seed=_resolve_seed(args))
    values, ranks = empirical_cdf_ensemble(cfg)
    header = ",".join(repr(float(r)) for r in ranks)
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in values)
    _emit_output("\n".join(lines) + "\n", args.out)
    return 0


def _add_common_fit_flags(p) -> None:
    p.add_argument("--likelihood", choices=("os", "gn"), default="os",
                   help="likelihood kind: order statistics or gaussian "
                        "noise (default os)")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--samples", type=int, default=1000,
                   help="retained draws per chain (default 1000)")
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--sigma-noise", type=float, default=0.05,
                   help="noise scale for the gaussian-noise likelihood")
    p.add_argument("--n-total", type=int, default=None,
                   help="hidden sample size, overrides the # meta line")
    p.add_argument("--divisor", type=float, default=None,
                   help="scale divisor, overrides the # meta line")
    p.add_argument("--no-draws", action="store_true",
                   help="do not embed posterior draws in the report")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qmatch",
                     description="Fit parametric distributions to "
                                 "empirical quantiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[], help="fit one family, write a "
                                               "JSON report")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    _add_common_fit_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report path (default: "
                                               "stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="fit several families and rank them")
    p.add_argument("data", help="dataset CSV path")
    p.add_argument("--families", default="all",
                   help="comma-separated family names, or 'all'")
    _add_common_fit_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="predictive quantiles from a report")
    p.add_argument("report", help="fit report JSON path")
    p.add_argument("--p", default="0.99",
                   help="comma-separated probabilities (default 0.99)")
    p.add_argument("--divisor", type=float, default=None,
                   help="de-normalization factor (default: the report's "
                        "scale divisor)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument("--dist", required=True, choices=FAMILY_NAMES)
    p.add_argument("--params", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--n", type=int, required=True,
                   help="hidden sample size N")
    p.add_argument("--quantiles", default="0.05:0.95:10",
                   help="a:b:M, M equidistant levels from a to b inclusive")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curves", help="plot-ready CSV grids")
    p.add_argument("--mode", required=True,
                   choices=("penalty", "predictive", "ensemble"))
    p.add_argument("--dist", choices=FAMILY_NAMES, default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", default=None,
                   help="penalty mode: comma-separated quantile levels "
                        "(default 0.1,0.01,0.001)")
    p.add_argument("--sigma-noise", type=float, default=None)
    p.add_argument("--report", default=None,
                   help="predictive mode: fit report with embedded draws")
    p.add_argument("--reps", type=int, default=None,
                   help="ensemble mode: replications (default 100)")
    p.add_argument("--x-range", default=None, help="lo:hi grid bounds")
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not our error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
