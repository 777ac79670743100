"""Dataset CSV files and JSON fit reports.

A dataset is a small CSV with a `q,x` header, one row per quantile, and a
`# meta:` comment line carrying the hidden sample size N (and optionally
the scale divisor).  Reports are one line of ``json.dumps`` with a fixed
key order and each float in its shortest round-trip repr (NaN, Infinity,
-0.0 too), so parse/serialize round-trips are lossless and a rerun with
the same seed produces byte-identical files.  Number sequences are
written from numpy arrays, and summary records from their dataclass
fields, in field order.  A ranking file is written from each report's
encoded entry, spliced into the ranking in ranked order; ``qmatch
compare`` encodes each entry in the worker process that fitted the report,
and ``ranking_to_json`` encodes them in turn, to the same bytes.  All
writes go through a temp-file-then-rename.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .inference import Diagnostics, PosteriorDraws
from .orderstats import QuantileObservation
from .predictive import FitReport, ParamSummary, PredictiveQuantile, Score

__all__ = [
    "DataError",
    "read_dataset",
    "dataset_text",
    "write_dataset",
    "report_to_json",
    "report_from_json",
    "ranking_to_json",
    "ranking_from_json",
    "write_text",
]

_META_RE = re.compile(r"#\s*meta:\s*(.*)$")


class DataError(ValueError):
    """A file could not be parsed; the message names file and line."""


def write_text(path, text: str) -> None:
    """Write atomically: temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# datasets

def _parse_meta(path, lineno: int, body: str, meta: dict) -> None:
    for token in body.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: malformed meta entry "
                            f"{token!r}, expected key=value")
        if key not in ("N", "scale_divisor"):
            raise DataError(f"{path}:{lineno}: unknown meta key {key!r}")
        meta[key] = (lineno, value)


def read_dataset(path, *, n_total: int | None = None,
                 scale_divisor: float | None = None) -> QuantileObservation:
    """Parse a dataset CSV; explicit arguments override `# meta:` values."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc

    meta: dict = {}
    rows: list[tuple[float, float]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _META_RE.match(line)
            if m:
                _parse_meta(path, lineno, m.group(1), meta)
            continue
        if not header_seen:
            if line != "q,x":
                raise DataError(
                    f"{path}:{lineno}: expected header 'q,x', got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected two comma-separated "
                            f"fields, got {len(parts)}")
        try:
            qv, xv = float(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: could not parse {line!r} as numbers")
        if rows and qv <= rows[-1][0]:
            raise DataError(
                f"{path}:{lineno}: quantile levels must be strictly "
                f"increasing ({qv!r} after {rows[-1][0]!r})")
        if rows and xv <= rows[-1][1]:
            raise DataError(
                f"{path}:{lineno}: quantile values must be strictly "
                f"increasing ({xv!r} after {rows[-1][1]!r})")
        rows.append((qv, xv))

    if not header_seen:
        raise DataError(f"{path}: no 'q,x' header found")
    if not rows:
        raise DataError(f"{path}: no data rows after the header")

    if n_total is None and "N" in meta:
        lineno, value = meta["N"]
        try:
            n_total = int(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: meta N={value!r} is not an "
                            f"integer")
    if n_total is None:
        raise DataError(f"{path}: sample size unknown; add a "
                        f"'# meta: N=...' line or pass it explicitly")
    if scale_divisor is None and "scale_divisor" in meta:
        lineno, value = meta["scale_divisor"]
        try:
            scale_divisor = float(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: meta scale_divisor={value!r} "
                            f"is not a number")
    if scale_divisor is None:
        scale_divisor = 1.0

    try:
        return QuantileObservation(
            q=tuple(q for q, _ in rows),
            x=tuple(x for _, x in rows),
            n_total=n_total,
            scale_divisor=scale_divisor,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _number_token(v: float) -> str:
    v = float(v)
    return str(int(v)) if v == int(v) else repr(v)


def dataset_text(obs: QuantileObservation) -> str:
    """The dataset CSV for obs; N must be an integer, as read_dataset
    requires one."""
    if not obs.n_total.is_integer():
        raise ValueError(f"a dataset file stores an integer sample size, "
                         f"got N={obs.n_total!r}")
    meta = f"# meta: N={_number_token(obs.n_total)}"
    if obs.scale_divisor != 1.0:
        meta += f" scale_divisor={_number_token(obs.scale_divisor)}"
    lines = [meta, "q,x"]
    lines.extend(f"{q!r},{x!r}" for q, x in zip(obs.q, obs.x))
    return "\n".join(lines) + "\n"


def write_dataset(path, obs: QuantileObservation) -> None:
    write_text(path, dataset_text(obs))


# ---------------------------------------------------------------------------
# fit reports

_FORMAT_REPORT = "qmatch-report"
_FORMAT_RANKING = "qmatch-ranking"
_VERSION = 1


def _obs_payload(obs: QuantileObservation) -> dict:
    return {
        "q": np.array(obs.q, dtype=float),
        "x": np.array(obs.x, dtype=float),
        # an integral N is written as an int, so such reports keep their bytes
        "n_total": (int(obs.n_total) if obs.n_total.is_integer()
                    else obs.n_total),
        "scale_divisor": float(obs.scale_divisor),
    }


def _report_body(report: FitReport) -> dict:
    body = {
        "family": report.family,
        "likelihood_kind": report.likelihood_kind,
        "sigma_noise": float(report.sigma_noise),
        "seed": int(report.seed),
        "observation": _obs_payload(report.obs),
        "params": [asdict(p) for p in report.params],
        "diagnostics": None if report.diag is None else {
            "r_hat": None if report.diag.r_hat is None
            else np.array(report.diag.r_hat, dtype=float),
            "ess": np.array(report.diag.ess, dtype=float),
        },
        "score": asdict(report.score),
        "predictive": [asdict(pq) for pq in report.predictive],
        "draws": None,
    }
    pd = report.draws
    if pd is not None:
        body["draws"] = {
            "values": pd.draws,
            "chain_id": pd.chain_id,
            "log_likelihood": pd.log_likelihood,
            "warmup": int(pd.warmup),
            "acceptance_rate": np.array(pd.acceptance_rate, dtype=float),
        }
    return body


def report_to_json(report: FitReport) -> str:
    return json.dumps({"format": _FORMAT_REPORT, "version": _VERSION,
                       **_report_body(report)},
                      default=np.ndarray.tolist) + "\n"


def _parse_obs(payload: dict) -> QuantileObservation:
    return QuantileObservation(
        q=tuple(float(v) for v in payload["q"]),
        x=tuple(float(v) for v in payload["x"]),
        n_total=float(payload["n_total"]),
        scale_divisor=float(payload["scale_divisor"]),
    )


def _record(cls, payload: dict):
    """cls rebuilt from its JSON record: each field under its own name, as
    a float except the `name`."""
    return cls(**{f.name: payload[f.name] if f.name == "name"
                  else float(payload[f.name]) for f in fields(cls)})


def _report_from_body(body: dict) -> FitReport:
    diag_payload = body["diagnostics"]
    diag = None
    if diag_payload is not None:
        r_hat = diag_payload["r_hat"]
        diag = Diagnostics(
            r_hat=None if r_hat is None else tuple(float(v) for v in r_hat),
            ess=tuple(float(v) for v in diag_payload["ess"]),
        )
    draws = None
    if body["draws"] is not None:
        d = body["draws"]
        draws = PosteriorDraws(
            draws=np.asarray(d["values"], dtype=float),
            chain_id=np.asarray(d["chain_id"], dtype=np.intp),
            log_likelihood=np.asarray(d["log_likelihood"], dtype=float),
            seed=int(body["seed"]),
            warmup=int(d["warmup"]),
            acceptance_rate=tuple(float(v) for v in d["acceptance_rate"]),
        )
    return FitReport(
        family=body["family"],
        likelihood_kind=body["likelihood_kind"],
        sigma_noise=float(body["sigma_noise"]),
        params=tuple(_record(ParamSummary, p) for p in body["params"]),
        diag=diag,
        score=_record(Score, body["score"]),
        predictive=tuple(_record(PredictiveQuantile, e)
                         for e in body["predictive"]),
        obs=_parse_obs(body["observation"]),
        seed=int(body["seed"]),
        draws=draws,
    )


def _load_payload(text: str, expected_format: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"not valid JSON: line {exc.lineno}: {exc.msg}")
    if not isinstance(payload, dict):
        raise DataError("report must be a JSON object")
    got = payload.get("format")
    if got != expected_format:
        raise DataError(f"expected a {expected_format!r} file, "
                        f"got format={got!r}")
    if payload.get("version") != _VERSION:
        raise DataError(f"unsupported report version "
                        f"{payload.get('version')!r}")
    return payload


def report_from_json(text: str) -> FitReport:
    payload = _load_payload(text, _FORMAT_REPORT)
    try:
        return _report_from_body(payload)
    except (KeyError, TypeError) as exc:
        raise DataError(f"report is missing or mis-typed field: {exc}")


def _ranking_entry(report: FitReport) -> str:
    """One report's entry in a ranking file, as JSON text."""
    return json.dumps(_report_body(report), default=np.ndarray.tolist)


def _ranking_text(ranked, entries, failures) -> str:
    # the ranking file with each report's encoded entry spliced in, in
    # ranked order: the same bytes as json.dumps of the whole payload.  It
    # is joined once, as a second copy of the entries lifts peak memory.
    head = json.dumps({
        "format": _FORMAT_RANKING,
        "version": _VERSION,
        "observation": _obs_payload(ranked[0].obs),
        "best": ranked[0].family,
    }, default=np.ndarray.tolist)
    tail = json.dumps({"failures": [{"family": f, "error": e}
                                    for f, e in failures]})
    parts = [f'{head[:-1]}, "ranking": [']
    for entry in entries:
        parts += [entry, ", "]
    parts[-1] = f"], {tail[1:]}\n"
    return "".join(parts)


def ranking_to_json(ranked, failures=()) -> str:
    """Serialize compare results: ranked reports plus recorded failures."""
    ranked = tuple(ranked)
    return _ranking_text(ranked, [_ranking_entry(r) for r in ranked],
                         failures)


def ranking_from_json(text: str):
    """Parse a ranking file to (reports, failures, best family name)."""
    payload = _load_payload(text, _FORMAT_RANKING)
    try:
        reports = tuple(_report_from_body(b) for b in payload["ranking"])
        failures = [(f["family"], f["error"]) for f in payload["failures"]]
        return reports, failures, payload["best"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"ranking is missing or mis-typed field: {exc}")
