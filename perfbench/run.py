"""qmatch benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload salary_compare|predictive_queries|
        simulation_study --seed N --seconds S --trace 0|1

Run from the root of a qmatch checkout; the program is imported from its
``src/``.  With ``--trace 0`` a fresh worker process sets up and runs the
workload for about S seconds, two more workers repeat the set-up alone,
and the end-to-end metrics are printed.  With ``--trace 1`` the worker
runs one round untraced and the same round with every layer wrapped, and
the per-layer metrics are printed.  Either way every operation's output
is checked afterwards against scipy oracles and method properties (see
checks.py), and the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation fails when it raises, when the CLI exits 1 or when a check
of its output fails; CLI exit 2 (a convergence warning) is not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Seconds per round of the probe loop (worker.probe) on the 2-core
# reference machine in its fast state.  Times are reported in reference
# seconds: a run's wall-clock is scaled by REF_PROBE_S over the loop's
# mean time per round in the readings taken between its operations.  On
# the reference machine, a shared 2-core VM, speed drifts by a third within
# minutes; the readings follow that drift, so the scaled figures stay
# steady while a slower or faster program still moves them in full.
REF_PROBE_S = 3e-7
WORKER_TIMEOUT_S = 150
WORKLOADS = ("salary_compare", "predictive_queries", "simulation_study")


def worker(args, mode: str, out: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads((out / "summary.json").read_text())


def ref_seconds(seconds: float, probes) -> float:
    """Scale wall-clock seconds by [rounds, seconds] probe readings."""
    per_round = sum(s for _, s in probes) / sum(n for n, _ in probes)
    return seconds * REF_PROBE_S / per_round


def check_records(workload: str, records: list) -> tuple[set, list[str]]:
    """Check every operation's output; returns (indices of the failed
    operations, run-level failures)."""
    import numpy as np

    import checks

    roundtrip = None
    if workload == "salary_compare":
        from qmatch.dataio import ranking_from_json, ranking_to_json

        def roundtrip(text):
            reports, failures, _ = ranking_from_json(text)
            return ranking_to_json(reports, failures)

    failed = set()
    flags: list[bool] = []
    for i, rec in enumerate(records):
        spec = rec["spec"]
        if rec.get("error") is not None or rec["rc"] not in (0, 2):
            problems = [f"rc={rec['rc']}: {rec.get('error')}"]
        elif spec["kind"] == "compare":
            problems = checks.check_compare(rec, spec, roundtrip)
        elif spec["kind"] == "predict":
            problems = checks.check_predict(rec, spec)
        elif spec["kind"] == "curves":
            problems = checks.check_curves(rec, spec)
        elif spec["kind"] == "oracle":
            problems = checks.check_oracle(rec, spec, np.load(spec["out"]))
        else:
            with np.load(spec["out"]) as arrays:
                arrays = dict(arrays)
            problems = checks.check_replicate(rec, spec, arrays)
            flags += checks.covered(spec, arrays)
        if problems:
            failed.add(i)
            for p in problems:
                print(f"op {i} ({spec['kind']}) failed: {p}", file=sys.stderr)
    run_level = checks.check_coverage(flags) if flags else []
    for p in run_level:
        print(f"run check failed: {p}", file=sys.stderr)
    return failed, run_level


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qmatch" / "__init__.py").is_file():
        print(f"error: no qmatch source tree at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        mode = "trace" if args.trace else "timed"
        summary = worker(args, mode, run_dir / "main", WORKER_TIMEOUT_S)
        setups = [summary]
        if not args.trace:
            for i in range(1, SETUP_REPEATS):
                setups.append(worker(args, "setup", run_dir / f"setup{i}",
                                     WORKER_TIMEOUT_S / 3))
        records = summary["records"]
        failed, run_level = check_records(args.workload, records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ok_ops = [r for i, r in enumerate(records) if i not in failed]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary["layers"].items()}
        print(f"trace written to {summary['trace_file']}", file=sys.stderr)
    else:
        probes = summary["probes"]
        timed = ref_seconds(summary["timed_s"], probes)
        setup = statistics.median(ref_seconds(s["setup_s"], s["setup_probes"])
                                  for s in setups)
        ess = sum(r.get("ess", 0.0) for r in ok_ops)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": len(ok_ops) / timed, "unit": "ops/s"},
            "ess_per_s": {"value": ess / timed, "unit": "draws/s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
        raw = summary["timed_s"]
        print(f"wall-clock: {raw:.3f} s timed, "
              f"{len(ok_ops) / raw:.4f} ops/s, {ess / raw:.1f} draws/s, "
              f"setup {statistics.median(s['setup_s'] for s in setups):.4f} s;"
              f" probe {timed / raw:.3f} reference s per s", file=sys.stderr)
    print(json.dumps({"correct": not run_level, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
