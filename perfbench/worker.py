"""One fresh process per measurement: set up a workload, run it, report.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode timed|setup|trace --out DIR

``setup`` imports qmatch from the checkout's ``src/`` and builds the
inputs, then stops; ``timed`` also runs whole rounds until the next round
would end past T seconds (at least one); ``trace`` runs round 0 untraced,
then again with every layer wrapped (see tracer.py).  The worker writes
DIR/summary.json plus each operation's arrays; it checks nothing, so no
oracle code is ever loaded into the measured process.
"""

import math
import time


PROBE_SHARE = 0.25  # probe time after an operation, as a share of its time
PROBE_MIN = 20_000


PROBE_ROUNDS = 200_000


def probe(n: int = PROBE_ROUNDS) -> float:
    """Seconds for n rounds of a fixed pure-Python float loop that touches
    nothing of qmatch: a reading of the machine's speed at this moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, n):
        x = i * 1e-3
        acc += math.log(x) - math.exp(-x) + x / (1.0 + x * x)
    return time.perf_counter() - t0


_PROBE_BEFORE_SETUP = probe()
_T_START = time.perf_counter()  # setup_s counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import qmatch from this checkout's source tree, never from an
    installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qmatch

    if Path(qmatch.__file__).resolve().parent != src / "qmatch":
        raise SystemExit(f"qmatch imported from {qmatch.__file__}, "
                         f"not from {src}")
    return qmatch


def run_ops(workload, specs, records, pending, run_prefix, tracer=None,
            probes=None):
    """Run each operation, recording its outcome; arrays are kept in memory
    and written after the timed region.  With ``probes`` (a list of
    [rounds, seconds] readings) the machine's speed is read again after
    each operation, outside its time, for about PROBE_SHARE of that time,
    so the readings sample the run evenly."""
    run = workload.run
    if tracer is not None:
        run = tracer.wrap(workload.run, "bench.op", "bench")
    for spec in specs:
        index = len(records)
        if tracer is not None:
            tracer.run_id = f"{run_prefix}-op{index}"
        t0 = time.perf_counter()
        try:
            rec = run(spec)
        except Exception as exc:  # an operation that raises is a failure
            rec = {"rc": None, "error": f"{type(exc).__name__}: {exc}"}
        rec["seconds"] = time.perf_counter() - t0
        if probes is not None:
            rate = probes[-1][0] / probes[-1][1]
            n = max(PROBE_MIN, int(PROBE_SHARE * rec["seconds"] * rate))
            probes.append([n, probe(n)])
        arrays = rec.pop("arrays", None)
        if arrays is not None:
            pending.append((spec["out"], arrays))
        rec["spec"] = spec
        records.append(rec)


def write_arrays(pending) -> None:
    import numpy as np

    for out, arrays in pending:
        if out.endswith(".npy"):
            np.save(out, arrays["draws"])
        else:
            np.savez(out, **arrays)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "setup", "trace"),
                    required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    qmatch = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, out)
    setup_s = time.perf_counter() - _T_START
    summary = {"setup_s": setup_s,
               "setup_probes": [[PROBE_ROUNDS, _PROBE_BEFORE_SETUP],
                                [PROBE_ROUNDS, probe()]]}
    prefix = f"{args.workload}-{args.seed}"
    records: list = []
    pending: list = []

    if args.mode == "timed":
        rounds = 0
        probes = [[PROBE_ROUNDS, probe()]]
        while True:
            run_ops(workload, workload.round_ops(rounds), records, pending,
                    prefix, probes=probes)
            rounds += 1
            timed = sum(r["seconds"] for r in records)
            if timed * (1 + 1 / rounds) > args.seconds:
                break
        summary["timed_s"] = timed
        summary["rounds"] = rounds
        summary["probes"] = probes
    elif args.mode == "trace":
        import tracer as tracing

        specs = workload.round_ops(0)
        t0 = time.perf_counter()
        run_ops(workload, specs, records, pending, prefix)
        untraced = time.perf_counter() - t0
        tr = tracing.Tracer(*tracing.calibrate())
        tr.install(qmatch)
        tracing.install_hooks(tr)
        ties0 = qmatch.orderstats.tie_events
        t0 = time.perf_counter()
        try:
            run_ops(workload, specs, records, pending, prefix, tr)
        finally:
            traced = time.perf_counter() - t0
            tr.uninstall()
        tr.extra["tie_events"] = qmatch.orderstats.tie_events - ties0
        summary["timed_s"] = untraced
        summary["traced_s"] = traced
        summary["layers"] = tracing.layer_metrics(
            tr, ROOT / "src" / "qmatch", traced - untraced)
        trace_file = ROOT / ".perfbench_out" / f"trace-{prefix}.json"
        tr.write(trace_file, {"workload": args.workload, "seed": args.seed})
        summary["trace_file"] = str(trace_file)

    write_arrays(pending)
    summary["records"] = records
    summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    (out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
