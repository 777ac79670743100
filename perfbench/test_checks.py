"""Each output check passes on the program's real output and fails on a
corrupted copy of it, so a check that cannot fail does not pass unnoticed.

    python3 -m pytest perfbench/test_checks.py -q

Outputs come from short runs of the same operations the benchmark times.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from qmatch.dataio import ranking_from_json, ranking_to_json  # noqa: E402
from qmatch.datasets import dataset_path  # noqa: E402
from qmatch.predictive import predictive_quantile  # noqa: E402


def roundtrip(text):
    reports, failures, _ = ranking_from_json(text)
    return ranking_to_json(reports, failures)


def _cli(argv):
    rc, err = workloads._cli(argv)
    assert rc in (0, 2), err
    return rc


# -- salary_compare ---------------------------------------------------------

@pytest.fixture(scope="module")
def compare_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "ranking.json"
    _cli(["compare", dataset_path("EL"), "--families", "all", "--seed", 3,
          "--warmup", 500, "--samples", 500, "--out", out])
    text = out.read_text()
    best = ranking_from_json(text)[0][0]
    pq = predictive_quantile(best.draws, best.family, 0.99,
                             best.obs.scale_divisor)
    return text, [pq.value, pq.lo, pq.hi]


def _compare(tmp_path, text, p99):
    path = tmp_path / "ranking.json"
    path.write_text(text)
    return checks.check_compare({"p99": p99}, {"out": str(path),
                                               "country": "EL"}, roundtrip)


def _edit(text, edit):
    payload = json.loads(text)
    edit(payload)
    # re-serialise with the program so only the planted change differs
    reports, failures, _ = ranking_from_json(json.dumps(payload))
    return ranking_to_json(reports, failures)


def test_compare_passes_on_program_output(tmp_path, compare_output):
    assert _compare(tmp_path, *compare_output) == []


def test_compare_fails_on_p99_shifted_one_percent(tmp_path, compare_output):
    text, p99 = compare_output
    assert _compare(tmp_path, text, [p99[0] * 1.01] + p99[1:])


def test_compare_fails_on_swapped_winner(tmp_path, compare_output):
    text, p99 = compare_output

    def swap(payload):
        r = payload["ranking"]
        r[0], r[1] = r[1], r[0]
        for body in r[:2]:
            body["score"]["mean"] = r[0]["score"]["mean"]
        payload["best"] = r[0]["family"]

    problems = _compare(tmp_path, _edit(text, swap), p99)
    assert any("winner" in p for p in problems)


def test_compare_fails_on_missing_family(tmp_path, compare_output):
    text, p99 = compare_output
    problems = _compare(tmp_path, _edit(
        text, lambda p: p["ranking"].pop()), p99)
    assert any("nine" in p for p in problems)


def test_compare_fails_on_one_loglik_off(tmp_path, compare_output):
    text, p99 = compare_output

    def nudge(payload):
        payload["ranking"][2]["draws"]["log_likelihood"][17] *= 1 + 1e-6

    problems = _compare(tmp_path, _edit(text, nudge), p99)
    assert any("log-likelihood" in p for p in problems)


def test_compare_fails_on_shifted_posterior(tmp_path, compare_output):
    import oracles

    text, p99 = compare_output

    def shift(payload):
        # move the lognormal location by 2 sds and keep its stored
        # log-likelihood consistent, so only the mean check can object
        body = next(b for b in payload["ranking"]
                    if b["family"] == "lognormal")
        draws = np.asarray(body["draws"]["values"])
        draws[:, 0] += 2.0 * draws[:, 0].std()
        obs = body["observation"]
        body["draws"]["values"] = draws.tolist()
        body["draws"]["log_likelihood"] = oracles.os_loglik(
            "lognormal", [draws[:, 0], draws[:, 1]], obs["q"], obs["x"],
            obs["n_total"]).tolist()

    problems = _compare(tmp_path, _edit(text, shift), p99)
    assert any("posterior mean" in p for p in problems)
    assert not any("log-likelihood" in p for p in problems)


def test_compare_fails_on_lossy_serialisation(tmp_path, compare_output):
    text, p99 = compare_output
    problems = _compare(tmp_path, text.replace("\n", " \n", 1), p99)
    assert problems == ["parsed ranking does not re-serialise to the same "
                        "bytes"]


# -- predictive_queries -----------------------------------------------------

@pytest.fixture(scope="module")
def query_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("queries")
    report = tmp / "gamma.json"
    _cli(["fit", dataset_path("EL"), "--family", "gamma", "--seed", 1,
          "--warmup", 300, "--samples", 150, "--out", report])
    predict = {"kind": "predict", "family": "gamma", "report": str(report),
               "p": [0.25, 0.99], "out": str(tmp / "predict.csv")}
    curves = {"kind": "curves", "family": "gamma", "report": str(report),
              "x_range": [0.3, 2.5], "points": 21,
              "out": str(tmp / "curves.csv")}
    q = workloads.PredictiveQueries()
    q.ess = {"gamma": 1.0}
    for spec in (predict, curves):
        assert q.run(spec)["rc"] == 0
    return predict, curves


def _rewrite_csv(spec, tmp_path, edit):
    lines = Path(spec["out"]).read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    edit(rows)
    path = tmp_path / Path(spec["out"]).name
    path.write_text("\n".join([lines[0]] + [",".join(repr(v) for v in r)
                                             for r in rows]) + "\n")
    return {**spec, "out": str(path)}


def test_queries_pass_on_program_output(query_outputs):
    predict, curves = query_outputs
    assert checks.check_predict({}, predict) == []
    assert checks.check_curves({}, curves) == []


def test_predict_fails_on_p99_shifted_one_percent(tmp_path, query_outputs):
    def shift(rows):
        rows[1][1] *= 1.01
    assert checks.check_predict({}, _rewrite_csv(query_outputs[0], tmp_path,
                                                 shift))


def test_curves_fail_on_one_point_off(tmp_path, query_outputs):
    def nudge(rows):
        rows[7][1] += 1e-6
    assert checks.check_curves({}, _rewrite_csv(query_outputs[1], tmp_path,
                                                nudge))


def test_curves_fail_when_not_monotone(tmp_path, query_outputs):
    def swap(rows):
        rows[5][2], rows[6][2] = rows[6][2], rows[5][2]
    problems = checks.check_curves({}, _rewrite_csv(query_outputs[1],
                                                    tmp_path, swap))
    assert any("monotone" in p for p in problems)


# -- simulation_study -------------------------------------------------------

@pytest.fixture(scope="module")
def replicate():
    sim = workloads.SimulationStudy()
    sim.setup(5, Path("."))
    spec = sim.round_ops(0)[0]
    return spec, sim.run(spec)["arrays"]


def _replicate_problems(spec, arrays, **changes):
    return checks.check_replicate({}, spec, {**arrays, **changes})


def test_replicate_passes_on_program_output(replicate):
    spec, arrays = replicate
    assert _replicate_problems(spec, arrays) == []
    assert checks.check_coverage(checks.covered(spec, arrays) * 4) == []


def test_replicate_fails_when_gn_draws_move_with_n(replicate):
    spec, arrays = replicate
    gn = arrays["gn_big"].copy()
    gn[10, 0] = np.nextafter(gn[10, 0], np.inf)
    problems = _replicate_problems(spec, arrays, gn_big=gn)
    assert problems == ["gaussian-noise draws change with N alone"]


def test_replicate_fails_when_sd_does_not_shrink(replicate):
    spec, arrays = replicate
    wide = arrays["os_big"].copy()
    wide[:, 0] = wide[:, 0].mean() + 10.0 * (wide[:, 0] - wide[:, 0].mean())
    problems = _replicate_problems(spec, arrays, os_big=wide)
    assert any("shrink" in p for p in problems)


def test_replicate_fails_on_generator_outside_posterior(replicate):
    spec, arrays = replicate
    far = arrays["os"] + 20.0 * arrays["os"].std(axis=0)
    problems = _replicate_problems(spec, arrays, os=far)
    assert any("posterior sds" in p for p in problems)
    assert checks.check_coverage(checks.covered(spec, {"os": far}) * 4)


def test_replicate_fails_on_a_worse_map(replicate):
    spec, arrays = replicate
    sd = arrays["os"].std(axis=0)
    worse = arrays["map"].copy()
    worse[:2] += sd
    problems = _replicate_problems(spec, arrays, map=worse)
    assert any("MAP" in p for p in problems)


def test_replicate_fails_on_one_loglik_off(replicate):
    spec, arrays = replicate
    ll = arrays["os_loglik"].copy()
    ll[3] *= 1 + 1e-6
    problems = _replicate_problems(spec, arrays, os_loglik=ll)
    assert any("log-likelihood" in p for p in problems)


@pytest.fixture(scope="module")
def oracle_batch():
    spec = {"kind": "oracle", "family": "weibull", "theta": [2.0, 1.0],
            "n": 20, "k": 6, "reps": 4000, "seed": 9, "out": ""}
    return spec, workloads.SimulationStudy().run(spec)["arrays"]["draws"]


def test_oracle_passes_on_program_output(oracle_batch):
    assert checks.check_oracle({}, *oracle_batch) == []


def test_oracle_fails_on_the_neighbouring_order(oracle_batch):
    spec, draws = oracle_batch
    assert checks.check_oracle({}, {**spec, "k": spec["k"] + 1}, draws)


def test_oracle_fails_on_shifted_draws(oracle_batch):
    spec, draws = oracle_batch
    assert checks.check_oracle({}, spec, draws * 1.05)


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_lists_every_per_layer_metric():
    import qmatch
    import tracer

    tr = tracer.Tracer()
    tr.install(qmatch)
    try:
        tracer.install_hooks(tr)
    finally:
        tr.uninstall()
    tr.extra["tie_events"] = 0
    emitted = tracer.layer_metrics(tr, HERE.parent / "src" / "qmatch", 0.0)
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in listed["per_layer"]} == {
        name: unit for name, (_, unit) in emitted.items()}
