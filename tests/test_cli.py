"""End-to-end tests for the command line, dataset files, and reports."""

import filecmp
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from qmatch.dataio import (
    DataError,
    dataset_text,
    ranking_from_json,
    ranking_to_json,
    read_dataset,
    report_from_json,
    report_to_json,
    write_dataset,
)
from qmatch.datasets import COUNTRY_CODES, dataset_path, load_salaries
from qmatch import cli, dataio
from qmatch.cli import main
from qmatch.distributions import FAMILY_NAMES, dist
from qmatch.inference import SamplerConfig, build_model, sample_posterior
from qmatch.orderstats import QuantileObservation, penalty_curves
from qmatch.predictive import compare_models, make_fit_report

from helpers import exit_worker, src_env

SALARY_QUANTILES = {
    "EL": (12918, (4930.0, 7500.0, 11000.0)),
    "ES": (19177, (8803.0, 13681.0, 20413.0)),
    "FR": (21325, (16185.0, 21713.0, 29008.0)),
    "IT": (24969, (10699.0, 16247.0, 22944.0)),
    "LU": (10292, (23964.0, 33818.0, 48692.0)),
    "NL": (12748, (16879.0, 22733.0, 30327.0)),
    "SE": (11635, (17794.0, 25164.0, 33365.0)),
    "UK": (17645, (14897.0, 21136.0, 30151.0)),
}

TINY = ["--chains", "2", "--warmup", "300", "--samples", "150"]


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def el_csv():
    import importlib.resources as resources
    with resources.as_file(dataset_path("EL")) as p:
        yield str(p)


@pytest.fixture(scope="module")
def el_report_path(tmp_path_factory, el_csv):
    """One full-size EL gamma fit, reused by the predict/curves tests."""
    out = tmp_path_factory.mktemp("reports") / "el_gamma.json"
    code = main(["fit", el_csv, "--family", "gamma", "--seed", "7",
                 "--out", str(out)])
    assert code in (0, 2)
    return str(out)


@pytest.fixture(scope="module")
def el_compare_reference(el_csv):
    """`compare --families all --seed 5` on EL under TINY, built in this
    process, one family after another."""
    obs = read_dataset(el_csv)
    config = SamplerConfig(chains=2, warmup=300, samples_per_chain=150,
                           seed=5)
    reports = [cli._fit_one(f, obs, "order_statistics", 0.05, config, True)
               for f in FAMILY_NAMES]
    return ranking_to_json(compare_models(reports), [])


class TestReadDataset:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_parses_meta_and_rows(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=100 scale_divisor=2.5\n"
                                    "q,x\n0.25,1\n0.75,3\n")
        obs = read_dataset(path)
        assert obs.q == (0.25, 0.75)
        assert obs.x == (1.0, 3.0)
        assert obs.n_total == 100
        assert obs.scale_divisor == 2.5

    def test_explicit_arguments_override_meta(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=100 scale_divisor=2.5\n"
                                    "q,x\n0.25,1\n0.75,3\n")
        obs = read_dataset(path, n_total=50, scale_divisor=4.0)
        assert obs.n_total == 50
        assert obs.scale_divisor == 4.0

    def test_divisor_defaults_to_one(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=10\nq,x\n0.5,1\n")
        assert read_dataset(path).scale_divisor == 1.0

    def test_missing_sample_size(self, tmp_path):
        path = self.write(tmp_path, "q,x\n0.5,1\n")
        with pytest.raises(DataError, match="sample size"):
            read_dataset(path)

    def test_bad_header_names_line(self, tmp_path):
        path = self.write(tmp_path, "quantile,value\n0.5,1\n")
        with pytest.raises(DataError, match=r":1:"):
            read_dataset(path)

    def test_bad_number_names_line(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9\nq,x\n0.25,1\n0.5,oops\n")
        with pytest.raises(DataError, match=r":4:"):
            read_dataset(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "q,x\n0.25,1,7\n")
        with pytest.raises(DataError, match=r":2:.*two comma"):
            read_dataset(path)

    def test_decreasing_q_names_line(self, tmp_path):
        path = self.write(tmp_path, "q,x\n0.5,1\n0.25,2\n")
        with pytest.raises(DataError, match=r":3:.*strictly increasing"):
            read_dataset(path)

    def test_decreasing_x_names_line(self, tmp_path):
        path = self.write(tmp_path, "q,x\n0.25,2\n0.5,1\n")
        with pytest.raises(DataError, match=r":3:.*strictly increasing"):
            read_dataset(path)

    def test_unknown_meta_key_names_line(self, tmp_path):
        path = self.write(tmp_path, "# meta: M=3\nq,x\n0.5,1\n")
        with pytest.raises(DataError, match=r":1:.*unknown meta key"):
            read_dataset(path)

    def test_malformed_meta_entry(self, tmp_path):
        path = self.write(tmp_path, "# meta: N\nq,x\n0.5,1\n")
        with pytest.raises(DataError, match=r":1:.*key=value"):
            read_dataset(path)

    def test_non_integer_meta_n(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=ten\nq,x\n0.5,1\n")
        with pytest.raises(DataError, match=r":1:.*not an integer"):
            read_dataset(path)

    def test_out_of_range_level_mentions_file(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9\nq,x\n1.5,1\n")
        with pytest.raises(DataError, match=r"data\.csv"):
            read_dataset(path)

    def test_no_header(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9\n# q,x\n")
        with pytest.raises(DataError, match="no 'q,x' header found"):
            read_dataset(path)

    def test_no_rows(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9\nq,x\n")
        with pytest.raises(DataError, match="no data rows"):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(tmp_path / "absent.csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9\n\nq,x\n0.25,1\n  \n"
                                    "0.75,3\n\n")
        obs = read_dataset(path)
        assert obs.q == (0.25, 0.75) and obs.x == (1.0, 3.0)

    def test_non_numeric_meta_divisor_names_line(self, tmp_path):
        path = self.write(tmp_path, "# meta: N=9 scale_divisor=big\n"
                                    "q,x\n0.5,1\n")
        with pytest.raises(DataError,
                           match=r":1:.*scale_divisor='big' is not a number"):
            read_dataset(path)


class TestDatasetRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        obs = QuantileObservation(
            q=(0.05, 0.3141592653589793, 0.95),
            x=(-1.5, 0.1234567890123456, 2.75),
            n_total=137,
            scale_divisor=1.0,
        )
        path = tmp_path / "sim.csv"
        write_dataset(path, obs)
        assert read_dataset(path) == obs

    def test_non_integer_n_is_refused(self, tmp_path):
        obs = QuantileObservation(q=(0.5,), x=(1.0,), n_total=100.5)
        with pytest.raises(ValueError, match="integer sample size.*100.5"):
            dataset_text(obs)
        with pytest.raises(ValueError, match="integer"):
            write_dataset(tmp_path / "bad.csv", obs)
        assert not (tmp_path / "bad.csv").exists()

    def test_meta_line_formats_integers_plainly(self):
        obs = QuantileObservation(q=(0.5,), x=(1.0,), n_total=200,
                                  scale_divisor=7500.0)
        text = dataset_text(obs)
        assert text.splitlines()[0] == "# meta: N=200 scale_divisor=7500"

    def test_unit_divisor_is_omitted(self):
        obs = QuantileObservation(q=(0.5,), x=(1.0,), n_total=20)
        assert "scale_divisor" not in dataset_text(obs)


class TestBundledData:
    def test_el_spot_check(self):
        obs = load_salaries("EL")
        assert obs.n_total == 12918
        assert obs.x == (4930.0, 7500.0, 11000.0)
        assert obs.q == (0.25, 0.5, 0.75)

    @pytest.mark.parametrize("code", COUNTRY_CODES)
    def test_all_countries_parse_to_published_values(self, code):
        n_total, x = SALARY_QUANTILES[code]
        obs = load_salaries(code)
        assert obs.n_total == n_total
        assert obs.x == x
        assert obs.scale_divisor == x[1]  # divisor is the median
        assert obs.normalized().x[1] == 1.0

    def test_lowercase_code_accepted(self):
        assert load_salaries("uk") == load_salaries("UK")

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="country code"):
            load_salaries("DE")


@pytest.fixture(scope="module")
def small_report():
    obs = QuantileObservation(q=(0.25, 0.5, 0.75),
                              x=(4930.0, 7500.0, 11000.0),
                              n_total=12918, scale_divisor=7500.0)
    model = build_model("gamma", obs.normalized())
    pd = sample_posterior(model, SamplerConfig(chains=2, warmup=300,
                                               samples_per_chain=100,
                                               seed=5))
    return make_fit_report(model, pd, predictive_ps=(0.5, 0.99))


# a version-1 report in the layout of the earlier writer: indented, floats at
# 17 significant digits, integral floats without a point
OLD_LAYOUT_REPORT = """{
  "format": "qmatch-report",
  "version": 1,
  "family": "gamma",
  "likelihood_kind": "order_statistics",
  "sigma_noise": 0.10000000000000001,
  "seed": 5,
  "observation": {
    "q": [0.25, 0.5, 0.75],
    "x": [4930, 7500, 11000],
    "n_total": 12918,
    "scale_divisor": 7500
  },
  "params": [
    {
      "name": "shape",
      "mean": 2.6666666666666665,
      "sd": 0.20000000000000001,
      "q05": 2.5,
      "q50": 2.5,
      "q95": 3
    },
    {
      "name": "scale",
      "mean": 0.17777777777777778,
      "sd": 0.10000000000000001,
      "q05": 0.10000000000000001,
      "q50": 0.10000000000000001,
      "q95": 0.33333333333333331
    }
  ],
  "diagnostics": {
    "r_hat": [1, NaN],
    "ess": [3, 2]
  },
  "score": {
    "mean": 10.199999999999999,
    "minus": 0.5,
    "plus": Infinity
  },
  "predictive": [
    {
      "p": 0.98999999999999999,
      "value": 4.9406564584124654e-324,
      "lo": 0,
      "hi": 10000000000000000
    }
  ],
  "draws": {
    "values": [
      [2.5, 0.10000000000000001],
      [2.5, 0.10000000000000001],
      [3, 0.33333333333333331]
    ],
    "chain_id": [0, 0, 1],
    "log_likelihood": [-0.0, -0.0, -1.0000000000000001e+300],
    "warmup": 2,
    "acceptance_rate": [0.5, 1]
  }
}
"""


def _bits(value):
    """A JSON value with each number replaced by the bytes of its double, so
    equal results mean the same keys in the same order and the same numbers
    bit for bit, sign of zero and NaN included."""
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return struct.pack("<d", value)
    return value


class TestReportRoundTrip:
    def test_lossless(self, small_report):
        text = report_to_json(small_report)
        back = report_from_json(text)
        assert back.family == small_report.family
        assert back.params == small_report.params
        assert back.score == small_report.score
        assert back.predictive == small_report.predictive
        assert back.obs == small_report.obs
        assert back.diag == small_report.diag
        np.testing.assert_array_equal(back.draws.draws,
                                      small_report.draws.draws)
        np.testing.assert_array_equal(back.draws.chain_id,
                                      small_report.draws.chain_id)
        np.testing.assert_array_equal(back.draws.log_likelihood,
                                      small_report.draws.log_likelihood)
        assert back.draws.acceptance_rate == small_report.draws.acceptance_rate

    def test_non_integer_n_survives(self, small_report):
        obs = QuantileObservation(q=small_report.obs.q, x=small_report.obs.x,
                                  n_total=100.5,
                                  scale_divisor=small_report.obs.scale_divisor)
        report = type(small_report)(**{**small_report.__dict__, "obs": obs})
        text = report_to_json(report)
        assert '"n_total": 100.5' in text
        assert report_from_json(text).obs == obs
        ranked, _, _ = ranking_from_json(ranking_to_json([report]))
        assert ranked[0].obs == obs

    def test_integral_n_is_written_as_an_int(self, small_report):
        assert '"n_total": 12918,' in report_to_json(small_report)

    def test_serialization_is_idempotent(self, small_report):
        text = report_to_json(small_report)
        assert report_to_json(report_from_json(text)) == text

    def test_nonfinite_values_survive(self, small_report):
        pd = small_report.draws
        ll = pd.log_likelihood.copy()
        ll[0] = -math.inf
        ll[1] = math.nan
        patched = type(pd)(draws=pd.draws, chain_id=pd.chain_id,
                           log_likelihood=ll, seed=pd.seed,
                           warmup=pd.warmup,
                           acceptance_rate=pd.acceptance_rate)
        report = type(small_report)(
            **{**small_report.__dict__, "draws": patched})
        back = report_from_json(report_to_json(report))
        assert back.draws.log_likelihood[0] == -math.inf
        assert math.isnan(back.draws.log_likelihood[1])

    def test_trimmed_report_has_null_draws(self, small_report):
        text = report_to_json(small_report.without_draws())
        assert json.loads(text)["draws"] is None
        assert report_from_json(text).draws is None

    def test_rejects_wrong_format(self, small_report):
        text = report_to_json(small_report).replace(
            "qmatch-report", "qmatch-banana")
        with pytest.raises(DataError, match="expected"):
            report_from_json(text)

    def test_rejects_bad_json_with_line(self):
        with pytest.raises(DataError, match="line 1"):
            report_from_json("{nope")

    def test_rejects_missing_field(self, small_report):
        payload = json.loads(report_to_json(small_report))
        del payload["score"]
        with pytest.raises(DataError, match="missing"):
            report_from_json(json.dumps(payload))

    def test_rejects_json_that_is_not_an_object(self):
        with pytest.raises(DataError, match="must be a JSON object"):
            report_from_json("[1, 2]")

    def test_rejects_an_unknown_version(self, small_report):
        payload = json.loads(report_to_json(small_report))
        payload["version"] = 9
        with pytest.raises(DataError, match="unsupported report version 9"):
            report_from_json(json.dumps(payload))

    def test_floats_printed_as_their_repr(self, small_report):
        text = report_to_json(small_report)
        p = small_report.params[0]
        assert f'"mean": {float(p.mean)!r}, "sd": {float(p.sd)!r},' in text

    @pytest.mark.parametrize("array,shape", [
        (np.array([1.5, math.nan, math.inf, -math.inf, 0.1, -0.0, 5e-324]),
         (7,)),
        (np.array([[1.0, math.nan], [math.inf, -2.5], [1e300, -1e-300]]),
         (3, 2)),
        (np.empty(0), (0,)),
        (np.empty((0, 2)), (0,)),   # JSON keeps no width without a row
        (np.empty((2, 0)), (2, 0)),
        (np.arange(5), (5,)),
        (np.array([], dtype=int), (0,)),
        (np.arange(6).reshape(2, 3), (2, 3)),
    ], ids=[f"array{i}" for i in range(8)])
    def test_numeric_arrays_emit_as_nested_lists(self, array, shape,
                                                 monkeypatch):
        # the report writer, given a body that holds only the array, at two
        # nesting depths
        monkeypatch.setattr(dataio, "_report_body",
                            lambda report: {"a": array, "b": {"c": array}})
        payload = json.loads(report_to_json(None))
        for back in (payload["a"], payload["b"]["c"]):
            assert np.shape(back) == shape
            assert _bits(back) == _bits(array.tolist())

    def test_old_indented_layout_reads_to_the_same_report(self):
        old = report_from_json(OLD_LAYOUT_REPORT)
        text = report_to_json(old)
        assert "\n" not in text[:-1]
        assert '"sigma_noise": 0.1,' in text
        new = report_from_json(text)
        assert _bits(json.loads(text)) == _bits(json.loads(OLD_LAYOUT_REPORT))
        for field in ("family", "likelihood_kind", "sigma_noise", "params",
                      "score", "predictive", "obs", "seed"):
            assert getattr(new, field) == getattr(old, field)
        assert new.params[1].q95 == 1 / 3
        assert new.predictive[0].value == 5e-324
        assert new.diag.r_hat[0] == 1.0 and math.isnan(new.diag.r_hat[1])
        assert new.diag.ess == old.diag.ess == (3.0, 2.0)
        for name in ("draws", "chain_id", "log_likelihood"):
            a, b = getattr(new.draws, name), getattr(old.draws, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert new.draws.acceptance_rate == old.draws.acceptance_rate
        assert math.copysign(1.0, new.draws.log_likelihood[0]) == -1.0

    def test_negative_zero_keeps_its_sign(self, small_report):
        pd = small_report.draws
        values = pd.draws.copy()
        values[0, 0] = -0.0
        ll = pd.log_likelihood.copy()
        ll[0] = -0.0
        patched = type(pd)(draws=values, chain_id=pd.chain_id,
                           log_likelihood=ll, seed=pd.seed,
                           warmup=pd.warmup,
                           acceptance_rate=(-0.0,) + pd.acceptance_rate[1:])
        report = type(small_report)(
            **{**small_report.__dict__, "draws": patched,
               "score": type(small_report.score)(-0.0, 0.0, 0.0)})
        back = report_from_json(report_to_json(report))
        for value in (back.draws.draws[0, 0], back.draws.log_likelihood[0],
                      back.draws.acceptance_rate[0], back.score.mean):
            assert value == 0.0 and math.copysign(1.0, value) == -1.0


class TestRankingRoundTrip:
    def test_rejects_missing_field(self, small_report):
        payload = json.loads(ranking_to_json([small_report]))
        del payload["best"]
        with pytest.raises(DataError, match="ranking is missing"):
            ranking_from_json(json.dumps(payload))

    def test_round_trip(self, small_report):
        other = type(small_report)(
            **{**small_report.__dict__, "family": "weibull",
               "params": small_report.params})
        text = ranking_to_json([small_report, other],
                               failures=[("frechet", "did not start")])
        reports, failures, best = ranking_from_json(text)
        assert best == "gamma"
        assert [r.family for r in reports] == ["gamma", "weibull"]
        assert failures == [("frechet", "did not start")]
        assert reports[0].score == small_report.score


class TestFit:
    def test_report_written_and_exit_matches_diagnostics(self, tmp_path,
                                                         el_csv, capsys):
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            ["fit", el_csv, "--family", "gamma", "--seed", "7",
             "--out", str(out)] + TINY, capsys)
        report = report_from_json(out.read_text())
        expected = 0 if all(r < 1.05 for r in report.diag.r_hat) else 2
        assert code == expected
        assert ("warning" in err) == (code == 2)
        assert report.family == "gamma"
        assert report.seed == 7

    @pytest.mark.parametrize("family", ["gamma", "chi_square"])
    def test_no_finite_start_names_the_ties_and_the_divisor(
            self, tmp_path, family, capsys):
        # quartiles of normal(1000, 1): this far from the origin, every
        # N(0, 1) start ties the three CDF values
        data = tmp_path / "far.csv"
        data.write_text("# meta: N=10000\nq,x\n0.25,999.3255\n0.5,1000\n"
                        "0.75,1000.6745\n")
        out = tmp_path / "report.json"
        argv = ["fit", str(data), "--family", family, "--out", str(out)]
        code, _, err = run_cli(argv + TINY, capsys)
        assert code == 1
        assert "failed to find a finite starting point" in err
        assert "every try tied the model's CDF values" in err
        assert "scale_divisor or --divisor" in err
        assert not out.exists()
        code, _, err = run_cli(argv + ["--divisor", "1000"] + TINY, capsys)
        assert code == 0, err
        assert report_from_json(out.read_text()).obs.scale_divisor == 1000.0

    def test_score_matches_published_value(self, el_report_path):
        report = report_from_json(open(el_report_path).read())
        assert report.score.mean == pytest.approx(10.2, abs=1.5)

    def test_gaussian_noise_flag_recorded(self, tmp_path, el_csv, capsys):
        out = tmp_path / "gn.json"
        code, _, _ = run_cli(
            ["fit", el_csv, "--family", "normal", "--likelihood", "gn",
             "--sigma-noise", "0.1", "--seed", "3", "--out", str(out)]
            + TINY, capsys)
        report = report_from_json(out.read_text())
        assert report.likelihood_kind == "gaussian_noise"
        assert report.sigma_noise == 0.1
        assert code in (0, 2)

    def test_single_chain_warns_and_exits_2(self, tmp_path, el_csv, capsys):
        out = tmp_path / "one.json"
        code, _, err = run_cli(
            ["fit", el_csv, "--family", "gamma", "--seed", "1",
             "--chains", "1", "--warmup", "300", "--samples", "150",
             "--out", str(out)], capsys)
        assert code == 2
        assert "single chain" in err

    def test_unknown_family_lists_choices(self, el_csv, capsys):
        code, _, err = run_cli(
            ["fit", el_csv, "--family", "zeta"], capsys)
        assert code == 1
        assert "invalid choice" in err
        assert "gamma" in err

    def test_unparseable_data_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# meta: N=50\nq,x\n0.25,1\n0.5,huh\n")
        code, _, err = run_cli(
            ["fit", str(bad), "--family", "gamma"] + TINY, capsys)
        assert code == 1
        assert ":4:" in err

    def test_missing_sample_size_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "non.csv"
        bad.write_text("q,x\n0.25,1\n0.75,2\n")
        code, _, err = run_cli(
            ["fit", str(bad), "--family", "gamma"] + TINY, capsys)
        assert code == 1
        assert "sample size" in err

    def test_stuck_short_warmup_names_the_remedy(self, tmp_path, el_csv,
                                                 capsys):
        # a one-step warmup that rejects its proposal never moved
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            ["fit", el_csv, "--family", "normal", "--warmup", "1",
             "--seed", "1", "--out", str(out)], capsys)
        assert code == 1 and not out.exists()
        assert "the sampler is stuck" in err
        assert "over a warmup of 1)" in err and "--warmup" in err

    def test_no_draws_trims_report(self, tmp_path, el_csv, capsys):
        out = tmp_path / "trim.json"
        run_cli(["fit", el_csv, "--family", "gamma", "--no-draws",
                 "--out", str(out)] + TINY, capsys)
        assert report_from_json(out.read_text()).draws is None


class TestCompare:
    def test_el_best_is_gamma(self, tmp_path, el_csv, capsys):
        out = tmp_path / "rank.json"
        code, _, _ = run_cli(
            ["compare", el_csv, "--families", "gamma,weibull,lognormal",
             "--seed", "7", "--no-draws", "--out", str(out)] + TINY, capsys)
        reports, failures, best = ranking_from_json(out.read_text())
        assert best == "gamma"
        assert failures == []
        means = [r.score.mean for r in reports]
        assert means == sorted(means, reverse=True)
        converged = all(r < 1.05 for rep in reports for r in rep.diag.r_hat)
        assert code == (0 if converged else 2)

    def test_single_family_is_trivially_best(self, tmp_path, el_csv, capsys):
        out = tmp_path / "one.json"
        code, _, _ = run_cli(
            ["compare", el_csv, "--families", "gamma", "--seed", "2",
             "--no-draws", "--out", str(out)] + TINY, capsys)
        reports, _, best = ranking_from_json(out.read_text())
        assert best == "gamma"
        assert len(reports) == 1
        assert code in (0, 2)

    def test_failed_family_recorded_and_exit_2(self, tmp_path, capsys):
        # negative data: normal fits, weibull cannot reach the support
        data = tmp_path / "neg.csv"
        data.write_text("# meta: N=50\nq,x\n0.4,-5\n0.6,-4\n")
        out = tmp_path / "rank.json"
        code, _, err = run_cli(
            ["compare", str(data), "--families", "normal,weibull",
             "--seed", "3", "--no-draws", "--out", str(out)] + TINY, capsys)
        assert code == 2
        reports, failures, best = ranking_from_json(out.read_text())
        assert best == "normal"
        assert [f for f, _ in failures] == ["weibull"]
        assert "weibull" in err

    def test_support_mismatch_names_family_support_and_x(self, tmp_path,
                                                         capsys):
        data = tmp_path / "straddle.csv"
        data.write_text("# meta: N=100\nq,x\n0.25,-0.5\n0.5,0.1\n0.75,0.8\n")
        out = tmp_path / "rank.json"
        code, _, err = run_cli(
            ["compare", str(data), "--families", "gamma,normal",
             "--seed", "3", "--no-draws", "--out", str(out)] + TINY, capsys)
        assert code == 2
        _, failures, best = ranking_from_json(out.read_text())
        assert best == "normal"
        assert [f for f, _ in failures] == ["gamma"]
        assert "gamma has support x > 0" in failures[0][1]
        assert "x = -0.5" in failures[0][1]
        assert "starting point" not in err

    def test_every_family_failing_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("# meta: N=50\nq,x\n0.4,-5\n0.6,-4\n")
        code, _, err = run_cli(
            ["compare", str(data), "--families", "weibull,gamma",
             "--seed", "3"] + TINY, capsys)
        assert code == 1
        assert "every family failed" in err

    def test_unknown_family_in_list(self, el_csv, capsys):
        code, _, err = run_cli(
            ["compare", el_csv, "--families", "gamma,zeta"], capsys)
        assert code == 1
        assert "unknown families: zeta" in err

    def test_repeated_family_is_input_error(self, el_csv, capsys):
        code, _, err = run_cli(
            ["compare", el_csv, "--families", "gamma,normal,gamma"], capsys)
        assert code == 1
        assert "--families repeats gamma" in err

    def test_empty_family_name_is_input_error(self, el_csv, capsys):
        code, _, err = run_cli(
            ["compare", el_csv, "--families", "gamma,"], capsys)
        assert code == 1
        assert "--families has an empty name: 'gamma,'" in err
        assert "unknown families" not in err

    @pytest.mark.parametrize("cores", [1, 9])
    def test_worker_count_does_not_change_bytes(self, tmp_path, el_csv,
                                                el_compare_reference, cores,
                                                capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        out = tmp_path / "all.json"
        code, _, _ = run_cli(
            ["compare", el_csv, "--families", "all", "--seed", "5",
             "--out", str(out)] + TINY, capsys)
        assert code in (0, 2)
        assert out.read_text() == el_compare_reference

    @pytest.mark.parametrize("affinity, cpus, workers", [
        ({0}, 2, 1),        # pinned to one of two CPUs
        ({0, 1, 2}, 8, 3),
        (None, 2, 2),       # no affinity API: every CPU counts
    ])
    def test_pool_is_sized_by_usable_cpus(self, tmp_path, el_csv, affinity,
                                          cpus, workers, capsys,
                                          monkeypatch):
        import concurrent.futures

        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: affinity, raising=False)
        code, _, _ = run_cli(
            ["compare", el_csv, "--families", "gamma,normal,lognormal,weibull",
             "--seed", "3", "--no-draws", "--out",
             str(tmp_path / "rank.json"), "--chains", "1", "--warmup", "50",
             "--samples", "20"], capsys)
        assert code in (0, 2)
        assert sizes == [workers]

    @pytest.mark.parametrize("dataset, families, flags, failed", [
        ("el", "all", [], []),
        ("el", "gamma,lognormal,cauchy", ["--no-draws"], []),
        # gamma cannot fit x <= 0, so the failures list is not empty
        ("straddle", "gamma,normal", [], ["gamma"]),
    ])
    def test_spliced_ranking_is_the_single_writers_bytes(
            self, tmp_path, el_csv, dataset, families, flags, failed,
            capsys):
        data = el_csv
        if dataset == "straddle":
            data = tmp_path / "straddle.csv"
            data.write_text("# meta: N=100\nq,x\n0.25,-0.5\n0.5,0.1\n"
                            "0.75,0.8\n")
        out = tmp_path / "rank.json"
        code, _, _ = run_cli(["compare", str(data), "--families", families,
                              "--seed", "6", "--out", str(out)]
                             + flags + TINY, capsys)
        assert code in (0, 2)
        text = out.read_text()
        reports, failures, _ = ranking_from_json(text)
        assert [f for f, _ in failures] == failed
        assert len(reports) + len(failures) == (
            9 if families == "all" else len(families.split(",")))
        assert all((r.draws is None) == bool(flags) for r in reports)
        assert ranking_to_json(reports, failures) == text
        assert json.dumps(json.loads(text)) + "\n" == text

    def test_no_worker_outlives_compare(self, tmp_path, el_csv, capsys):
        neg = tmp_path / "neg.csv"
        neg.write_text("# meta: N=50\nq,x\n0.4,-5\n0.6,-4\n")
        runs = [(el_csv, "gamma,lognormal", (0, 2)),
                (str(neg), "normal,weibull", (2,)),   # one failure recorded
                (str(neg), "weibull,gamma", (1,))]    # every family fails
        for data, families, codes in runs:
            code, _, _ = run_cli(
                ["compare", data, "--families", families, "--seed", "3",
                 "--no-draws", "--out", str(tmp_path / "rank.json")] + TINY,
                capsys)
            assert code in codes
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patch reaches workers only by fork")
    def test_dead_worker_fails_the_compare(self, tmp_path, el_csv, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "sample_posterior", exit_worker)
        out = tmp_path / "rank.json"
        code, _, err = run_cli(
            ["compare", el_csv, "--families", "all", "--seed", "3",
             "--out", str(out)] + TINY, capsys)
        assert code == 1
        assert "terminated abruptly" in err
        assert "failed" not in err and "warning" not in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_families_all_runs_every_family(self, tmp_path, el_csv, capsys):
        out = tmp_path / "all.json"
        code, _, _ = run_cli(
            ["compare", el_csv, "--families", "all", "--seed", "4",
             "--no-draws", "--out", str(out),
             "--chains", "2", "--warmup", "300", "--samples", "100"],
            capsys)
        reports, failures, _ = ranking_from_json(out.read_text())
        assert len(reports) + len(failures) == 9
        assert code in (0, 2)


class TestPredict:
    def test_top_percentile_matches_published(self, el_report_path, capsys):
        code, out, _ = run_cli(
            ["predict", el_report_path, "--p", "0.99"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "p,value,lo,hi"
        p, value, lo, hi = (float(v) for v in row.split(","))
        assert p == 0.99
        assert value == pytest.approx(23268.6, rel=0.03)
        assert lo <= value <= hi

    def test_divisor_override_scales_linearly(self, el_report_path, capsys):
        _, out1, _ = run_cli(
            ["predict", el_report_path, "--p", "0.9", "--divisor", "1"],
            capsys)
        _, out2, _ = run_cli(
            ["predict", el_report_path, "--p", "0.9", "--divisor", "7500"],
            capsys)
        v1 = float(out1.strip().splitlines()[1].split(",")[1])
        v2 = float(out2.strip().splitlines()[1].split(",")[1])
        assert v2 == v1 * 7500.0

    def test_multiple_ps_one_row_each(self, el_report_path, capsys):
        code, out, _ = run_cli(
            ["predict", el_report_path, "--p", "0.5,0.9,0.99"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        values = [float(r.split(",")[1]) for r in rows]
        assert values == sorted(values)

    def test_out_of_range_p_is_input_error(self, el_report_path, capsys):
        code, _, err = run_cli(
            ["predict", el_report_path, "--p", "1.5"], capsys)
        assert code == 1
        assert "p must lie" in err

    def test_report_without_draws_is_input_error(self, tmp_path,
                                                 small_report, capsys):
        path = tmp_path / "trimmed.json"
        path.write_text(report_to_json(small_report.without_draws()))
        code, _, err = run_cli(["predict", str(path)], capsys)
        assert code == 1
        assert "no embedded draws" in err

    def test_missing_report_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["predict", str(tmp_path / "gone.json")], capsys)
        assert code == 1

    def test_garbage_report_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{\"format\": \"other\"}")
        code, _, err = run_cli(["predict", str(path)], capsys)
        assert code == 1
        assert "expected" in err

    def test_predicting_from_reloaded_report_matches_library(
            self, el_report_path, capsys):
        from qmatch.predictive import predictive_quantile
        report = report_from_json(open(el_report_path).read())
        pq = predictive_quantile(report.draws, report.family, 0.99,
                                 report.obs.scale_divisor)
        _, out, _ = run_cli(["predict", el_report_path, "--p", "0.99"],
                            capsys)
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pq.value


class TestSimulate:
    def test_default_layout_matches_experiment_setup(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            ["simulate", "--dist", "normal", "--params", "3,1.5",
             "--n", "200", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        obs = read_dataset(out)
        assert obs.n_total == 200
        np.testing.assert_allclose(obs.q, np.linspace(0.05, 0.95, 10))
        assert all(a < b for a, b in zip(obs.x, obs.x[1:]))

    def test_cauchy_generator_for_misspecification_study(self, tmp_path,
                                                         capsys):
        out = tmp_path / "cauchy.csv"
        code, _, _ = run_cli(
            ["simulate", "--dist", "cauchy", "--params", "3,1.5",
             "--n", "200", "--seed", "11", "--out", str(out)], capsys)
        assert code == 0
        assert read_dataset(out).m == 10

    def test_same_seed_same_bytes(self, capsys):
        args = ["simulate", "--dist", "weibull", "--params", "2,1",
                "--n", "50", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_out_in_a_missing_directory_is_input_error(self, tmp_path,
                                                      capsys):
        code, out, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "3,1.5",
             "--n", "200", "--out", str(tmp_path / "missing" / "sim.csv")],
            capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_wrong_arity_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "3",
             "--n", "100"], capsys)
        assert code == 1

    def test_decreasing_range_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,1",
             "--n", "100", "--quantiles", "0.9:0.1:5"], capsys)
        assert code == 1

    def test_malformed_range_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,1",
             "--n", "100", "--quantiles", "0.1-0.9-5"], capsys)
        assert code == 1
        assert "a:b:M" in err

    @pytest.mark.parametrize("quantiles,message", [
        ("a:0.9:5", "numeric a, b and integer M"),
        ("0.1:0.9:2.5", "numeric a, b and integer M"),
        ("0.1:0.9:0", "needs M >= 1, got 0"),
        ("0.1:0.9:1", "M=1 needs a == b"),
    ], ids=["non-numeric", "non-integer-M", "M=0", "M=1"])
    def test_bad_quantile_range_is_input_error(self, quantiles, message,
                                               capsys):
        code, out, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,1",
             "--n", "100", "--quantiles", quantiles], capsys)
        assert code == 1 and out == ""
        assert message in err

    def test_non_numeric_params_is_input_error(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,one",
             "--n", "100"], capsys)
        assert code == 1 and out == ""
        assert "--params expects comma-separated numbers" in err

    def test_rank_below_one_is_input_error(self, capsys):
        # q*N < 1 has no realized order statistic to read off
        code, _, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,1",
             "--n", "10", "--quantiles", "0.05:0.95:10"], capsys)
        assert code == 1
        assert "order statistics" in err


class TestCurves:
    def test_penalty_columns_match_library(self, capsys):
        code, out, _ = run_cli(
            ["curves", "--mode", "penalty", "--dist", "normal",
             "--params", "0,1", "--n", "1000", "--points", "401"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()]
        assert rows[0] == ["x", "os_0.1", "gn_0.1", "os_0.01", "gn_0.01",
                           "os_0.001", "gn_0.001"]
        data = np.asarray([[float(v) for v in r] for r in rows[1:]])
        d = dist("normal", 0.0, 1.0)
        grid = np.linspace(d.quantile(1e-6), d.quantile(1 - 1e-6), 401)
        np.testing.assert_allclose(data[:, 0], grid, rtol=1e-15)
        os_curve, gn_curve = penalty_curves(d, 0.01, 1000.0, grid)
        np.testing.assert_allclose(data[:, 3], os_curve, rtol=1e-15)
        np.testing.assert_allclose(data[:, 4], gn_curve, rtol=1e-15)

    def test_penalty_curve_of_a_density_diverging_at_zero(self, capsys):
        # gamma shape 0.5 has F ~ C x^0.5 at x = 0, so F^{k-1} f ~ x^{k/2-1}
        # there: 0 for k = qN = 50 and 5; +inf for k = 0.5, leaving 1 at
        # x = 0 and 0 elsewhere
        code, out, _ = run_cli(
            ["curves", "--mode", "penalty", "--dist", "gamma",
             "--params", "0.5,1", "--n", "500", "--x-range", "0:5"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        data = np.asarray([[float(v) for v in r] for r in rows])
        x = data[:, 0]
        assert data.shape == (2001, 7) and x[0] == 0.0
        d = dist("gamma", 0.5, 1.0)
        for col, q in ((1, 0.1), (3, 0.01)):
            k = q * 500.0
            log_os = np.array([(k - 1.0) * math.log(d.cdf(v))
                               + (500.0 - k) * math.log1p(-d.cdf(v))
                               + d.log_pdf(v) for v in x[1:]])
            assert data[0, col] == 0.0
            np.testing.assert_allclose(data[1:, col],
                                       np.exp(log_os - log_os.max()),
                                       rtol=1e-9, atol=1e-300)
        # q = 0.1 peaks next to F^-1(0.1) = 0.0079, not at the edge
        assert x[data[:, 1].argmax()] == 0.0075
        assert data[0, 5] == 1.0 and not data[1:, 5].any()
        for col, q in ((2, 0.1), (4, 0.01), (6, 0.001)):
            _, gn_curve = penalty_curves(d, q, 500.0, x)
            np.testing.assert_array_equal(data[:, col], gn_curve)

    def test_penalty_threshold_behavior_at_f_over_ten(self, capsys):
        # probing each curve at the x where F(x) = q/10: the os curve has
        # fallen below 0.05 of its peak for q in {0.1, 0.01} but still
        # carries about 0.29 at q = 0.001; the noise curve stays above 0.5
        # once q/10 is within a fraction of sigma of q, and in every case
        # dominates the os value by orders of magnitude
        code, out, _ = run_cli(
            ["curves", "--mode", "penalty", "--dist", "normal",
             "--params", "0,1", "--n", "1000", "--points", "24001",
             "--x-range=-6:6"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        data = np.asarray([[float(v) for v in r] for r in rows])
        d = dist("normal", 0.0, 1.0)
        for col_os, col_gn, q in ((1, 2, 0.1), (3, 4, 0.01), (5, 6, 0.001)):
            i = int(np.argmin(np.abs(data[:, 0] - d.quantile(q / 10.0))))
            if q in (0.1, 0.01):
                assert data[i, col_os] < 0.05
            else:
                assert data[i, col_os] == pytest.approx(0.288, abs=0.05)
            if q == 0.1:
                # |F - q| = 0.09 is 1.8 sigma out, so the noise likelihood
                # dips too, but it stays finite while the os mass vanishes
                assert data[i, col_gn] == pytest.approx(0.198, abs=0.01)
                assert data[i, col_os] < 1e-30
            else:
                assert data[i, col_gn] > 0.5

    def test_predictive_mode_passes_through_observed_points(
            self, el_report_path, capsys):
        code, out, _ = run_cli(
            ["curves", "--mode", "predictive", "--report", el_report_path,
             "--points", "801"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()]
        assert rows[0] == ["x", "mean", "lo", "hi"]
        data = np.asarray([[float(v) for v in r] for r in rows[1:]])
        assert np.all(np.diff(data[:, 1]) >= 0.0)
        report = report_from_json(open(el_report_path).read())
        for q, x in zip(report.obs.q, report.obs.x):
            at_x = np.interp(x, data[:, 0], data[:, 1])
            assert at_x == pytest.approx(q, abs=0.02)

    def test_predictive_mode_takes_the_x_range(self, el_report_path,
                                               capsys):
        code, out, _ = run_cli(
            ["curves", "--mode", "predictive", "--report", el_report_path,
             "--x-range", "0.5:3", "--points", "11"], capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()]
        assert rows[0] == ["x", "mean", "lo", "hi"]
        assert [float(r[0]) for r in rows[1:]] == np.linspace(
            0.5, 3.0, 11).tolist()

    def test_ensemble_mode_shape(self, capsys):
        code, out, _ = run_cli(
            ["curves", "--mode", "ensemble", "--dist", "normal",
             "--params", "0,1", "--n", "20", "--reps", "5", "--seed", "1"],
            capsys)
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()]
        header = [float(v) for v in rows[0]]
        np.testing.assert_allclose(header, np.arange(1, 21) / 20.0)
        assert len(rows) == 6
        for row in rows[1:]:
            values = [float(v) for v in row]
            assert len(values) == 20
            assert values == sorted(values)

    @pytest.mark.parametrize("argv", [
        ["curves", "--mode", "penalty", "--dist", "normal",
         "--params", "0,1", "--n", "10", "--report", "r.json"],
        ["curves", "--mode", "predictive", "--report", "r.json",
         "--dist", "normal"],
        ["curves", "--mode", "ensemble", "--dist", "normal",
         "--params", "0,1", "--n", "10", "--q", "0.5"],
    ])
    def test_contradictory_flags_are_input_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "does not apply" in err

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "n must be >= 1"),
        (["--n", "-5"], "n must be >= 1"),
        (["--n", "100", "--sigma-noise", "0"], "sigma_noise must be positive"),
        (["--n", "100", "--sigma-noise", "-0.05"],
         "sigma_noise must be positive"),
        (["--n", "100", "--x-range=0:1:2"], "--x-range expects lo:hi"),
        (["--n", "100", "--x-range=0:big"], "--x-range expects numeric"),
        (["--n", "100", "--x-range=2:1"], "--x-range needs lo < hi"),
        (["--n", "100", "--x-range=1:1"], "--x-range needs lo < hi"),
    ], ids=["n=0", "n=-5", "sigma=0", "sigma=-0.05", "x-range-arity",
            "x-range-non-numeric", "x-range-lo>hi", "x-range-lo=hi"])
    def test_impossible_penalty_inputs_are_input_errors(self, flags, message,
                                                        capsys):
        code, out, err = run_cli(
            ["curves", "--mode", "penalty", "--dist", "normal",
             "--params", "0,1"] + flags, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("mode_flags", [
        ["--mode", "penalty", "--dist", "normal", "--params", "0,1",
         "--n", "1000"],
        ["--mode", "predictive", "--report", "r.json"],
    ], ids=["penalty", "predictive"])
    def test_points_below_one_is_input_error(self, mode_flags, points,
                                             capsys):
        # checked before the report is read, so r.json need not exist
        code, out, err = run_cli(
            ["curves"] + mode_flags + ["--points", points], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --points must be at least 1, got {points}\n"

    def test_missing_required_flag_is_input_error(self, capsys):
        code, _, err = run_cli(
            ["curves", "--mode", "penalty", "--dist", "normal",
             "--params", "0,1"], capsys)
        assert code == 1
        assert "requires" in err


class TestDeterminism:
    def test_fit_reruns_are_byte_identical(self, tmp_path, el_csv):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            subprocess.run(
                [sys.executable, "-m", "qmatch.cli", "fit", el_csv,
                 "--family", "gamma", "--seed", "7", "--out", str(out)]
                + TINY,
                check=False, capture_output=True, env=src_env())
        assert filecmp.cmp(*outs, shallow=False)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_compare_all_reruns_are_byte_identical(self, tmp_path, el_csv):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            subprocess.run(
                [sys.executable, "-m", "qmatch.cli", "compare", el_csv,
                 "--families", "all", "--seed", "7", "--out", str(out),
                 "--chains", "2", "--warmup", "200", "--samples", "100"],
                check=False, capture_output=True, env=src_env())
        assert len(ranking_from_json(outs[0].read_text())[0]) == 9
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_env_seed_fallback_matches_explicit_flag(self, tmp_path, el_csv,
                                                     capsys, monkeypatch):
        args = ["simulate", "--dist", "normal", "--params", "0,1",
                "--n", "60"]
        monkeypatch.setenv("QMATCH_SEED", "123")
        _, via_env, _ = run_cli(args, capsys)
        monkeypatch.delenv("QMATCH_SEED")
        _, via_flag, _ = run_cli(args + ["--seed", "123"], capsys)
        assert via_env == via_flag

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QMATCH_SEED", "123")
        args = ["simulate", "--dist", "normal", "--params", "0,1",
                "--n", "60", "--seed", "9"]
        _, with_env, _ = run_cli(args, capsys)
        monkeypatch.delenv("QMATCH_SEED")
        _, without, _ = run_cli(args, capsys)
        assert with_env == without

    def test_unset_env_means_seed_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("QMATCH_SEED", raising=False)
        args = ["simulate", "--dist", "normal", "--params", "0,1",
                "--n", "60"]
        _, default, _ = run_cli(args, capsys)
        _, explicit, _ = run_cli(args + ["--seed", "0"], capsys)
        assert default == explicit

    @pytest.mark.parametrize("command", [
        ["fit", None, "--family", "normal"] + TINY,
        ["simulate", "--dist", "normal", "--params", "0,1", "--n", "60"],
        ["curves", "--mode", "ensemble", "--dist", "normal", "--params",
         "0,1", "--n", "20"]])
    def test_negative_seed_is_named_input_error(self, command, el_csv,
                                                capsys, monkeypatch):
        # named at the flag or the variable that gave it, for each command
        # that seeds a generator
        command = [el_csv if v is None else v for v in command]
        monkeypatch.delenv("QMATCH_SEED", raising=False)
        code, out, err = run_cli(command + ["--seed", "-1"], capsys)
        assert (code, out) == (1, "")
        assert "--seed must be an integer >= 0, got -1" in err
        monkeypatch.setenv("QMATCH_SEED", "-1")
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (1, "")
        assert "QMATCH_SEED must be an integer >= 0, got -1" in err

    def test_bad_env_seed_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QMATCH_SEED", "many")
        code, _, err = run_cli(
            ["simulate", "--dist", "normal", "--params", "0,1",
             "--n", "60"], capsys)
        assert code == 1
        assert "QMATCH_SEED" in err

    def test_closed_stdout_pipe_is_not_an_error(self):
        # | head closing early must not produce error text on stderr
        cmd = (f"{sys.executable} -m qmatch.cli curves --mode penalty "
               f"--dist normal --params 0,1 --n 1000 | head -2")
        r = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                           env=src_env())
        assert r.stderr == ""
        assert len(r.stdout.splitlines()) == 2
