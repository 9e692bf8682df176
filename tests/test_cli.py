import argparse
import hashlib
import json
import math
import subprocess
import sys
import warnings
from io import BytesIO, TextIOWrapper
from pathlib import Path

import pytest

from propaux import io, montecarlo, theory
from propaux.cli import build_parser, main
from propaux.config import TbConfig
from propaux.estimators import EstimatorConfig, evaluate
from propaux.io import read_population_csv, write_params_json, ParamsDocument
from propaux.population import compute_population_params, sample_stats

from _oracles import REF
from conftest import checkout_env

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def ref_params_path(tmp_path):
    path = tmp_path / "params.json"
    write_params_json(path, ParamsDocument.from_dict(dict(REF)))
    return path


@pytest.fixture
def pop_csv(tmp_path):
    path = tmp_path / "pop.csv"
    rows = ["phi,x"]
    values = [(1, 22.0), (1, 16.0), (0, 12.0), (0, 9.0), (1, 18.0), (0, 8.0),
              (1, 20.0), (0, 10.0), (1, 14.0), (0, 11.0), (1, 25.0), (0, 7.5)]
    rows += [f"{phi},{x}" for phi, x in values]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestParamsCommand:
    def test_params_pipeline(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "params.json"
        assert main(["params", "--input", str(pop_csv), "--n", "5",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["provenance"] == "computed-from-frame"
        assert data["n"] == 5
        assert data["n_population"] == 12

    def test_census_default(self, pop_csv, tmp_path):
        out = tmp_path / "params.json"
        assert main(["params", "--input", str(pop_csv), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 12


class TestTheoryCommand:
    def test_writes_report(self, ref_params_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["theory", "--params", str(ref_params_path),
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tool"] == "propaux"
        names = [e["name"] for e in doc["theory"]["entries"]]
        assert names[:3] == ["p", "ta", "tb"]
        assert doc["comparison_conditions"][0]["holds"] is True

    def test_census_reports_no_pre(self, pop_csv, tmp_path):
        params = tmp_path / "census.json"
        assert main(["params", "--input", str(pop_csv), "--output", str(params)]) == 0
        out = tmp_path / "report.json"
        assert main(["theory", "--params", str(params), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        for entry in doc["theory"]["entries"]:
            assert entry["mse"] == 0.0
            assert entry["pre"] is None

    def test_transform_flags(self, ref_params_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["theory", "--params", str(ref_params_path),
                     "--tc", "a=1,b=0.5,alpha=1,beta=1",
                     "--t3", "gamma=0.5,g=1,delta=1",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["configurations"]["tc"]["b"] == 0.5
        assert doc["configurations"]["t3_gamma"] == 0.5

    @pytest.mark.parametrize("flags, label", [
        ([], "tc_min_mse: "),
        (["--tc", "q1=1,q2=0"], "tc_mse: "),
        (["--tc", "q2=0"], "tc_mse: "),
    ], ids=("free", "fixed", "half-fixed"))
    def test_tc_row_quotes_the_mse_it_reports(self, ref_params_path, tmp_path, flags, label):
        # free weights report the family minimum; a fixed weight reports the
        # quadratic form at the given weights, and names that form
        out = tmp_path / "report.json"
        assert main(["theory", "--params", str(ref_params_path), *flags,
                     "--output", str(out)]) == 0
        entries = json.loads(out.read_text())["theory"]["entries"]
        tc = next(entry for entry in entries if entry["name"] == "tc")
        assert tc["formulas"]["mse"].startswith(label)


class TestPreCommand:
    def test_table_prints_regression_cell(self, ref_params_path, capsys):
        assert main(["pre", "--params", str(ref_params_path)]) == 0
        out = capsys.readouterr().out
        assert "511.79" in out
        assert "t3(g=1,d=1)" in out

    def test_csv_format(self, ref_params_path, capsys):
        import csv as csvmod
        import io as iomod
        assert main(["pre", "--params", str(ref_params_path), "--format", "csv"]) == 0
        header, cells = list(csvmod.reader(iomod.StringIO(capsys.readouterr().out)))
        assert header == ["p", "ta", "tb", "tc", "t1", "t2",
                          "t3(g=1,d=1)", "t3(g=1,d=-1)", "t3(g=0,d=1)"]
        assert cells[0] == "100.00"
        assert cells[2] == "511.79"

    def test_json_format(self, ref_params_path, capsys):
        assert main(["pre", "--params", str(ref_params_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 100.0
        assert payload["tb"] == pytest.approx(511.79, abs=0.05)

    def test_census_prints_dashes(self, pop_csv, tmp_path, capsys):
        params = tmp_path / "census.json"
        main(["params", "--input", str(pop_csv), "--output", str(params)])
        assert main(["pre", "--params", str(params)]) == 0
        assert "—" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ("table", "csv"))
    def test_census_on_an_ascii_stdout_is_one_error_line(self, capsys, monkeypatch, fmt):
        # the census cells are dashes; nothing of the table reaches a stdout
        # that cannot encode them
        stdout = TextIOWrapper(BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["pre", "--params", str(GOLDEN / "params.json"), "--format", fmt]) == 2
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        err = capsys.readouterr().err
        assert err.startswith("error: 'ascii' codec can't encode character '\\u2014'"), err
        assert err.count("\n") == 1

    def test_output_is_deterministic(self, ref_params_path, capsys):
        main(["pre", "--params", str(ref_params_path)])
        first = capsys.readouterr().out
        main(["pre", "--params", str(ref_params_path)])
        assert capsys.readouterr().out == first


class TestEstimateCommand:
    def test_inline_indices(self, pop_csv, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,1,2,3",
                     "--estimator", "ta"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["sample"]
        assert payload["estimator"] == "ta"
        assert payload["value"] == pytest.approx(
            stats["p"] * 14.375 / stats["xbar_s"], rel=1e-12)

    def test_indices_file(self, pop_csv, tmp_path, capsys):
        idx = tmp_path / "indices.txt"
        idx.write_text("0\n1\n4\n")
        assert main(["estimate", "--input", str(pop_csv), "--indices", str(idx),
                     "--estimator", "usual"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1.0, rel=1e-15)

    def test_estimator_specific_flags(self, pop_csv, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,1,2,3",
                     "--estimator", "t3",
                     "--t3", "gamma=1,g=1,delta=1,m1=0.5,m2=0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config_used"]["t3"]["m1"] == 0.5

    def test_unparsable_indices_are_data_error(self, pop_csv, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,a,2",
                     "--estimator", "usual"]) == 2
        assert "cannot parse sample indices from '0,a,2'" in capsys.readouterr().err

    def test_empty_indices_are_text(self, pop_csv, capsys):
        # ``Path('')`` is the working directory, which is no index file
        assert main(["estimate", "--input", str(pop_csv), "--indices", "",
                     "--estimator", "ta"]) == 2
        assert capsys.readouterr().err == (
            "error: a sample needs at least 2 distinct indices\n")

    def test_directory_indices_are_text(self, pop_csv, tmp_path, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", str(tmp_path),
                     "--estimator", "ta"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot parse sample indices from {str(tmp_path)!r}\n")

    def test_indices_file_that_is_not_utf8(self, pop_csv, tmp_path, capsys):
        idx = tmp_path / "indices.txt"
        idx.write_bytes(b"0,1\xff,2")
        assert main(["estimate", "--input", str(pop_csv), "--indices", str(idx),
                     "--estimator", "usual"]) == 2
        assert capsys.readouterr().err == (
            f"error: line 1: {idx} is not valid UTF-8 (invalid start byte)\n")

    def _estimate(self, pop_csv, capsys, kind, *flags) -> dict:
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,2,3,5,8",
                     "--estimator", kind, *flags]) == 0
        return json.loads(capsys.readouterr().out)

    def test_t1_flag_at_alpha_1_beta_0_gives_ta(self, pop_csv, capsys):
        ta = self._estimate(pop_csv, capsys, "ta")
        t1 = self._estimate(pop_csv, capsys, "t1", "--t1", "alpha=1,beta=0")
        assert t1["config_used"] == {"kind": "t1", "t1": {"alpha": 1.0, "beta": 0.0}}
        assert t1["value"].hex() == ta["value"].hex()

    def test_t2_flag_at_tb_slope_and_h2_0_gives_tb(self, pop_csv, capsys):
        tb = self._estimate(pop_csv, capsys, "tb")
        h1 = tb["config_used"]["tb"]["h1"]
        t2 = self._estimate(pop_csv, capsys, "t2", "--t2", f"h1={h1!r},h2=0")
        assert t2["config_used"] == {"kind": "t2", "t2": {"h1": h1, "h2": 0.0}}
        assert t2["value"].hex() == tb["value"].hex()

    def test_flag_for_wrong_estimator_is_usage_error(self, pop_csv, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,1",
                     "--estimator", "ta", "--t3", "gamma=1"]) == 1

    def test_tb_flag_sets_the_slope(self, pop_csv, capsys):
        frame = read_population_csv(pop_csv)
        expected = evaluate(sample_stats(frame, [0, 2, 3, 5, 8]),
                            compute_population_params(frame),
                            EstimatorConfig(kind="tb", params=TbConfig(h1=0.1)))
        tb = self._estimate(pop_csv, capsys, "tb", "--tb", "h1=0.1")
        assert tb["value"].hex() == expected.value.hex()
        assert tb["config_used"] == {"kind": "tb", "tb": {"h1": 0.1}}
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,2,3,5,8",
                     "--estimator", "t1", "--tb", "h1=0.1"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --tb does not apply to estimator 't1'\n")


class TestSimulateCommand:
    def test_seeded_reports_are_byte_identical(self, pop_csv, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["simulate", "--input", str(pop_csv), "--n", "6",
                         "--reps", "300", "--seed", "42",
                         "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_structure(self, pop_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", "--input", str(pop_csv), "--n", "6",
                     "--reps", "200", "--seed", "1",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        sim = doc["simulation"]
        assert sim["replicates"] == 200
        assert {row["name"] for row in sim["rows"]} == {
            "p", "ta", "tb", "tc", "t1", "t2", "t3"}

    def test_census_ratio_is_null(self, tmp_path):
        # a census has mse = theory_mse = 0, so no ratio; the report is strict JSON
        pop, out = tmp_path / "pop.csv", tmp_path / "sim.json"
        assert main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        assert main(["simulate", "--input", str(pop), "--n", "40", "--reps", "100",
                     "--seed", "1", "--output", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=refuse)["simulation"]["rows"]
        assert len(rows) == 7
        for row in rows:
            assert row["theory_mse"] == 0.0 and row["ratio"] is None, row

    def test_negative_tc_theory_mse_has_no_ratio(self, tmp_path):
        # tc's first-order MSE at given weights is not checked for sign (near its
        # optimum weights here); the row reports it, with no ratio, as strict JSON
        pop, out = tmp_path / "pop.csv", tmp_path / "sim.json"
        assert main(["generate", "--size", "40", "--seed", "1", "--output", str(pop)]) == 0
        assert main(["simulate", "--input", str(pop), "--n", "5", "--reps", "200", "--seed",
                     "1", "--tc", "alpha=5,q1=4.771,q2=-13.907579", "--output", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        rows = json.loads(out.read_text(), parse_constant=refuse)["simulation"]["rows"]
        tc = next(row for row in rows if row["name"] == "tc")
        assert tc["theory_mse"] < 0.0 and tc["ratio"] is None and tc["failures"] == 0

    def test_workers_flag_is_rejected(self, pop_csv, tmp_path):
        assert main(["simulate", "--input", str(pop_csv), "--n", "6",
                     "--reps", "200", "--seed", "1", "--workers", "2",
                     "--output", str(tmp_path / "r.json")]) == 1


class TestGenerateCommand:
    def test_generate_then_estimate(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "80", "--seed", "9",
                     "--output", str(out)]) == 0
        assert main(["estimate", "--input", str(out), "--indices",
                     "0,1,2,3,4,5,6,7", "--estimator", "t1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["sample"]["p"] <= 1.0

    def test_generate_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--size", "50", "--seed", "13", "--output", str(a)])
        main(["generate", "--size", "50", "--seed", "13", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"aux_shape": "symmetric", "aux_location": 10.0,
                                    "aux_scale": 1.0, "link_intercept": -20.0,
                                    "link_slope": 2.0}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 0

    def test_spec_with_unknown_key_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"target_rho": 0.65}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 2
        assert "target_rho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("link_slope", "x"), ("link_intercept", None), ("aux_location", [1.0]),
        ("aux_scale", "wide"), ("link_slope", 1e999), ("max_retries", "3"),
        ("max_retries", 2.5), ("max_retries", 0), ("max_retries", True),
        ("max_retries", 1001), ("max_retries", 10**20), ("aux_scale", 0),
    ])
    def test_spec_with_bad_number_is_data_error(self, tmp_path, capsys, field, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: value}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_spec_at_the_retry_cap_is_accepted(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"max_retries": 1000}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 0

    def test_spec_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"aux_scale": 1.0}]))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_with_size_key_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"size": 5}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 2
        assert "--size" in capsys.readouterr().err
        assert not out.exists()


class TestSensitivityCommand:
    def test_writes_intervals(self, ref_params_path, tmp_path):
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--params", str(ref_params_path),
                     "--digits", "3", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = {row["name"]: row for row in doc["sensitivity"]["intervals"]}
        assert rows["tb"]["high"] - rows["tb"]["low"] < 5.0
        assert rows["t3(g=1,d=1)"]["low"] <= rows["t3(g=1,d=1)"]["point"]

    def test_fixed_tc_weights_are_scanned(self, ref_params_path, tmp_path):
        # q1=1, q2=0 is the plain ratio estimator; pre prints 189.21 for it
        out = tmp_path / "sens.json"
        assert main(["sensitivity", "--params", str(ref_params_path), "--digits", "3",
                     "--tc", "q1=1,q2=0", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = {row["name"]: row for row in doc["sensitivity"]["intervals"]}
        assert f"{rows['tc']['point']:.2f}" == "189.21"


def _run_piped(argv: list[str], data: bytes) -> subprocess.CompletedProcess:
    """``propaux`` in a fresh interpreter from this checkout, ``data`` on stdin."""
    return subprocess.run([sys.executable, "-m", "propaux.cli", *argv], env=checkout_env(),
                          input=data, capture_output=True, timeout=120)


class TestPipedInput:
    """A report read from a pipe names the bytes it parsed, read once."""

    @pytest.mark.parametrize("command", [["theory"], ["sensitivity", "--digits", "3"]])
    def test_params_on_stdin(self, ref_params_path, tmp_path, command):
        data, out = ref_params_path.read_bytes(), tmp_path / "out.json"
        done = _run_piped([*command, "--params", "/dev/stdin", "--output", str(out)], data)
        assert (done.returncode, done.stderr) == (0, b"")
        assert json.loads(out.read_text())["input_digest"] == hashlib.sha256(data).hexdigest()
        # the same report as from the file itself
        from_file = tmp_path / "file.json"
        assert main([*command, "--params", str(ref_params_path), "--output", str(from_file)]) == 0
        assert out.read_bytes() == from_file.read_bytes()

    def test_simulate_on_a_piped_csv(self, pop_csv, tmp_path):
        # a canonical CSV on a pipe keeps off numpy's C reader, which would
        # open /dev/stdin again, read nothing and warn
        data, out = pop_csv.read_bytes(), tmp_path / "sim.json"
        argv = ["--n", "6", "--reps", "200", "--seed", "1"]
        done = _run_piped(["simulate", "--input", "/dev/stdin", *argv, "--output", str(out)], data)
        assert (done.returncode, done.stderr) == (0, b"")
        assert json.loads(out.read_text())["input_digest"] == hashlib.sha256(data).hexdigest()
        from_file = tmp_path / "file.json"
        assert main(["simulate", "--input", str(pop_csv), *argv, "--output", str(from_file)]) == 0
        assert out.read_bytes() == from_file.read_bytes()

    def test_pre_on_stdin(self, ref_params_path, capsys):
        done = _run_piped(["pre", "--params", "/dev/stdin"], ref_params_path.read_bytes())
        assert (done.returncode, done.stderr) == (0, b"")
        assert main(["pre", "--params", str(ref_params_path)]) == 0
        assert done.stdout.decode() == capsys.readouterr().out

    def test_params_on_a_piped_csv(self, pop_csv, tmp_path):
        out, from_file = tmp_path / "piped.json", tmp_path / "file.json"
        done = _run_piped(["params", "--input", "/dev/stdin", "--output", str(out)],
                          pop_csv.read_bytes())
        assert (done.returncode, done.stderr) == (0, b"")
        assert main(["params", "--input", str(pop_csv), "--output", str(from_file)]) == 0
        assert out.read_bytes() == from_file.read_bytes()


#: Each command with one input file, ``{params}`` a parameter document,
#: ``{frame}`` a population CSV or ``{spec}`` a generator spec: its argv, the
#: one public reader that parses the file, and which file it is.
ONE_ROUTE = {
    "theory": (["theory", "--params", "{params}", "--output", "{out}"],
               "read_params_json", "params"),
    "sensitivity": (["sensitivity", "--params", "{params}", "--digits", "3",
                     "--output", "{out}"], "read_params_json", "params"),
    "pre": (["pre", "--params", "{params}"], "read_params_json", "params"),
    "simulate": (["simulate", "--input", "{frame}", "--n", "6", "--reps", "100", "--seed", "1",
                  "--output", "{out}"], "read_population_csv", "frame"),
    "params": (["params", "--input", "{frame}", "--output", "{out}"],
               "read_population_csv", "frame"),
    "estimate": (["estimate", "--input", "{frame}", "--indices", "0,3,5", "--estimator", "ta"],
                 "read_population_csv", "frame"),
    "generate": (["generate", "--size", "20", "--seed", "1", "--spec", "{spec}",
                  "--output", "{out}"], "read_json", "spec"),
}


@pytest.mark.parametrize("name", ONE_ROUTE)
def test_every_command_parses_through_the_public_readers(name, ref_params_path, pop_csv,
                                                        tmp_path, monkeypatch):
    """One call of one public ``io`` reader per input file, counted where a
    reader is not called from inside another (``read_params_json`` parses
    through ``read_json``)."""
    calls, depth = [], [0]
    for reader in ("read_population_csv", "read_params_json", "read_json"):
        def spy(path, *args, real=getattr(io, reader), reader=reader):
            if not depth[0]:
                calls.append((reader, str(path)))
            depth[0] += 1
            try:
                return real(path, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(io, reader, spy)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"aux_scale": 0.5}))
    paths = {"params": str(ref_params_path), "frame": str(pop_csv), "spec": str(spec),
             "out": str(tmp_path / "out")}
    argv, reader, source = ONE_ROUTE[name]
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert calls == [(reader, paths[source])]


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["pre", "--bogus", "x"]) == 1

    def test_usage_error_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["pre", "--params", str(tmp_path / "absent.json")]) == 2

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("phi,x\n3,1.0\n")
        out = tmp_path / "o.json"
        assert main(["params", "--input", str(bad), "--output", str(out)]) == 2

    def test_negative_simulate_seed_is_data_error(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["simulate", "--input", str(pop_csv), "--n", "6", "--reps", "200",
                     "--seed", "-1", "--output", str(out)]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_generate_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "20", "--seed", "-5",
                     "--output", str(out)]) == 2
        assert "seed must be a non-negative integer, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_error_exit_code(self, tmp_path):
        # a symmetric two-point auxiliary marginal has zero moment gap and
        # lambda12 = rho_pb*lambda03 = 0: a realizable document whose
        # optimal exponents do not exist
        data = dict(REF, lambda03=0.0, lambda04=1.0, lambda12=0.0)
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o.json"
        assert main(["theory", "--params", str(path), "--output", str(out)]) == 3

    def test_impossible_singular_moments_are_data_error(self, tmp_path, capsys):
        # zero moment gap ties sx2_s to xbar_s, so lambda12 must equal
        # rho_pb*lambda03 = 0; -0.118 leaves an eigenvalue of -0.049
        data = dict(REF, lambda03=0.0, lambda04=1.0)
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / "o.json")
        assert main(["theory", "--params", str(path), "--output", out]) == 2
        assert main(["sensitivity", "--params", str(path), "--digits", "3",
                     "--output", out]) == 2
        assert "not the moments of any population" in capsys.readouterr().err

    def test_impossible_moments_are_data_error(self, tmp_path, capsys):
        # rho_pb and lambda12 this large leave the correlation matrix of the
        # relative deviations indefinite (smallest eigenvalue -0.484)
        data = dict(REF, rho_pb=0.99, lambda12=0.9)
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(data))
        assert main(["pre", "--params", str(path)]) == 2
        assert "not the moments of any population" in capsys.readouterr().err

    def test_subnormal_auxiliary_spread_is_data_error(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n1,0\n0,0\n1,0\n0,0\n1,0\n0,2e-92\n")
        assert main(["params", "--input", str(path),
                     "--output", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("exponent", ["100", "170"])
    def test_overflowing_auxiliary_spread_is_data_error(self, tmp_path, capsys, exponent):
        # at 1e100 the fourth moment overflows, at 1e170 the variance too
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n" + "".join(f"{phi},{digit}e{exponent}\n" for phi, digit
                                            in [(1, 1), (0, 3), (1, 2), (0, 5)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["params", "--input", str(path),
                         "--output", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: auxiliary variable is too spread to standardize")
        assert err.count("\n") == 1

    def test_table_t3_flag_takes_only_gamma(self, ref_params_path, tmp_path):
        out = str(tmp_path / "o.json")
        fixed = "gamma=1,g=0,delta=-1,m1=0.3,m2=0.2"
        assert main(["pre", "--params", str(ref_params_path), "--t3", fixed]) == 1
        assert main(["theory", "--params", str(ref_params_path), "--t3", "g=0",
                     "--output", out]) == 1
        assert main(["sensitivity", "--params", str(ref_params_path), "--digits", "3",
                     "--t3", "m1=0.5", "--output", out]) == 1
        assert main(["pre", "--params", str(ref_params_path),
                     "--t3", "gamma=0.5,g=1,delta=1,m1=optimal"]) == 0

    def test_invalid_kv_is_usage_error(self, ref_params_path):
        assert main(["pre", "--params", str(ref_params_path),
                     "--tc", "nope=1"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        (["theory"], "--tc", "q1=nan,q2=0"),
        (["theory"], "--tc", "alpha=inf"),
        (["pre"], "--tc", "q1=-inf"),
        (["pre"], "--t3", "gamma=NaN"),
        (["sensitivity", "--digits", "3"], "--t3", "gamma=nan"),
    ])
    def test_non_finite_flag_value_is_usage_error(self, ref_params_path, tmp_path,
                                                  capsys, command, flag, value):
        out = tmp_path / "o.json"
        argv = [command[0], "--params", str(ref_params_path), *command[1:], flag, value]
        if command[0] != "pre":
            argv += ["--output", str(out)]
        assert main(argv) == 1
        assert "cannot parse value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("n", 11.9), ("n_population", 40.5), ("n", True), ("n_population", float("inf"))])
    def test_non_integral_size_is_data_error(self, tmp_path, capsys, field, value):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(REF, **{field: value})))
        assert main(["pre", "--params", str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("document, message", [
        (dict(REF, xbar=math.nan), "population parameter xbar must be finite"),
        (dict(REF, n_population=1), "population size must be at least 2"),
        (dict(REF, p=1.5), "proportion must lie strictly in (0, 1), got 1.5"),
        (dict(REF, cx=0), "auxiliary variance must be strictly positive"),
        (dict(REF, xbar=0, sx2=2.0), "auxiliary population mean must be nonzero"),
        (dict(REF, cp=0), "attribute variance must be strictly positive"),
        (dict(REF, lambda04=0.5), "lambda04 >= 1 + lambda03^2 must hold"),
        ([REF], "parameter document must be a JSON object"),
    ], ids=("nan-xbar", "one-unit", "p-above-one", "zero-cx", "zero-xbar", "zero-cp",
            "small-lambda04", "array"))
    def test_invalid_parameter_document_is_data_error(self, tmp_path, capsys,
                                                      document, message):
        # json writes NaN as a bare token, which json also reads back
        path, out = tmp_path / "params.json", tmp_path / "o.json"
        path.write_text(json.dumps(document))
        assert main(["theory", "--params", str(path), "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_overflow_is_data_error(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        assert main(["estimate", "--input", str(pop), "--indices", "0,1,2,3,4,5,6,7,8,9,10",
                     "--estimator", "t3", "--t3", "delta=5000,g=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: estimate is not finite") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_counts_overflowed_replicates(self, tmp_path, capsys):
        # the replicates that did not overflow aggregate to an infinite mse,
        # which a JSON report cannot hold (the count is pinned in test_montecarlo)
        pop, out = tmp_path / "pop.csv", tmp_path / "sim.json"
        assert main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        assert main(["simulate", "--input", str(pop), "--n", "5", "--reps", "200",
                     "--seed", "1", "--tc", "alpha=3000", "--output", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical error: the report's simulation.rows[tc]"
                                           ".mse is inf, not a JSON number\n")
        assert not out.exists()

    def test_overflow_repro_ends_without_traceback(self, tmp_path):
        # the aggregates overflow (Infinity, NaN): one error line, and no file
        pop, out = tmp_path / "pop.csv", tmp_path / "sim.json"
        env = checkout_env()
        for argv, code in ((["generate", "--size", "40", "--seed", "3", "--output", str(pop)], 0),
                           (["simulate", "--input", str(pop), "--n", "5", "--reps", "200",
                             "--seed", "1", "--tc", "alpha=3000", "--output", str(out)], 3)):
            done = subprocess.run([sys.executable, "-m", "propaux.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == code and "Traceback" not in done.stderr, done.stderr
            assert "RuntimeWarning" not in done.stderr, done.stderr
        assert done.stderr.startswith("numerical error: ") and done.stderr.count("\n") == 1
        assert not out.exists()

    def test_saturating_link_warns_nothing(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "pop.csv"
        spec.write_text(json.dumps({"link_slope": 1e308}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--size", "20", "--seed", "1", "--spec", str(spec),
                         "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("error: no usable population after 100 attempts; "
                                           "the link saturates the attribute\n")

    @pytest.mark.parametrize("data, message", [
        (b"phi,x\n1,2\n0,\xff3\n", "not valid UTF-8"),
        (b'phi,x\n1,"' + b"1" * 140_000 + b'"\n0,2\n', "field larger than field limit"),
    ])
    def test_undecodable_csv_is_data_error(self, tmp_path, capsys, data, message):
        bad, out = tmp_path / "bad.csv", tmp_path / "o.json"
        bad.write_bytes(data)
        assert main(["params", "--input", str(bad), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()


_PARAMS_ARGV = ["theory", "--params", "{bad}", "--output", "{out}"]
_SPEC_ARGV = ["generate", "--size", "20", "--seed", "1", "--spec", "{bad}", "--output", "{out}"]
_CSV_ARGV = ["params", "--input", "{bad}", "--output", "{out}"]
_SIX_ROWS = b"phi,x\n1,22\n1,16\n0,12\n0,9\n1,18\n0,8\n"
_TC_INFINITE_ARGV = ["estimate", "--input", "{bad}", "--indices", "4,5", "--estimator", "tc",
                     "--tc", "a=1e308,b=-1e308,q1=1,q2=0"]

#: Malformed inputs at the command line's boundary: the arguments, and the
#: bytes of the file ``{bad}``. ``{pop}`` is a valid population CSV and
#: ``{out}`` an output path.
BOUNDARY = {
    "params-not-utf8": (_PARAMS_ARGV, b'{"n": 5, \xff}'),
    "spec-not-utf8": (_SPEC_ARGV, b'{"aux_scale": 0.5,\n\xe9}'),
    "indices-not-utf8": (["estimate", "--input", "{pop}", "--indices", "{bad}",
                          "--estimator", "ta"], b"0,1\xff,2"),
    "params-nested-deep": (_PARAMS_ARGV, b"[" * 100_000),
    "spec-nested-deep": (_SPEC_ARGV, b'{"aux_scale": ' + b"[" * 100_000),
    "params-5001-digits": (["pre", "--params", "{bad}"], b'{"xbar": 1' + b"0" * 5000 + b"}"),
    **{f"{key}-401-digits": (["sensitivity", "--params", "{bad}", "--digits", "3",
                              "--output", "{out}"],
                             json.dumps(dict(REF, **{key: 10 ** 400})).encode())
       for key in ("xbar", "n", "n_population")},
    "p-string": (["pre", "--params", "{bad}"], json.dumps(dict(REF, p="0.5")).encode()),
    "n-string": (_PARAMS_ARGV, json.dumps(dict(REF, n="16")).encode()),
    "xbar-true": (_PARAMS_ARGV, json.dumps(dict(REF, xbar=True)).encode()),
    "csv-not-utf8": (_CSV_ARGV, b"phi,x\n1,2\n0,\xff3\n"),
    "csv-field-limit": (_CSV_ARGV, b'phi,x\n1,"' + b"1" * 140_000 + b'"\n0,2\n'),
    "csv-empty": (_CSV_ARGV, b""),
    "csv-wrong-header": (_CSV_ARGV, b"x,phi\n1.0,1\n0,2\n"),
    "csv-one-record": (_CSV_ARGV, b"phi,x\n1,2.5\n"),
    "csv-three-fields": (_CSV_ARGV, b"phi,x\n1,2.5,3\n0,1\n"),
    "csv-phi-3": (_CSV_ARGV, b"phi,x\n3,1.0\n0,2\n"),
    "csv-x-abc": (_CSV_ARGV, b"phi,x\n1,2.0\n\n0,abc\n"),
    "csv-x-inf": (_CSV_ARGV, b"phi,x\n 1,inf\n0,1.0\n"),
    "csv-x-underscore": (_CSV_ARGV, b"phi,x\n1,1_0\n0,2\n"),
    **{f"index-{name}": (["estimate", "--input", "{pop}", "--indices", indices,
                          "--estimator", "ta"], b"")
       for name, indices in (("arabic-indic-digit", "0,1,\u0663"), ("underscore", "0,1_0"),
                             ("past-int64", "0,1,99999999999999999999999"),
                             ("past-the-frame", "0,1,12"), ("negative", "0,-1,1"),
                             ("negative-first", "-1,0,1"))},
    **{f"digits-{name}": (["sensitivity", "--params", "{bad}", "--digits", digits,
                           "--output", "{out}"], json.dumps(REF).encode())
       for name, digits in (("324", "324"), ("401-digit-count", "1" + "0" * 400))},
    **{f"reps-{name}": (["simulate", "--input", "{pop}", "--n", "5", "--reps", reps,
                         "--seed", "1", "--output", "{out}"], b"")
       for name, reps in (("1e12", "1" + "0" * 12), ("1e23", "1" + "0" * 23))},
    # no draw samples a frame of 2**32 units or more; these would not fit in memory
    **{f"size-{name}": (["generate", "--size", size, "--seed", "1", "--output", "{out}"], b"")
       for name, size in (("1e15", "1" + "0" * 15), ("1e23", "1" + "0" * 23))},
    "tc-transform-infinite-estimate": (_TC_INFINITE_ARGV, _SIX_ROWS),
    "tc-transform-infinite-pre": (["pre", "--params", "{bad}", "--tc", "a=1e308,b=1e308",
                                   "--format", "json"],
                                  (GOLDEN / "params_n_6.json").read_bytes()),
    # a census (n = N) rejects the transforms that every other design rejects
    **{f"census-{command}-tc-{setting}": ([*argv, "--tc", setting],
                                         (GOLDEN / "params.json").read_bytes())
       for command, argv in (("pre", ["pre", "--params", "{bad}"]), ("theory", _PARAMS_ARGV))
       for setting in ("a=0", "a=-1")},
    "census-simulate-tc-a=0": (["simulate", "--input", "{pop}", "--n", "12", "--reps", "100",
                                "--seed", "1", "--tc", "a=0", "--output", "{out}"], b""),
    # the derived sx2 = (cx*xbar)**2 and sp2 = (cp*p)**2 overflow
    **{f"params-{key}-1e200": (["pre", "--params", "{bad}"], json.dumps(dict(
        json.loads((GOLDEN / "params_n_6.json").read_bytes()), **{key: 1e200})).encode())
       for key in ("xbar", "cp")},
}


@pytest.mark.parametrize("argv, data", BOUNDARY.values(), ids=BOUNDARY)
def test_malformed_input_exits_2_with_one_error_line(pop_csv, tmp_path, capsys, argv, data):
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(data)
    paths = {"bad": bad, "pop": pop_csv, "out": out}
    try:
        code = main([arg.format(**paths) for arg in argv])
    except Exception as exc:  # noqa: BLE001  (the point is that none escapes)
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


_SIZE_ARGV = ["generate", "--seed", "3", "--output", "{out}", "--size"]

#: Numbers that Python's ``int`` and ``float`` read, but that break the
#: command line's grammar (ASCII, no ``_``): each flag is a usage error.
NOT_ASCII_NUMBERS = {
    "size-underscore": [*_SIZE_ARGV, "1_0"],
    "seed-arabic-indic-digit": ["generate", "--size", "10", "--seed", "\u0663",
                                "--output", "{out}"],
    "size-fullwidth-digits": [*_SIZE_ARGV, "\uff11\uff10"],
    "n-underscore": ["params", "--input", "{pop}", "--n", "1_0", "--output", "{out}"],
    "reps-underscore": ["simulate", "--input", "{pop}", "--n", "5", "--reps", "1_000",
                        "--seed", "1", "--output", "{out}"],
    "digits-arabic-indic-digit": ["sensitivity", "--params", "{params}", "--digits",
                                  "\u0663", "--output", "{out}"],
    "tc-arabic-indic-digit": ["pre", "--params", "{params}", "--tc", "alpha=\u0661"],
    "t3-underscore": ["theory", "--params", "{params}", "--t3", "gamma=1_0",
                      "--output", "{out}"],
    "t1-fullwidth-digit": ["estimate", "--input", "{pop}", "--indices", "0,1,2",
                           "--estimator", "t1", "--t1", "alpha=\uff12"],
}


@pytest.mark.parametrize("argv", NOT_ASCII_NUMBERS.values(), ids=NOT_ASCII_NUMBERS)
def test_number_outside_the_ascii_grammar_is_usage_error(pop_csv, ref_params_path, tmp_path,
                                                         capsys, argv):
    out = tmp_path / "out"
    paths = {"pop": pop_csv, "params": ref_params_path, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.11 PiB for an array"),
     "error: Unable to allocate 7.11 PiB for an array\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=("numpy", "bare"))
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    # stands in for an allocation that fails; a test never allocates for real
    def exhausted(spec, seed):
        raise exc
    monkeypatch.setattr(montecarlo, "generate_population", exhausted)
    out = tmp_path / "pop.csv"
    assert main(["generate", "--size", "40", "--seed", "1", "--output", str(out)]) == 2
    assert capsys.readouterr() == ("", line)
    assert not out.exists()


def test_infinite_transform_is_named_as_such(tmp_path, capsys):
    # the sample mean of rows 4 and 5 is 13, so a*13 + b overflows to inf
    bad = tmp_path / "bad"
    bad.write_bytes(_SIX_ROWS)
    assert main([arg.format(bad=bad) for arg in _TC_INFINITE_ARGV]) == 2
    assert capsys.readouterr().err == (
        "error: a*mean + b must stay positive and finite (population inf, sample inf)\n")


@pytest.mark.parametrize("n", ["6", "12"])
def test_a_census_names_the_transform(pop_csv, tmp_path, capsys, n):
    # the transform error is the same at n < N and on a census (n = N = 12)
    out = tmp_path / "out"
    assert main(["simulate", "--input", str(pop_csv), "--n", n, "--reps", "100", "--seed", "1",
                 "--tc", "a=0", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: a*xbar + b must be positive and finite, got 0.0\n"
    assert not out.exists()


def test_fixed_weights_name_the_transform_before_the_first_draw(tmp_path, capsys, monkeypatch):
    # with q1 and q2 fixed no constant is solved for, so only the theory reads the transform
    frame = tmp_path / "pop.csv"
    assert main(["generate", "--size", "20", "--seed", "1", "--output", str(frame)]) == 0

    def no_draw(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(montecarlo, "_stats", no_draw)
    out = tmp_path / "out"
    assert main(["simulate", "--input", str(frame), "--n", "6", "--reps", "100", "--seed", "1",
                 "--tc", "a=0,q1=1,q2=0", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: a*xbar + b must be positive and finite, got 0.0\n"
    assert not out.exists()


#: First-order expressions that overflow: float ``**`` raises where ``*``
#: would give inf; and a report whose aggregates overflow. ``{params}`` is a
#: parameter document, ``{census}`` one with n = N, ``{frame}`` a 40-unit
#: population CSV and ``{out}`` an output path.
NUMERICAL = {
    "pre-tc-alpha": ["pre", "--params", "{params}", "--tc", "alpha=1e200"],
    "pre-t3-gamma": ["pre", "--params", "{params}", "--t3", "gamma=1e308"],
    "theory-tc-q1": ["theory", "--params", "{params}", "--tc", "q1=1e200,q2=0",
                     "--output", "{out}"],
    "simulate-tc-alpha": ["simulate", "--input", "{frame}", "--n", "5", "--reps", "100",
                          "--seed", "1", "--tc", "alpha=1e200", "--output", "{out}"],
    "estimate-t3-gamma": ["estimate", "--input", "{frame}", "--indices", "0,1,2,3,4",
                          "--estimator", "t3", "--t3", "gamma=1e200"],
    # the estimates are finite, but their mse sums to inf: JSON has no Infinity
    "simulate-tc-alpha-3000": ["simulate", "--input", "{frame}", "--n", "5", "--reps", "200",
                               "--seed", "1", "--tc", "alpha=3000", "--output", "{out}"],
    # a census overflows where every other design does
    "pre-tc-alpha-census": ["pre", "--params", "{census}", "--tc", "alpha=1e300"],
    "theory-t3-gamma-census": ["theory", "--params", "{census}", "--t3", "gamma=1e308",
                               "--output", "{out}"],
    "simulate-t3-gamma-census": ["simulate", "--input", "{frame}", "--n", "40", "--reps", "100",
                                 "--seed", "1", "--t3", "gamma=1e308", "--output", "{out}"],
}


@pytest.fixture(scope="module")
def frame_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("frame") / "frame.csv"
    assert main(["generate", "--size", "40", "--seed", "3", "--output", str(path)]) == 0
    return path


@pytest.mark.parametrize("argv", NUMERICAL.values(), ids=NUMERICAL)
def test_overflow_exits_3_with_one_error_line(frame_csv, tmp_path, capsys, argv):
    out = tmp_path / "out"
    paths = {"params": GOLDEN / "params_n_6.json", "census": GOLDEN / "params.json",
             "frame": frame_csv, "out": out}
    try:
        code = main([arg.format(**paths) for arg in argv])
    except Exception as exc:  # noqa: BLE001  (the point is that none escapes)
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("numerical error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_overflowing_scan_points_are_unstable(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["sensitivity", "--params", str(GOLDEN / "params_n_6.json"), "--digits", "3",
                 "--tc", "alpha=1e200", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "NaN" not in out.read_text()
    rows = {row["name"]: row for row in json.loads(out.read_text())["sensitivity"]["intervals"]}
    assert rows["tc"] == {"name": "tc", "point": None, "low": None, "high": None,
                          "unstable": 77, "points": 77}
    assert rows["t1"]["unstable"] == 0


def test_overflowing_usual_variance_is_unstable(tmp_path, capsys):
    # cp**2 overflows at every scan point, in the usual variance, the PRE's baseline
    params, out = tmp_path / "params.json", tmp_path / "out.json"
    params.write_text(json.dumps({"n": 20, "n_population": 200, "p": 0.01, "xbar": 10.0,
                                  "rho_pb": 0.1, "cp": 1.3408e154, "cx": 0.5, "lambda12": 0.0,
                                  "lambda04": 3.0, "lambda03": 0.0}))
    assert main(["sensitivity", "--params", str(params), "--digits", "3",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    intervals = json.loads(out.read_text())["sensitivity"]["intervals"]
    assert len(intervals) == 8
    for row in intervals:
        assert row == {"name": row["name"], "point": None, "low": None, "high": None,
                       "unstable": 77, "points": 77}


def test_out_of_range_index_is_named_as_such(pop_csv, capsys):
    assert main(["estimate", "--input", str(pop_csv), "--indices",
                 "0,1,99999999999999999999999", "--estimator", "ta"]) == 2
    assert capsys.readouterr().err == (
        "error: indices must lie in [0, 11], got range [0, 99999999999999999999999]\n")


def _commands() -> dict:
    """The parser of every subcommand, by name."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


#: (subcommand, kind) of every ``--<kind>`` option the parser declares.
FAMILY_OPTIONS = [(name, option[2:]) for name, sub in _commands().items()
                  for action in sub._actions for option in action.option_strings
                  if option[2:] in theory.FAMILIES]


#: (subcommand, kind, field) of every ``--<kind>`` field without a population
#: optimum, which ``optimal`` cannot name.
FIXED_FIELDS = [(command, kind, field) for command, kind in FAMILY_OPTIONS
                for field in theory.FAMILIES[kind].params._fields
                if field not in theory.FAMILIES[kind].constants]


def _required_argv(command: str, kind: str, pop_csv, ref_params_path, tmp_path) -> list[str]:
    """``command`` with a value for each of its required options; ``estimate``
    evaluates ``kind``, and any report goes to ``tmp_path/out.json``."""
    values = {"input": str(pop_csv), "params": str(ref_params_path),
              "output": str(tmp_path / "out.json"), "n": "6", "reps": "200",
              "seed": "1", "digits": "3", "indices": "0,1,2,3,4", "estimator": kind}
    argv = [command]
    for action in _commands()[command]._actions:
        if action.required:
            argv += [action.option_strings[0], values[action.dest]]
    return argv


class TestFamilyFlags:
    def test_flags_are_found(self):
        assert {("estimate", "t1"), ("simulate", "tc"), ("pre", "t3")} <= set(FAMILY_OPTIONS)

    @pytest.mark.parametrize("command, kind", FAMILY_OPTIONS)
    def test_every_family_flag_is_parsed(self, pop_csv, ref_params_path, tmp_path,
                                         capsys, command, kind):
        """A malformed value of any family flag is a usage error, so no such
        flag is silently ignored."""
        argv = _required_argv(command, kind, pop_csv, ref_params_path, tmp_path)
        assert main([*argv, f"--{kind}", "bogus=1"]) == 1
        assert "bogus=1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_fixed_fields_are_found(self):
        assert {("pre", "tc", "alpha"), ("simulate", "t3", "gamma"),
                ("estimate", "tc", "a")} <= set(FIXED_FIELDS)

    @pytest.mark.parametrize("command, kind, name", FIXED_FIELDS)
    def test_optimal_names_only_constants(self, pop_csv, ref_params_path, tmp_path,
                                          capsys, command, kind, name):
        """``optimal`` for a field without a population optimum is a one-line
        usage error, not a crash."""
        argv = _required_argv(command, kind, pop_csv, ref_params_path, tmp_path)
        assert main([*argv, f"--{kind}", f"{name}=optimal"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert f"{name}=optimal" in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


def test_family_flags_follow_one_table():
    """Each command takes the family flags of one table, and each flag's help
    names the keys that command lets it set."""
    kinds = {name: [kind for command, kind in FAMILY_OPTIONS if command == name]
             for name in _commands()}
    with_params = [kind for kind, family in theory.FAMILIES.items() if family.params]
    assert kinds == {"params": [], "generate": [], "estimate": with_params,
                     **dict.fromkeys(("theory", "pre", "simulate", "sensitivity"),
                                     ["tc", "t3"])}
    helps = {(name, option[2:]): action.help for name, sub in _commands().items()
             for action in sub._actions for option in action.option_strings}
    for command in ("theory", "pre", "sensitivity"):
        assert "q1=optimal, q2=optimal" in helps[command, "tc"]
        assert "gamma=1" in helps[command, "t3"] and "only gamma" in helps[command, "t3"]
        assert "delta" not in helps[command, "t3"]
    assert "delta=1" in helps["simulate", "t3"] and "only" not in helps["simulate", "t3"]
