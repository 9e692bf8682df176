import argparse
import json

import pytest

from propaux import theory
from propaux.cli import build_parser, main
from propaux.io import write_params_json, ParamsDocument

from _oracles import REF


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

    def test_flag_for_wrong_estimator_is_usage_error(self, pop_csv, capsys):
        assert main(["estimate", "--input", str(pop_csv), "--indices", "0,1",
                     "--estimator", "ta", "--t3", "gamma=1"]) == 1


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
    ])
    def test_spec_with_bad_number_is_data_error(self, tmp_path, capsys, field, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({field: value}))
        out = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--spec", str(spec),
                     "--output", str(out)]) == 2
        assert field in capsys.readouterr().err
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

    def test_estimate_overflow_is_data_error(self, tmp_path, capsys):
        pop = tmp_path / "pop.csv"
        assert main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        assert main(["estimate", "--input", str(pop), "--indices", "0,1,2,3,4,5,6,7,8,9,10",
                     "--estimator", "t3", "--t3", "delta=5000,g=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: estimate is not finite") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_counts_overflowed_replicates(self, tmp_path):
        pop, out = tmp_path / "pop.csv", tmp_path / "sim.json"
        assert main(["generate", "--size", "40", "--seed", "3", "--output", str(pop)]) == 0
        assert main(["simulate", "--input", str(pop), "--n", "5", "--reps", "200",
                     "--seed", "1", "--tc", "alpha=3000", "--output", str(out)]) == 0
        rows = {row["name"]: row for row in json.loads(out.read_text())["simulation"]["rows"]}
        assert 0 < rows["tc"]["failures"] < 200
        assert rows["p"]["failures"] == 0

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


def _commands() -> dict:
    """The parser of every subcommand, by name."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


#: (subcommand, kind) of every ``--<kind>`` option the parser declares.
FAMILY_OPTIONS = [(name, option[2:]) for name, sub in _commands().items()
                  for action in sub._actions for option in action.option_strings
                  if option[2:] in theory.FAMILIES]


class TestFamilyFlags:
    def test_flags_are_found(self):
        assert {("estimate", "t1"), ("simulate", "tc"), ("pre", "t3")} <= set(FAMILY_OPTIONS)

    @pytest.mark.parametrize("command, kind", FAMILY_OPTIONS)
    def test_every_family_flag_is_parsed(self, pop_csv, ref_params_path, tmp_path,
                                         capsys, command, kind):
        """A malformed value of any family flag is a usage error, so no such
        flag is silently ignored."""
        values = {"input": str(pop_csv), "params": str(ref_params_path),
                  "output": str(tmp_path / "out.json"), "n": "6", "reps": "200",
                  "seed": "1", "digits": "3", "indices": "0,1,2,3,4", "estimator": kind}
        argv = [command]
        for action in _commands()[command]._actions:
            if action.required:
                argv += [action.option_strings[0], values[action.dest]]
        assert main([*argv, f"--{kind}", "bogus=1"]) == 1
        assert "bogus=1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()
