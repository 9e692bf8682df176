import json

import pytest

from propaux import SyntheticSpec, generate_population, theory
from propaux.errors import ParseError, SchemaError
from propaux.io import (
    ParamsDocument,
    build_report_document,
    file_digest,
    read_params_json,
    read_population_csv,
    sensitivity_report_dict,
    simulation_report_dict,
    theory_report_dict,
    write_params_json,
    write_population_csv,
)
from propaux.montecarlo import run_experiment

from _oracles import REF


class TestPopulationCsv:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n1,2.5\n0,1.0\n")
        frame = read_population_csv(path)
        assert frame.records() == [(1, 2.5), (0, 1.0)]

    def test_invalid_indicator_reports_line(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n2,1.0\n")
        with pytest.raises(ParseError) as info:
            read_population_csv(path)
        assert info.value.line == 2

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n1,2.0\n0,abc\n")
        with pytest.raises(ParseError) as info:
            read_population_csv(path)
        assert info.value.line == 3

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("x,phi\n1.0,1\n")
        with pytest.raises(SchemaError):
            read_population_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_population_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("phi,x\n1,inf\n0,1.0\n")
        with pytest.raises(ParseError):
            read_population_csv(path)

    def test_round_trip_of_generated_frame(self, tmp_path):
        frame = generate_population(SyntheticSpec(size=120), seed=5)
        path = tmp_path / "generated.csv"
        write_population_csv(path, frame)
        assert read_population_csv(path) == frame


class TestParamsDocument:
    def test_user_supplied_derives_variances(self):
        doc = ParamsDocument.from_dict(dict(REF))
        params = doc.params
        assert params.sx2 == pytest.approx((0.308 * 14.4) ** 2, rel=1e-15)
        assert params.sp2 == pytest.approx((0.963 * 0.525) ** 2, rel=1e-15)
        assert doc.design.n == 11
        assert doc.design.N == 40
        assert doc.design.f == pytest.approx(29 / 440, rel=1e-15)
        assert doc.provenance == "user-supplied"

    def test_missing_key(self):
        data = dict(REF)
        del data["rho_pb"]
        with pytest.raises(SchemaError):
            ParamsDocument.from_dict(data)

    def test_non_numeric_field(self):
        data = dict(REF)
        data["cp"] = "big"
        with pytest.raises(SchemaError):
            ParamsDocument.from_dict(data)

    def test_integral_float_size_reads(self):
        doc = ParamsDocument.from_dict(dict(REF, n=11.0, n_population=40.0))
        assert doc == ParamsDocument.from_dict(dict(REF))

    def test_round_trip(self, tmp_path):
        doc = ParamsDocument.from_dict(dict(REF))
        path = tmp_path / "ref.json"
        write_params_json(path, doc)
        assert read_params_json(path) == doc

    def test_dict_round_trip_is_exact(self):
        doc = ParamsDocument.from_dict(dict(REF))
        assert ParamsDocument.from_dict(doc.to_dict()) == doc

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_params_json(path)


class TestReportDocuments:
    def test_theory_report_round_trips_through_json(self, ref_pop, ref_design):
        report = theory.theory_report(ref_pop, ref_design)
        payload = theory_report_dict(report)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["entries"][0]["name"] == "p"
        assert payload["entries"][0]["pre"] == 100.0

    def test_simulation_report_round_trips(self):
        frame = generate_population(SyntheticSpec(size=60), seed=1)
        report = run_experiment(frame, 10, reps=150, seed=2)
        payload = simulation_report_dict(report)
        assert json.loads(json.dumps(payload)) == payload

    def test_sensitivity_report_round_trips(self, ref_pop, ref_design):
        report = theory.sensitivity(ref_pop, ref_design.f, digits=3)
        payload = sensitivity_report_dict(report)
        assert json.loads(json.dumps(payload)) == payload

    def test_envelope_carries_version_and_digest(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text("{}")
        doc = build_report_document(input_digest=file_digest(path),
                                    configurations={"digits": 3},
                                    sections={"sensitivity": None})
        assert doc["tool"] == "propaux"
        assert doc["tool_version"]
        assert len(doc["input_digest"]) == 64

    def test_digest_tracks_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text("{}")
        b.write_text("{}")
        assert file_digest(a) == file_digest(b)
        b.write_text("{} ")
        assert file_digest(a) != file_digest(b)
