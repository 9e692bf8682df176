import ast
import csv
import hashlib
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propaux
import propaux.io
from propaux import PopulationFrame, SyntheticSpec, generate_population, theory
from propaux.errors import NumericalError, ParseError, SchemaError
from propaux.io import (
    ParamsDocument,
    build_report_document,
    read_json,
    read_params_json,
    read_population_csv,
    sensitivity_report_dict,
    simulation_report_dict,
    theory_report_dict,
    write_params_json,
    write_population_csv,
    write_report_json,
)
from propaux.montecarlo import run_experiment

from _oracles import REF, csv_loop, csv_writer_loop
from test_golden import POPULATION


#: Population files that are not UTF-8, and the line of the first bad byte.
CSV_NOT_UTF8 = [
    (b"phi,x\n1,2\n0,\xff3\n", 3),
    (b"phi,x\r\n1,2\r\n\r\n0,\"3\xc3\"\r\n", 4),
    (b"phi,x\r1,\xe92\r0,3\r", 2),
    (b"ph\x80i,x\n1,2\n0,3\n", 1),
]
#: Parameter documents that are not UTF-8, and the line of the first bad byte.
JSON_NOT_UTF8 = [(b'{"n": 5, \xff}', 1), (b'{\r\n"n": 5,\r\n"p": "\xc3"}', 3), (b'{\r\r\x80}', 3)]
#: JSON that ``json`` cannot read.
JSON_UNREADABLE = {"deep": "[" * 100_000, "5001-digits": '{"xbar": 1' + "0" * 5000 + "}"}


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

    @pytest.mark.parametrize("data, line", CSV_NOT_UTF8)
    def test_invalid_utf8_reports_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "pop.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not valid UTF-8") as info:
            read_population_csv(path)
        assert info.value.line == line
        assert str(path) in str(info.value)

    def test_quoted_cell_over_the_csv_field_limit(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "pop.csv"
        path.write_text(f'phi,x\n1,2\n\n0,"{"1" * (limit + 1)}"\n1,3\n')
        with pytest.raises(ParseError, match="field larger than field limit") as info:
            read_population_csv(path)
        assert info.value.line == 4
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("head, canonical", [
        ("phi,x\n 1,2\n", False), ('phi,x\n"1",2\n', False), ("phi,x\n1,2\n", True),
    ], ids=("padded", "quoted-elsewhere", "canonical"))
    def test_unquoted_cell_over_the_csv_field_limit(self, tmp_path, head, canonical):
        """The limit holds for every cell of a file off the C route; the C
        route reads a canonical file's long cell."""
        cell = "1." + "0" * (csv.field_size_limit() - 1)
        path = tmp_path / "pop.csv"
        path.write_text(f"{head}0,{cell}\n")
        if canonical:
            with mock.patch.object(propaux.io, "_columns",
                                   side_effect=AssertionError("the checked route ran")):
                assert read_population_csv(path).records() == [(1, 2.0), (0, 1.0)]
        else:
            with pytest.raises(ParseError, match="field larger than field limit") as info:
                read_population_csv(path)
            assert info.value.line == 3


class TestPopulationCsvWriter:
    @staticmethod
    def assert_same_bytes(tmp_path, frame):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_population_csv(new, frame)
        csv_writer_loop(old, frame)
        assert new.read_bytes() == old.read_bytes()

    def test_golden_population(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(POPULATION)
        self.assert_same_bytes(tmp_path, read_population_csv(path))

    def test_generated_population(self, tmp_path):
        self.assert_same_bytes(tmp_path, generate_population(SyntheticSpec(size=500), seed=8))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=2, max_size=20))
    def test_any_finite_values(self, records):
        phi, x = zip(*records)
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_same_bytes(Path(tmp), PopulationFrame(np.array(phi), np.array(x)))

    def test_written_files_take_the_c_route(self, tmp_path):
        """CRLF ends and ``repr`` values, signed zeros, subnormals and
        17-digit values among them, read back without the checked route."""
        frame = PopulationFrame(np.array([1, 0, 1, 0]),
                                np.array([-0.0, 5e-324, 0.30000000000000004, 123456789.12345679]))
        path = tmp_path / "pop.csv"
        write_population_csv(path, frame)
        with mock.patch.object(propaux.io, "_columns",
                               side_effect=AssertionError("the checked route ran")):
            back = read_population_csv(path)
        assert back == frame
        assert back.x.tobytes() == frame.x.tobytes()


PACKAGE = str(Path(propaux.__file__).parent)


def outcome(reader, path):
    """What a reader makes of a file: its frame's arrays, or its error's
    class, line and message."""
    try:
        frame = reader(path)
    except Exception as exc:  # the reference may fail outside the package's errors
        return type(exc), getattr(exc, "line", None), str(exc)
    return frame.phi.tolist(), frame.x.tobytes()


def read_both(text: str):
    """The outcomes of the columnar reader and of the row loop on one file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pop.csv"
        path.write_bytes(text.encode("utf-8"))
        return outcome(read_population_csv, path), outcome(csv_loop, path)


def rejects_plain_x_only(new, old) -> bool:
    """Whether the columnar reader rejected an ``x`` cell that holds ``_`` or a
    non-ASCII character but that ``float`` reads, and the row loop, which
    accepts it, failed on no earlier line."""
    if len(new) != 3 or new[0] is not ParseError:
        return False
    prefix = f"line {new[1]}: cannot parse auxiliary value "
    if not new[2].startswith(prefix):
        return False
    cell = ast.literal_eval(new[2][len(prefix):])
    if cell.isascii() and "_" not in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return len(old) == 2 or (old[1] or math.inf) > new[1]


#: Files on which the columnar reader and the row loop must agree exactly.
PARITY = {
    "lf": "phi,x\n1,2.5\n0,1.0\n",
    "crlf": "phi,x\r\n1,2.5\r\n0,1.0\r\n",
    "cr": "phi,x\r1,2.5\r0,1.0\r",
    "mixed-ends": "phi,x\r1,2.5\n0,1.0\r\n1,3\r",
    "cr-then-crlf": "phi,x\n1,2\r\r\n0,3\n",
    "no-final-newline": "phi,x\n1,2.5\n0,1.0",
    "crlf-no-final-newline": "phi,x\r\n1,2.5\r\n0,1.0",
    "blank-middle": "phi,x\n1,2.5\n\n\n0,1.0\n",
    "blank-end": "phi,x\n1,2.5\n0,1.0\n\n\n",
    "blank-crlf": "phi,x\r\n\r\n1,2.5\r\n\r\n0,1.0\r\n\r\n",
    "blank-then-error": "phi,x\n1,2.5\n\n\n0,abc\n",
    "blank-first-line": "\nphi,x\n1,2\n0,3\n",
    "whitespace-line": "phi,x\n1,2.5\n  \n0,1.0\n",
    "padded": "phi , x\n 1 , 2.5 \n0,\t1.0\n1,3\x0b\n",
    "unicode-padded": "phi,x\n\xa01\u2003,\xa02.5\u3000\n0,1\n",
    "quoted": 'phi,x\n"1","2.5"\n0,"1.0"\n',
    "quoted-header": '"phi","x"\n1,2\n0,3\n',
    "quoted-padded": 'phi,x\n" 1",2\n0," 3 "\n',
    "quoted-comma": 'phi,x\n1,"2,5"\n0,1\n',
    "quoted-line-end": 'phi,x\n1,"2\n5"\n0,1\n',
    "quoted-line-end-counts-one-line": 'phi,x\n1,"2\r\n"\n0,abc\n',
    "quoted-three-fields": 'phi,x\n1,"2",3\n0,1\n',
    "quoted-blank": 'phi,x\n1,"2"\n\n0,abc\n',
    "unclosed-quote": 'phi,x\n1,"2\n0,1\n',
    "one-field": "phi,x\n1\n0,1.0\n",
    "three-fields": "phi,x\n1,2.5,3\n0,1\n",
    "trailing-comma": "phi,x\n1,2.5,\n0,1\n",
    "phi-2": "phi,x\n1,2\n2,2.5\n0,1\n",
    "phi-1.0": "phi,x\n1.0,2.5\n0,1\n",
    "phi-empty": "phi,x\n,2.5\n0,1\n",
    "x-abc": "phi,x\n1,2.0\n0,abc\n",
    "x-empty": "phi,x\n1,\n0,1\n",
    "x-inf": "phi,x\n1,inf\n0,1.0\n",
    "x-nan": "phi,x\n1,2\n0, nan\n",
    "x-1e999": "phi,x\n1,2\n0,1e999\n",
    "x-hex": "phi,x\n1,2\n0,0x10\n",
    "x-inner-space": "phi,x\n1,2\n0,1 2\n",
    "x-literals": "phi,x\n1,+.5\n0,5.\n1,1E3\n0,-0\n1,-0.0\n",
    "repr-round-trip": ("phi,x\n1,1e-07\n0,0.1\n1,5e-324\n0,1.7976931348623157e+308\n"
                        "1,123456789.12345679\n0,-2.2250738585072014e-308\n"),
    "first-bad-row-wins-x": "phi,x\n1,abc\n1,2,3\n",
    "first-bad-row-wins-phi": "phi,x\n1,2\n5,1\n0,abc\n",
    "first-bad-row-wins-fields": "phi,x\n0,1\n1,2,3\n2,1\n",
    "phi-before-x-in-a-row": "phi,x\n7,abc\n",
    "one-record": "phi,x\n1,2.5\n",
    "header-only": "phi,x\n",
    "header-only-no-newline": "phi,x",
    "empty": "",
    "only-line-ends": "\r\n\r\n",
    "wrong-header": "x,phi\n1.0,1\n0,2\n",
    "header-three-fields": "phi,x,z\n1,2\n0,3\n",
    "byte-order-mark": "\ufeffphi,x\n1,2\n0,3\n",
    # at the edges of the C route: cells its gates or checks turn down, padding
    # that numpy strips as ``str.strip`` does, and CR-ended files
    "phi-nul": "phi,x\n1,2\n1\x00,3\n",
    "phi-01": "phi,x\n1,2\n01,3\n",
    "phi-plus-1": "phi,x\n1,2\n+1,3\n",
    "phi-minus-0": "phi,x\n1,2\n-0,3\n",
    "phi-10": "phi,x\n1,2\n10,3\n",
    "phi-trailing-space": "phi,x\n1,2\n1 ,3\n",
    "phi-leading-space": "phi,x\n1,2\n 1,3\n",
    "x-nul": "phi,x\n1,2\n0,3\x00\n",
    "x-form-feed": "phi,x\n1,\x0c2\n0,3\x0c\n",
    "x-file-separator": "phi,x\n1,\x1c2\n0,3\x1c\n",
    "x-unit-separator-padded-phi": "phi,x\n 1,\x1f2\n0,3\x1c\n",
    "cr-blank-lines": "phi,x\r\r1,2.5\r\r\r0,1e-07\r\r",
    "header-only-cr": "phi,x\r",
    "header-only-crlf": "phi,x\r\n",
    # only ``\n``, ``\r`` and ``\r\n`` end a record; ``str.splitlines`` would
    # also split at these
    "line-separator": "phi,x\n1,2\u20280,3\n1,4\n",
    "next-line": "phi,x\n1,2\x850,3\n1,4\n",
    "record-separator": "phi,x\n1,2\x1e0,3\n1,4\n",
    "form-feed-between-records": "phi,x\n1,2\x0c0,3\n1,4\n",
}

#: Files that only the columnar reader rejects: ``x`` with a digit separator
#: or non-ASCII digits, which ``float`` reads. The row, and the cell as the
#: error quotes it.
PLAIN_X_ONLY = {
    "underscore": ("phi,x\n1,1_0\n0,2\n", 2, "'1_0'"),
    "padded-underscore": ("phi,x\n0,2\n1, 1_000 \n", 3, "'1_000'"),
    "fullwidth-digits": ("phi,x\n1,\uff11\uff12\n0,2\n", 2, "'\uff11\uff12'"),
    "arabic-indic-digits": ("phi,x\n1,2\n0,\u0661.\u0665\n", 3, "'\u0661.\u0665'"),
    "quoted-underscore": ('phi,x\n1,"1_0"\n0,2\n', 2, "'1_0'"),
    "before-a-later-error": ("phi,x\n1,1_0\n0,abc\n", 2, "'1_0'"),
}


#: Rows either reader accepts, and rows of cells from both grammars and none.
WELL_FORMED_ROW = st.tuples(
    st.sampled_from(["0", "1", " 1", "0 ", '"1"', "\xa00", "\x1c1"]),
    st.one_of(st.sampled_from(["2.5", " 3e2 ", '"-0.5"', "1e-07", "+.5", "5.", "7\t",
                               "\x1d2.5\x1f"]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)),
).map(",".join)
#: Records every cell of which the C route reads: ``x`` is the ``repr`` of
#: any finite float, with subnormals, ``-0.0`` and 17-digit values drawn often.
CANONICAL_ROW = st.tuples(
    st.sampled_from(["0", "1"]),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([5e-324, -2.2250738585072009e-308, -0.0, 0.30000000000000004,
                               1.7976931348623157e+308, 123456789.12345679])).map(repr),
).map(",".join)
ANY_CELL = st.one_of(
    st.sampled_from(["0", "1", " 1", "2", "", "1.0", "2.5", "abc", "inf", "nan", "1e999",
                     "1_0", "\uff12", "\xa07", '"1"', '"2,5"', '"4\n"', "+.5",
                     "\x1c1", "0\x1f", "\x1d2.5", "3\x1e", "\x1f0\x1c"]),
    st.text(alphabet='01 .,e-_"\r\n5\xa0\x1c\x1d\x1e\x1f', max_size=5),
)
#: Rows of up to three cells, three-field rows drawn often: ``\x1c``-``\x1f``
#: padding, which ``str.strip`` drops and ``float`` keeps, reaches both the
#: column checks and ``_row_error``.
ANY_ROW = st.one_of(st.lists(ANY_CELL, max_size=3),
                    st.lists(ANY_CELL, min_size=3, max_size=3)).map(",".join)


class TestColumnarReader:
    @pytest.mark.parametrize("text", PARITY.values(), ids=PARITY)
    def test_agrees_with_row_loop(self, text):
        new, old = read_both(text)
        assert new == old

    @pytest.mark.parametrize("text, line, cell", PLAIN_X_ONLY.values(), ids=PLAIN_X_ONLY)
    def test_rejects_separators_and_non_ascii_digits(self, text, line, cell):
        new, old = read_both(text)
        assert new == (ParseError, line, f"line {line}: cannot parse auxiliary value {cell}")
        assert len(old) == 2 or old[1] > line
        assert rejects_plain_x_only(new, old)

    @settings(max_examples=300, deadline=None)
    @given(header=st.sampled_from(["phi,x", "phi,x", "phi,x", " phi , x", '"phi",x', "x,phi"]),
           rows=st.lists(st.one_of(WELL_FORMED_ROW, WELL_FORMED_ROW, WELL_FORMED_ROW, ANY_ROW),
                         max_size=8),
           ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=10, max_size=10),
           final=st.booleans())
    def test_agrees_with_row_loop_on_generated_files(self, header, rows, ends, final):
        lines = [header, *rows]
        text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
        if not final:
            text = text[:-len(ends[(len(lines) - 1) % len(ends)])]
        new, old = read_both(text)
        assert new == old or rejects_plain_x_only(new, old)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(st.one_of(CANONICAL_ROW, CANONICAL_ROW, st.just("")),
                                    st.sampled_from(["\n", "\r\n", "\r"])),
                          max_size=12),
           end=st.sampled_from(["\n", "\r\n", "\r"]),
           final=st.booleans())
    def test_canonical_files_agree_with_row_loop(self, lines, end, final):
        """Each file is read bit for bit as the row loop reads it, and one with
        at least 2 records never reaches the checked route."""
        text = "phi,x" + end + "".join(line + ends for line, ends in lines)
        if lines and not final:
            text = text[:-len(lines[-1][1])]
        if sum(bool(line) for line, _ in lines) < 2:
            new, old = read_both(text)
        else:
            with mock.patch.object(propaux.io, "_columns",
                                   side_effect=AssertionError("the checked route ran")):
                new, old = read_both(text)
        assert new == old

    @pytest.mark.parametrize("name", [*PARITY, *PLAIN_X_ONLY])
    def test_no_read_warns(self, name):
        """Every read has its usual outcome with warnings turned into errors."""
        text = PARITY[name] if name in PARITY else PLAIN_X_ONLY[name][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, old = read_both(text)
        if name in PARITY:
            assert new == old
        else:
            _, line, cell = PLAIN_X_ONLY[name]
            assert new == (ParseError, line, f"line {line}: cannot parse auxiliary value {cell}")

    @pytest.mark.parametrize("name", ["pop.csv.gz", "pop.csv.bz2", "pop.csv.xz", "pop.csv.lzma"])
    def test_plain_file_with_a_compression_suffix(self, tmp_path, name):
        """numpy would decompress these names; the file is read as it is."""
        path = tmp_path / name
        path.write_text(PARITY["lf"])
        assert read_population_csv(path).records() == [(1, 2.5), (0, 1.0)]

    def test_relative_path_that_parses_as_a_url(self, tmp_path, monkeypatch):
        """numpy would fetch ``http://localhost/pop.csv``; the local file is read."""
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "pop.csv").write_text(PARITY["lf"])
        monkeypatch.chdir(tmp_path)
        assert read_population_csv("http://localhost/pop.csv").records() == [(1, 2.5), (0, 1.0)]

    @pytest.mark.parametrize("header, block", [
        ("phi,x\n", "1,2.5\n0,1.0\n"),
        ("phi,x\r", "1,2.5\r\r0,1e-07\r"),
        ("phi,x\r\n", "1,2.5\r\n\r\n 0 ,1e3\r\n"),
        ("phi,x\n", '1,"2.5"\n0,1.0\n'),
        ("phi,x\n", "1,\xa02.5\n0,1.0\n"),
    ], ids=("lf", "cr-blank", "crlf-blank-padded", "quoted", "unicode-padded"))
    def test_success_runs_no_python_line_per_row(self, tmp_path, header, block):
        """The package runs as many lines of Python for 500 blocks of rows as for 5."""
        def lines_run(blocks: int) -> int:
            path = tmp_path / "pop.csv"
            path.write_bytes((header + block * blocks).encode("utf-8"))
            count = 0

            def trace(frame, event, arg):
                # lines of the package only: a garbage collection can run
                # finalizers of other tests' objects in between
                nonlocal count
                count += event == "line" and frame.f_code.co_filename.startswith(PACKAGE)
                return trace

            # put back any tracer already running, such as coverage.py's or
            # a debugger's, so that tracing goes on for the later tests
            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                read_population_csv(path)
            finally:
                sys.settrace(previous)
            return count

        lines_run(1)  # a first call may run one-time setup
        assert lines_run(500) == lines_run(5)


def either(read, path):
    """What ``read(path)`` returns, or its error's class and message."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


#: Every population file this module builds, as bytes.
CSV_FILES = {**{name: text.encode() for name, text in PARITY.items()},
             **{name: text.encode() for name, (text, _, _) in PLAIN_X_ONLY.items()},
             **{f"not-utf8-{k}": data for k, (data, _) in enumerate(CSV_NOT_UTF8)}}
#: Parameter documents, well formed or not, as bytes.
JSON_FILES = {
    "ref": json.dumps(REF).encode(),
    "ref-indented-crlf": json.dumps(REF, indent=2).replace("\n", "\r\n").encode(),
    "not-an-object": b"[1, 2]",
    "missing-key": json.dumps({k: v for k, v in REF.items() if k != "rho_pb"}).encode(),
    "non-numeric": json.dumps(dict(REF, cp="big")).encode(),
    "broken": b"{not json",
    "empty": b"",
    **{f"not-utf8-{k}": data for k, (data, _) in enumerate(JSON_NOT_UTF8)},
    **{name: text.encode() for name, text in JSON_UNREADABLE.items()},
}


class TestBytesGiven:
    """A reader given the file's bytes parses them as it parses the file:
    the same value, or the same error."""

    @pytest.mark.parametrize("data", CSV_FILES.values(), ids=CSV_FILES)
    def test_population_csv(self, tmp_path, data):
        path = tmp_path / "pop.csv"
        path.write_bytes(data)
        given = outcome(lambda p: read_population_csv(p, p.read_bytes()), path)
        assert given == outcome(read_population_csv, path)

    @pytest.mark.parametrize("read", [read_json, read_params_json])
    @pytest.mark.parametrize("data", JSON_FILES.values(), ids=JSON_FILES)
    def test_json(self, tmp_path, read, data):
        path = tmp_path / "params.json"
        path.write_bytes(data)
        assert either(lambda p: read(p, p.read_bytes()), path) == either(read, path)


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

    @pytest.mark.parametrize("key", ["sx2", "sp2"])
    def test_non_numeric_optional_variance(self, key):
        with pytest.raises(SchemaError, match="non-numeric"):
            ParamsDocument.from_dict(dict(REF, **{key: "big"}))

    def test_keys_follow_the_population_fields(self, ref_pop, ref_design):
        doc = ParamsDocument(params=ref_pop, design=ref_design).to_dict()
        assert list(doc) == ["provenance", "n", "n_population", "p", "xbar", "sx2", "sp2",
                             "cp", "cx", "rho_pb", "lambda03", "lambda04", "lambda12"]
        assert (doc["n_population"], doc["p"]) == (ref_pop.N, ref_pop.P)

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

    @pytest.mark.parametrize("key, value", [
        ("p", "0.5"), ("n", "16"), ("xbar", True), ("lambda03", False), ("cx", None),
        ("rho_pb", [0.5]), ("sx2", "2.0")])
    def test_field_that_is_no_json_number(self, key, value):
        with pytest.raises(SchemaError, match=f"non-numeric field: '{key}'"):
            ParamsDocument.from_dict(dict(REF, **{key: value}))

    @pytest.mark.parametrize("key", ["n", "n_population", "xbar", "sx2"])
    def test_integer_beyond_the_float_range(self, key):
        with pytest.raises(SchemaError, match=f"field '{key}' is out of range"):
            ParamsDocument.from_dict(dict(REF, **{key: 10 ** 400}))

    @pytest.mark.parametrize("data, line", JSON_NOT_UTF8)
    def test_json_that_is_not_utf8(self, tmp_path, data, line):
        path = tmp_path / "params.json"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not valid UTF-8") as info:
            read_params_json(path)
        assert info.value.line == line
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("text", JSON_UNREADABLE.values(), ids=JSON_UNREADABLE)
    def test_json_that_json_cannot_read(self, tmp_path, text):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="invalid JSON"):
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

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf), ids=str)
    def test_non_finite_value_is_refused_before_the_file_is_opened(self, tmp_path, value):
        # JSON has no NaN or Infinity; the first one is named by section, row and field
        out = tmp_path / "report.json"
        rows = [{"name": "p", "mse": 0.5}, {"name": "tc", "mean": 0.5, "mse": value,
                                            "ratio": math.inf}]
        doc = build_report_document(input_digest="0" * 64, configurations={"tc": [1.0]},
                                    sections={"simulation": {"n": 5, "rows": rows}})
        with pytest.raises(NumericalError) as caught:
            write_report_json(out, doc)
        assert str(caught.value) == (f"the report's simulation.rows[tc].mse is {value}, "
                                     "not a JSON number")
        assert not out.exists()
        doc["configurations"]["tc"][0] = value  # an unnamed list item is named by its index
        with pytest.raises(NumericalError, match=r"configurations\.tc\[0\] is "):
            write_report_json(out, doc)
        assert not out.exists()

    @staticmethod
    def written_digest(tmp_path, text: str) -> str:
        """The ``input_digest`` of the report ``theory`` writes for a parameter
        document of the bytes ``text``."""
        from propaux.cli import main
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(text)
        assert main(["theory", "--params", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tool"] == "propaux"
        assert doc["tool_version"]
        return doc["input_digest"]

    def test_envelope_carries_version_and_digest(self, tmp_path):
        text = json.dumps(REF)
        digest = self.written_digest(tmp_path, text)
        assert len(digest) == 64
        assert digest == hashlib.sha256(text.encode()).hexdigest()

    def test_digest_tracks_bytes(self, tmp_path):
        text = json.dumps(REF)
        a = self.written_digest(tmp_path, text)
        assert self.written_digest(tmp_path, text) == a
        assert self.written_digest(tmp_path, text + " ") != a
