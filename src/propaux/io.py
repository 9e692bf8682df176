"""File formats: population CSV, parameter documents, and JSON reports.

Population CSV: UTF-8, header row ``phi,x``, then one record ``phi,x`` per
line, ``phi`` in {0, 1} and ``x`` a finite ASCII decimal or exponent literal
without ``_`` (``12.5``, ``-3``, ``1e-07``; no thousands separators). Lines
end in LF, CRLF or CR. Blank lines are skipped but still counted in the line
numbers of errors. Cells may be padded with spaces or double-quoted.

Parameter document (JSON, lower-snake-case keys): the population summary
statistics plus the design. A document computed from a frame carries every
field; a hand-written document needs only

    n, n_population, p, xbar, rho_pb, cp, cx, lambda12, lambda04, lambda03

with ``sx2 = (cx*xbar)^2`` and ``sp2 = (cp*p)^2`` derived.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from io import StringIO
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ParseError, SchemaError
from .montecarlo import SimulationReport
from .population import Design, PopulationFrame, PopulationParams, check_realizable
from .theory import ConditionResult, SensitivityReport, TheoryReport

_REQUIRED_KEYS = ("n", "n_population", "p", "xbar", "rho_pb", "cp", "cx",
                  "lambda12", "lambda04", "lambda03")

PROVENANCE_FRAME = "computed-from-frame"
PROVENANCE_USER = "user-supplied"

_BINARY = frozenset(("0", "1"))


class _PlainRecords:
    """The records of a file without quotes, split as ``csv.reader`` splits
    them: at every ``\\n``, ``\\r\\n`` or ``\\r``, then at every comma.

    Line ends and commas are located with numpy over the UTF-8 bytes (neither
    byte occurs inside a multi-byte character); no Python step runs per record.
    ``_QuotedRecords`` would split these files right too, but its one list
    per record doubles the time of a large read and raises its peak memory.
    """

    def __init__(self, data: bytes):
        head, _, body = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").partition(b"\n")
        self.header = head.decode("utf-8").split(",")
        if body and not body.endswith(b"\n"):
            body += b"\n"
        self.body = np.frombuffer(body, dtype=np.uint8)
        self.ends = np.flatnonzero(self.body == ord("\n"))
        lengths = np.diff(self.ends, prepend=-1) - 1
        self.starts = self.ends - lengths
        commas = np.flatnonzero(self.body == ord(","))
        self.fields = np.diff(np.searchsorted(commas, self.ends), prepend=0) + 1
        self.fields[lengths == 0] = 0

    def cells(self, stop: int) -> tuple[list[str], list[str]]:
        """The phi and x cells of the non-blank records before record ``stop``,
        each of which has two fields."""
        end = self.starts[stop] if stop < self.ends.size else self.body.size
        blank = self.ends[:stop][self.fields[:stop] == 0]
        text = np.delete(self.body[:end], blank).tobytes().decode("utf-8")
        if not text:
            return [], []
        cells = text.replace("\n", ",").split(",")
        cells.pop()  # after the last line end
        return cells[0::2], cells[1::2]

    def row(self, record: int) -> list[str]:
        line = self.body[self.starts[record]:self.ends[record]]
        return line.tobytes().decode("utf-8").split(",")


class _QuotedRecords:
    """The records of a file with quotes, which may hold commas and line
    ends: only ``csv.reader`` splits them right."""

    def __init__(self, text: str):
        records = list(csv.reader(StringIO(text, newline="")))
        self.header = records[0]
        self.body = records[1:]
        self.fields = np.fromiter(map(len, self.body), dtype=np.intp, count=len(self.body))

    def cells(self, stop: int) -> tuple[list[str], list[str]]:
        rows = list(filter(None, self.body[:stop]))
        return list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))

    def row(self, record: int) -> list[str]:
        return self.body[record]


def _row_error(row: list[str], line: int) -> ParseError | None:
    """The error a non-blank data row earns, if any: the one copy of the
    per-row rules, which the column checks only locate."""
    if len(row) != 2:
        return ParseError(f"expected 2 fields, got {len(row)}", line=line)
    raw_phi, raw_x = row[0].strip(), row[1].strip()
    if raw_phi not in ("0", "1"):
        return ParseError(f"attribute must be 0 or 1, got {raw_phi!r}", line=line)
    try:
        x = float(raw_x) if raw_x.isascii() and "_" not in raw_x else None
    except ValueError:
        x = None
    if x is None:
        return ParseError(f"cannot parse auxiliary value {raw_x!r}", line=line)
    if not math.isfinite(x):
        return ParseError(f"auxiliary value must be finite, got {raw_x!r}", line=line)
    return None


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _columns(phi_cells: list[str], x_cells: list[str]) -> tuple[np.ndarray, np.ndarray] | int:
    """The phi and x arrays of two-field rows, or the index of the first row
    that ``_row_error`` rejects.

    Each check runs over a whole column; a cell is stripped, or parsed a
    second time, only in a column that fails its bulk check.
    """
    n = len(phi_cells)
    good = np.ones(n, dtype=bool)
    if not _BINARY.issuperset(phi_cells):
        phi_cells = list(map(str.strip, phi_cells))
        if not _BINARY.issuperset(phi_cells):
            cells = np.array(phi_cells, dtype=object)
            good &= (cells == "0") | (cells == "1")
    x_text = "".join(x_cells)
    if not x_text.isascii() or "_" in x_text:
        stripped = list(map(str.strip, x_cells))
        good &= np.fromiter(map(str.isascii, stripped), dtype=bool, count=n)
        good &= np.fromiter(map(str.find, stripped, repeat("_")), dtype=np.intp, count=n) < 0
    try:
        x = np.fromiter(map(float, x_cells), dtype=np.float64, count=n)
    except ValueError:
        x = np.fromiter(map(_float_or_nan, x_cells), dtype=np.float64, count=n)
    good &= np.isfinite(x)
    if not good.all():
        return int(np.argmin(good))
    phi = np.frombuffer("".join(phi_cells).encode("ascii"), dtype=np.uint8) - ord("0")
    return phi, x


def read_population_csv(path: str | Path) -> PopulationFrame:
    """Read a population frame, reporting failures with 1-based line numbers.

    The file is checked and converted column by column. Only when a check
    fails is its first bad row found, and ``_row_error`` words the error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        raise SchemaError(f"{path}: empty file, expected header 'phi,x'")
    records = (_QuotedRecords(data.decode("utf-8")) if b'"' in data
               else _PlainRecords(data))
    del data  # the records keep their own copy; freeing this one lowers the peak memory
    if [cell.strip() for cell in records.header] != ["phi", "x"]:
        raise SchemaError(f"{path}: expected header 'phi,x', "
                          f"got {','.join(records.header)!r}")
    fields = records.fields
    filled = np.flatnonzero(fields)
    misshapen = filled[fields[filled] != 2]
    # the records before ``stop`` have two fields each, or none
    stop = int(misshapen[0]) if misshapen.size else fields.size
    columns = _columns(*records.cells(stop))
    if isinstance(columns, int):  # an earlier record breaks a cell rule
        stop = int(filled[columns])
    if stop < fields.size:
        # the line after the header is line 2; blank lines count
        raise _row_error(records.row(stop), line=stop + 2)
    if columns[0].size < 2:
        raise SchemaError(f"{path}: a population needs at least 2 records")
    return PopulationFrame(*columns)


def write_population_csv(path: str | Path, frame: PopulationFrame) -> None:
    """Write a frame; auxiliary values keep full precision (repr round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phi", "x"])
        for phi, x in frame.records():
            writer.writerow([phi, repr(x)])


def _integer(data: dict, key: str) -> int:
    """An integral size; ``int`` alone would read 11.9 as 11 and true as 1."""
    value = data[key]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"parameter document field {key!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ParamsDocument:
    """Population parameters, design, and where the numbers came from."""

    params: PopulationParams
    design: Design
    provenance: str = PROVENANCE_USER

    def to_dict(self) -> dict:
        p = self.params
        return {
            "provenance": self.provenance,
            "n": self.design.n,
            "n_population": p.N,
            "p": p.P,
            "xbar": p.xbar,
            "sx2": p.sx2,
            "sp2": p.sp2,
            "cp": p.cp,
            "cx": p.cx,
            "rho_pb": p.rho_pb,
            "lambda03": p.lambda03,
            "lambda04": p.lambda04,
            "lambda12": p.lambda12,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParamsDocument":
        if not isinstance(data, dict):
            raise SchemaError("parameter document must be a JSON object")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise SchemaError(f"parameter document is missing keys: {', '.join(missing)}")
        try:
            n, big_n = _integer(data, "n"), _integer(data, "n_population")
            numbers = {key: float(data[key]) for key in _REQUIRED_KEYS[2:]}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"parameter document has a non-numeric field: {exc}") from None
        sx2 = float(data["sx2"]) if "sx2" in data else (numbers["cx"] * numbers["xbar"]) ** 2
        sp2 = float(data["sp2"]) if "sp2" in data else (numbers["cp"] * numbers["p"]) ** 2
        params = PopulationParams(
            N=big_n,
            P=numbers["p"],
            xbar=numbers["xbar"],
            sx2=sx2,
            sp2=sp2,
            cp=numbers["cp"],
            cx=numbers["cx"],
            rho_pb=numbers["rho_pb"],
            lambda03=numbers["lambda03"],
            lambda04=numbers["lambda04"],
            lambda12=numbers["lambda12"],
        )
        check_realizable(params)
        provenance = data.get("provenance", PROVENANCE_USER)
        return cls(params=params, design=Design(n=n, N=big_n), provenance=provenance)


def read_json(path: str | Path):
    """The JSON value of a file; malformed JSON is a ``ParseError``."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None


def read_params_json(path: str | Path) -> ParamsDocument:
    return ParamsDocument.from_dict(read_json(path))


def write_params_json(path: str | Path, doc: ParamsDocument) -> None:
    write_report_json(path, doc.to_dict())


def file_digest(path: str | Path) -> str:
    """sha256 of the raw input bytes, recorded in every report."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def theory_report_dict(report: TheoryReport) -> dict:
    return {
        "design": {"n": report.design.n, "n_population": report.design.N,
                   "f": report.design.f},
        "entries": [asdict(entry) for entry in report.entries],
    }


def simulation_report_dict(report: SimulationReport) -> dict:
    return asdict(report) | {"rows": [asdict(row) for row in report.rows]}


def sensitivity_report_dict(report: SensitivityReport) -> dict:
    return {
        "digits": report.digits,
        "step": report.step,
        "intervals": [asdict(interval) for interval in report.intervals],
    }


def conditions_dict(conditions: tuple[ConditionResult, ...]) -> list[dict]:
    return [asdict(result) for result in conditions]


def build_report_document(*, input_digest: str, configurations: dict,
                          sections: dict) -> dict:
    """Assemble the self-describing report envelope."""
    return {
        "tool": "propaux",
        "tool_version": __version__,
        "input_digest": input_digest,
        "configurations": configurations,
        **sections,
    }


def write_report_json(path: str | Path, document: dict) -> None:
    """Write a JSON document: two-space indent and a final newline."""
    Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
