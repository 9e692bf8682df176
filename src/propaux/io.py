"""File formats: population CSV, parameter documents, and JSON reports.

Population CSV: UTF-8, header row exactly ``phi,x``, one record per line,
``phi`` in {0, 1}, ``x`` a finite decimal (no thousands separators).

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
from pathlib import Path

from . import __version__
from .errors import ParseError, SchemaError
from .montecarlo import SimulationReport
from .population import Design, PopulationFrame, PopulationParams, check_realizable
from .theory import ConditionResult, SensitivityReport, TheoryReport

_REQUIRED_KEYS = ("n", "n_population", "p", "xbar", "rho_pb", "cp", "cx",
                  "lambda12", "lambda04", "lambda03")

PROVENANCE_FRAME = "computed-from-frame"
PROVENANCE_USER = "user-supplied"


def read_population_csv(path: str | Path) -> PopulationFrame:
    """Read a population frame, reporting failures with 1-based line numbers."""
    records: list[tuple[int, float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header 'phi,x'") from None
        if [cell.strip() for cell in header] != ["phi", "x"]:
            raise SchemaError(f"{path}: expected header 'phi,x', got {','.join(header)!r}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line=line)
            raw_phi, raw_x = row[0].strip(), row[1].strip()
            if raw_phi not in ("0", "1"):
                raise ParseError(f"attribute must be 0 or 1, got {raw_phi!r}", line=line)
            try:
                x = float(raw_x)
            except ValueError:
                raise ParseError(f"cannot parse auxiliary value {raw_x!r}", line=line) from None
            if not math.isfinite(x):
                raise ParseError(f"auxiliary value must be finite, got {raw_x!r}", line=line)
            records.append((int(raw_phi), x))
    if len(records) < 2:
        raise SchemaError(f"{path}: a population needs at least 2 records")
    return PopulationFrame.from_records(records)


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
