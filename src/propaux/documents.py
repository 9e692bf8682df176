"""File formats without numpy: parameter documents and JSON reports.

Parameter document (JSON, lower-snake-case keys): the population summary
statistics plus the design. A document computed from a frame carries every
field; a hand-written document needs only

    n, n_population, p, xbar, rho_pb, cp, cx, lambda12, lambda04, lambda03

with ``sx2 = (cx*xbar)^2`` and ``sp2 = (cp*p)^2`` derived.

A report is one JSON object: the ``build_report_document`` envelope around
the sections that the ``*_dict`` helpers build. The table commands read and
write only these formats, so they start without numpy. ``io``, which holds
the population CSV format, re-exports every name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ParseError, SchemaError
from .model import Design, PopulationParams, check_realizable
from .theory import ConditionResult, SensitivityReport, TheoryReport

if TYPE_CHECKING:
    from .montecarlo import SimulationReport

_REQUIRED_KEYS = ("n", "n_population", "p", "xbar", "rho_pb", "cp", "cx",
                  "lambda12", "lambda04", "lambda03")

#: The document key of each ``PopulationParams`` field, in field order.
_PARAM_KEYS = tuple((f.name, {"N": "n_population", "P": "p"}.get(f.name, f.name))
                    for f in fields(PopulationParams))

PROVENANCE_FRAME = "computed-from-frame"
PROVENANCE_USER = "user-supplied"


def _number(data: dict, key: str, *, integral: bool = False) -> float | int:
    """A JSON number field as a float, or as an int when ``integral``: a size,
    which ``int`` alone would read from 11.9 as 11 and from true as 1. A
    string or ``bool`` (which Python counts as an int) is no number."""
    value = data[key]
    if integral and (isinstance(value, bool)
                     or isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"parameter document field {key!r} must be an integer, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"parameter document has a non-numeric field: {key!r} is {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal of over 308 digits
        raise SchemaError(f"parameter document field {key!r} is out of range") from None
    return int(value) if integral else number


@dataclass(frozen=True)
class ParamsDocument:
    """Population parameters, design, and where the numbers came from."""

    params: PopulationParams
    design: Design
    provenance: str = PROVENANCE_USER

    def to_dict(self) -> dict:
        return {"provenance": self.provenance, "n": self.design.n,
                **{key: getattr(self.params, name) for name, key in _PARAM_KEYS}}

    @classmethod
    def from_dict(cls, data: dict) -> "ParamsDocument":
        if not isinstance(data, dict):
            raise SchemaError("parameter document must be a JSON object")
        missing = [key for key in _REQUIRED_KEYS if key not in data]
        if missing:
            raise SchemaError(f"parameter document is missing keys: {', '.join(missing)}")
        n = _number(data, "n", integral=True)
        values = {name: _number(data, key, integral=name == "N")
                  for name, key in _PARAM_KEYS if key in data}
        # derived even where the document gives it: a document whose cx*xbar
        # or cp*p squares past the float range is refused either way
        for name, a, b, product in (("sx2", "cx", "xbar", "cx*xbar"),
                                    ("sp2", "cp", "P", "cp*p")):
            try:
                derived = (values[a] * values[b]) ** 2
            except OverflowError:  # float ``**`` raises where ``*`` gives inf
                raise SchemaError(f"{product} is too large: {name} overflows") from None
            values.setdefault(name, derived)
        params = PopulationParams(**values)
        check_realizable(params)
        provenance = data.get("provenance", PROVENANCE_USER)
        return cls(params=params, design=Design(n=n, N=params.N), provenance=provenance)


def decode_utf8(data: bytes, path: str | Path) -> str:
    """The text of a file's bytes, or a ``ParseError`` at the line of the
    first byte that is not UTF-8 (lines end in LF, CRLF or CR)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})",
                         line=head.count(b"\n") + 1) from None


def read_json(path: str | Path):
    """The JSON value of a file; a file that is not UTF-8 or not JSON, or
    that ``json`` cannot read (an integer literal of over 4,300 digits, or
    arrays nested past the recursion limit), is a ``ParseError``."""
    text = decode_utf8(Path(path).read_bytes(), path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ``JSONDecodeError`` is a ``ValueError``
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def read_params_json(path: str | Path) -> ParamsDocument:
    return ParamsDocument.from_dict(read_json(path))


def write_params_json(path: str | Path, doc: ParamsDocument) -> None:
    write_report_json(path, doc.to_dict())


def file_digest(path: str | Path) -> str:
    """sha256 of the raw input bytes, recorded in every report."""
    import hashlib  # loads OpenSSL's _hashlib, which only a digest needs
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# The report rows are flat dataclasses, so a copy of each row's ``vars()``
# has ``asdict``'s keys, in field order, and its values, without its deep
# copy; an entry's ``constants`` and ``formulas`` dicts are shared, not copied.


def theory_report_dict(report: TheoryReport) -> dict:
    return {
        "design": {"n": report.design.n, "n_population": report.design.N,
                   "f": report.design.f},
        "entries": [dict(vars(entry)) for entry in report.entries],
    }


def simulation_report_dict(report: SimulationReport) -> dict:
    return {**vars(report), "rows": [dict(vars(row)) for row in report.rows]}


def sensitivity_report_dict(report: SensitivityReport) -> dict:
    return {**vars(report), "intervals": [dict(vars(row)) for row in report.intervals]}


def conditions_dict(conditions: tuple[ConditionResult, ...]) -> list[dict]:
    return [dict(vars(result)) for result in conditions]


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
