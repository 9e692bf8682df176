"""File formats: population CSV, parameter documents, and JSON reports.

Population CSV: UTF-8, header row ``phi,x``, then one record ``phi,x`` per
line, ``phi`` in {0, 1} and ``x`` a finite ASCII decimal or exponent literal
without ``_`` (``12.5``, ``-3``, ``1e-07``; no thousands separators). Lines
end in LF, CRLF or CR. Blank lines are skipped but still counted in the line
numbers of errors. Cells may be padded with spaces or double-quoted.

A population CSV is read by one of two routes, which give the same frame:

- the C route, for canonical files: ASCII bytes with no ``"``, ``_`` or NUL,
  a first line of exactly ``phi,x``, every ``phi`` exactly ``0`` or ``1``,
  every ``x`` finite and at least 2 records. numpy's ``loadtxt`` parses the
  whole file in C (``_read_canonical``);
- the checked route, for every other file: one ``csv.reader`` splits the
  records, only at ``\\n``, ``\\r\\n`` or ``\\r`` and at commas outside quotes,
  and ``_columns`` checks and converts them column by column. It is the
  only route that reads quoted, padded or non-ASCII cells, and the only one
  that words errors. ``csv.reader`` caps every cell at
  ``csv.field_size_limit()``.

``_columns`` applies ``_row_error``'s rules to whole columns and only
decides whether every record keeps them. When one does not, the records are
walked in file order, and ``_row_error`` alone locates and words the first
that breaks a rule.

On both routes ``x`` is converted by CPython's ``PyOS_string_to_double``, the
correctly rounded routine behind ``float``, so the bits are the same.

Parameter document (JSON, lower-snake-case keys): the population summary
statistics plus the design. A document computed from a frame carries every
field; a hand-written document needs only

    n, n_population, p, xbar, rho_pb, cp, cx, lambda12, lambda04, lambda03

with ``sx2 = (cx*xbar)^2`` and ``sp2 = (cp*p)^2`` derived.

A report is one JSON object, which ``write_report`` writes: the envelope
around the sections that the ``*_dict`` helpers build. ``dumps`` encodes
every JSON document the program writes or prints.

The module imports without numpy, so the table commands, which read and
write only parameter documents and reports, start without it; the CSV
functions load numpy and ``population`` when they are called.
"""

from __future__ import annotations

import csv
import json
import math
import os
from io import StringIO
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .config import ascii_number
from .errors import NumericalError, ParseError, SchemaError
from .theory import (ConditionResult, Design, PopulationParams, SensitivityReport,
                     TheoryReport, check_realizable)

if TYPE_CHECKING:
    import numpy as np

    from .montecarlo import SimulationReport
    from .population import PopulationFrame

_BINARY = frozenset(("0", "1"))


def _row_error(row: list[str], line: int) -> ParseError | None:
    """The error a non-blank data row earns, if any: the one copy of the
    per-row rules, which ``_columns`` applies to whole columns."""
    if len(row) != 2:
        return ParseError(f"expected 2 fields, got {len(row)}", line=line)
    raw_phi, raw_x = row[0].strip(), row[1].strip()
    if raw_phi not in ("0", "1"):
        return ParseError(f"attribute must be 0 or 1, got {raw_phi!r}", line=line)
    try:
        x = ascii_number(raw_x)
    except ValueError:
        return ParseError(f"cannot parse auxiliary value {raw_x!r}", line=line)
    if not math.isfinite(x):
        return ParseError(f"auxiliary value must be finite, got {raw_x!r}", line=line)
    return None


def _columns(rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray] | None:
    """The phi and x arrays of non-blank records, or None if ``_row_error``
    rejects any of them: its rules, each checked over a whole column."""
    import numpy as np

    if not {2}.issuperset(map(len, rows)):
        return None
    phi_cells = list(map(str.strip, map(itemgetter(0), rows)))
    x_cells = list(map(str.strip, map(itemgetter(1), rows)))
    x_text = "".join(x_cells)
    if not _BINARY.issuperset(phi_cells) or not x_text.isascii() or "_" in x_text:
        return None
    try:
        x = np.fromiter(map(float, x_cells), dtype=np.float64, count=len(x_cells))
    except ValueError:
        return None
    if not np.isfinite(x).all():
        return None
    phi = np.frombuffer("".join(phi_cells).encode("ascii"), dtype=np.uint8) - ord("0")
    return phi, x


def _read_canonical(path: str | Path, data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The phi and x arrays of a canonical file (see the module docstring),
    parsed by numpy's C reader, or None for any other file.

    ``loadtxt`` is given the path, not ``data``: it streams a path in C
    chunks but would read a file object line by line in Python. So the file
    is opened a second time, and only a regular file takes this route: a
    second open of a pipe or FIFO, such as ``/dev/stdin``, reads nothing.
    The path is made absolute, because numpy would fetch a relative one that
    parses as a URL, and a name with a suffix numpy decompresses is left to
    the checked route.
    The tokenizer requires two fields on every non-blank line, skips blank
    lines and handles LF, CRLF and CR, as ``csv.reader`` splits such a file.
    """
    import numpy as np

    path = os.path.abspath(path)
    # ``U2`` drops trailing NULs, so ``1\0`` would read as ``1``; a comma after
    # the header means some line holds data, so ``loadtxt`` does not warn
    if not (data.isascii() and data[:6] in (b"phi,x\n", b"phi,x\r")
            and not path.endswith((".bz2", ".gz", ".lzma", ".xz"))
            and data.find(b",", 6) > 0
            and b'"' not in data and b"_" not in data and b"\0" not in data
            and os.path.isfile(path)):
        return None
    try:
        records = np.loadtxt(path, dtype=[("phi", "U2"), ("x", "f8")], delimiter=",",
                             skiprows=1, comments=None, quotechar=None, encoding="ascii",
                             ndmin=1)
    except ValueError:
        return None
    # compared as integers, the 8 bytes of each ``U2`` cell: a string compare is 5x slower
    u2_zero, u2_one = np.array(["0", "1"], dtype="U2").view(np.uint64)
    cells = records["phi"].view(np.uint64)
    one = cells == u2_one
    x = records["x"]  # strided; the frame keeps a C-contiguous copy
    if records.size < 2 or not (one | (cells == u2_zero)).all() or not np.isfinite(x).all():
        return None
    return one, x


def read_population_csv(path: str | Path, data: bytes | None = None) -> PopulationFrame:
    """Read a population frame, reporting failures with 1-based line numbers.

    ``data`` is the file's bytes when the caller has already read them (a
    pipe such as ``/dev/stdin`` gives them only once); when omitted they are
    read from ``path``. Either way the same bytes are parsed the same way.

    A canonical file is parsed in C by ``_read_canonical``. Any other file,
    and any file that route turns down, is checked and converted column by
    column. Only when a check fails are the records walked, one
    ``_row_error`` call each, up to the first bad one.
    """
    from .population import PopulationFrame

    if data is None:
        data = Path(path).read_bytes()
    columns = _read_canonical(path, data)
    if columns is not None:
        return PopulationFrame(*columns)
    if not data:
        raise SchemaError(f"{path}: empty file, expected header 'phi,x'")
    stream = StringIO(decode_utf8(data, path), newline="")
    del data  # the stream holds its own copy; freeing this one lowers the peak memory
    reader = csv.reader(stream)
    try:
        header, *body = reader
    except csv.Error as exc:  # such as a cell over ``csv.field_size_limit()``
        raise ParseError(str(exc), line=reader.line_num) from None
    stream.close()  # frees the stream's copy of the file, 4 bytes a character
    if [cell.strip() for cell in header] != ["phi", "x"]:
        raise SchemaError(f"{path}: expected header 'phi,x', got {','.join(header)!r}")
    columns = _columns(list(filter(None, body)))
    if columns is None:  # the first record in file order that breaks a rule
        # the line after the header is line 2; blank lines count
        raise next(error for line, row in enumerate(body, start=2)
                   if row and (error := _row_error(row, line)))
    if columns[0].size < 2:
        raise SchemaError(f"{path}: a population needs at least 2 records")
    return PopulationFrame(*columns)


def write_population_csv(path: str | Path, frame: PopulationFrame) -> None:
    """Write a frame; auxiliary values keep full precision (repr round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("phi,x\r\n")
        handle.writelines(map("{},{!r}\r\n".format, frame.phi.tolist(), frame.x.tolist()))


_REQUIRED_KEYS = ("n", "n_population", "p", "xbar", "rho_pb", "cp", "cx",
                  "lambda12", "lambda04", "lambda03")

#: The document key of each ``PopulationParams`` field, in field order.
_PARAM_KEYS = tuple((name, {"N": "n_population", "P": "p"}.get(name, name))
                    for name in PopulationParams._fields)

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


class ParamsDocument(NamedTuple):
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


def read_json(path: str | Path, data: bytes | None = None):
    """The JSON value of a file, of its bytes ``data`` if given (see
    ``read_population_csv``); a file that is not UTF-8 or not JSON, or that
    ``json`` cannot read (an integer literal of over 4,300 digits, or arrays
    nested past the recursion limit), is a ``ParseError``."""
    text = decode_utf8(Path(path).read_bytes() if data is None else data, path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ``JSONDecodeError`` is a ``ValueError``
        raise ParseError(f"{path}: invalid JSON ({exc})") from None


def read_params_json(path: str | Path, data: bytes | None = None) -> ParamsDocument:
    """The parameter document of a file, or of its bytes ``data`` if given."""
    return ParamsDocument.from_dict(read_json(path, data))


def write_params_json(path: str | Path, doc: ParamsDocument) -> None:
    write_report_json(path, doc.to_dict())


def read_input(path: str | Path, read) -> tuple:
    """``read(path, data)`` of the bytes ``data`` at ``path``, and their
    sha256, a report's ``input_digest``: one read, since a pipe such as
    ``/dev/stdin`` gives its bytes only once."""
    import hashlib  # loads OpenSSL's _hashlib, which only a digest needs

    data = [Path(path).read_bytes()]
    digest = hashlib.sha256(data[0]).hexdigest()
    # handed over, not shared: the CSV parser frees its copy before it splits the rows
    return read(path, data.pop()), digest


# Every report row is a flat NamedTuple, so each row's ``_asdict()`` has its
# field names as keys, in field order, and its values, without a deep copy;
# an entry's ``constants`` and ``formulas`` dicts are shared, not copied.
# ``json`` would write a NamedTuple as an array, so none is left in a section.


def theory_report_dict(report: TheoryReport) -> dict:
    return {
        "design": {"n": report.design.n, "n_population": report.design.N,
                   "f": report.design.f},
        "entries": [entry._asdict() for entry in report.entries],
    }


def simulation_report_dict(report: SimulationReport) -> dict:
    return {**report._asdict(), "rows": [row._asdict() for row in report.rows]}


def sensitivity_report_dict(report: SensitivityReport) -> dict:
    return {**report._asdict(), "intervals": [row._asdict() for row in report.intervals]}


def conditions_dict(conditions: tuple[ConditionResult, ...]) -> list[dict]:
    return [result._asdict() for result in conditions]


def dumps(document) -> str:
    """The strict JSON text of a document, in two-space indent. One that
    holds NaN or an infinity, which JSON lacks, raises ``NumericalError``
    naming the first."""
    try:
        return json.dumps(document, indent=2, allow_nan=False)
    except ValueError:
        for where, value in _non_finite(document):
            raise NumericalError(f"the report's {where} is {value}, not a JSON number") from None
        raise


def write_report_json(path: str | Path, document: dict) -> None:
    """Write a JSON document (see ``dumps``) and a final newline; nothing is
    written when it cannot be encoded."""
    Path(path).write_text(dumps(document) + "\n", encoding="utf-8")


def write_report(path: str | Path, *, input_digest: str, configurations: dict,
                 sections: dict) -> None:
    """Write the self-describing report envelope around ``sections``."""
    write_report_json(path, {"tool": "propaux", "tool_version": __version__,
                             "input_digest": input_digest,
                             "configurations": configurations, **sections})


def _non_finite(value, where: str = ""):
    """The place and value of each NaN or infinity in ``value``, in the order
    json writes them; a list item is named by its ``name``, if it has one."""
    if isinstance(value, float) and not math.isfinite(value):
        yield where, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            name = item.get("name", k) if isinstance(item, dict) else k
            yield from _non_finite(item, f"{where}[{name}]")
