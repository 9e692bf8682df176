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

Parameter documents and JSON reports are read and written by ``documents``,
which does not import numpy; each of its names is re-exported here.
"""

from __future__ import annotations

import csv
import math
import os
from io import StringIO
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import ascii_number
from .documents import (  # noqa: F401  (re-exported)
    PROVENANCE_FRAME,
    PROVENANCE_USER,
    ParamsDocument,
    build_report_document,
    conditions_dict,
    decode_utf8,
    file_digest,
    read_json,
    read_params_json,
    sensitivity_report_dict,
    simulation_report_dict,
    theory_report_dict,
    write_params_json,
    write_report_json,
)
from .errors import ParseError, SchemaError
from .population import PopulationFrame

_BINARY = frozenset(("0", "1"))
#: The 8 bytes of the ``U2`` cells ``0`` and ``1``, each read as one integer.
_U2_ZERO, _U2_ONE = np.array(["0", "1"], dtype="U2").view(np.uint64)


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


def _read_canonical(path: str | Path, data: bytes) -> PopulationFrame | None:
    """The frame of a canonical file (see the module docstring), parsed by
    numpy's C reader, or None for any other file.

    ``loadtxt`` is given the path, not ``data``: it streams a path in C
    chunks but would read a file object line by line in Python. So the file
    is opened a second time, as ``file_digest`` also does. The path is made
    absolute, because numpy would fetch a relative one that parses as a URL,
    and a name with a suffix numpy decompresses is left to the checked route.
    The tokenizer requires two fields on every non-blank line, skips blank
    lines and handles LF, CRLF and CR, as ``csv.reader`` splits such a file.
    """
    path = os.path.abspath(path)
    # ``U2`` drops trailing NULs, so ``1\0`` would read as ``1``; a comma after
    # the header means some line holds data, so ``loadtxt`` does not warn
    if not (data.isascii() and data[:6] in (b"phi,x\n", b"phi,x\r")
            and not path.endswith((".bz2", ".gz", ".lzma", ".xz"))
            and data.find(b",", 6) > 0
            and b'"' not in data and b"_" not in data and b"\0" not in data):
        return None
    try:
        records = np.loadtxt(path, dtype=[("phi", "U2"), ("x", "f8")], delimiter=",",
                             skiprows=1, comments=None, quotechar=None, encoding="ascii",
                             ndmin=1)
    except ValueError:
        return None
    cells = records["phi"].view(np.uint64)  # compared as integers: a string compare is 5x slower
    one = cells == _U2_ONE
    x = records["x"]  # strided; the frame keeps a C-contiguous copy
    if records.size < 2 or not (one | (cells == _U2_ZERO)).all() or not np.isfinite(x).all():
        return None
    return PopulationFrame(one, x)


def read_population_csv(path: str | Path) -> PopulationFrame:
    """Read a population frame, reporting failures with 1-based line numbers.

    A canonical file is parsed in C by ``_read_canonical``. Any other file,
    and any file that route turns down, is checked and converted column by
    column. Only when a check fails are the records walked, one
    ``_row_error`` call each, up to the first bad one.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    frame = _read_canonical(path, data)
    if frame is not None:
        return frame
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
