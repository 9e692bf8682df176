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
  and ``_columns`` converts them column by column. It is the only route
  that reads quoted, padded or non-ASCII cells, and the only one that words
  errors. ``csv.reader`` caps every cell at ``csv.field_size_limit()``.

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
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .documents import (  # noqa: F401  (re-exported)
    PROVENANCE_FRAME,
    PROVENANCE_USER,
    ParamsDocument,
    build_report_document,
    conditions_dict,
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
        # stripped as ``_row_error`` strips: ``float`` keeps ``\x1c``-``\x1f``
        # padding in an ASCII cell, which ``str.strip`` drops
        return float(cell.strip())
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
    column. Only when a check fails is its first bad row found, and
    ``_row_error`` words the error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    frame = _read_canonical(path, data)
    if frame is not None:
        return frame
    if not data:
        raise SchemaError(f"{path}: empty file, expected header 'phi,x'")
    try:
        stream = StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:  # named at the line of the first bad byte
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(f"{path} is not valid UTF-8 ({exc.reason})",
                         line=head.count(b"\n") + 1) from None
    del data  # the stream holds its own copy; freeing this one lowers the peak memory
    reader = csv.reader(stream)
    try:
        header, *body = reader
    except csv.Error as exc:  # such as a cell over ``csv.field_size_limit()``
        raise ParseError(str(exc), line=reader.line_num) from None
    stream.close()  # frees the stream's copy of the file, 4 bytes a character
    if [cell.strip() for cell in header] != ["phi", "x"]:
        raise SchemaError(f"{path}: expected header 'phi,x', got {','.join(header)!r}")
    counts = np.fromiter(map(len, body), dtype=np.intp, count=len(body))
    filled = np.flatnonzero(counts)
    misshapen = filled[counts[filled] != 2]
    # the records before ``stop`` have two fields each, or none
    stop = int(misshapen[0]) if misshapen.size else counts.size
    rows = list(filter(None, body[:stop]))
    columns = _columns(list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows)))
    if isinstance(columns, int):  # an earlier record breaks a cell rule
        stop = int(filled[columns])
    if stop < counts.size:
        # the line after the header is line 2; blank lines count
        raise _row_error(body[stop], line=stop + 2)
    if columns[0].size < 2:
        raise SchemaError(f"{path}: a population needs at least 2 records")
    return PopulationFrame(*columns)


def write_population_csv(path: str | Path, frame: PopulationFrame) -> None:
    """Write a frame; auxiliary values keep full precision (repr round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("phi,x\r\n")
        handle.writelines(map("{},{!r}\r\n".format, frame.phi.tolist(), frame.x.tolist()))
