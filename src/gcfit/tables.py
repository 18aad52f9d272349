"""Exact discrete probability tables over named categorical variables.

Tables are stored densely, shaped by the schema's cardinalities, in
row-major (C) order of the schema.  All objects here are immutable after
construction; every operation returns a new object.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from types import SimpleNamespace

import numpy as np

from .errors import EmptyDataset, GcfitError, InvalidState, ParseError, SchemaMismatch
from .errors import ZeroProbabilityEvidence
from .graphs import VariableSchema, _Record, check_utf8, decode_utf8

NORMALIZATION_TOL = 1e-9
_CSV_WRITE_ROWS = 4096
_CSV_READ_ROWS = 4096
# a canonical cell as a little-endian 2-byte word: the digit's byte, then
# its separator's; the last cell of a line ends in LF rather than ","
_CELL = np.uint16(ord("0") | ord(",") << 8)
_LAST_CELL_FIX = np.uint16((ord(",") - ord("\n")) << 8)


def float_array(values, what: str) -> np.ndarray:
    """``values``, numbers in an array or in nested sequences, as a float
    array (``values`` itself when it is one).  Strings, bools, other
    objects and ragged nesting raise GcfitError naming ``what``:
    ``np.asarray(dtype=float)`` would read "0.5" as 0.5 and True as 1."""
    try:
        arr = np.asarray(values)
        # numpy reads a bool among numbers as a number, so each item of a sequence is checked
        ok = arr.dtype.kind in "iuf" and (isinstance(values, np.ndarray) or not any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise GcfitError(f"{what} must be numbers in a regular array, not strings or bools")
    return arr.astype(float, copy=False)


class ProbTable(_Record):
    """Normalized joint distribution over a schema's variables, given in
    the schema's shape or flat in row-major order."""

    _fields = __slots__ = ("schema", "probs")
    _hidden = ("probs",)

    def __init__(self, schema: VariableSchema, probs: np.ndarray):
        arr, cards = float_array(probs, "probabilities"), schema.cardinalities
        if arr.shape not in ((schema.n_cells,), cards):
            raise SchemaMismatch(f"probabilities of shape {arr.shape} do not fit cells {cards}")
        arr = arr.reshape(cards).copy()
        # written as what is accepted, so that NaN fails both checks
        if not np.all(arr >= 0):
            raise GcfitError("probabilities must be nonnegative, not NaN")
        if not abs(arr.sum() - 1.0) <= NORMALIZATION_TOL:
            raise GcfitError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr.setflags(write=False)
        super().__init__(schema, arr)

    @classmethod
    def from_weights(cls, schema: VariableSchema, weights) -> "ProbTable":
        # in C order: numpy sums in memory order, so a total would follow the layout
        arr = np.asarray(float_array(weights, "weights"), order="C")
        total = arr.sum()
        if total <= 0:
            raise GcfitError("weights must have positive total")
        return cls(schema, arr / total)

    def flat(self) -> np.ndarray:
        """Row-major flattened view of the table."""
        return self.probs.reshape(-1)

    def marginalize(self, keep) -> "ProbTable":
        """Sum out every variable not in ``keep``."""
        keep = set(keep)
        if not keep:
            raise GcfitError("keep set must be nonempty")
        sub = self.schema.subset(keep)
        drop_axes = tuple(i for i, n in enumerate(self.schema.names) if n not in keep)
        arr = self.probs.sum(axis=drop_axes) if drop_axes else self.probs
        return ProbTable(sub, arr)

    def condition(self, variable: str, value: int) -> "ProbTable":
        """Distribution of the remaining variables given ``variable=value``."""
        self.schema.check_state(variable, value)
        if len(self.schema.names) < 2:
            raise GcfitError("cannot condition away the only variable")
        slice_ = np.take(self.probs, value, axis=self.schema.index(variable))
        total = slice_.sum()
        if total <= 0:
            raise ZeroProbabilityEvidence(variable, value)
        rest = self.schema.subset(set(self.schema.names) - {variable})
        return ProbTable(rest, slice_ / total)


class Dataset(_Record):
    """Complete-case dataset: one integer state per variable per row.

    ``rows`` is given as a 2-D array, in any layout, with one column per
    variable (``[]`` is no rows); any other shape raises SchemaMismatch,
    and a cell that is not a state (a string, a fraction, NaN, inf or out
    of range) raises InvalidState.  ``rows`` holds the states row-major,
    in the schema's narrowest unsigned dtype, ``np.min_scalar_type(max
    cardinality - 1)``: uint8 up to 256 states, uint16 up to 65 536.
    Arithmetic in that dtype wraps, so a caller that computes with the
    rows widens them first (``rows.astype(np.int64)``).
    """

    _fields = __slots__ = ("schema", "rows")
    _hidden = ("rows",)

    def __init__(self, schema: VariableSchema, rows: np.ndarray):
        names, cards = schema.names, schema.cardinalities
        try:
            arr = np.asarray(rows)
        except ValueError:  # ragged nesting
            raise SchemaMismatch(f"ragged rows are not rows of {len(names)} columns") from None
        arr = arr.reshape(0, len(names)) if arr.shape == (0,) else arr  # [] is no rows
        if arr.ndim != 2 or arr.shape[1] != len(names):
            raise SchemaMismatch(f"rows of shape {arr.shape} are not rows of {len(names)} columns")
        # a cell that is not a real number is no state: never parse a string
        # or drop an imaginary part
        if arr.dtype.kind not in "biuf" and not (
            arr.dtype.kind == "O" and all(isinstance(v, (numbers.Real, np.bool_)) for v in arr.flat)
        ):
            raise InvalidState("cells must be whole numbers, not strings, complex numbers "
                               "or other objects")
        if arr.dtype.kind not in "biu":
            arr = arr.astype(float)
            if not (np.isfinite(arr) & (np.floor(arr) == arr)).all():
                raise InvalidState("cells must be whole numbers, not fractions, NaN or inf")
        # the range is checked before narrowing, so no value wraps into it; the
        # columns are scanned one by one only when the whole array's extremes
        # leave the smallest range
        if arr.size and (arr.min() < 0 or arr.max() >= min(cards)):
            for j, (name, card) in enumerate(zip(names, cards)):
                col = arr[:, j]
                if col.min() < 0 or col.max() >= card:
                    raise InvalidState(f"column {name!r} has values outside 0..{card - 1}")
        arr = arr.astype(row_dtype(cards), order="C")
        arr.setflags(write=False)
        super().__init__(schema, arr)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.index(name)]

    def select(self, keep) -> "Dataset":
        """Dataset restricted to the ``keep`` columns, preserving order."""
        sub = self.schema.subset(keep)
        idx = [self.schema.index(n) for n in sub.names]
        return Dataset(sub, self.rows[:, idx])

    def write_csv(self, path) -> None:
        """The `csv_header` of the names, then one line per row: with every
        cardinality at most 10, little-endian 2-byte cells, each a digit then
        a comma or, last in its line, an LF (the canonical layout `read_csv`
        decodes without the strict parser), made by one add over all cells;
        else text, one block of rows at a time, since a join over the whole
        rows.tolist() holds several times the output's size at once.  No
        columns, or a name `csv_header` refuses, raise GcfitError first."""
        cards = self.schema.cardinalities
        if not cards:
            raise GcfitError("a zero-column dataset has no CSV: its lines would be blank, "
                             "and blank lines cannot keep its row count")
        header = csv_header(self.schema.names)
        with open(path, "wb") as fh:
            fh.write(header)
            if max(cards) <= 10:
                cells = self.rows + _CELL  # uint8 rows: one uint16 word per cell
                cells[:, -1] -= _LAST_CELL_FIX
                fh.write(cells.astype("<u2", copy=False))
            else:
                for start in range(0, len(self), _CSV_WRITE_ROWS):
                    block = self.rows[start:start + _CSV_WRITE_ROWS].tolist()
                    fh.write("".join(",".join(map(str, r)) + "\n" for r in block).encode("ascii"))

    @classmethod
    def read_csv(cls, path, schema: VariableSchema) -> "Dataset":
        """Strict CSV parse of the file's UTF-8 text: the header must equal
        the schema names, cells must be in-range integers.  Errors report
        line and column numbers (1-based); bytes that are not UTF-8 are a
        `ParseError`.

        A file in the canonical layout (the header as `csv_lines` renders
        the names, then rows of single-digit cells separated by commas, each
        ended by one LF) is checked and decoded from its bytes instead, a
        block of rows at a time, without building the text.  That layout is
        a strict subset of what the strict parser accepts, and on it both
        give the identical rows; everything `write_csv` writes with every
        cardinality at most 10 is in it.  Any other file (CRLF, blank lines,
        quoted or padded cells, multi-digit states, ...) goes to the strict
        parser, the only source of error messages."""
        with open(path, "rb") as fh:
            raw = fh.read()
        rows = _canonical_rows(raw, schema)
        if rows is None:
            rows = cls._strict_rows(decode_utf8(raw, path), schema, path)
        return cls(schema, rows)

    @staticmethod
    def _strict_rows(text: str, schema: VariableSchema, path) -> np.ndarray:
        """The rows of ``text`` by the strict parser of `read_csv`."""
        reader = _csv_records(text, path)
        _, header = next(reader, (1, None))
        if header is None:
            raise ParseError("empty file", path=path, line=1)
        if tuple(header) != schema.names:
            raise ParseError(
                f"header {header!r} does not match schema {list(schema.names)!r}",
                path=path,
                line=1,
            )
        rows = []
        for line_no, row in reader:
            if not row:
                continue
            if len(row) != len(schema.names):
                raise ParseError(
                    f"expected {len(schema.names)} fields, got {len(row)}",
                    path=path,
                    line=line_no,
                )
            parsed = []
            for col_no, (cell, card) in enumerate(zip(row, schema.cardinalities), start=1):
                try:
                    # int() would also read "1_0" as 10 and a non-ASCII digit such as "١" as 1
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(cell)
                    value = int(cell)
                except ValueError:
                    raise ParseError(
                        f"non-integer cell {cell!r}", path=path, line=line_no, column=col_no
                    ) from None
                if not 0 <= value < card:
                    raise ParseError(
                        f"state {value} out of range 0..{card - 1}",
                        path=path,
                        line=line_no,
                        column=col_no,
                    )
                parsed.append(value)
            rows.append(parsed)
        return np.array(rows, dtype=np.int64)


def row_dtype(cardinalities) -> np.dtype:
    """The dtype of a `Dataset`'s rows over these cardinalities."""
    return np.min_scalar_type(max(cardinalities, default=1) - 1)


def _csv_records(text: str, path):
    """(first line, record) for each record of ``text`` as `csv.reader`
    splits them, a quoted field holding an LF spanning several lines; a
    line it cannot split (a bare CR outside quotes, ...) raises ParseError."""
    reader = csv.reader(io.StringIO(text))
    while True:
        line = reader.line_num + 1
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", path=path, line=reader.line_num) from None
        yield line, record


def csv_lines(records) -> str:
    """``records`` as `csv.writer` renders them, each line ended by one LF.
    They are rendered with a CRLF terminator, which quotes every field
    holding a CR or an LF; an LF terminator leaves a bare CR unquoted."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(records)
    return "".join(line[:-2] + "\n" for line in lines)


def csv_header(names) -> bytes:
    """``names`` as `csv_lines` renders them, in UTF-8; a name UTF-8 cannot
    encode raises GcfitError (`check_utf8`)."""
    for name in names:
        check_utf8(name)
    return csv_lines([names]).encode("utf-8")


def _canonical_rows(raw: bytes, schema: VariableSchema):
    """The rows of ``raw``, a file's bytes, as a uint8 array if they are in
    the canonical layout of `Dataset.read_csv`, else None.

    The body is read as little-endian 2-byte cells, less the word of a
    digit-0 cell: a cell in the layout is its digit, and any other (a wrong
    separator, a byte that is no digit) wraps to 10 or more, so one bound
    per column checks the layout.  The 2-byte differences are made one
    block of `_CSV_READ_ROWS` rows at a time, so they never span the file."""
    header = csv_lines([schema.names])
    try:
        # a header the csv module on this Python cannot read back is not canonical
        if list(csv.reader(io.StringIO(header))) != [list(schema.names)]:
            return None
        head = header.encode("utf-8")
    except (csv.Error, UnicodeEncodeError):
        return None
    n = len(schema.names)
    if not raw.startswith(head) or not n or (len(raw) - len(head)) % (2 * n):
        return None
    cells = np.frombuffer(raw, dtype="<u2", offset=len(head)).reshape(-1, n)
    bounds = np.minimum(schema.cardinalities, 10)
    rows = np.empty(cells.shape, dtype=np.uint8)
    for start in range(0, len(cells), _CSV_READ_ROWS):
        digits = cells[start:start + _CSV_READ_ROWS] - _CELL
        digits[:, -1] += _LAST_CELL_FIX
        # the columns are bounded one by one only when some cell reaches
        # the smallest bound: a reduction per column is the slow one
        if digits.max() >= bounds.min() and (digits.max(axis=0) >= bounds).any():
            return None
        rows[start:start + _CSV_READ_ROWS] = digits
    return rows


def row_codes(rows: np.ndarray, cols, cards) -> np.ndarray:
    """A code for each row's ``cols``: two codes are equal exactly when
    their rows agree on those columns, and the codes sort as the rows sort
    lexicographically on them.

    Up to 2**63 cells in the scope, the code is the row-major cell index,
    by Horner's rule over those columns alone, in the narrowest unsigned
    dtype that holds the cell count, the largest factor, so no partial code
    wraps; past uint32 they are int64, because `np.bincount` takes no
    uint64.  Narrow passes over narrow rows are the fast ones.  In a wider
    scope, before a column would take the codes past int64, the codes so
    far are replaced by their ranks among the distinct codes."""
    cells = math.prod(cards[c] for c in cols)
    codes = np.zeros(len(rows), dtype=np.min_scalar_type(cells) if cells < 2**32 else np.int64)
    bound = 1  # every code so far is below it
    for col in cols:
        if bound * cards[col] > 2**63:
            seen, codes = np.unique(codes, return_inverse=True)
            bound = len(seen)
        codes *= cards[col]
        codes += rows[:, col]
        bound *= cards[col]
    return codes


def count_rows(data: Dataset, names) -> np.ndarray:
    """Row counts of every joint state of the ``names`` columns, as a float
    array with one axis per name, in the order given."""
    schema = data.schema
    shape = tuple(schema.cardinality(n) for n in names)
    codes = row_codes(data.rows, [schema.index(n) for n in names], schema.cardinalities)
    return np.bincount(codes, minlength=math.prod(shape)).astype(float).reshape(shape)


def check_smoothing(smoothing: float) -> None:
    """Laplace smoothing must be a finite real number >= 0 (not NaN, inf, a
    bool or a string)."""
    if isinstance(smoothing, bool) or not (
        isinstance(smoothing, numbers.Real) and 0 <= smoothing < math.inf
    ):
        raise GcfitError(f"smoothing must be a finite nonnegative number, got {smoothing!r}")


def empirical_from_dataset(data: Dataset, smoothing: float = 0.0) -> ProbTable:
    """Plug-in (optionally Laplace-smoothed) joint distribution of a dataset.

    cell(x) = (count(x) + smoothing) / (N + smoothing * n_cells)
    """
    check_smoothing(smoothing)
    counts = count_rows(data, data.schema.names) + smoothing
    total = counts.sum()
    if total == 0:
        raise EmptyDataset("cannot estimate from an empty dataset without smoothing")
    return ProbTable(data.schema, counts / total)
