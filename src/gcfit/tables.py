"""Exact discrete probability tables over named categorical variables.

Tables are stored densely, shaped by the schema's cardinalities, in
row-major (C) order of the schema.  All objects here are immutable after
construction; every operation returns a new object.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import EmptyDataset, GcfitError, InvalidState, ParseError, ZeroProbabilityEvidence
from .graphs import VariableSchema

NORMALIZATION_TOL = 1e-9
_CSV_WRITE_ROWS = 4096
_ZERO = ord("0")


@dataclass(frozen=True)
class ProbTable:
    """Normalized joint distribution over a schema's variables."""

    schema: VariableSchema
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float).reshape(self.schema.shape).copy()
        # written as what is accepted, so that NaN fails both checks
        if not np.all(arr >= 0):
            raise GcfitError("probabilities must be nonnegative, not NaN")
        if not abs(arr.sum() - 1.0) <= NORMALIZATION_TOL:
            raise GcfitError(f"probabilities sum to {arr.sum()!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def from_weights(cls, schema: VariableSchema, weights) -> "ProbTable":
        arr = np.asarray(weights, dtype=float).reshape(schema.shape)
        total = arr.sum()
        if total <= 0:
            raise GcfitError("weights must have positive total")
        return cls(schema, arr / total)

    def cell(self, assignment) -> float:
        return float(self.probs[tuple(assignment)])

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
        axis = self.schema.index(variable)
        card = self.schema.cardinalities[axis]
        if not 0 <= value < card:
            raise InvalidState(f"state {value} out of range for {variable!r}")
        if len(self.schema.names) < 2:
            raise GcfitError("cannot condition away the only variable")
        slice_ = np.take(self.probs, value, axis=axis)
        total = slice_.sum()
        if total <= 0:
            raise ZeroProbabilityEvidence(variable, value)
        rest = self.schema.subset(set(self.schema.names) - {variable})
        return ProbTable(rest, slice_ / total)


@dataclass(frozen=True)
class Dataset:
    """Complete-case dataset: one integer state per variable per row.

    ``rows`` holds the states in the schema's narrowest unsigned dtype,
    ``np.min_scalar_type(max cardinality - 1)``: uint8 up to 256 states,
    uint16 up to 65 536.  Arithmetic in that dtype wraps, so a caller that
    computes with the rows widens them first (``rows.astype(np.int64)``).
    """

    schema: VariableSchema
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        names, cards = self.schema.names, self.schema.cardinalities
        arr = np.asarray(self.rows)
        # a zero-column dataset keeps its row count
        arr = arr.reshape(-1, len(names)) if names else arr.reshape(len(arr), 0)
        if arr.dtype.kind not in "biu":
            # a cell that is not a whole number is no state: never truncate it
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
        arr = arr.astype(np.min_scalar_type(max(cards, default=1) - 1))
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.index(name)]

    def select(self, keep) -> "Dataset":
        """Dataset restricted to the ``keep`` columns, preserving order."""
        sub = self.schema.subset(keep)
        idx = [self.schema.index(n) for n in sub.names]
        return Dataset(sub, self.rows[:, idx])

    def to_csv(self) -> str:
        """CSV text: the header as `csv_lines` renders the names, then one
        line per row.  With every cardinality at most 10 each cell is one
        digit, so the rows are built as one byte grid (the canonical layout
        `from_csv` decodes without the strict parser)."""
        header = csv_lines([self.schema.names])
        if max(self.schema.cardinalities) <= 10:
            grid = np.empty((len(self), 2 * len(self.schema.names)), dtype=np.uint8)
            grid[:, 1::2] = ord(",")
            grid[:, -1] = ord("\n")
            np.add(self.rows, _ZERO, out=grid[:, ::2], casting="unsafe")
            return header + grid.tobytes().decode("ascii")
        parts = [header]
        # one join per block of rows: a join over the whole rows.tolist()
        # holds several times the output's size at once
        for start in range(0, len(self), _CSV_WRITE_ROWS):
            block = self.rows[start:start + _CSV_WRITE_ROWS].tolist()
            parts.append("".join(",".join(map(str, r)) + "\n" for r in block))
        return "".join(parts)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str, schema: VariableSchema, path=None) -> "Dataset":
        """Strict CSV parse: header must equal the schema names, cells must be
        in-range integers.  Errors report line and column numbers (1-based).

        Text in the canonical layout (the header as `csv_lines` renders the
        names, then rows of single-digit cells separated by commas, each
        ended by one LF) is checked and decoded as one byte grid instead.
        That layout is a strict subset of what the strict parser accepts,
        and on it both give the identical rows; everything `to_csv` writes
        with every cardinality at most 10 is in it.  Any other text (CRLF,
        blank lines, quoted or padded cells, multi-digit states, ...) goes
        to the strict parser, the only source of error messages."""
        rows = _canonical_rows(text, schema)
        if rows is not None:
            return cls(schema, rows)
        reader = _csv_records(text, path)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", path=path, line=1)
        if tuple(header) != schema.names:
            raise ParseError(
                f"header {header!r} does not match schema {list(schema.names)!r}",
                path=path,
                line=1,
            )
        rows = []
        for line_no, row in enumerate(reader, start=2):
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
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), len(schema.names))
        return cls(schema, arr)

    @classmethod
    def read_csv(cls, path, schema: VariableSchema) -> "Dataset":
        """`from_csv` of the file's UTF-8 text.  The canonical layout is
        decoded from the file's bytes as read, without building the text."""
        with open(path, "rb") as fh:
            raw = fh.read()
        rows = _canonical_rows(raw, schema)
        if rows is not None:
            return cls(schema, rows)
        return cls.from_csv(raw.decode("utf-8"), schema, path=path)


def _csv_records(text: str, path):
    """The records of ``text`` as `csv.reader` splits them; a line it
    cannot split (a bare CR outside quotes, ...) raises ParseError."""
    reader = csv.reader(io.StringIO(text))
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", path=path, line=reader.line_num) from None
        yield record


def csv_lines(records) -> str:
    """``records`` as `csv.writer` renders them, each line ended by one LF.
    They are rendered with a CRLF terminator, which quotes every field
    holding a CR or an LF; an LF terminator leaves a bare CR unquoted."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(records)
    return "".join(line[:-2] + "\n" for line in lines)


def _canonical_rows(text, schema: VariableSchema):
    """The rows of ``text`` (a str, or its UTF-8 bytes) as a uint8 array if it
    is in the canonical layout of `Dataset.from_csv`, else None."""
    header = csv_lines([schema.names])
    try:
        # a header the csv module on this Python cannot read back is not canonical
        if list(csv.reader(io.StringIO(header))) != [list(schema.names)]:
            return None
        head = header.encode("utf-8")
    except (csv.Error, UnicodeEncodeError):
        return None
    # a lone surrogate passes as bytes that no canonical body holds
    raw = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    width = 2 * len(schema.names)
    if not raw.startswith(head) or not width or (len(raw) - len(head)) % width:
        return None
    grid = np.frombuffer(raw, dtype=np.uint8, offset=len(head)).reshape(-1, width)
    digits = grid[:, ::2] - np.uint8(_ZERO)  # a byte below "0" wraps past 9
    if not (
        (grid[:, 1:-1:2] == ord(",")).all()
        and (grid[:, -1] == ord("\n")).all()
        and (digits < np.minimum(schema.cardinalities, 10)).all()
    ):
        return None
    return digits


def count_rows(data: Dataset, names) -> np.ndarray:
    """Row counts of every joint state of the ``names`` columns, as a float
    array with one axis per name, in the order given."""
    shape = tuple(data.schema.cardinality(n) for n in names)
    flat = np.ravel_multi_index([data.column(n) for n in names], shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).astype(float).reshape(shape)


def check_smoothing(smoothing: float) -> None:
    """Laplace smoothing must be a finite number >= 0 (not NaN or inf)."""
    if not 0 <= smoothing < math.inf:
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
