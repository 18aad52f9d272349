import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcfit import tables

from gcfit import (
    Dataset,
    EmptyDataset,
    GcfitError,
    InvalidState,
    ParseError,
    ProbTable,
    SchemaMismatch,
    UnknownVariable,
    VariableSchema,
    ZeroProbabilityEvidence,
    empirical_from_dataset,
)
from conftest import (
    oracle_condition,
    oracle_csv_rows,
    oracle_csv_text,
    oracle_marginalize,
    random_table,
)


@pytest.fixture
def ab_schema():
    return VariableSchema(("a", "b"), (2, 2))


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A fresh working directory, so that a file read as ``d.csv`` is named so in errors."""
    monkeypatch.chdir(tmp_path)


def read_text(path, text, schema):
    """`Dataset.read_csv` of ``text`` written to ``path`` as UTF-8 bytes, its
    newlines as they are."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return Dataset.read_csv(path, schema)


@pytest.fixture
def ab_table(ab_schema):
    return ProbTable(ab_schema, [[0.5, 0.25], [0.0, 0.25]])


class TestVariableSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(GcfitError):
            VariableSchema(("a", "a"), (2, 2))

    def test_cardinality_below_two_rejected(self):
        with pytest.raises(GcfitError):
            VariableSchema(("a",), (1,))

    @pytest.mark.parametrize("names, cards", [
        (("a", "b"), (2.7, 3)),  # int() would read 2.7 as 2
        (("a", "b"), ("3", 3)),  # and "3" as 3
        (("a", "b"), (math.nan, 3)),
        ("ab", (2, 2)),  # tuple() would split "ab" into a and b
        ((1, 2), (2, 2)),
    ], ids=["fraction", "str-cardinality", "nan-cardinality", "str-names", "int-names"])
    def test_rejects_what_it_would_coerce(self, names, cards):
        with pytest.raises(GcfitError):
            VariableSchema(names, cards)

    def test_subset_preserves_order(self):
        s = VariableSchema(("x", "y", "z"), (2, 3, 2))
        sub = s.subset({"z", "x"})
        assert sub.names == ("x", "z")
        assert sub.cardinalities == (2, 2)

    def test_unknown_variable(self):
        s = VariableSchema(("x",), (2,))
        with pytest.raises(UnknownVariable):
            s.index("q")

    # past 2**63 cells a fixed-width product wraps (to 0 for 64 binary variables)
    @pytest.mark.parametrize("cards", [(2, 3, 2), (2,) * 64, (3,) * 40])
    def test_n_cells_is_exact(self, cards):
        s = VariableSchema(tuple(f"v{i}" for i in range(len(cards))), cards)
        assert s.n_cells == math.prod(cards)


class TestProbTable:
    def test_unnormalized_rejected(self, ab_schema):
        with pytest.raises(GcfitError):
            ProbTable(ab_schema, [[0.5, 0.5], [0.5, 0.5]])

    def test_negative_rejected(self, ab_schema):
        with pytest.raises(GcfitError):
            ProbTable(ab_schema, [[1.5, -0.5], [0.0, 0.0]])

    @pytest.mark.parametrize("probs", [[[math.nan] * 2] * 2, [[0.5, math.nan], [0.25, 0.25]]])
    def test_nan_rejected(self, ab_schema, probs):
        with pytest.raises(GcfitError):
            ProbTable(ab_schema, probs)

    @pytest.mark.parametrize("make, error", [
        (lambda s: ProbTable(s, ["0.25"] * 4), GcfitError),
        (lambda s: ProbTable(s, [[True, False], [False, False]]), GcfitError),
        (lambda s: ProbTable(s, [[1, 0], [0, False]]), GcfitError),
        (lambda s: ProbTable(s, [0.5, 0.5]), SchemaMismatch),
        (lambda s: ProbTable(s, np.full((4, 1), 0.25)), SchemaMismatch),
        (lambda s: ProbTable.from_weights(s, ["1"] * 4), GcfitError),
        (lambda s: ProbTable.from_weights(s, [1, 1, 1]), SchemaMismatch),
    ], ids=["str-entries", "bool-entries", "bool-among-numbers", "too-few-cells",
            "another-shape", "str-weights", "too-few-weights"])
    def test_rejects_what_it_would_coerce(self, ab_schema, make, error):
        # np.asarray(dtype=float) and reshape would accept each of these
        with pytest.raises(error):
            make(ab_schema)

    def test_immutable(self, ab_table):
        with pytest.raises(ValueError):
            ab_table.probs[0, 0] = 1.0

    def test_from_weights_does_not_depend_on_memory_layout(self):
        # numpy sums in memory order: about a third of these weights round
        # to another total in Fortran order than in C order
        schema = VariableSchema(("a", "b", "c", "d"), (3,) * 4)
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = rng.uniform(0.0, 1.0, schema.cardinalities)
            fortran = ProbTable.from_weights(schema, np.asfortranarray(w))
            assert np.array_equal(fortran.probs, ProbTable.from_weights(schema, w).probs)


class TestEmpirical:
    def test_raw_frequencies(self, ab_schema):
        data = Dataset(ab_schema, [[0, 0], [0, 0], [1, 1], [0, 1]])
        table = empirical_from_dataset(data)
        assert table.flat() == pytest.approx([0.5, 0.25, 0.0, 0.25])

    def test_laplace(self, ab_schema):
        data = Dataset(ab_schema, [[0, 0], [0, 0], [1, 1], [0, 1]])
        table = empirical_from_dataset(data, smoothing=1.0)
        assert table.flat() == pytest.approx([3 / 8, 2 / 8, 1 / 8, 2 / 8])

    def test_empty_without_smoothing(self, ab_schema):
        data = Dataset(ab_schema, np.empty((0, 2), dtype=int))
        with pytest.raises(EmptyDataset):
            empirical_from_dataset(data)

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf, "1", True, 1j])
    def test_smoothing_must_be_finite_and_nonnegative(self, ab_schema, smoothing):
        # at the parent "1" and 1j raised a bare TypeError, and True passed as 1
        data = Dataset(ab_schema, [[0, 0], [1, 1]])
        with pytest.raises(GcfitError, match="smoothing"):
            empirical_from_dataset(data, smoothing=smoothing)

    def test_empty_with_smoothing_is_uniform(self, ab_schema):
        data = Dataset(ab_schema, np.empty((0, 2), dtype=int))
        for smoothing in (1.0, 2.0):
            table = empirical_from_dataset(data, smoothing=smoothing)
            assert table.flat().tolist() == [0.25] * 4

    def test_large_sample_close_to_joint(self, fig1_truth):
        from conftest import random_net
        from gcfit import joint, sample

        net = random_net(fig1_truth, np.random.default_rng(11))
        data = sample(net, 10_000, seed=5)
        emp = empirical_from_dataset(data)
        assert np.abs(emp.flat() - joint(net).flat()).sum() < 0.05


class TestMarginalize:
    def test_uniform_stays_uniform(self, ab_schema):
        t = ProbTable(ab_schema, np.full((2, 2), 0.25))
        assert t.marginalize({"a"}).flat() == pytest.approx([0.5, 0.5])

    def test_row_sums(self, ab_table):
        assert ab_table.marginalize({"a"}).flat() == pytest.approx([0.75, 0.25])

    def test_matches_nested_loop_oracle(self):
        schema = VariableSchema(("x1", "x2", "x3"), (2, 3, 2))
        t = random_table(schema, np.random.default_rng(3))
        got = t.marginalize({"x1", "x3"})
        np.testing.assert_allclose(got.probs, oracle_marginalize(t, {"x1", "x3"}), atol=1e-14)

    def test_projection_idempotence(self):
        schema = VariableSchema(("p", "q", "r", "s"), (2, 2, 3, 2))
        t = random_table(schema, np.random.default_rng(4))
        via_two = t.marginalize({"p", "q", "r"}).marginalize({"p", "r"})
        direct = t.marginalize({"p", "r"})
        np.testing.assert_allclose(via_two.probs, direct.probs, atol=1e-14)

    def test_unknown_name(self, ab_table):
        with pytest.raises(UnknownVariable):
            ab_table.marginalize({"nope"})


class TestCondition:
    def test_independence_preserved(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        t = ProbTable(schema, np.outer([0.3, 0.7], [0.6, 0.4]))
        for v in (0, 1):
            assert t.condition("a", v).flat() == pytest.approx([0.6, 0.4])

    def test_slice_renormalization(self, ab_table):
        assert ab_table.condition("a", 0).flat() == pytest.approx([2 / 3, 1 / 3])

    def test_matches_enumeration_oracle(self):
        schema = VariableSchema(("x1", "x2", "x3"), (2, 2, 3))
        t = random_table(schema, np.random.default_rng(9))
        got = t.condition("x2", 1)
        np.testing.assert_allclose(got.probs, oracle_condition(t, "x2", 1), atol=1e-14)

    def test_zero_probability_evidence(self, ab_schema):
        t = ProbTable(ab_schema, [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            t.condition("a", 1)
        assert exc.value.variable == "a"
        assert exc.value.value == 1

    def test_out_of_range_state(self, ab_table):
        with pytest.raises(InvalidState):
            ab_table.condition("a", 5)


class TestDatasetCsv:
    def test_round_trip(self, ab_schema, tmp_path):
        # the second and fourth schemas' names need CSV quoting in the header,
        # the fourth's are not ASCII; the third dataset spans several of the
        # wide writer's row blocks
        quoted = VariableSchema(("a,b", 'q"x', "c"), (2, 2, 3))
        wide = VariableSchema(("a", "b"), (2, 12))
        many = np.random.default_rng(0).integers(0, 2, (10_000, 2))
        unicode = VariableSchema(("é,x", "名前"), (2, 3))
        for schema, rows, header in [
            (ab_schema, [[0, 1], [1, 0], [1, 1]], "a,b\n"),
            (quoted, [[0, 1, 2], [1, 0, 0]], '"a,b","q""x",c\n'),
            (wide, many, "a,b\n"),
            (unicode, [[1, 2], [0, 0]], '"é,x",名前\n'),
        ]:
            data = Dataset(schema, rows)
            data.write_csv(tmp_path / "d.csv")
            raw = (tmp_path / "d.csv").read_bytes()
            assert raw.startswith(header.encode("utf-8"))
            assert raw == oracle_csv_text(schema, data.rows.tolist()).encode("utf-8")
            assert (Dataset.read_csv(tmp_path / "d.csv", schema).rows == data.rows).all()

    def test_header_mismatch(self, ab_schema, tmp_path):
        with pytest.raises(ParseError):
            read_text(tmp_path / "d.csv", "a,c\n0,0\n", ab_schema)

    def test_non_integer_cell_names_location(self, ab_schema, tmp_path):
        # a blank line is skipped but still counted
        for text, line in [("a,b\n0,0\n1,x\n", 3), ("a,b\n0,0\n\n1,x\n", 4)]:
            with pytest.raises(ParseError) as exc:
                read_text(tmp_path / "d.csv", text, ab_schema)
            assert exc.value.line == line
            assert exc.value.column == 2

    @pytest.mark.parametrize(
        "text, message, line", [("", "empty file", 1), ("a,b\n0,0,1\n", "expected 2 fields, got 3", 2)]
    )
    def test_malformed_file_names_line(self, ab_schema, tmp_path, text, message, line):
        with pytest.raises(ParseError, match=message) as exc:
            read_text(tmp_path / "d.csv", text, ab_schema)
        assert exc.value.line == line
        assert exc.value.column is None

    @pytest.mark.parametrize("text, line", [("a,b\r0,1\r1,0\n", 1), ("a,b\n0,1\n1,0\r0,0\n", 3)])
    def test_bare_cr_names_line(self, ab_schema, in_tmp, text, line):
        # csv.reader cannot split a line with a bare CR outside quotes
        with pytest.raises(ParseError, match="malformed CSV: new-line character") as exc:
            read_text("d.csv", text, ab_schema)
        assert (exc.value.path, exc.value.line, exc.value.column) == ("d.csv", line, None)

    @pytest.mark.parametrize("text, message, line, column", [
        ('"a\nb",c\n0,1\n1,0\n0,5\n', "d.csv:5:2: state 5 out of range 0..1", 5, 2),
        ('"a\nb",c\n0,1\n1,0,1\n', "d.csv:4: expected 2 fields, got 3", 4, None),
    ], ids=["state", "fields"])
    def test_lines_after_a_multi_line_header_are_physical(self, in_tmp, text, message, line,
                                                          column):
        # the quoted name holds an LF, so the header spans lines 1 and 2
        schema = VariableSchema(("a\nb", "c"), (2, 2))
        with pytest.raises(ParseError) as exc:
            read_text("d.csv", text, schema)
        assert (str(exc.value), exc.value.line, exc.value.column) == (message, line, column)

    def test_out_of_range_cell(self, ab_schema, tmp_path):
        with pytest.raises(ParseError) as exc:
            read_text(tmp_path / "d.csv", "a,b\n0,2\n", ab_schema)
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_out_of_range_rows_rejected_at_construction(self, ab_schema):
        with pytest.raises(InvalidState):
            Dataset(ab_schema, [[0, 3]])

    def test_select_columns(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        data = Dataset(schema, [[0, 1, 1], [1, 0, 1]])
        sub = data.select({"c", "a"})
        assert sub.schema.names == ("a", "c")
        assert (sub.rows == [[0, 1], [1, 1]]).all()

    def test_select_no_columns_keeps_the_rows(self, ab_schema):
        empty = Dataset(ab_schema, [[0, 1], [1, 0], [1, 1]]).select(set())
        assert (empty.schema.names, len(empty), empty.rows.shape) == ((), 3, (3, 0))
        assert empty.rows.dtype == np.uint8
        no_schema = VariableSchema((), ())
        assert [len(Dataset(no_schema, rows)) for rows in ([], np.empty((4, 0), int))] == [0, 4]

    def test_no_columns_have_no_csv(self, ab_schema, tmp_path):
        # its lines would be blank, and the parser skips blank lines
        empty = Dataset(ab_schema, [[0, 1], [1, 0]]).select(set())
        with pytest.raises(GcfitError, match="zero-column .* row count"):
            empty.write_csv(tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("cards", [(2, 3, 10), (2, 12, 3)])
    def test_any_row_layout_round_trips(self, tmp_path, cards):
        # a selection's rows, a transpose and a strided view are not C-ordered
        schema = VariableSchema(("a", "b", "c"), cards)
        rows = np.random.default_rng(5).integers(0, min(cards), (40, 3))
        cols = np.ascontiguousarray(rows.T)
        sub = schema.subset({"a", "c"})
        for schema_, expected, data in [
            (sub, rows[:, [0, 2]], Dataset(schema, rows).select({"c", "a"})),
            (schema, rows, Dataset(schema, cols.T)),
            (sub, rows[:, [0, 2]], Dataset(sub, rows[:, ::2])),
        ]:
            data.write_csv(tmp_path / "d.csv")
            raw = (tmp_path / "d.csv").read_bytes()
            assert raw == oracle_csv_text(schema_, expected.tolist()).encode("utf-8")
            assert Dataset.read_csv(tmp_path / "d.csv", schema_).rows.tolist() == expected.tolist()

    def test_name_utf8_cannot_encode_leaves_no_file(self, tmp_path):
        # a lone surrogate, which a file name can hold through surrogateescape
        data = Dataset(VariableSchema(("a\udc80", "b"), (2, 2)), [[0, 1]])
        with pytest.raises(GcfitError, match=r"^variable name 'a\\udc80' cannot be encoded"):
            data.write_csv(tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()


class TestDatasetRows:
    """`Dataset.rows` is the schema's narrowest unsigned dtype, and every
    cell is checked to be a whole, in-range state before it is narrowed."""

    @pytest.mark.parametrize(
        "cards, dtype",
        [((2,), np.uint8), ((2, 256), np.uint8), ((257, 2), np.uint16), ((65_536,), np.uint16),
         ((65_537,), np.uint32)],
    )
    def test_dtype_depends_only_on_the_schema(self, cards, dtype):
        schema = VariableSchema(tuple("abc"[:len(cards)]), cards)
        top = [c - 1 for c in cards]
        for rows in ([top], np.array([top], dtype=np.int64), np.array([top], dtype=float), []):
            data = Dataset(schema, rows)
            assert data.rows.dtype == dtype and data.rows.tolist() == ([top] if len(rows) else [])

    @pytest.mark.parametrize("cards", [(2, 3, 10), (2, 300, 3)], ids=["uint8", "uint16"])
    def test_rows_are_c_ordered_whatever_the_layout_given(self, cards):
        schema = VariableSchema(("a", "b", "c"), cards)
        rows = np.random.default_rng(2).integers(0, min(cards), (7, 3))
        wide = np.zeros((7, 6), dtype=tables.row_dtype(cards))
        wide[:, ::2] = rows
        # C-ordered int64, Fortran-ordered and strided in the row dtype
        for given in (rows, np.asfortranarray(wide[:, ::2]), wide[:, ::2]):
            data = Dataset(schema, given)
            assert data.rows.flags.c_contiguous
            assert data.rows.tolist() == rows.tolist()

    @pytest.mark.parametrize(
        "rows", [[[0.7, 1.0]], [[1.0, 1.9]], [[-0.5, 0.0]], [[math.nan, 0.0]], [[math.inf, 0.0]]]
    )
    def test_non_integer_cells_rejected(self, ab_schema, rows):
        # at the parent 0.7 and 1.9 were truncated to states 0 and 1
        with pytest.raises(InvalidState):
            Dataset(ab_schema, rows)

    @pytest.mark.parametrize("rows", [
        [["0", "1"]],
        np.array([["0", "1"]]),
        np.array([[b"0", b"1"]]),
        np.array([[0, "1"]], dtype=object),
        np.array([[b"0", 1]], dtype=object),
    ], ids=["list", "str-array", "bytes-array", "object-str", "object-bytes"])
    def test_string_cells_rejected(self, ab_schema, rows):
        # at the parent astype(float) parsed "0" and "1" as states 0 and 1
        with pytest.raises(InvalidState):
            Dataset(ab_schema, rows)

    @pytest.mark.parametrize("rows", [
        [[0, 1, 1, 0], [1, 1, 0, 0]],  # reshape(-1, 2) would read it as 4 rows
        [0, 1, 1],
        [0, 1, 1, 0],
        [[[0, 1]]],
        [[[0], 1]],  # at the parent np.asarray raised a bare ValueError
    ], ids=["four-columns", "flat-odd", "flat", "3-d", "ragged"])
    def test_rows_of_another_shape_rejected(self, ab_schema, rows):
        with pytest.raises(SchemaMismatch):
            Dataset(ab_schema, rows)

    @pytest.mark.parametrize("rows", [[[1j, 0]], [[{}, 0]]], ids=["complex", "dict"])
    def test_cells_that_are_not_real_numbers_rejected(self, ab_schema, rows):
        # at the parent astype(float) kept 1j as state 0 with a ComplexWarning,
        # and raised a bare TypeError on {}
        with pytest.raises(InvalidState, match="cells must be whole numbers"):
            Dataset(ab_schema, rows)

    def test_whole_numbers_of_any_dtype_accepted(self, ab_schema):
        for rows in ([[1.0, 0.0]], np.array([[1, 0]], dtype=np.int8), np.array([[True, False]]),
                     np.array([[1, 0]], dtype=np.uint64), np.array([[1, 0]], dtype=object)):
            assert Dataset(ab_schema, rows).rows.tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "cards, cell",
        [((256,), 256), ((256,), -1), ((257,), 257), ((65_536,), 65_536), ((2, 256), 2**70)],
    )
    def test_out_of_range_at_the_dtype_edge_never_wraps(self, cards, cell):
        # 256 in a uint8 column would wrap to 0, -1 to 255, 65 536 in uint16 to 0
        schema = VariableSchema(tuple("ab"[:len(cards)]), cards)
        row = [0] * (len(cards) - 1) + [cell]
        for rows in ([row], np.array([row], dtype=object), np.array([row], dtype=float)):
            with pytest.raises(InvalidState):
                Dataset(schema, rows)
        if -2**63 <= cell < 2**63:
            with pytest.raises(InvalidState):
                Dataset(schema, np.array([row], dtype=np.int64))

    @pytest.mark.parametrize("cards", [(256, 2), (256, 257, 3)])
    def test_strict_parser_and_block_writer_round_trip_at_the_dtype_edge(self, cards, tmp_path):
        schema = VariableSchema(tuple("abc"[:len(cards)]), cards)
        rng = np.random.default_rng(len(cards))
        rows = np.stack([rng.integers(0, c, 5_000) for c in cards], axis=1)
        rows[0], rows[1] = [c - 1 for c in cards], 0
        data = Dataset(schema, rows)
        data.write_csv(tmp_path / "d.csv")
        text = (tmp_path / "d.csv").read_bytes().decode("utf-8")
        assert text.splitlines()[1] == ",".join(str(c - 1) for c in cards)
        again = Dataset.read_csv(tmp_path / "d.csv", schema)
        assert again.rows.dtype == data.rows.dtype
        assert again.rows.tolist() == rows.tolist()
        with pytest.raises(ParseError, match="state 256 out of range 0..255"):
            read_text(tmp_path / "e.csv", text.replace("\n255,", "\n256,", 1), schema)

    def test_reading_single_digit_csv_peaks_below_three_bytes_per_cell(self, tmp_path):
        # the canonical layout is decoded from the file's bytes into uint8
        # rows: no str of the text, no wide copies; tracemalloc counts this
        # process's allocations, numpy's included
        n_rows, n_cols = 50_000, 12
        schema = VariableSchema(tuple(f"x{i:02d}" for i in range(n_cols)), (10,) * n_cols)
        rows = np.random.default_rng(0).integers(0, 10, (n_rows, n_cols))
        path = tmp_path / "d.csv"
        Dataset(schema, rows).write_csv(path)
        tracemalloc.start()
        try:
            data = Dataset.read_csv(path, schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (data.rows == rows).all()
        assert peak - path.stat().st_size < 3 * n_rows * n_cols

    def test_writing_single_digit_csv_peaks_below_one_and_a_half_file_sizes(self, tmp_path):
        # the byte grid is written to the file as it is: no bytes, str and
        # re-encoded copies of it
        n_rows, n_cols = 50_000, 12
        schema = VariableSchema(tuple(f"x{i:02d}" for i in range(n_cols)), (2,) * n_cols)
        data = Dataset(schema, np.random.default_rng(1).integers(0, 2, (n_rows, n_cols)))
        path = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            data.write_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == oracle_csv_text(schema, data.rows.tolist()).encode("utf-8")
        assert peak <= 1.5 * path.stat().st_size

    def test_writing_multi_digit_csv_streams_its_row_blocks(self, monkeypatch, tmp_path):
        # a cardinality above 10 writes text one block of rows at a time;
        # joining every line before writing peaks at about twice the file
        monkeypatch.setattr(tables, "_CSV_WRITE_ROWS", 64)
        n_rows, n_cols = 20_000, 12
        schema = VariableSchema(tuple(f"x{i:02d}" for i in range(n_cols)), (12,) * n_cols)
        data = Dataset(schema, np.random.default_rng(2).integers(0, 12, (n_rows, n_cols)))
        path = tmp_path / "d.csv"
        tracemalloc.start()
        try:
            data.write_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (Dataset.read_csv(path, schema).rows == data.rows).all()
        assert peak < 0.5 * path.stat().st_size


# names that need quoting, are not ASCII, or are empty
NAME_POOL = ("a", "b,c", 'q"x', "é", "名前", " s", "")


@st.composite
def datasets(draw):
    cards = draw(st.lists(st.integers(2, 12), min_size=1, max_size=5))
    names = draw(st.permutations(NAME_POOL))[: len(cards)]
    n_rows = draw(st.integers(0, 30))
    rows = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n_rows)]
    return VariableSchema(tuple(names), tuple(cards)), rows


def strict_outcome(monkeypatch, text, schema):
    """`parse_outcome` with the canonical layout check switched off."""
    with monkeypatch.context() as m:
        m.setattr(tables, "_canonical_rows", lambda raw, schema: None)
        return parse_outcome(text, schema)


def parse_outcome(text, schema):
    """The rows `read_csv` parses from ``text`` in ``d.csv`` of the working
    directory, or the (message, line, column) of the ParseError."""
    try:
        return read_text("d.csv", text, schema).rows.tolist()
    except ParseError as exc:
        return str(exc), exc.line, exc.column


class TestCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(datasets())
    def test_matches_row_by_row_oracle(self, case):
        # both writer branches (a cardinality above 10 or not), zero rows,
        # one-column schemas
        schema, rows = case
        with tempfile.TemporaryDirectory() as tmp:  # no tmp_path inside @given
            path = os.path.join(tmp, "d.csv")
            data = Dataset(schema, np.array(rows, dtype=np.int64).reshape(-1, len(schema.names)))
            data.write_csv(path)
            with open(path, "rb") as fh:
                raw = fh.read()
            # every cardinality here is at most 256: the schema's rows are uint8
            parsed = Dataset.read_csv(path, schema).rows
        text = raw.decode("utf-8")
        assert text == oracle_csv_text(schema, rows)
        assert oracle_csv_rows(text) == (list(schema.names), rows)
        assert parsed.dtype == np.uint8 and parsed.tolist() == rows
        # single-digit data is canonical whatever the schema's cardinalities
        canonical = tables._canonical_rows(raw, schema)
        assert (canonical is not None) == all(v < 10 for row in rows for v in row)
        if canonical is not None:
            assert canonical.dtype == np.uint8 and canonical.tolist() == rows

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\r\n0,1\r\n", [[0, 1]]),  # CRLF
            ("a,b\n0,1\r\n1,0\r\n0,0\r\n1,1\r\n", [[0, 1], [1, 0], [0, 0], [1, 1]]),  # CRLF body, 4-byte multiple
            ("a,b\n0,1\n\n1,0\n", [[0, 1], [1, 0]]),  # blank line
            ("a,b\n0,1", [[0, 1]]),  # no final newline
            ('a,b\n"0",1\n', [[0, 1]]),  # quoted cell
            ("a,b\n 0,1\n", [[0, 1]]),  # padded cell
            ("a,b\n+1,0\n", [[1, 0]]),
            ("a,b\n01,0\n", [[1, 0]]),
            ('"a",b\n0,1\n', [[0, 1]]),  # differently quoted header
            ("a,b\n0,2\n", ("d.csv:2:2: state 2 out of range 0..1", 2, 2)),
            ("a,b\n0;1\n", ("d.csv:2: expected 2 fields, got 1", 2, None)),  # separator slot
            ("a,b\n0,1,1,0\n", ("d.csv:2: expected 2 fields, got 4", 2, None)),  # newline slot
            ("a,b\n0,x\n", ("d.csv:2:2: non-integer cell 'x'", 2, 2)),
            ("a,b\n/,0\n", ("d.csv:2:1: non-integer cell '/'", 2, 1)),  # the byte below "0"
        ],
    )
    def test_fallback_trigger(self, monkeypatch, in_tmp, ab_schema, text, expected):
        assert tables._canonical_rows(text.encode("utf-8"), ab_schema) is None
        assert parse_outcome(text, ab_schema) == expected
        assert strict_outcome(monkeypatch, text, ab_schema) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n11,0\n", [[11, 0]]),  # two-digit state
            ("a,b\n:,0\n", ("d.csv:2:1: non-integer cell ':'", 2, 1)),  # the byte above "9"
            ("a,b\n0,2\n", ("d.csv:2:2: state 2 out of range 0..1", 2, 2)),  # in range for a, not for b
            ("a,b\n9,0\n0,2\n", ("d.csv:3:2: state 2 out of range 0..1", 3, 2)),
            # int() reads both as states in range for a: only ASCII digits are integers
            ("a,b\n1_0,1\n", ("d.csv:2:1: non-integer cell '1_0'", 2, 1)),
            ("a,b\n١,1\n", ("d.csv:2:1: non-integer cell '١'", 2, 1)),  # Arabic-Indic one
        ],
    )
    def test_fallback_trigger_per_column(self, monkeypatch, in_tmp, text, expected):
        schema = VariableSchema(("a", "b"), (12, 2))
        assert tables._canonical_rows(text.encode("utf-8"), schema) is None
        assert parse_outcome(text, schema) == expected
        assert strict_outcome(monkeypatch, text, schema) == expected

    @pytest.mark.parametrize("n_rows", [3, 4, 5, 0])
    def test_block_decoder_gives_the_parsers_rows(self, monkeypatch, in_tmp, n_rows):
        # blocks of 4 rows: one short block, one full, one full plus one row, none
        monkeypatch.setattr(tables, "_CSV_READ_ROWS", 4)
        schema = VariableSchema(("a", "b"), (3, 10))
        rows = [[i % 3, 7 * i % 10] for i in range(n_rows)]
        text = oracle_csv_text(schema, rows)
        assert tables._canonical_rows(text.encode("utf-8"), schema).tolist() == rows
        assert parse_outcome(text, schema) == strict_outcome(monkeypatch, text, schema) == rows

    @pytest.mark.parametrize(
        "offset, byte",
        [(5, ","), (1, "\n"), (2, "/"), (4, "5"), (0, "3")],
        ids=["comma-for-lf", "lf-for-comma", "below-zero", "past-card-5", "past-card-3"],
    )
    def test_block_decoder_rejects_a_fault_in_the_last_block(self, monkeypatch, in_tmp,
                                                            offset, byte):
        # 10 rows in blocks of 4: the fault is in the ninth row, in the third
        # block; column b holds digits past the smallest cardinality there, so
        # each column is checked against its own bound
        monkeypatch.setattr(tables, "_CSV_READ_ROWS", 4)
        schema = VariableSchema(("a", "b", "c"), (3, 10, 5))
        rows = [[i % 3, 7 * i % 10, 2 * i % 5] for i in range(10)]
        text = oracle_csv_text(schema, rows)
        assert tables._canonical_rows(text.encode("utf-8"), schema) is not None
        at = len("a,b,c\n") + 8 * len("0,0,0\n") + offset
        text = text[:at] + byte + text[at + 1:]
        assert tables._canonical_rows(text.encode("utf-8"), schema) is None
        assert parse_outcome(text, schema) == strict_outcome(monkeypatch, text, schema)

    def test_header_of_odd_length_takes_the_fast_path(self, monkeypatch, in_tmp):
        # the 2-byte cells start at an odd offset, so their view is unaligned
        schema = VariableSchema(("ab", "c"), (10, 2))
        rows = [[9, 1], [0, 0], [4, 1]]
        text = oracle_csv_text(schema, rows)
        assert len("ab,c\n") % 2 == 1
        assert tables._canonical_rows(text.encode("utf-8"), schema).tolist() == rows
        assert parse_outcome(text, schema) == strict_outcome(monkeypatch, text, schema) == rows

    def test_name_with_bare_cr_round_trips(self, monkeypatch, in_tmp):
        # the header quotes the "\r", so both readers split it back out
        schema = VariableSchema(("a\rb",), (2,))
        Dataset(schema, [[0]]).write_csv("d.csv")
        with open("d.csv", "rb") as fh:
            raw = fh.read()
        assert raw == b'"a\rb"\n0\n'
        assert tables._canonical_rows(raw, schema).tolist() == [[0]]
        assert strict_outcome(monkeypatch, raw.decode("utf-8"), schema) == [[0]]
