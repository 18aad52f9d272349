"""The record contract: the 11 immutable records compare, hash, copy,
pickle and print as frozen dataclasses of their fields did."""

import copy
import pickle

import numpy as np
import pytest

from gcfit import (
    BayesNet,
    Cpt,
    Dag,
    DagSet,
    Dataset,
    InterventionBundle,
    InterventionTables,
    PdGraph,
    ProbTable,
    ScoreRecord,
    TaggedDag,
    VariableSchema,
    enumerate_orientations,
    score_set,
)

SCHEMA = VariableSchema(("a", "b"), (2, 3))
CPT = Cpt("b", ("a",), [[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
DAG = Dag(SCHEMA, [("a", "b")])
NET = BayesNet(DAG, {"a": Cpt("a", (), [0.4, 0.6]), "b": CPT})
PDGRAPH = PdGraph(SCHEMA, [], [("a", "b")])
DAGSET = enumerate_orientations(PDGRAPH)
DATA = Dataset(SCHEMA, [[0, 1], [1, 2], [0, 0]])

# each record, with the fields that its equality and hash compare, in order
RECORDS = {
    "VariableSchema": (SCHEMA, ("names", "cardinalities")),
    "Dag": (DAG, ("schema", "edges")),
    "PdGraph": (PDGRAPH, ("schema", "directed", "undirected")),
    "TaggedDag": (DAGSET.members[1], ("graph_id", "orientation", "dag")),
    "DagSet": (DAGSET, ("members", "source_undirected")),
    "ProbTable": (ProbTable(SCHEMA, np.full(6, 1 / 6)), ("schema", "probs")),
    "Dataset": (DATA, ("schema", "rows")),
    "Cpt": (CPT, ("child", "parents", "table")),
    "BayesNet": (NET, ("dag", "cpts")),
    "InterventionBundle": (
        InterventionBundle(DATA, {("a", 1): Dataset(SCHEMA, [[1, 0]])}, 1),
        ("observational", "interventional", "smoothing"),
    ),
    "ScoreRecord": (
        score_set(DAGSET, InterventionTables.from_net(NET))[0],
        ("graph_id", "orientation", "dag", "gf", "gcf", "gcf_abs", "edge_details",
         "do_divergences", "flags"),
    ),
}

DUPLICATES = pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)


def outcome(f):
    """What calling ``f`` gives: its value, or the type of what it raises."""
    try:
        return "value", f()
    except Exception as exc:
        return "raises", type(exc)


def values(record, fields):
    return tuple(getattr(record, name) for name in fields)


def same(x, y) -> bool:
    """Equal values, arrays compared with np.array_equal and their dtypes."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    if type(x).__name__ in RECORDS:
        fields = RECORDS[type(x).__name__][1]
        return type(y) is type(x) and same(values(x, fields), values(y, fields))
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, (tuple, list)):
        return type(y) is type(x) and len(x) == len(y) and all(map(same, x, y))
    return type(y) is type(x) and x == y


def test_every_record_is_covered():
    assert set(RECORDS) == {type(record).__name__ for record, _ in RECORDS.values()}
    assert len(RECORDS) == 11


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record, fields = RECORDS[name]
        for field in fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert same(record, copy.copy(record))  # nothing changed

    def test_equality_and_hash_follow_the_dataclass_rule(self, name):
        record, fields = RECORDS[name]
        other = copy.copy(record)
        assert record == record
        assert outcome(lambda: record == other) == outcome(
            lambda: values(record, fields) == values(other, fields))
        assert outcome(lambda: record != other) == outcome(
            lambda: values(record, fields) != values(other, fields))
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(values(record, fields)))
        assert record.__eq__(values(record, fields)) is NotImplemented
        assert record != values(record, fields)

    @DUPLICATES
    def test_copies_are_equal_records(self, name, duplicate):
        record, _ = RECORDS[name]
        dup = duplicate(record)
        assert type(dup) is type(record)
        assert same(dup, record)


@DUPLICATES
def test_copies_rebuild_what_the_constructor_derives(duplicate):
    assert duplicate(SCHEMA)._position == SCHEMA._position
    assert same(duplicate(CPT)._thresholds, CPT._thresholds)
    assert duplicate(DAG).parents("b") == ("a",)


def test_derived_slots_are_not_compared():
    schema = copy.copy(SCHEMA)
    object.__setattr__(schema, "_position", {})
    assert schema == SCHEMA and hash(schema) == hash(SCHEMA)
    cpt = copy.copy(CPT)
    object.__setattr__(cpt, "table", CPT.table)  # the same array: the tuples compare
    object.__setattr__(cpt, "_thresholds", np.zeros(1))
    assert cpt == CPT


def test_repr_lists_the_fields_and_hides_arrays():
    schema = "VariableSchema(names=('a', 'b'), cardinalities=(2, 3))"
    assert repr(SCHEMA) == schema
    assert repr(DAG) == f"Dag(schema={schema}, edges=(('a', 'b'),))"
    assert repr(CPT) == "Cpt(child='b', parents=('a',))"
    assert repr(RECORDS["ProbTable"][0]) == f"ProbTable(schema={schema})"
