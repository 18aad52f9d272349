"""Variable schemas, DAGs, partially directed graphs, and acyclic-orientation
enumeration.

A partially directed graph is what structure learning typically hands
back: some edges oriented, some not.  The candidate set of fully
directed models is every acyclic orientation of the undirected edges,
built one edge at a time so that a prefix closing a cycle is not extended.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass

from .errors import EnumerationLimit, GcfitError, InvalidState, ParseError, UnknownVariable

DEFAULT_ENUMERATION_CAP = 24


@dataclass(frozen=True)
class VariableSchema:
    """Ordered list of named categorical variables.

    Variable ``name`` with cardinality ``c`` takes states ``0..c-1``.
    The ordering is part of the schema: it fixes cell iteration order,
    array axis order and serialization order everywhere.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))
        if len(self.names) != len(self.cardinalities):
            raise GcfitError("names and cardinalities must have equal length")
        if len(set(self.names)) != len(self.names):
            raise GcfitError("variable names must be unique")
        if any(c < 2 for c in self.cardinalities):
            raise GcfitError("every cardinality must be >= 2")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cardinalities

    @property
    def n_cells(self) -> int:
        return math.prod(self.cardinalities)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def cardinality(self, name: str) -> int:
        return self.cardinalities[self.index(name)]

    def check_state(self, name: str, value: int) -> None:
        """Raise InvalidState unless ``value`` is one of ``name``'s states."""
        if not 0 <= value < self.cardinality(name):
            raise InvalidState(f"state {value} out of range for {name!r}")

    def subset(self, keep) -> "VariableSchema":
        """Schema restricted to ``keep``, preserving this schema's order."""
        keep = set(keep)
        for name in keep:
            self.index(name)
        names = tuple(n for n in self.names if n in keep)
        cards = tuple(c for n, c in zip(self.names, self.cardinalities) if n in keep)
        return VariableSchema(names, cards)

    def cells(self):
        """Iterate all joint states in row-major order."""
        return itertools.product(*(range(c) for c in self.cardinalities))


def schema_to_obj(schema: VariableSchema) -> list:
    return [
        {"name": n, "cardinality": c}
        for n, c in zip(schema.names, schema.cardinalities)
    ]


def schema_from_obj(obj, path=None) -> VariableSchema:
    try:
        names = tuple(v["name"] for v in obj)
        cards = tuple(v["cardinality"] for v in obj)
        # only JSON strings and integers: int() would read 2.7 as 2 and "3" as 3
        if not all(isinstance(n, str) for n in names):
            raise ValueError("variable names must be strings")
        if any(isinstance(c, bool) or not isinstance(c, int) for c in cards):
            raise ValueError("cardinalities must be integers")
        return VariableSchema(names, cards)
    except (KeyError, TypeError, ValueError, GcfitError) as exc:
        raise ParseError(f"bad variables block: {exc}", path=path) from None


def _check_endpoints(schema: VariableSchema, pairs) -> None:
    for a, b in pairs:
        schema.index(a)
        schema.index(b)
        if a == b:
            raise GcfitError(f"self-loop on {a!r}")


def topological_order(schema: VariableSchema, edges) -> list[str] | None:
    """Kahn's algorithm, ties broken by schema order: place the first node
    in schema order whose parents are all placed.  None if cyclic."""
    pending: dict[str, set[str]] = {n: set() for n in schema.names}
    for parent, child in edges:
        pending[parent]  # KeyError for an endpoint outside the schema, as for the child
        pending[child].add(parent)
    order, placed = [], set()
    while pending:
        node = next((n for n, ps in pending.items() if ps <= placed), None)
        if node is None:
            return None
        del pending[node]
        order.append(node)
        placed.add(node)
    return order


def is_acyclic(schema: VariableSchema, edges) -> bool:
    """True iff the directed edge set admits a topological order."""
    return topological_order(schema, edges) is not None


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over a schema's variables."""

    schema: VariableSchema
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        edges = tuple(sorted((str(a), str(b)) for a, b in self.edges))
        if len(set(edges)) != len(edges):
            raise GcfitError("duplicate edge")
        _check_endpoints(self.schema, edges)
        if not is_acyclic(self.schema, edges):
            raise GcfitError("edge set contains a directed cycle")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, schema: VariableSchema, edges) -> "Dag":
        """A Dag built without validation; ``edges`` are only sorted.

        Precondition: the edges are acyclic, pairwise distinct, string
        pairs, and every endpoint is a name on ``schema``.
        """
        dag = object.__new__(cls)
        object.__setattr__(dag, "schema", schema)
        object.__setattr__(dag, "edges", tuple(sorted(edges)))
        return dag

    def parents(self, node: str) -> tuple[str, ...]:
        self.schema.index(node)
        ps = [a for a, b in self.edges if b == node]
        return tuple(sorted(ps, key=self.schema.index))

    def topological_order(self) -> list[str]:
        order = topological_order(self.schema, self.edges)
        assert order is not None
        return order

    def skeleton(self) -> frozenset[tuple[str, str]]:
        """Edge set with orientations erased; pairs sorted lexicographically."""
        return frozenset(tuple(sorted(e)) for e in self.edges)

    def reversed(self) -> "Dag":
        return Dag(self.schema, tuple((b, a) for a, b in self.edges))


@dataclass(frozen=True)
class PdGraph:
    """Graph with both directed and undirected edges."""

    schema: VariableSchema
    directed: tuple[tuple[str, str], ...]
    undirected: tuple[tuple[str, str], ...]

    def __post_init__(self):
        directed = tuple(sorted((str(a), str(b)) for a, b in self.directed))
        undirected = tuple(sorted(tuple(sorted((str(a), str(b)))) for a, b in self.undirected))
        _check_endpoints(self.schema, directed)
        _check_endpoints(self.schema, undirected)
        if len(set(directed)) != len(directed) or len(set(undirected)) != len(undirected):
            raise GcfitError("duplicate edge")
        seen = {tuple(sorted(e)) for e in directed}
        if seen & set(undirected):
            raise GcfitError("edge appears both directed and undirected")
        if len(seen) != len(directed):
            raise GcfitError("pair appears twice in directed part")
        if not is_acyclic(self.schema, directed):
            raise GcfitError("directed part contains a cycle")
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)


@dataclass(frozen=True)
class TaggedDag:
    """A DAG plus the orientation vector that produced it.

    ``orientation`` has one character per undirected edge of the source
    PD graph: '0' orients the edge from its lexicographically smaller
    endpoint to the larger, '1' the reverse.  ``graph_id`` is the vector
    prefixed with 'G', stable across runs.
    """

    graph_id: str
    orientation: str
    dag: Dag


@dataclass(frozen=True)
class DagSet:
    """Ordered set of tagged DAGs generated from one PD graph."""

    members: tuple[TaggedDag, ...]
    source_undirected: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def subset(self, orientations) -> "DagSet":
        """Members whose orientation vector is in ``orientations``."""
        wanted = set(orientations)
        known = {m.orientation for m in self.members}
        missing = wanted - known
        if missing:
            raise GcfitError(f"unknown orientation vectors: {sorted(missing)}")
        return DagSet(
            tuple(m for m in self.members if m.orientation in wanted),
            self.source_undirected,
        )


def _reaches(children: dict[str, set[str]], src: str, dst: str) -> bool:
    """True iff a directed path leads from ``src`` to ``dst``."""
    seen, todo = {src}, [src]
    while todo:
        node = todo.pop()
        if node == dst:
            return True
        fresh = children[node] - seen
        seen |= fresh
        todo.extend(fresh)
    return False


def _oriented(edge: tuple[str, str], bit: str) -> tuple[str, str]:
    """An undirected edge (a, b), a < b, oriented by its bit: '0' a->b, '1' b->a."""
    a, b = edge
    return (a, b) if bit == "0" else (b, a)


def iter_orientations(g: PdGraph, max_undirected: int = DEFAULT_ENUMERATION_CAP, prefixes=None):
    """Yield the acyclic orientations of the undirected edges of ``g`` as
    `TaggedDag`s, their vectors in lexicographic order, after checking the cap.

    Edges are oriented one at a time, in ``g.undirected`` order; a prefix
    is extended by u->v only if v does not already reach u, so no prefix
    that closes a cycle is extended.  With ``prefixes``, a set of vectors
    holding every prefix of each of its members, the walk enters only the
    vectors in the set, so it yields those of its members that orient all
    the edges and close no cycle."""
    if max_undirected < 0:
        raise GcfitError(f"enumeration cap must be non-negative, got {max_undirected}")
    und = g.undirected  # already sorted lexicographically
    if len(und) > max_undirected:
        raise EnumerationLimit(len(und), max_undirected)
    children: dict[str, set[str]] = {n: set() for n in g.schema.names}
    for a, b in g.directed:
        children[a].add(b)
    oriented: list[tuple[str, str]] = []  # edges of the prefix held in ``children``
    stack = [""]
    while stack:
        vec = stack.pop()
        if prefixes is not None and vec not in prefixes:
            continue
        if vec:
            # the stack is depth-first, so vec[:-1] is a prefix of the last expansion
            while len(oriented) >= len(vec):
                a, b = oriented.pop()
                children[a].discard(b)
            a, b = _oriented(und[len(vec) - 1], vec[-1])
            oriented.append((a, b))
            children[a].add(b)
        if len(vec) == len(und):
            yield TaggedDag("G" + vec, vec, Dag._trusted(g.schema, g.directed + tuple(oriented)))
            continue
        for bit in "10":  # "0" pops first
            u, v = _oriented(und[len(vec)], bit)
            if not _reaches(children, v, u):
                stack.append(vec + bit)


def enumerate_orientations(g: PdGraph, max_undirected: int = DEFAULT_ENUMERATION_CAP) -> DagSet:
    """All acyclic ways of orienting the undirected edges of ``g``, in the
    order `iter_orientations` yields them."""
    return DagSet(tuple(iter_orientations(g, max_undirected)), g.undirected)


def orientation_subset(
    g: PdGraph, vectors, max_undirected: int = DEFAULT_ENUMERATION_CAP
) -> DagSet:
    """``enumerate_orientations(g, max_undirected).subset(vectors)``, built
    by the same walk entering only the prefixes of the named vectors: the
    same cap check first, the same members in the same order, and the same
    error for a vector that is malformed or orients a cycle."""
    wanted, k = set(vectors), len(g.undirected)
    # a vector of another length has no prefix the walk could enter
    prefixes = {vec[:i] for vec in wanted if len(vec) == k for i in range(k + 1)}
    members = tuple(iter_orientations(g, max_undirected, prefixes))
    unknown = wanted - {m.orientation for m in members}
    if unknown:
        raise GcfitError(f"unknown orientation vectors: {sorted(unknown)}")
    return DagSet(members, g.undirected)


# ---------------------------------------------------------------------------
# JSON serialization.  Dag files use the same layout with empty "undirected".

def decode_utf8(raw: bytes, path=None) -> str:
    """``raw``, an input file's bytes, as UTF-8 text; bytes that are not
    UTF-8 are a `ParseError` at their line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=path,
                         line=line) from None


def read_text(path) -> str:
    """`decode_utf8` of the file at ``path``, its newlines translated as in
    text mode, so that a JSON error's line counts CR-only lines too."""
    with open(path, "rb") as fh:
        return io.StringIO(decode_utf8(fh.read(), path), newline=None).read()


def json_object(text: str, required: str, path=None) -> dict:
    """Decode a JSON input file whose top level must be an object with a
    ``required`` entry; any other content is a `ParseError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    if not isinstance(doc, dict) or required not in doc:
        raise ParseError(f"missing {required!r} block", path=path)
    return doc


def edges_from_obj(obj) -> tuple:
    """Edges from a JSON array of ``[parent, child]`` string pairs; any
    other value is a ValueError (tuple() would read ``"ab"`` as a->b)."""
    if not isinstance(obj, list):
        raise ValueError(f"edges {obj!r} are not a list")
    for e in obj:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)):
            raise ValueError(f"edge {e!r} is not a [parent, child] pair of strings")
    return tuple(map(tuple, obj))


def pdgraph_to_json(g: PdGraph) -> str:
    doc = {
        "variables": schema_to_obj(g.schema),
        "directed": [list(e) for e in g.directed],
        "undirected": [list(e) for e in g.undirected],
    }
    return json.dumps(doc, indent=2) + "\n"


def pdgraph_from_json(text: str, path=None) -> PdGraph:
    doc = json_object(text, "variables", path)
    schema = schema_from_obj(doc["variables"], path=path)
    try:
        directed = edges_from_obj(doc.get("directed", []))
        undirected = edges_from_obj(doc.get("undirected", []))
        return PdGraph(schema, directed, undirected)
    except (GcfitError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph: {exc}", path=path) from None


def load_pdgraph(path) -> PdGraph:
    return pdgraph_from_json(read_text(path), path=path)


def save_pdgraph(g: PdGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pdgraph_to_json(g))
