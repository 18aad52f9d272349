"""Variable schemas, DAGs, partially directed graphs, and acyclic-orientation
enumeration.

A partially directed graph is what structure learning typically hands
back: some edges oriented, some not.  The candidate set of fully
directed models is every acyclic orientation of the undirected edges,
built one edge at a time so that a prefix closing a cycle is not extended.
"""

from __future__ import annotations

import heapq
import io
import json
import math
import operator
from functools import reduce

from .errors import EnumerationLimit, GcfitError, InvalidState, ParseError, UnknownVariable

DEFAULT_ENUMERATION_CAP = 24
# rendered values `EdgeRanks` keeps per edge-list block: a block reading at
# most 6 bits keeps them all, a wider one starts over when this many are held,
# so memory does not grow with the number of candidates
_BLOCK_MEMO = 64


class _Record:
    """Base of the immutable records.  A subclass lists its constructor's
    arguments, in order, as ``_fields`` (two or more), and those that repr
    leaves out (arrays) as ``_hidden``; its ``__init__`` checks the
    arguments, then passes the field values to ``_Record.__init__`` in
    ``_fields`` order, which sets each slot once and raises TypeError on a
    wrong count.  A record compares and hashes as the tuple of its fields,
    as a frozen dataclass does, and copies and pickles by calling the
    constructor on them again, so a copy is checked as the original was and
    rebuilds what the constructor derives."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(operator.attrgetter(*cls._fields))  # record -> field tuple
        # each field's slot writer, which a loop calls as fast as a direct set
        cls._writers = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} has {len(self._fields)} fields, "
                            f"not {len(values)}")
        for write, value in zip(self._writers, values):
            write(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __eq__(self, other):
        if other is self:  # what the tuples give, since a tuple compares identical items equal
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields
                 if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), self._values(self)


class VariableSchema(_Record):
    """Ordered list of named categorical variables.

    Variable ``name`` with cardinality ``c`` takes states ``0..c-1``.
    The ordering is part of the schema: it fixes cell iteration order,
    array axis order and serialization order everywhere.
    """

    _fields = ("names", "cardinalities")
    __slots__ = _fields + ("_position",)

    def __init__(self, names: tuple[str, ...], cardinalities: tuple[int, ...]):
        names = check_names(names, "variable names")
        cards = tuple(map(_integer, cardinalities))
        if None in cards:
            raise GcfitError(f"cardinalities must be integers, not {cardinalities!r}")
        if len(names) != len(cards):
            raise GcfitError("names and cardinalities must have equal length")
        position = {n: i for i, n in enumerate(names)}
        object.__setattr__(self, "_position", position)
        if len(position) != len(names):
            raise GcfitError("variable names must be unique")
        if any(c < 2 for c in cards):
            raise GcfitError("every cardinality must be >= 2")
        super().__init__(names, cards)

    @property
    def n_cells(self) -> int:
        return math.prod(self.cardinalities)

    def index(self, name: str) -> int:
        try:
            return self._position[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownVariable(f"unknown variable {name!r}") from None

    def cardinality(self, name: str) -> int:
        return self.cardinalities[self.index(name)]

    def check_state(self, name: str, value: int) -> None:
        """Raise InvalidState unless ``value`` is one of ``name``'s states,
        an integer (not a bool) in 0..cardinality-1."""
        state = _integer(value)
        if state is None or not 0 <= state < self.cardinality(name):
            raise InvalidState(f"state {value!r} out of range for {name!r}")

    def subset(self, keep) -> "VariableSchema":
        """Schema restricted to ``keep``, preserving this schema's order."""
        keep = set(keep)
        for name in keep:
            self.index(name)
        names = tuple(n for n in self.names if n in keep)
        cards = tuple(c for n, c in zip(self.names, self.cardinalities) if n in keep)
        return VariableSchema(names, cards)


def _integer(value) -> int | None:
    """``value`` as an int if it is an integer (a numpy one too) and not a
    bool, else None: int() would read 2.7 as 2 and "3" as 3."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def check_names(values, what: str) -> tuple[str, ...]:
    """``values`` as a tuple, when it is a tuple or list of strings; else
    GcfitError naming it as ``what``.  tuple() would split a single str
    into its letters."""
    if not (isinstance(values, (tuple, list)) and all(isinstance(v, str) for v in values)):
        raise GcfitError(f"{what} must be a tuple or list of strings, not {values!r}")
    return tuple(values)


def check_utf8(name: str) -> None:
    """Raise GcfitError unless UTF-8 can encode the variable name ``name``
    (one holding a lone surrogate cannot), as every output must."""
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        raise GcfitError(f"variable name {name!r} cannot be encoded as UTF-8") from None


def schema_to_obj(schema: VariableSchema) -> list:
    return [
        {"name": n, "cardinality": c}
        for n, c in zip(schema.names, schema.cardinalities)
    ]


def schema_from_obj(obj, path=None) -> VariableSchema:
    try:
        return VariableSchema(tuple(v["name"] for v in obj), tuple(v["cardinality"] for v in obj))
    except (KeyError, TypeError, GcfitError) as exc:
        raise ParseError(f"bad variables block: {exc}", path=path) from None


def _checked_edges(schema: VariableSchema, edges) -> list[tuple[str, str]]:
    """``edges``, a tuple or list, as (parent, child) tuples, each checked
    to be a tuple or list of two distinct names on ``schema``."""
    if not isinstance(edges, (tuple, list)):
        raise GcfitError(f"edges must be a tuple or list of pairs, not {edges!r}")
    pairs = []
    for edge in edges:
        if len(check_names(edge, "an edge")) != 2:
            raise GcfitError(f"an edge must be a pair, not {edge!r}")
        a, b = edge
        schema.index(a)
        schema.index(b)
        if a == b:
            raise GcfitError(f"self-loop on {a!r}")
        pairs.append((a, b))
    return pairs


def topological_order(schema: VariableSchema, edges) -> list[str] | None:
    """Kahn's algorithm, ties broken by schema order through a heap of
    schema positions.  None if cyclic."""
    position, n = schema._position, len(schema.names)
    children, waiting = [[] for _ in range(n)], [0] * n
    # KeyError for an endpoint outside the schema; a repeated edge counts once
    for parent, child in {(position[p], position[c]) for p, c in edges}:
        children[parent].append(child)
        waiting[child] += 1
    ready, order = [i for i, w in enumerate(waiting) if not w], []  # ascending: a heap
    while ready:
        node = heapq.heappop(ready)
        order.append(schema.names[node])
        for child in children[node]:
            waiting[child] -= 1
            if not waiting[child]:
                heapq.heappush(ready, child)
    return order if len(order) == n else None


def is_acyclic(schema: VariableSchema, edges) -> bool:
    """True iff the directed edge set admits a topological order."""
    return topological_order(schema, edges) is not None


class Dag(_Record):
    """Directed acyclic graph over a schema's variables."""

    _fields = ("schema", "edges")
    __slots__ = _fields + ("_parents",)

    def __init__(self, schema: VariableSchema, edges: tuple[tuple[str, str], ...]):
        edges = tuple(sorted(_checked_edges(schema, edges)))
        if len(set(edges)) != len(edges):
            raise GcfitError("duplicate edge")
        if not is_acyclic(schema, edges):
            raise GcfitError("edge set contains a directed cycle")
        super().__init__(schema, edges)

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
        try:
            parents = self._parents
        except AttributeError:  # the first call builds each node's parents, in schema order
            ps = {n: [] for n in self.schema.names}
            for a, b in self.edges:
                ps[b].append(a)
            parents = {n: tuple(sorted(p, key=self.schema.index)) for n, p in ps.items()}
            object.__setattr__(self, "_parents", parents)
        return parents[node]

    def topological_order(self) -> list[str]:
        order = topological_order(self.schema, self.edges)
        assert order is not None
        return order

    def reversed(self) -> "Dag":
        return Dag(self.schema, tuple((b, a) for a, b in self.edges))


class PdGraph(_Record):
    """Graph with both directed and undirected edges."""

    _fields = __slots__ = ("schema", "directed", "undirected")

    def __init__(self, schema: VariableSchema, directed: tuple[tuple[str, str], ...],
                 undirected: tuple[tuple[str, str], ...]):
        directed = tuple(sorted(_checked_edges(schema, directed)))
        undirected = _checked_edges(schema, undirected)
        undirected = tuple(sorted(tuple(sorted(e)) for e in undirected))
        if len(set(directed)) != len(directed) or len(set(undirected)) != len(undirected):
            raise GcfitError("duplicate edge")
        seen = {tuple(sorted(e)) for e in directed}
        if seen & set(undirected):
            raise GcfitError("edge appears both directed and undirected")
        if len(seen) != len(directed):
            raise GcfitError("pair appears twice in directed part")
        if not is_acyclic(schema, directed):
            raise GcfitError("directed part contains a cycle")
        super().__init__(schema, directed, undirected)


class TaggedDag(_Record):
    """A DAG plus the orientation vector that produced it.

    ``orientation`` has one character per undirected edge of the source
    PD graph: '0' orients the edge from its lexicographically smaller
    endpoint to the larger, '1' the reverse.  ``graph_id`` is the vector
    prefixed with 'G', stable across runs.
    """

    _fields = __slots__ = ("graph_id", "orientation", "dag")

    def __init__(self, graph_id: str, orientation: str, dag: Dag):
        # set here, not by the base: one is built per orientation enumerated
        object.__setattr__(self, "graph_id", graph_id)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "dag", dag)


class DagSet(_Record):
    """Ordered set of tagged DAGs generated from one PD graph."""

    _fields = __slots__ = ("members", "source_undirected")

    def __init__(self, members: tuple[TaggedDag, ...],
                 source_undirected: tuple[tuple[str, str], ...] = ()):
        super().__init__(members, source_undirected)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def iter_orientations(g: PdGraph, max_undirected: int = DEFAULT_ENUMERATION_CAP, prefixes=None):
    """The orientation vectors of the acyclic orientations of the undirected
    edges of ``g``, in lexicographic order, as an iterator; the cap is
    checked on the call, before the first vector is drawn.

    A vector holds one bit per edge of ``g.undirected`` (see `TaggedDag`),
    so it is all of a leaf's state: `enumerate_orientations` builds its
    `Dag` from it, `EdgeRanks` its edge list and
    `scoring.score_orientations` its scores.  Edges are oriented one at a
    time, in ``g.undirected`` order; a prefix is extended by u->v only if v
    does not already reach u, so no prefix that closes a cycle is extended.
    With ``prefixes``, a set of vectors holding every prefix of each of its
    members, the walk enters only the vectors in the set, so it yields
    those of its members that orient all the edges and close no cycle."""
    if max_undirected < 0:
        raise GcfitError(f"enumeration cap must be non-negative, got {max_undirected}")
    if len(g.undirected) > max_undirected:
        raise EnumerationLimit(len(g.undirected), max_undirected)
    return _walk(g, prefixes)


def _walk(g: PdGraph, prefixes):
    """`iter_orientations` after its cap check.  Reach is kept only among
    the terminals, the endpoints of ``g.undirected``: each stack entry holds
    a prefix and one int, a bit matrix whose row b, ``width`` bits from row
    b - 1, holds the terminals b reaches (itself included) under the
    directed edges and the prefix, so "b reaches a" is bit b*width + a."""
    if not g.undirected:
        if prefixes is None or "" in prefixes:
            yield ""
        return
    slot = {n: i for i, n in enumerate(sorted({n for e in g.undirected for n in e}))}
    t = len(slot)
    width = 8 * -(-t // 8)  # whole bytes per row, so one from_bytes packs them
    children = {n: [] for n in g.schema.names}
    for a, b in g.directed:
        children[a].append(b)
    below = {}  # per node, the terminals it reaches under the directed edges
    for node in reversed(topological_order(g.schema, g.directed)):
        below[node] = reduce(operator.or_, map(below.__getitem__, children[node]),
                             1 << slot[node] if node in slot else 0)
    rows = b"".join(below[n].to_bytes(width // 8, "little") for n in slot)
    reach = int.from_bytes(rows, "little")
    col = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * t, "little")  # bit 0 of every row
    row = (1 << width) - 1
    # per edge a-b: its ends, each end's row offset, and the bits "b reaches
    # a" and "a reaches b"
    ends = [(x, y, x * width, y * width, y * width + x, x * width + y)
            for x, y in ((slot[a], slot[b]) for a, b in g.undirected)]
    last = len(ends) - 1
    stack = [("", reach)]
    while stack:
        vec, m = stack.pop()
        a, b, row_a, row_b, b_to_a, a_to_b = ends[len(vec)]
        forward = not m >> b_to_a & 1  # bit '0', a->b: b must not reach a
        backward = not m >> a_to_b & 1  # bit '1', b->a
        if len(vec) == last:  # leaves are yielded here, never stacked
            if forward and (prefixes is None or vec + "0" in prefixes):
                yield vec + "0"
            if backward and (prefixes is None or vec + "1" in prefixes):
                yield vec + "1"
            continue
        # adding u->v gives every row that reaches u the row of v; the rows
        # are width bits apart, so the product carries nothing between them.
        # "0" is stacked last, so it pops first
        if backward and (prefixes is None or vec + "1" in prefixes):
            stack.append((vec + "1", m | (m >> b & col) * (m >> row_a & row)))
        if forward and (prefixes is None or vec + "0" in prefixes):
            stack.append((vec + "0", m | (m >> a & col) * (m >> row_b & row)))


def enumerate_orientations(g: PdGraph, max_undirected: int = DEFAULT_ENUMERATION_CAP) -> DagSet:
    """All acyclic ways of orienting the undirected edges of ``g``, in the
    order `iter_orientations` yields them, each as the `TaggedDag` its
    vector builds."""
    members = []
    for vec in iter_orientations(g, max_undirected):
        oriented = tuple((a, b) if bit == "0" else (b, a) for (a, b), bit in zip(g.undirected, vec))
        members.append(TaggedDag("G" + vec, vec, Dag._trusted(g.schema, g.directed + oriented)))
    return DagSet(tuple(members), g.undirected)


def subset_orientations(
    g: PdGraph, vectors, max_undirected: int = DEFAULT_ENUMERATION_CAP
) -> list[str]:
    """The distinct members of ``vectors`` in the order `iter_orientations`
    yields them, found by the same walk entering only their prefixes,
    after the same cap check.  A vector that is malformed or orients a
    cycle raises GcfitError ("unknown orientation vectors")."""
    wanted, k = set(vectors), len(g.undirected)
    # no prefix is longer than a leaf; a vector of another length is no
    # leaf the walk reaches, so it is left unknown
    prefixes = {vec[:i] for vec in wanted for i in range(k + 1)}
    found = list(iter_orientations(g, max_undirected, prefixes))
    unknown = wanted.difference(found)
    if unknown:
        # "-" is how `gcf enumerate` and scores.csv print the empty vector
        raise GcfitError(f"unknown orientation vectors: {[v or '-' for v in sorted(unknown)]}")
    return found


class EdgeRanks:
    """Edge lists of the orientations of one PD graph, in sorted edge order,
    rendered as the CLI prints them: "a->b" per edge, joined by ";".

    Every edge an orientation can hold (each directed edge, and both
    directions of each undirected one) is ranked once in that order.  Sorted
    edges group by tail, in name order.  A tail joins the block of depth d,
    the first d such that the first d bits of a vector orient every
    undirected edge of that tail and of each tail before it; so the blocks
    of depth 0..d are a prefix of the list, fixed by those bits.  Each
    block's text is memoized per value of the bits it reads, up to
    _BLOCK_MEMO values.  A variable name holding one of ``separators`` is
    refused, as it would make the printed lists ambiguous, and so is one
    UTF-8 cannot encode."""

    def __init__(self, g: PdGraph, separators=(";", "->")):
        for name in g.schema.names:
            check_utf8(name)
            for sep in separators:
                if sep in name:
                    raise GcfitError(f"variable name {name!r} holds {sep!r}, so its "
                                     "edges cannot be printed unambiguously")
        self.graph = g
        self.edges = sorted(g.directed + g.undirected + tuple((b, a) for a, b in g.undirected))
        rank = {e: r for r, e in enumerate(self.edges)}
        self._text = [f";{a}->{b}" for a, b in self.edges]
        # per tail, in name order: its directed edges' ranks, and per
        # undirected edge out of it, (edge index, the bit that orients it
        # out, its rank)
        tails = {a: ([], []) for a, _ in self.edges}
        for e in g.directed:
            tails[e[0]][0].append(rank[e])
        for i, (a, b) in enumerate(g.undirected):
            tails[a][1].append((i, "0", rank[a, b]))
            tails[b][1].append((i, "1", rank[b, a]))
        k = len(g.undirected)
        blocks = [([], []) for _ in range(k + 1)]
        depth = 0
        for fixed, out in tails.values():
            depth = max([depth] + [i + 1 for i, _, _ in out])
            blocks[depth][0].extend(fixed)
            blocks[depth][1].extend(out)
        # per block: the bits it reads, as a mask on int(vector, 2), and a
        # memo of its text per value of those bits
        self._blocks = [(sum({1 << k - 1 - i for i, _, _ in out}), {}, fixed, out)
                        for fixed, out in blocks]

    def lists(self, vectors):
        """(vector, depth, edge list) for each of ``vectors``.  The text is
        kept per depth, and a vector rebuilds it after its first bit that
        differs from the previous vector's, the depth given."""
        k = len(self.graph.undirected)
        text = [""] * (k + 2)  # text[d + 1]: blocks 0..d
        previous = None
        for vec in vectors:
            code = int(vec or "0", 2)
            start = 0 if previous is None else k - (code ^ previous).bit_length()
            for d in range(0 if previous is None else start + 1, k + 1):
                mask, memo, fixed, out = self._blocks[d]
                block_text = memo.get(code & mask)
                if block_text is None:
                    if len(memo) == _BLOCK_MEMO:
                        memo.clear()
                    ranks = sorted(fixed + [r for i, bit, r in out if vec[i] == bit])
                    block_text = memo[code & mask] = "".join(map(self._text.__getitem__, ranks))
                text[d + 1] = text[d] + block_text
            previous = code
            yield vec, start, text[k + 1][1:]


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
        return PdGraph(schema, doc.get("directed", []), doc.get("undirected", []))
    except GcfitError as exc:
        raise ParseError(f"bad graph: {exc}", path=path) from None


def load_pdgraph(path) -> PdGraph:
    return pdgraph_from_json(read_text(path), path=path)


def save_pdgraph(g: PdGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pdgraph_to_json(g))
