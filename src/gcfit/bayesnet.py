"""Discrete Bayesian networks: exact joints, do-interventions, CPT fitting
and seeded forward sampling.

do(X=x) has one definition, `_mutilate`: the same DAG with X's CPT
replaced by a point mass at x in every parent configuration.  Every exact
quantity is one elimination over CPT factors, `marginal`: `joint` is the
marginal of all variables, `do_intervene` that of every variable but X in
the mutilated net.  `sample` and `sample_do` are one ancestral sampler;
`sample_do` samples the mutilated net.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GcfitError, ParseError, SchemaMismatch
from .graphs import Dag, VariableSchema, check_names, json_object, read_text
from .graphs import schema_from_obj, schema_to_obj
from .tables import (
    NORMALIZATION_TOL,
    Dataset,
    ProbTable,
    check_smoothing,
    count_rows,
    float_array,
    row_codes,
    row_dtype,
)


@dataclass(frozen=True)
class Cpt:
    """Conditional distribution of one node given its parents.

    ``parents`` is a tuple or list of names.  ``table`` has shape
    ``(*parent_cardinalities, child_cardinality)``; each row (last axis) is
    a normalized distribution over child states, given as numbers.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray = field(repr=False)
    _thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parents", check_names(self.parents, f"parents of {self.child!r}"))
        arr = float_array(self.table, f"CPT for {self.child!r}").copy()
        # written as what is accepted, so that NaN fails both checks
        if not np.all(arr >= 0):
            raise GcfitError(f"CPT for {self.child!r} has negative or NaN entries")
        sums = arr.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= NORMALIZATION_TOL):
            raise GcfitError(f"CPT rows for {self.child!r} do not sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)
        # inverse-CDF thresholds, one row per parent configuration: the
        # cumulative values of every state but the last, +inf from the row's
        # last state of positive probability on, so that state takes what is
        # left and u passes no threshold of a zero-probability state.  Made
        # here, with the table, rather than on a first draw: small arrays
        # kept from amid the sampler's large ones fragment the heap
        card = arr.shape[-1]
        rows = arr.reshape(-1, card)
        cum = np.cumsum(rows, axis=1)
        last = card - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
        cum[np.arange(card) >= last[:, None]] = np.inf
        cum.setflags(write=False)
        object.__setattr__(self, "_thresholds", cum[:, :-1])


@dataclass(frozen=True)
class BayesNet:
    """A DAG plus one CPT per node; the joint is the product of the CPTs."""

    dag: Dag
    cpts: dict[str, Cpt]

    def __post_init__(self):
        schema = self.dag.schema
        if set(self.cpts) != set(schema.names):
            raise GcfitError("need exactly one CPT per node")
        for node, cpt in self.cpts.items():
            if cpt.child != node:
                raise GcfitError(f"CPT keyed {node!r} describes {cpt.child!r}")
            if cpt.parents != self.dag.parents(node):
                raise GcfitError(
                    f"CPT parents {cpt.parents} differ from DAG parents "
                    f"{self.dag.parents(node)} for {node!r}"
                )
            expected = tuple(schema.cardinality(p) for p in cpt.parents) + (
                schema.cardinality(node),
            )
            if cpt.table.shape != expected:
                raise GcfitError(
                    f"CPT for {node!r} has shape {cpt.table.shape}, expected {expected}"
                )

    @property
    def schema(self) -> VariableSchema:
        return self.dag.schema


def _mutilate(net: BayesNet, node: str, value: int) -> BayesNet:
    """The net under do(node=value): the same DAG, ``node``'s CPT replaced
    by point-mass rows at ``value`` in every parent configuration.  The
    incoming edges stay, so every node keeps its topological position and
    with it its sampling substream."""
    net.schema.check_state(node, value)
    cpt = net.cpts[node]
    table = np.zeros(cpt.table.shape)
    table[..., value] = 1.0
    return BayesNet(net.dag, {**net.cpts, node: Cpt(node, cpt.parents, table)})


def _multiply(factors, out) -> np.ndarray:
    """Product of ``(table, scope)`` factors, summed onto the variables
    ``out`` (axes in that order).  Each einsum takes two operands labelled
    only by the variables they span."""
    table, scope = np.ones(()), ()
    for other, other_scope in factors:
        merged = scope + tuple(v for v in other_scope if v not in scope)
        label = {v: i for i, v in enumerate(merged)}
        table = np.einsum(table, [label[v] for v in scope],
                          other, [label[v] for v in other_scope], list(range(len(merged))))
        scope = merged
    label = {v: i for i, v in enumerate(scope)}
    return np.einsum(table, list(range(len(scope))), [label[v] for v in out])


def marginal(net: BayesNet, names) -> np.ndarray:
    """P(names) as an array with one axis per name, in the order given.

    Only the CPTs of the ancestral set of ``names`` enter: the factor of a
    barren node sums to 1.  The other ancestors are summed out one at a
    time, each time the one whose factors span the fewest cells (ties to
    the earliest in the schema), so the cost follows the width of the
    ancestral set, not its size.  No einsum sees more than two operands or
    more labels than the variables they span, whatever the number of nodes.
    """
    names = tuple(names)
    ancestral, stack = set(names), list(names)
    while stack:
        for parent in net.cpts[stack.pop()].parents:
            if parent not in ancestral:
                ancestral.add(parent)
                stack.append(parent)
    schema = net.schema
    card = dict(zip(schema.names, schema.cardinalities))
    factors = [(net.cpts[n].table, net.cpts[n].parents + (n,))
               for n in schema.names if n in ancestral]
    hidden = [n for n in schema.names if n in ancestral and n not in names]

    while hidden:
        # the variables each hidden one shares a factor with, in one pass
        near = {v: set() for v in hidden}
        for _, scope in factors:
            for v in scope:
                if v in near:
                    near[v].update(scope)
        var = min(hidden, key=lambda v: math.prod(card[u] for u in near[v]))
        hidden.remove(var)
        touching = [f for f in factors if var in f[1]]
        scope = tuple(dict.fromkeys(v for _, s in touching for v in s if v != var))
        factors = [f for f in factors if var not in f[1]]
        factors.append((_multiply(touching, scope), scope))
    return _multiply(factors, names)


def joint(net: BayesNet) -> ProbTable:
    """Exact joint distribution: the product of all CPT factors."""
    return ProbTable(net.schema, marginal(net, net.schema.names))


def do_intervene(net: BayesNet, node: str, value: int) -> ProbTable:
    """P(rest | do(node)=value): the marginal of every other variable in
    the mutilated net, as a normalized table."""
    rest = net.schema.subset(set(net.schema.names) - {node})
    return ProbTable.from_weights(rest, marginal(_mutilate(net, node, value), rest.names))


def fit_cpts(dag: Dag, data: Dataset, smoothing: float = 0.0) -> BayesNet:
    """Maximum-likelihood (optionally Laplace-smoothed) CPTs from data.

    Row = (count(child=c, parents=pi) + smoothing) /
          (count(parents=pi) + smoothing * card(child)).
    Rows with zero total fall back to uniform.
    """
    if data.schema != dag.schema:
        raise SchemaMismatch("dataset schema differs from DAG schema")
    check_smoothing(smoothing)
    schema = dag.schema
    cpts = {}
    for node in schema.names:
        parents = dag.parents(node)
        counts = count_rows(data, parents + (node,)) + smoothing
        totals = counts.sum(axis=-1, keepdims=True)
        card = schema.cardinality(node)
        table = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), 1.0 / card)
        cpts[node] = Cpt(node, parents, table)
    return BayesNet(dag, cpts)


def substream(seed, key: int) -> np.random.SeedSequence:
    """Child ``key`` of ``seed`` (an int or a SeedSequence): the same
    (seed, key) always gives the same stream, distinct keys independent ones."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    return np.random.SeedSequence(base.entropy, spawn_key=base.spawn_key + (key,))


def _node_rng(seed, position: int) -> np.random.Generator:
    """One deterministic substream per node, keyed by topological position."""
    return np.random.default_rng(substream(seed, position))


def _draw_column(net: BayesNet, node: str, rows: np.ndarray, rng: np.random.Generator) -> None:
    """Inverse-CDF sample of one node into its column of ``rows``, given
    the already-sampled parent columns; the column must hold zeros."""
    schema = net.schema
    cpt = net.cpts[node]
    u = rng.random(len(rows))
    # row-major index of each row's parent configuration; a root's is row 0
    row = row_codes(rows, [schema.index(p) for p in cpt.parents], schema.cardinalities)
    thresholds = cpt._thresholds
    out = rows[:, schema.index(node)]
    for k in range(thresholds.shape[1]):
        out += thresholds[:, k][row] <= u


def _forward(net: BayesNet, n: int, seed) -> Dataset:
    """Ancestral sampling in topological order, in place into rows of the
    schema's row dtype; each node draws from its own substream."""
    if n < 1:
        raise GcfitError("n must be >= 1")
    cards = net.schema.cardinalities
    rows = np.zeros((n, len(cards)), dtype=row_dtype(cards))
    for pos, node in enumerate(net.dag.topological_order()):
        _draw_column(net, node, rows, _node_rng(seed, pos))
    return Dataset(net.schema, rows)


def sample(net: BayesNet, n: int, seed) -> Dataset:
    """Forward (ancestral) sampling; identical (net, n, seed) gives an
    identical dataset."""
    return _forward(net, n, seed)


def sample_do(net: BayesNet, node: str, value: int, n: int, seed) -> Dataset:
    """Forward sampling of the mutilated net.

    The output keeps all columns; the intervened column is constant.
    """
    return _forward(_mutilate(net, node, value), n, seed)


# ---------------------------------------------------------------------------
# JSON serialization

def bayesnet_to_json(net: BayesNet) -> str:
    schema = net.schema
    doc = {
        "variables": schema_to_obj(schema),
        "edges": [list(e) for e in net.dag.edges],
        "cpts": {
            node: {
                "parents": list(net.cpts[node].parents),
                "rows": net.cpts[node]
                .table.reshape(-1, schema.cardinality(node))
                .tolist(),
            }
            for node in schema.names
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def bayesnet_from_json(text: str, path=None) -> BayesNet:
    doc = json_object(text, "variables", path)
    schema = schema_from_obj(doc["variables"], path=path)
    try:
        dag = Dag(schema, doc.get("edges", []))
    except GcfitError as exc:
        raise ParseError(f"bad network structure: {exc}", path=path) from None
    cpts = {}
    for node in schema.names:
        try:
            entry = doc["cpts"][node]
            parents, rows = entry["parents"], float_array(entry["rows"], "rows")
            sums = rows.sum(axis=-1, keepdims=True)
            if not np.all(np.abs(sums - 1.0) <= 1e-6):  # NaN fails too
                raise ParseError(f"CPT rows for {node!r} fail normalization", path=path)
            shape = tuple(schema.cardinality(p) for p in parents) + (schema.cardinality(node),)
            # renormalize within the accepted 1e-6 slack so the Cpt invariant holds
            cpts[node] = Cpt(node, parents, (rows / sums).reshape(shape))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, GcfitError) as exc:
            raise ParseError(f"bad CPT for {node!r}: {exc}", path=path) from None
    try:
        return BayesNet(dag, cpts)
    except GcfitError as exc:
        raise ParseError(f"inconsistent network: {exc}", path=path) from None


def load_bayesnet(path) -> BayesNet:
    return bayesnet_from_json(read_text(path), path=path)


def save_bayesnet(net: BayesNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bayesnet_to_json(net))
