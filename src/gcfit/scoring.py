"""Scores for candidate DAGs: distributional fit (GF) and causal fit (GCF).

GF measures how well the observational distribution factorizes along a
DAG and is blind to edge directions.  GCF compares, per node, the
distribution obtained by *conditioning* on the node against the one
obtained by *intervening* on it; edges should point toward the node
whose intervention disturbs the rest of the system more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bayesnet import do_intervene, joint
from .divergences import kl_divergence
from .errors import (
    GcfitError,
    MissingIntervention,
    SchemaMismatch,
    UnknownEdge,
)
from .graphs import Dag, DagSet
from .tables import Dataset, ProbTable, VariableSchema, empirical_from_dataset

FLAG_NO_CAUSAL_SIGNAL = "no_causal_signal"
FLAG_UNDEFINED_DISTANCE = "undefined_distance"


@dataclass(frozen=True)
class InterventionTables:
    """Observational joint plus one do-distribution per (node, value).

    Each do-table covers every variable except the intervened node, in
    schema order.  This is the data object all GCF machinery consumes;
    it can come from finite samples (`InterventionBundle.tables`) or
    from a ground-truth net (`InterventionTables.from_net`).
    """

    observational: ProbTable
    do: Mapping[tuple[str, int], ProbTable]

    def __post_init__(self):
        schema = self.observational.schema
        for (node, value), table in self.do.items():
            expected = schema.subset(set(schema.names) - {node})
            if table.schema != expected:
                raise SchemaMismatch(
                    f"do-table for ({node}, {value}) has schema {table.schema.names}, "
                    f"expected {expected.names}"
                )

    @property
    def schema(self) -> VariableSchema:
        return self.observational.schema

    @classmethod
    def from_net(cls, net) -> "InterventionTables":
        """Exact tables for every (node, value) of a ground-truth net."""
        schema = net.schema
        do = {
            (node, value): do_intervene(net, node, value)
            for node in schema.names
            for value in range(schema.cardinality(node))
        }
        return cls(joint(net), do)


@dataclass(frozen=True)
class InterventionBundle:
    """Observational dataset plus per-(node, value) interventional datasets."""

    observational: Dataset
    interventional: Mapping[tuple[str, int], Dataset]
    smoothing: float = 0.0

    def __post_init__(self):
        schema = self.observational.schema
        for (node, value), data in self.interventional.items():
            if data.schema != schema:
                raise SchemaMismatch(
                    f"interventional dataset for ({node}, {value}) has a different schema"
                )
            col = data.column(node)
            if len(data) and not (col == value).all():
                raise GcfitError(
                    f"intervened column {node!r} is not constant {value} in its dataset"
                )

    @property
    def schema(self) -> VariableSchema:
        return self.observational.schema

    def tables(self) -> InterventionTables:
        """Empirical tables; the intervened column is dropped before
        estimation so smoothing never leaks mass onto unclamped states."""
        schema = self.schema
        obs = empirical_from_dataset(self.observational, self.smoothing)
        do = {}
        for (node, value), data in self.interventional.items():
            rest = data.select(set(schema.names) - {node})
            do[(node, value)] = empirical_from_dataset(rest, self.smoothing)
        return InterventionTables(obs, do)


@dataclass(frozen=True)
class ScoreRecord:
    """Per-DAG scoring result."""

    graph_id: str
    orientation: str
    dag: Dag
    gf: float
    gcf: float
    gcf_abs: float
    edge_details: tuple[tuple[tuple[str, str], int, float], ...]
    do_divergences: dict[str, float]
    # node -> `do_divergence_detail` result; one mapping shared by the whole set
    do_detail: Mapping[str, tuple[float, list[tuple[int, float, float]]]]
    flags: tuple[str, ...]


def gf(dag: Dag, observational: Dataset, smoothing: float = 0.0) -> float:
    """GF of a DAG on the (optionally smoothed) empirical joint of a dataset;
    see `gf_from_table`."""
    if observational.schema != dag.schema:
        raise SchemaMismatch("dataset schema differs from DAG schema")
    return gf_from_table(dag, empirical_from_dataset(observational, smoothing))


def gf_from_table(dag: Dag, observational: ProbTable, *, _memo=None) -> float:
    """Goodness of fit: ln(1 / KL(P || P projected onto the DAG)).

    The projection is the product of the table's own conditionals
    P(x_i | pa_i), so KL = sum_i H(X_i | Pa_i) - H(X), summed in schema
    order.  Markov-equivalent DAGs get the same value.  +inf when the
    table factorizes exactly along the DAG.

    ``_memo`` maps variable sets to marginal entropies of this one table;
    `score_set` shares one across its candidates.
    """
    if observational.schema != dag.schema:
        raise SchemaMismatch("table schema differs from DAG schema")
    memo = {} if _memo is None else _memo

    def entropy(names) -> float:
        key = frozenset(names)
        if key not in memo:
            # the marginal over no variables is a point mass
            p = observational.marginalize(key).flat() if key else np.ones(1)
            p = p[p > 0]
            memo[key] = -float(np.sum(p * np.log(p)))
        return memo[key]

    names = dag.schema.names
    conditional = sum(
        entropy(dag.parents(n) + (n,)) - entropy(dag.parents(n)) for n in names
    )
    # Gibbs: the true value is >= 0; clamp away summation rounding error
    d = max(conditional - entropy(names), 0.0)
    return math.inf if d == 0 else -math.log(d)


def do_divergence_detail(
    node: str, tables: InterventionTables, missing_policy: str = "strict"
) -> tuple[float, list[tuple[int, float, float]]]:
    """Do-divergence of one node plus its per-value breakdown.

    For each value a with positive observational marginal,
    D_a = KL( P(rest | node=a)  ||  P(rest | do(node)=a) ),
    and the do-divergence is the marginal-weighted average of the D_a.
    Returns (divergence, [(value, weight, D_a), ...]).

    ``missing_policy``: 'strict' raises when a positive-probability
    value has no interventional table; 'renormalize' drops such values
    and renormalizes the weights over the covered ones.
    """
    if missing_policy not in ("strict", "renormalize"):
        raise GcfitError(f"unknown missing policy {missing_policy!r}")
    obs = tables.observational
    marginal = obs.marginalize([node])
    card = obs.schema.cardinality(node)
    covered = []
    for value in range(card):
        weight = marginal.probs[value]
        if weight <= 0:
            continue
        key = (node, value)
        if key not in tables.do:
            if missing_policy == "strict":
                raise MissingIntervention(node, value)
            continue
        conditional = obs.condition(node, value)
        covered.append((value, float(weight), kl_divergence(conditional, tables.do[key])))
    if not covered:
        raise MissingIntervention(node, "any")
    total_weight = sum(w for _, w, _ in covered)
    detail = [(v, w / total_weight, d) for v, w, d in covered]
    divergence = sum(w * d for _, w, d in detail)
    return float(divergence), detail


def do_divergence(node: str, tables: InterventionTables, missing_policy: str = "strict") -> float:
    return do_divergence_detail(node, tables, missing_policy)[0]


def do_divergence_map(
    nodes, tables: InterventionTables, missing_policy: str = "strict"
) -> dict[str, float]:
    """Do-divergences for several nodes; depends only on the data, never
    on any candidate DAG."""
    return {n: do_divergence(n, tables, missing_policy) for n in nodes}


def dodiv_distance(da: float, db: float) -> float:
    """|D_a - D_b| on extended reals; inf - inf is treated as 0 (the
    caller flags it as an undefined distance)."""
    if math.isinf(da) and math.isinf(db):
        return 0.0
    return abs(da - db)


def edge_sign(dag: Dag, edge: tuple[str, str], dmap: Mapping[str, float]) -> int:
    """+1 if the directed edge points toward the endpoint with the larger
    do-divergence, -1 otherwise.  Ties give +1 (their distance is 0, so
    the choice never affects a score)."""
    a, b = edge
    if (a, b) in dag.edges:
        tail, head = a, b
    elif (b, a) in dag.edges:
        tail, head = b, a
    else:
        raise UnknownEdge(f"edge {a!r}-{b!r} not in DAG")
    return 1 if dmap[head] >= dmap[tail] else -1


def _signed_terms(dag: Dag, edges, dmap) -> tuple[list, list[str]]:
    details = []
    flags = []
    for edge in edges:
        a, b = tuple(edge)
        sign = edge_sign(dag, (a, b), dmap)
        if math.isinf(dmap[a]) and math.isinf(dmap[b]):
            flags.append(FLAG_UNDEFINED_DISTANCE)
        details.append(((a, b), sign, dodiv_distance(dmap[a], dmap[b])))
    return details, flags


def gcf_detail(
    dag: Dag, scored_edges, dmap: Mapping[str, float]
) -> tuple[float, tuple, tuple[str, ...]]:
    """Relative GCF plus per-edge detail and flags.

    GCF = sum(sign * distance) / sum(distance) over the scored edges;
    in [-1, 1].  An empty edge list (singleton candidate set) gives 1.
    A zero denominator means the data carries no causal signal for any
    scored edge; that yields 0 with a flag rather than an error.
    """
    scored_edges = list(scored_edges)
    if not scored_edges:
        return 1.0, (), ()
    details, flags = _signed_terms(dag, scored_edges, dmap)
    num = sum(s * d for _, s, d in details)
    den = sum(d for _, s, d in details)
    if den == 0:
        return 0.0, tuple(details), tuple(flags) + (FLAG_NO_CAUSAL_SIGNAL,)
    if math.isinf(den):
        # infinite distances dominate; agree in sign or there is no answer
        if math.isinf(num):
            value = 1.0 if num > 0 else -1.0
        else:
            value = 0.0
            flags = flags + [FLAG_NO_CAUSAL_SIGNAL]
        return value, tuple(details), tuple(flags)
    return num / den, tuple(details), tuple(flags)


def gcf(dag: Dag, scored_edges, dmap: Mapping[str, float]) -> float:
    return gcf_detail(dag, scored_edges, dmap)[0]


def gcf_abs(dag: Dag, dmap: Mapping[str, float]) -> float:
    """Unnormalized signed sum of do-divergence distances over every edge
    of the DAG."""
    details, _ = _signed_terms(dag, dag.edges, dmap)
    return float(sum(s * d for _, s, d in details))


def score_set(
    dags: DagSet,
    data: InterventionBundle | InterventionTables,
    scored_edges=None,
    edges_policy: str = "pd",
    missing_policy: str = "strict",
) -> list[ScoreRecord]:
    """Score every DAG of a set against one shared do-divergence map.

    ``scored_edges`` defaults to the undirected edges of the generating
    PD graph (``edges_policy='pd'``); with ``edges_policy='all'`` each
    DAG's full edge set is scored instead (for sets with mixed
    skeletons).  GF is computed per DAG from the observational table,
    each family's entropy once for the whole set.
    """
    if edges_policy not in ("pd", "all"):
        raise GcfitError(f"unknown edges policy {edges_policy!r}")
    tables = data.tables() if isinstance(data, InterventionBundle) else data

    needed = set()
    for member in dags:
        for a, b in member.dag.edges:
            needed.add(a)
            needed.add(b)
    if scored_edges is not None:
        for a, b in scored_edges:
            needed.add(a)
            needed.add(b)
    do_detail = {n: do_divergence_detail(n, tables, missing_policy) for n in sorted(needed)}
    dmap = {n: d for n, (d, _) in do_detail.items()}

    memo = {}
    records = []
    for member in dags:
        if scored_edges is not None:
            edges = scored_edges
        elif edges_policy == "all":
            edges = member.dag.edges
        else:
            edges = dags.source_undirected
        try:
            value, details, flags = gcf_detail(member.dag, edges, dmap)
            record = ScoreRecord(
                graph_id=member.graph_id,
                orientation=member.orientation,
                dag=member.dag,
                gf=gf_from_table(member.dag, tables.observational, _memo=memo),
                gcf=value,
                gcf_abs=gcf_abs(member.dag, dmap),
                edge_details=details,
                do_divergences=dict(dmap),
                do_detail=do_detail,
                flags=flags,
            )
        except GcfitError as exc:
            exc.args = (f"[{member.graph_id}] {exc}",)
            raise
        records.append(record)
    return records
