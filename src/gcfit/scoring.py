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

from .bayesnet import marginal
from .divergences import kl_divergence
from .errors import (
    GcfitError,
    InvalidState,
    MissingIntervention,
    SchemaMismatch,
    UnknownEdge,
)
from .graphs import Dag, DagSet, VariableSchema
from .tables import Dataset, ProbTable, empirical_from_dataset

FLAG_NO_CAUSAL_SIGNAL = "no_causal_signal"
FLAG_UNDEFINED_DISTANCE = "undefined_distance"


class InterventionTables:
    """Observational joint plus one do-distribution per (node, value).

    Each do-table covers every variable except the intervened node, in
    schema order.  This is the data object all GCF machinery consumes;
    it can come from finite samples (`InterventionBundle.tables`) or
    from a ground-truth net (`InterventionTables.from_net`).  Scoring asks
    it two things: the observational `entropy` over a set of names
    (memoized per set; `joint_entropy` over all of them) and, per node,
    the terms of `do_divergence_detail`, both from one memo of marginals
    per variable set.  Each source answers `_marginal`, `joint_entropy` and
    `_do_terms` its own way; this class reads its dense tables.
    """

    def __init__(self, observational: ProbTable, do: Mapping[tuple[str, int], ProbTable]):
        schema = observational.schema
        for (node, value), table in do.items():
            expected = schema.subset(set(schema.names) - {node})
            if table.schema != expected:
                raise SchemaMismatch(
                    f"do-table for ({node}, {value}) has schema {table.schema.names}, "
                    f"expected {expected.names}"
                )
        self.schema: VariableSchema = schema
        self.observational, self.do = observational, do
        self._marginals: dict[frozenset, np.ndarray] = {}
        self._entropies: dict[frozenset, float] = {}

    @classmethod
    def from_net(cls, net) -> "InterventionTables":
        """Exact tables for every (node, value) of a ground-truth net."""
        return _NetTables(net)

    def _marginal(self, key: frozenset) -> np.ndarray:
        """Observational P(key), axes in schema order, memoized per set: the
        table summed over the rest (the full set: no copy)."""
        if key not in self._marginals:
            drop = tuple(i for i, n in enumerate(self.schema.names) if n not in key)
            probs = self.observational.probs
            self._marginals[key] = probs.sum(axis=drop) if drop else probs
        return self._marginals[key]

    def entropy(self, names) -> float:
        """Entropy (nats) of the observational marginal over ``names``; 0 over
        no names, where the marginal is a point mass."""
        key = frozenset(names)
        if key not in self._entropies:
            self._entropies[key] = _entropy(self._marginal(key)) if key else 0.0
        return self._entropies[key]

    def joint_entropy(self) -> float:
        """H(X) of the observational table."""
        return self.entropy(self.schema.names)

    def _do_terms(self, node: str):
        """(value, P(value), D_value) for each value of positive probability,
        D_value None when there is no do-table for it."""
        obs, weights = self.observational, self._marginal(frozenset([node]))
        for value in range(self.schema.cardinality(node)):
            if weights[value] <= 0:
                continue
            table = self.do.get((node, value))
            yield value, float(weights[value]), (
                None if table is None else kl_divergence(obs.condition(node, value), table)
            )


class _NetTables(InterventionTables):
    """Exact tables of a net from its CPTs; `joint` and `do_intervene` build dense ones."""

    def __init__(self, net):
        self.schema, self._net = net.schema, net
        self._marginals, self._entropies = {}, {}

    def _marginal(self, key: frozenset) -> np.ndarray:
        """As the dense tables' `_marginal`, by `marginal` over an ancestral set."""
        if key not in self._marginals:
            self._marginals[key] = marginal(self._net, [n for n in self.schema.names if n in key])
        return self._marginals[key]

    def joint_entropy(self) -> float:
        """H(X) = sum_i H(X_i | Pa_i) along the net's DAG, summed as
        `gf_from_table` sums a candidate's."""
        return _conditional_entropy(self._net.dag, self.entropy)

    def _do_terms(self, node: str):
        """As `InterventionTables._do_terms`, in closed form: P(rest, a) /
        P(rest | do(node)=a) = P(a | pa), so D_a = sum_pa P(pa | a)
        ln(P(a | pa) / P(a)), read from the CPT and the family marginal;
        weighted by P(a) it sums to I(node; Pa(node))."""
        cpt = self._net.cpts[node]
        scope = cpt.parents + (node,)
        axes = [n for n in self.schema.names if n in scope]
        # the memo's axes (schema order) moved into the CPT's (parents..., node)
        family = np.moveaxis(self._marginal(frozenset(scope)), [axes.index(n) for n in scope],
                             range(len(scope)))
        for value in range(self.schema.cardinality(node)):
            joint_a = family[..., value]
            weight = joint_a.sum()
            if weight <= 0:
                continue
            seen = joint_a > 0
            ratio = cpt.table[..., value][seen] / weight
            yield value, float(weight), float(np.sum(joint_a[seen] / weight * np.log(ratio)))


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
            if not 0 <= value < schema.cardinality(node):
                raise InvalidState(f"state {value} out of range for {node!r}")
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
    # node -> D(node), and node -> `do_divergence_detail`: each shared by the whole set
    do_divergences: Mapping[str, float]
    do_detail: Mapping[str, tuple[float, list[tuple[int, float, float]]]]
    flags: tuple[str, ...]


def gf(dag: Dag, observational: Dataset, smoothing: float = 0.0) -> float:
    """GF of a DAG on the (optionally smoothed) empirical joint of a dataset;
    see `gf_from_table`."""
    if observational.schema != dag.schema:
        raise SchemaMismatch("dataset schema differs from DAG schema")
    return gf_from_table(dag, empirical_from_dataset(observational, smoothing))


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


def _conditional_entropy(dag: Dag, entropy) -> float:
    """sum_i H(X_i | Pa_i) along ``dag`` from marginal entropies.

    `math.fsum` rounds the exact sum of the family and parent-set terms
    once.  Markov-equivalent DAGs differ by covered edge reversals, which
    leave that signed multiset of terms unchanged, so they get the same
    float."""
    return math.fsum(
        term
        for n in dag.schema.names
        for pa in (dag.parents(n),)
        for term in (entropy(pa + (n,)), -entropy(pa))
    )


def gf_from_table(dag: Dag, observational: ProbTable | InterventionTables) -> float:
    """Goodness of fit: ln(1 / KL(P || P projected onto the DAG)).

    The projection is the product of the table's own conditionals
    P(x_i | pa_i), so KL = sum_i H(X_i | Pa_i) - H(X).  Markov-equivalent
    DAGs get the same value.  +inf when the table factorizes exactly along
    the DAG; on tables from a net, every DAG Markov equivalent to the net's
    gets +inf.

    ``observational`` is a table, or `InterventionTables` whose memo of
    entropies `score_set` shares across its candidates.
    """
    if isinstance(observational, ProbTable):
        observational = InterventionTables(observational, {})
    if observational.schema != dag.schema:
        raise SchemaMismatch("table schema differs from DAG schema")
    # Gibbs: the true value is >= 0; clamp away summation rounding error
    d = max(_conditional_entropy(dag, observational.entropy) - observational.joint_entropy(), 0.0)
    return math.inf if d == 0 else -math.log(d)


def do_divergence_detail(
    node: str, tables: InterventionTables, missing_policy: str = "strict"
) -> tuple[float, list[tuple[int, float, float]]]:
    """Do-divergence of one node plus its per-value breakdown.

    For each value a with positive observational marginal,
    D_a = KL( P(rest | node=a)  ||  P(rest | do(node)=a) ),
    and the do-divergence is the marginal-weighted average of the D_a.
    On tables from a net that is I(node; Pa(node)), in closed form.
    Returns (divergence, [(value, weight, D_a), ...]).

    ``missing_policy``: 'strict' raises when a positive-probability
    value has no interventional table; 'renormalize' drops such values
    and renormalizes the weights over the covered ones.
    """
    if missing_policy not in ("strict", "renormalize"):
        raise GcfitError(f"unknown missing policy {missing_policy!r}")
    covered = []
    for value, weight, divergence in tables._do_terms(node):
        if divergence is None:
            if missing_policy == "strict":
                raise MissingIntervention(node, value)
            continue
        covered.append((value, weight, divergence))
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
    edges_policy: str = "pd",
    missing_policy: str = "strict",
) -> list[ScoreRecord]:
    """Score every DAG of a set against one shared do-divergence map.

    GCF scores the undirected edges of the generating PD graph
    (``edges_policy='pd'``); with ``edges_policy='all'`` it scores each
    DAG's full edge set instead (for sets with mixed skeletons).  GF is
    computed per DAG from the observational table, each family's entropy
    once for the whole set.
    """
    if edges_policy not in ("pd", "all"):
        raise GcfitError(f"unknown edges policy {edges_policy!r}")
    tables = data.tables() if isinstance(data, InterventionBundle) else data

    needed = set()
    for member in dags:
        for a, b in member.dag.edges:
            needed.add(a)
            needed.add(b)
    do_detail = {n: do_divergence_detail(n, tables, missing_policy) for n in sorted(needed)}
    dmap = {n: d for n, (d, _) in do_detail.items()}

    records = []
    for member in dags:
        edges = member.dag.edges if edges_policy == "all" else dags.source_undirected
        try:
            value, details, flags = gcf_detail(member.dag, edges, dmap)
            record = ScoreRecord(
                graph_id=member.graph_id,
                orientation=member.orientation,
                dag=member.dag,
                gf=gf_from_table(member.dag, tables),
                gcf=value,
                gcf_abs=gcf_abs(member.dag, dmap),
                edge_details=details,
                do_divergences=dmap,
                do_detail=do_detail,
                flags=flags,
            )
        except GcfitError as exc:
            exc.args = (f"[{member.graph_id}] {exc}",)
            raise
        records.append(record)
    return records
