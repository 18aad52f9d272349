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
    EmptyDataset,
    GcfitError,
    InvalidState,
    MissingIntervention,
    SchemaMismatch,
    UnknownEdge,
)
from .graphs import Dag, DagSet, VariableSchema
from .tables import Dataset, ProbTable, check_smoothing

FLAG_NO_CAUSAL_SIGNAL = "no_causal_signal"
FLAG_UNDEFINED_DISTANCE = "undefined_distance"

# row codes 0 .. 2**63 - 1 are int64: wider scopes are counted by their rows
_MAX_CODED_CELLS = 2**63


class InterventionTables:
    """Observational joint plus one do-distribution per (node, value).

    Each do-table covers every variable except the intervened node, in
    schema order.  This is the data object all GCF machinery consumes;
    it can come from dense tables (this class), from finite samples
    (`InterventionBundle.tables`) or from a ground-truth net
    (`InterventionTables.from_net`).  Scoring asks it two things: the
    observational `entropy` over a set of names (memoized per set;
    `joint_entropy` over all of them) and, per node, the terms of
    `do_divergence_detail`.  Each source answers `_set_entropy`,
    `joint_entropy` and `_do_terms` its own way; this class reads its
    dense tables, through one memo of marginals per variable set.
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
            self._entropies[key] = self._set_entropy(key) if key else 0.0
        return self._entropies[key]

    def _set_entropy(self, key: frozenset) -> float:
        """Entropy over a nonempty set of names, unmemoized."""
        return _entropy(self._marginal(key))

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
        return _conditional_entropy(_parent_lists(self._net.dag), self.entropy, {})

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


class _CountTables(InterventionTables):
    """Tables of an `InterventionBundle`, answered from counts, never from dense tables.

    The observational rows are deduplicated once, into K distinct rows with
    counts.  Laplace smoothing s over the C cells of the joint, with
    T = N + sC, gives each cell f of a scope F (C_F cells) the mass
    (c_F(f) + s·C/C_F) / T, so the cells no row reaches share one
    closed-form term and every sum runs over the cells rows reach: at most
    K for an entropy, and at most the rows with X=a plus the do-rows for a
    D_a.  The intervened column is no part of a do-set's scope, so
    smoothing puts no mass on its unclamped states.
    """

    def __init__(self, observational: Dataset, interventional: Mapping[tuple[str, int], Dataset],
                 smoothing: float):
        check_smoothing(smoothing)
        if not smoothing and not (len(observational) and all(map(len, interventional.values()))):
            raise EmptyDataset("cannot estimate from an empty dataset without smoothing")
        self.schema: VariableSchema = observational.schema
        self._smoothing, self._interventional = smoothing, interventional
        self._total = len(observational) + smoothing * self.schema.n_cells
        self._rows, self._counts = _distinct_rows(observational.rows, self.schema.cardinalities)
        self._entropies: dict[frozenset, float] = {}

    def _set_entropy(self, key: frozenset) -> float:
        cols = [i for i, n in enumerate(self.schema.names) if n in key]
        (counts,) = _tally([(self._rows, self._counts)], cols, self.schema.cardinalities)
        cells = math.prod(self.schema.cardinalities[i] for i in cols)
        pseudo = self._smoothing * (self.schema.n_cells // cells)  # of each cell of the scope
        p = (counts + pseudo) / self._total
        h = -float(np.sum(p * np.log(p)))
        if pseudo:
            p0 = pseudo / self._total
            h -= (cells - len(counts)) * p0 * math.log(p0)
        return h

    def _do_terms(self, node: str):
        """As `InterventionTables._do_terms`: P(value) = (N_a + s·C_rest) / T,
        and D_a from the counts of the rest columns in the observational rows
        with node=a and in the do-rows."""
        schema, s = self.schema, self._smoothing
        col = schema.index(node)
        rest = [i for i in range(len(schema.names)) if i != col]
        cells = schema.n_cells // schema.cardinalities[col]
        for value in range(schema.cardinalities[col]):
            given = self._rows[:, col] == value
            conditioned = int(self._counts[given].sum()) + s * cells
            if conditioned <= 0:
                continue
            data = self._interventional.get((node, value))
            if data is None:
                yield value, conditioned / self._total, None
                continue
            parts = [(self._rows[given], self._counts[given]), (data.rows, None)]
            p_counts, q_counts = _tally(parts, rest, schema.cardinalities)
            yield value, conditioned / self._total, _smoothed_kl(
                p_counts, conditioned, q_counts, len(data) + s * cells, s, cells
            )


def _row_codes(rows: np.ndarray, cols, cards) -> np.ndarray:
    """Row-major cell index of each row's ``cols`` in their scope, which must
    have at most 2**63 cells, by Horner's rule over those columns alone.

    The codes are built in the narrowest unsigned dtype that holds the
    scope's cell count, the largest factor, so no partial code wraps; past
    uint32 they are int64, because `np.bincount` takes no uint64.  Narrow
    passes over narrow rows are the fast ones."""
    cells = math.prod(cards[c] for c in cols)
    codes = np.zeros(len(rows), dtype=np.min_scalar_type(cells) if cells < 2**32 else np.int64)
    for col in cols:
        codes *= cards[col]
        codes += rows[:, col]
    return codes


def _distinct_rows(rows: np.ndarray, cards) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and how often each occurs."""
    if math.prod(cards) <= _MAX_CODED_CELLS:
        codes = _row_codes(rows, range(len(cards)), cards)
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        return rows[first], counts
    return np.unique(rows, axis=0, return_counts=True)


def _tally(parts, cols, cards) -> list[np.ndarray]:
    """Counts of each part's rows over the cells of the ``cols`` scope that
    some part's rows reach, aligned cell by cell across the parts.

    ``parts`` are (rows, weights or None).  A scope of no more cells than
    the rows is counted by `bincount` over all its cells; a larger one over
    the `unique` codes of its rows, or, past int64 codes, over its unique
    rows.
    """
    cells = math.prod(cards[c] for c in cols)
    if cells <= _MAX_CODED_CELLS:
        codes = _row_codes(np.concatenate([rows for rows, _ in parts]), cols, cards)
        if cells <= len(codes):
            index, width = codes, cells
        else:
            seen, index = np.unique(codes, return_inverse=True)
            width = len(seen)
    else:
        seen, index = np.unique(np.concatenate([rows[:, cols] for rows, _ in parts]), axis=0,
                                return_inverse=True)
        index, width = index.reshape(-1), len(seen)
    counts, start = [], 0
    for rows, weights in parts:
        counts.append(np.bincount(index[start:start + len(rows)], weights, minlength=width))
        start += len(rows)
    if width == cells:  # drop the cells no row reaches
        reached = np.logical_or.reduce([c > 0 for c in counts])
        counts = [c[reached] for c in counts]
    return counts


def _smoothed_kl(p_counts, p_total, q_counts, q_total, smoothing, cells) -> float:
    """KL(p || q) of p = (p_counts + s) / p_total and q = (q_counts + s) /
    q_total over a scope of ``cells`` cells, of which the counts cover the
    ones rows reach; each other cell adds (s / p_total) ln(q_total / p_total).
    Conventions of `kl_divergence`: +inf when p > 0 = q, clamped at 0."""
    p = (p_counts + smoothing) / p_total
    q = (q_counts + smoothing) / q_total
    support = p > 0
    if np.any(support & (q == 0)):
        return math.inf
    ps, qs = p[support], q[support]
    total = float(np.sum(ps * np.log(ps / qs)))
    if smoothing:
        total += (cells - len(p)) * (smoothing / p_total) * math.log(q_total / p_total)
    return max(total, 0.0)


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
        """The smoothed empirical tables, answered from counts of distinct
        rows; the intervened column is no part of its do-sets' scope, so
        smoothing never leaks mass onto unclamped states."""
        return _CountTables(self.observational, self.interventional, self.smoothing)


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
    """GF of a DAG on the (optionally smoothed) empirical joint of a dataset,
    from its counts as `InterventionBundle.tables` answers it; see
    `gf_from_table`."""
    if observational.schema != dag.schema:
        raise SchemaMismatch("dataset schema differs from DAG schema")
    return gf_from_table(dag, _CountTables(observational, {}, smoothing))


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


def _parent_lists(dag: Dag) -> dict[str, list[str]]:
    """Every node's parents, from one pass over the DAG's edges.  The edges
    are sorted, so each list is too: one key per parent set."""
    parents = {n: [] for n in dag.schema.names}
    for a, b in dag.edges:
        parents[b].append(a)
    return parents


def _conditional_entropy(parents: Mapping[str, list[str]], entropy, memo: dict) -> float:
    """sum_i H(X_i | Pa_i) over a DAG's parent lists, from marginal entropies.

    ``memo`` maps (node, parents) to the pair (H(family), -H(parents)), so
    a family shared by many candidates asks ``entropy`` twice in all.
    `math.fsum` rounds the exact sum of the terms once.  Markov-equivalent
    DAGs differ by covered edge reversals, which leave that signed
    multiset of terms unchanged, so they get the same float."""
    terms = []
    for node, ps in parents.items():
        key = (node, tuple(ps))
        pair = memo.get(key)
        if pair is None:
            pair = memo[key] = (entropy(ps + [node]), -entropy(ps))
        terms += pair
    return math.fsum(terms)


def _gf(conditional_entropy: float, joint_entropy: float) -> float:
    # Gibbs: the true value is >= 0; clamp away summation rounding error
    d = max(conditional_entropy - joint_entropy, 0.0)
    return math.inf if d == 0 else -math.log(d)


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
    conditional = _conditional_entropy(_parent_lists(dag), observational.entropy, {})
    return _gf(conditional, observational.joint_entropy())


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


def _orient(edge, parents: Mapping[str, list[str]]) -> tuple[str, str]:
    """The (tail, head) of an undirected ``edge`` in the DAG with these parent lists."""
    a, b = edge
    if a in parents.get(b, ()):
        return a, b
    if b in parents.get(a, ()):
        return b, a
    raise UnknownEdge(f"edge {a!r}-{b!r} not in DAG")


def _edge_terms(oriented, dmap: Mapping[str, float], memo: dict) -> list[tuple[int, float, bool]]:
    """(`edge_sign`, `dodiv_distance`, both D infinite) of each oriented edge
    (tail, head), memoized per edge in ``memo``."""
    for tail, head in [e for e in oriented if e not in memo]:
        dt, dh = dmap[tail], dmap[head]
        undefined = math.isinf(dt) and math.isinf(dh)
        memo[tail, head] = (1 if dh >= dt else -1, dodiv_distance(dt, dh), undefined)
    return [memo[e] for e in oriented]


def edge_sign(dag: Dag, edge: tuple[str, str], dmap: Mapping[str, float]) -> int:
    """+1 if the directed edge points toward the endpoint with the larger
    do-divergence, -1 otherwise.  Ties give +1 (their distance is 0, so
    the choice never affects a score)."""
    return _edge_terms([_orient(edge, _parent_lists(dag))], dmap, {})[0][0]


def _gcf_value(details: tuple, flags: tuple[str, ...]) -> tuple[float, tuple[str, ...]]:
    """GCF and its flags from the per-edge (edge, sign, distance) terms."""
    if not details:
        return 1.0, flags
    num = sum(s * d for _, s, d in details)
    den = sum(d for _, s, d in details)
    if den == 0:
        return 0.0, flags + (FLAG_NO_CAUSAL_SIGNAL,)
    if math.isinf(den):
        # infinite distances dominate; agree in sign or there is no answer
        if math.isinf(num):
            return (1.0 if num > 0 else -1.0), flags
        return 0.0, flags + (FLAG_NO_CAUSAL_SIGNAL,)
    return num / den, flags


def _gcf_detail(parents, scored_edges, dmap, memo) -> tuple[float, tuple, tuple[str, ...]]:
    terms = _edge_terms([_orient(e, parents) for e in scored_edges], dmap, memo)
    details = tuple((tuple(e), s, d) for e, (s, d, _) in zip(scored_edges, terms))
    value, flags = _gcf_value(
        details, tuple(FLAG_UNDEFINED_DISTANCE for _, _, undefined in terms if undefined)
    )
    return value, details, flags


def _gcf_abs(edges, dmap, memo) -> float:
    return float(sum(s * d for s, d, _ in _edge_terms(edges, dmap, memo)))


def gcf_detail(
    dag: Dag, scored_edges, dmap: Mapping[str, float]
) -> tuple[float, tuple, tuple[str, ...]]:
    """Relative GCF plus per-edge detail and flags.

    GCF = sum(sign * distance) / sum(distance) over the scored edges;
    in [-1, 1].  An empty edge list (singleton candidate set) gives 1.
    A zero denominator means the data carries no causal signal for any
    scored edge; that yields 0 with a flag rather than an error.
    """
    return _gcf_detail(_parent_lists(dag), list(scored_edges), dmap, {})


def gcf(dag: Dag, scored_edges, dmap: Mapping[str, float]) -> float:
    return gcf_detail(dag, scored_edges, dmap)[0]


def gcf_abs(dag: Dag, dmap: Mapping[str, float]) -> float:
    """Unnormalized signed sum of do-divergence distances over every edge
    of the DAG."""
    return _gcf_abs(dag.edges, dmap, {})


def score_set(
    dags: DagSet,
    data: InterventionBundle | InterventionTables,
    edges_policy: str = "pd",
    missing_policy: str = "strict",
) -> list[ScoreRecord]:
    """Score every DAG of a set against one shared do-divergence map.

    GCF scores the undirected edges of the generating PD graph
    (``edges_policy='pd'``); with ``edges_policy='all'`` it scores each
    DAG's full edge set instead (for sets with mixed skeletons).  Both
    scores are sums of local terms, each computed once for the whole set:
    GF's entropy pair per (node, parents) and GCF's signed distance per
    oriented edge.  A candidate then costs one pass over its edges, to
    build its parent lists, and one lookup per node and per edge.
    """
    if edges_policy not in ("pd", "all"):
        raise GcfitError(f"unknown edges policy {edges_policy!r}")
    if edges_policy == "pd" and len(dags) > 1 and not dags.source_undirected:
        raise GcfitError(
            f"{len(dags)} candidates but no undirected edges to score: the DagSet's "
            "source_undirected is empty (pass the PD graph's undirected edges, or "
            "edges_policy='all')"
        )
    tables = data.tables() if isinstance(data, InterventionBundle) else data

    names, needed = tables.schema.names, set()
    for member in dags:
        needed.update(*member.dag.edges)
        if len(needed) == len(names):  # nothing left to add
            break
    do_detail = {n: do_divergence_detail(n, tables, missing_policy) for n in sorted(needed)}
    dmap = {n: d for n, (d, _) in do_detail.items()}

    joint, families, edge_terms = tables.joint_entropy(), {}, {}
    records = []
    for member in dags:
        dag = member.dag
        parents = _parent_lists(dag)
        edges = dag.edges if edges_policy == "all" else dags.source_undirected
        try:
            value, details, flags = _gcf_detail(parents, edges, dmap, edge_terms)
            if dag.schema != tables.schema:
                raise SchemaMismatch("table schema differs from DAG schema")
            record = ScoreRecord(
                graph_id=member.graph_id,
                orientation=member.orientation,
                dag=dag,
                gf=_gf(_conditional_entropy(parents, tables.entropy, families), joint),
                gcf=value,
                gcf_abs=_gcf_abs(dag.edges, dmap, edge_terms),
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
