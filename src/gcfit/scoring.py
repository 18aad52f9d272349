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
from .divergences import kl_sum
from .errors import (
    EmptyDataset,
    GcfitError,
    MissingIntervention,
    SchemaMismatch,
    UnknownEdge,
)
from .graphs import Dag, DagSet, VariableSchema
from .tables import Dataset, ProbTable, check_smoothing, row_codes, row_dtype

FLAG_NO_CAUSAL_SIGNAL = "no_causal_signal"
FLAG_UNDEFINED_DISTANCE = "undefined_distance"


class InterventionTables:
    """Observational joint plus one do-distribution per (node, value).

    This is the data object all GCF machinery consumes.  Scoring asks it
    for the observational `entropy` over a set of names (memoized per set;
    `joint_entropy` over all of them) and, per node, the terms of
    `do_divergence_detail`.  It has two sources: weighted rows (this class)
    and a net's CPTs (`InterventionTables.from_net`).  The rows of
    `InterventionBundle.tables` are the data's distinct observational rows,
    weighted by their counts, and each do-set's rows.  Dense tables given
    here are their cells of positive probability, weighted by their
    probabilities, at smoothing 0; a do-table covers every variable but the
    intervened node, which its rows get back as the constant ``value``.

    Laplace smoothing s over the C cells of the joint, with T = W + sC for
    the total weight W, gives each cell f of a scope F (C_F cells) the mass
    (w_F(f) + s·C/C_F) / T, so the cells no row reaches share one
    closed-form term and every sum runs over the cells rows reach.  The
    intervened column is no part of a do-set's scope, so smoothing puts no
    mass on its unclamped states.
    """

    def __init__(self, observational: ProbTable, do: Mapping[tuple[str, int], ProbTable]):
        schema = observational.schema
        dtype = row_dtype(schema.cardinalities)
        do_rows = {}
        for key, table in do.items():
            node, value = _do_key(schema, key)
            expected = schema.subset(set(schema.names) - {node})
            if table.schema != expected:
                raise SchemaMismatch(
                    f"do-table for ({node}, {value}) has schema {table.schema.names}, "
                    f"expected {expected.names}"
                )
            rows, weights = _positive_cells(table, dtype)
            do_rows[node, value] = np.insert(rows, schema.index(node), value, axis=1), weights
        self._setup(schema, *_positive_cells(observational, dtype), do_rows, 0.0)

    def _setup(self, schema: VariableSchema, rows, weights, do, smoothing: float) -> None:
        """Answer from ``rows``, distinct observational rows, with their
        ``weights``; ``do`` maps (node, value) to its rows and their weights,
        or None for weight 1 each."""
        self._do = {key: (r, w, len(r) if w is None else w.sum().item())
                    for key, (r, w) in do.items()}
        total = weights.sum().item()
        if not smoothing and not (total and all(t for _, _, t in self._do.values())):
            raise EmptyDataset("cannot estimate from an empty dataset without smoothing")
        self.schema: VariableSchema = schema
        self._rows, self._weights, self._smoothing = rows, weights, smoothing
        self._total = total + smoothing * schema.n_cells
        self._entropies: dict[frozenset, float] = {}

    @classmethod
    def from_net(cls, net) -> "InterventionTables":
        """Exact tables for every (node, value) of a ground-truth net."""
        return _NetTables(net)

    def entropy(self, names) -> float:
        """Entropy (nats) of the observational marginal over ``names``; 0 over
        no names, where the marginal is a point mass."""
        key = frozenset(names)
        if key not in self._entropies:
            self.schema.subset(key)  # an unknown name raises UnknownVariable
            self._entropies[key] = self._set_entropy(key) if key else 0.0
        return self._entropies[key]

    def _set_entropy(self, key: frozenset) -> float:
        """Entropy over a nonempty set of names, unmemoized."""
        cols = [i for i, n in enumerate(self.schema.names) if n in key]
        (counts,) = _tally([(self._rows, self._weights)], cols, self.schema.cardinalities)
        cells = math.prod(self.schema.cardinalities[i] for i in cols)
        pseudo = self._smoothing * (self.schema.n_cells // cells)  # of each cell of the scope
        p = (counts + pseudo) / self._total
        h = -float(np.sum(p * np.log(p)))
        if pseudo:
            p0 = pseudo / self._total
            h -= (cells - len(counts)) * p0 * math.log(p0)
        return h

    def joint_entropy(self) -> float:
        """H(X) of the observational table."""
        return self.entropy(self.schema.names)

    def _do_terms(self, node: str):
        """(value, P(value), D_value) for each value of positive probability,
        D_value None when there is no do-table for it.  P(value) = (W_a +
        s·C_rest) / T, and D_value comes from the weights of the rest
        columns in the observational rows with node=value and in the do-rows."""
        schema, s = self.schema, self._smoothing
        col = schema.index(node)
        rest = [i for i in range(len(schema.names)) if i != col]
        cells = schema.n_cells // schema.cardinalities[col]
        for value in range(schema.cardinalities[col]):
            given = self._rows[:, col] == value
            conditioned = self._weights[given].sum().item() + s * cells
            if conditioned <= 0:
                continue
            do = self._do.get((node, value))
            if do is None:
                yield value, conditioned / self._total, None
                continue
            do_rows, do_weights, do_total = do
            parts = [(self._rows[given], self._weights[given]), (do_rows, do_weights)]
            p_counts, q_counts = _tally(parts, rest, schema.cardinalities)
            yield value, conditioned / self._total, _smoothed_kl(
                p_counts, conditioned, q_counts, do_total + s * cells, s, cells
            )


class _NetTables(InterventionTables):
    """Exact tables of a net from its CPTs, through one memo of marginals per
    variable set, so each set is eliminated once; `joint` and `do_intervene`
    build dense ones."""

    def __init__(self, net):
        self.schema, self._net = net.schema, net
        self._marginals, self._entropies = {}, {}

    def _marginal(self, key: frozenset) -> np.ndarray:
        """P(key), axes in schema order, memoized per set: `marginal` over an
        ancestral set."""
        if key not in self._marginals:
            self._marginals[key] = marginal(self._net, [n for n in self.schema.names if n in key])
        return self._marginals[key]

    def _set_entropy(self, key: frozenset) -> float:
        p = self._marginal(key)
        p = p[p > 0]
        return -float(np.sum(p * np.log(p)))

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


def _positive_cells(table: ProbTable, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The cells of positive probability of a dense table, as rows of states
    in ``dtype``, and their probabilities."""
    seen = table.probs > 0
    return np.argwhere(seen).astype(dtype), table.probs[seen]


def _distinct_rows(rows: np.ndarray, cards) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows and how often each occurs."""
    codes = row_codes(rows, range(len(cards)), cards)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return rows[first], counts


def _tally(parts, cols, cards) -> list[np.ndarray]:
    """Counts of each part's rows over the cells of the ``cols`` scope that
    some part's rows reach, aligned cell by cell across the parts.

    ``parts`` are (rows, weights or None).  A scope of no more cells than
    the rows is counted by `bincount` over all its cells; a larger one over
    the `unique` codes of its rows.
    """
    cells = math.prod(cards[c] for c in cols)
    codes = row_codes(np.concatenate([rows for rows, _ in parts]), cols, cards)
    if cells <= len(codes):
        index, width = codes, cells
    else:
        seen, index = np.unique(codes, return_inverse=True)
        width = len(seen)
    counts, start = [], 0
    for rows, weights in parts:
        counts.append(np.bincount(index[start:start + len(rows)], weights, minlength=width))
        start += len(rows)
    if width == cells:  # drop the cells no row reaches
        reached = np.logical_or.reduce([c > 0 for c in counts])
        counts = [c[reached] for c in counts]
    return counts


def _do_key(schema: VariableSchema, key) -> tuple[str, int]:
    """``key`` as a (node, value) pair, the value a state of the node."""
    if not (isinstance(key, tuple) and len(key) == 2):
        raise GcfitError(f"a do-key must be a (node, value) pair, not {key!r}")
    schema.check_state(*key)
    return key


def _smoothed_kl(p_counts, p_total, q_counts, q_total, smoothing, cells) -> float:
    """KL(p || q) of p = (p_counts + s) / p_total and q = (q_counts + s) /
    q_total over a scope of ``cells`` cells, of which the counts cover the
    ones rows reach; each other cell adds (s / p_total) ln(q_total / p_total).
    `kl_sum` over the reached cells, clamped at 0 as `kl_divergence` is."""
    total = kl_sum((p_counts + smoothing) / p_total, (q_counts + smoothing) / q_total)
    if smoothing:
        total += (cells - len(p_counts)) * (smoothing / p_total) * math.log(q_total / p_total)
    return max(total, 0.0)


@dataclass(frozen=True)
class InterventionBundle:
    """Observational dataset plus per-(node, value) interventional datasets."""

    observational: Dataset
    interventional: Mapping[tuple[str, int], Dataset]
    smoothing: float = 0.0

    def __post_init__(self):
        check_smoothing(self.smoothing)
        schema = self.observational.schema
        for key, data in self.interventional.items():
            node, value = _do_key(schema, key)
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
        """The smoothed empirical tables, answered from the data's distinct
        rows weighted by their counts; the intervened column is no part of
        its do-sets' scope, so smoothing never leaks mass onto unclamped states."""
        data, tables = self.observational, InterventionTables.__new__(InterventionTables)
        tables._setup(data.schema, *_distinct_rows(data.rows, data.schema.cardinalities),
                      {key: (d.rows, None) for key, d in self.interventional.items()},
                      self.smoothing)
        return tables


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
    return gf_from_table(dag, InterventionBundle(observational, {}, smoothing).tables())


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
    tables.schema.index(node)  # an unknown node raises UnknownVariable on every source
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

    needed = set()
    for member in dags:
        if member.dag.schema != tables.schema:
            raise SchemaMismatch(f"[{member.graph_id}] table schema differs from DAG schema")
        if len(needed) < len(tables.schema.names):  # else nothing is left to add
            needed.update(*member.dag.edges)
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
