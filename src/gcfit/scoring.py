"""Scores for candidate DAGs: distributional fit (GF) and causal fit (GCF).

GF measures how well the observational distribution factorizes along a
DAG and is blind to edge directions.  GCF compares, per node, the
distribution obtained by *conditioning* on the node against the one
obtained by *intervening* on it; edges should point toward the node
whose intervention disturbs the rest of the system more.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Mapping

import numpy as np

from .divergences import kl_sum
from .errors import (
    EmptyDataset,
    GcfitError,
    MissingIntervention,
    SchemaMismatch,
    UnknownEdge,
)
from .graphs import Dag, DagSet, EdgeRanks, VariableSchema, _Record
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
        self._total = total + self._mass(schema.n_cells)
        self._entropies: dict[frozenset, float] = {}

    def _mass(self, cells: int) -> float:
        """The smoothing mass s·cells; 0.0 unsmoothed, where no float
        multiplies a cell count, which can be past the largest float."""
        return self._smoothing * cells if self._smoothing else 0.0

    @classmethod
    def from_net(cls, net) -> "InterventionTables":
        """Exact tables for every (node, value) of a ground-truth net."""
        return _NetTables(net)

    def entropy(self, names) -> float:
        """Entropy (nats) of the observational marginal over ``names``; 0 over
        no names, where the marginal is a point mass."""
        key = frozenset(names)
        if key not in self._entropies:
            for name in key:
                self.schema.index(name)  # an unknown name raises UnknownVariable
            self._entropies[key] = self._set_entropy(key) if key else 0.0
        return self._entropies[key]

    def _set_entropy(self, key: frozenset) -> float:
        """Entropy over a nonempty set of names, unmemoized."""
        cols = [i for i, n in enumerate(self.schema.names) if n in key]
        (counts,) = _tally([(self._rows, self._weights)], cols, self.schema.cardinalities)
        cells = math.prod(self.schema.cardinalities[i] for i in cols)
        pseudo = self._mass(self.schema.n_cells // cells)  # of each cell of the scope
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
        mass = self._mass(cells)
        for value in range(schema.cardinalities[col]):
            given = self._rows[:, col] == value
            conditioned = self._weights[given].sum().item() + mass
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
                p_counts, conditioned, q_counts, do_total + mass, s, cells
            )


class _NetTables(InterventionTables):
    """Exact tables of a net from its CPTs: one `CliqueTree`, calibrated
    here, answers each variable set once, through a memo of marginals;
    `joint` and `do_intervene` build dense ones."""

    def __init__(self, net):
        from .bayesnet import CliqueTree  # only net tables need it

        self.schema, self._net, self._tree = net.schema, net, CliqueTree(net)
        self._marginals, self._entropies = {}, {}

    def _marginal(self, key: frozenset) -> np.ndarray:
        """P(key), axes in schema order, memoized per set."""
        if key not in self._marginals:
            self._marginals[key] = self._tree.marginal(sorted(key, key=self.schema.index))
        return self._marginals[key]

    def _set_entropy(self, key: frozenset) -> float:
        p = self._marginal(key)
        p = p[p > 0]
        return -float(np.sum(p * np.log(p)))

    def joint_entropy(self) -> float:
        """H(X) = sum_i H(X_i | Pa_i) along the net's DAG, summed as
        `gf_from_table` sums a candidate's."""
        return _Families(self.entropy).conditional_entropy(_parent_lists(self._net.dag))

    def _do_terms(self, node: str):
        """As `InterventionTables._do_terms`, in closed form: P(rest, a) /
        P(rest | do(node)=a) = P(a | pa), so D_a = sum_pa P(pa | a)
        ln(P(a | pa) / P(a)), read from the CPT and P(pa, a) = P(pa) P(a | pa);
        weighted by P(a) it sums to I(node; Pa(node)).  P() = 1, so a root's
        ratio is exactly 1 and its D exactly 0."""
        cpt = self._net.cpts[node]
        # a CPT's parents are the DAG's, in schema order, as the memo's axes
        family = self._marginal(frozenset(cpt.parents))[..., None] * cpt.table
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


class InterventionBundle(_Record):
    """Observational dataset plus per-(node, value) interventional datasets."""

    _fields = __slots__ = ("observational", "interventional", "smoothing")

    def __init__(self, observational: Dataset, interventional: Mapping[tuple[str, int], Dataset],
                 smoothing: float = 0.0):
        object.__setattr__(self, "observational", observational)
        object.__setattr__(self, "interventional", interventional)
        check_smoothing(smoothing)
        schema = observational.schema
        try:  # the mass s·C that the tables add over the joint's C cells
            finite = not smoothing or math.isfinite(smoothing * schema.n_cells)
        except OverflowError:  # a cell count, or an int mass, past the largest float
            finite = False
        if not finite:
            raise GcfitError(f"smoothing {smoothing!r} times the joint's cell count "
                             "overflows a float")
        # an int past int64 would overflow numpy's arithmetic in the tables
        object.__setattr__(self, "smoothing", float(smoothing))
        for key, data in interventional.items():
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


class ScoreRecord(_Record):
    """Per-DAG scoring result."""

    _fields = __slots__ = ("graph_id", "orientation", "dag", "gf", "gcf", "gcf_abs",
                           "edge_details", "do_divergences", "flags")

    def __init__(self, graph_id: str, orientation: str, dag: Dag, gf: float, gcf: float,
                 gcf_abs: float, edge_details: tuple[tuple[tuple[str, str], int, float], ...],
                 do_divergences: Mapping[str, float], flags: tuple[str, ...]):
        object.__setattr__(self, "graph_id", graph_id)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "gcf", gcf)
        object.__setattr__(self, "gcf_abs", gcf_abs)
        object.__setattr__(self, "edge_details", edge_details)
        # node -> D(node), one map shared by the whole set
        object.__setattr__(self, "do_divergences", do_divergences)
        object.__setattr__(self, "flags", flags)


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


_ULP = 2**1074  # every finite float is an integer multiple of 2**-1074


def _exact(x: float) -> int:
    """A finite float as the integer multiple of 2**-1074 that it is."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num * (_ULP // den)


def _rounded(total: int) -> float:
    """The float nearest ``total`` * 2**-1074, ±inf past the largest float."""
    try:
        return total / _ULP  # int / int is correctly rounded, and raises past it
    except OverflowError:
        return math.inf if total > 0 else -math.inf


class _Families:
    """GF's node terms H(X_i, Pa_i) - H(Pa_i), from marginal entropies, each
    held as an exact integer multiple of 2**-1074 and memoized per (node,
    parents), so a family shared by many candidates asks ``entropy`` twice
    in all.

    A sum of terms is exact, and `_rounded` rounds it once, so it is the
    float that `math.fsum` of the same entropies gives.
    Markov-equivalent DAGs differ by covered edge reversals, which leave
    that signed multiset of entropies unchanged, so they get the same float."""

    def __init__(self, entropy):
        self._entropy, self._memo = entropy, {}

    def term(self, node: str, parents: tuple[str, ...]) -> int:
        key = (node, parents)
        term = self._memo.get(key)
        if term is None:
            family = _exact(self._entropy(parents + (node,)))
            term = self._memo[key] = family - _exact(self._entropy(parents))
        return term

    def conditional_entropy(self, parents: Mapping[str, list[str]]) -> float:
        """sum_i H(X_i | Pa_i) over a DAG's parent lists."""
        return _rounded(sum(self.term(node, tuple(ps)) for node, ps in parents.items()))


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
    conditional = _Families(observational.entropy).conditional_entropy(_parent_lists(dag))
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
    total_weight = _total(w for _, w, _ in covered)
    detail = [(v, w / total_weight, d) for v, w, d in covered]
    return _total(w * d for _, w, d in detail), detail


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


def _total(values) -> float:
    """The float nearest the exact sum of ``values``, in any order
    (`math.fsum`): ±inf where it is past the largest float, and nan where
    ``values`` hold both -inf and +inf."""
    values = list(values)
    try:
        return math.fsum(values)
    except ValueError:  # -inf + inf
        return math.nan
    except OverflowError:  # a partial sum past the largest float
        parts = [_split(x) for x in values]
        return _joined(sum(e for e, _ in parts), sum(x for _, x in parts))


def _gcf_value(count: int, num: float, den: float, undefined: int) -> tuple[float, tuple[str, ...]]:
    """GCF and its flags from ``count`` scored edges, the sums of their
    signed and unsigned distances, and how many have both D infinite."""
    flags = (FLAG_UNDEFINED_DISTANCE,) * undefined
    if not count:
        return 1.0, flags
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
        len(terms),
        _total(s * d for s, d, _ in terms),
        _total(d for _, d, _ in terms),
        sum(undefined for _, _, undefined in terms),
    )
    return value, details, flags


def _gcf_abs(edges, dmap, memo) -> float:
    return _total(s * d for s, d, _ in _edge_terms(edges, dmap, memo))


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
    """Score every DAG of a set against one shared do-divergence map,
    `do_divergence_map` of the endpoints of the set's edges in sorted
    order, which every record holds as ``do_divergences``.

    GCF scores the undirected edges of the generating PD graph
    (``edges_policy='pd'``); with ``edges_policy='all'`` it scores each
    DAG's full edge set instead (for sets with mixed skeletons).  Both
    scores are sums of local terms, each computed once for the whole set:
    GF's term per (node, parents) and GCF's signed distance per oriented
    edge.  A candidate then costs one pass over its edges, to build its
    parent lists, and one lookup per node and per edge.  The orientations
    of one PD graph are scored faster, and streamed, by `score_orientations`,
    which also returns the per-value terms behind the map.
    """
    _check_edges_policy(edges_policy)
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
    dmap = do_divergence_map(sorted(needed), tables, missing_policy)

    joint, families, edge_terms = tables.joint_entropy(), _Families(tables.entropy), {}
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
                gf=_gf(families.conditional_entropy(parents), joint),
                gcf=value,
                gcf_abs=_gcf_abs(dag.edges, dmap, edge_terms),
                edge_details=details,
                do_divergences=dmap,
                flags=flags,
            )
        except GcfitError as exc:
            exc.args = (f"[{member.graph_id}] {exc}",)
            raise
        records.append(record)
    return records


def _check_edges_policy(edges_policy: str) -> None:
    if edges_policy not in ("pd", "all"):
        raise GcfitError(f"unknown edges policy {edges_policy!r}")


def score_orientations(
    ranks: EdgeRanks,
    vectors,
    data: InterventionBundle | InterventionTables,
    edges_policy: str = "pd",
    missing_policy: str = "strict",
):
    """Score orientations of one PD graph, ``ranks.graph``, as a stream.

    ``vectors`` are orientation vectors of the graph, as `iter_orientations`
    and `subset_orientations` give them.  Returns a dict, node ->
    `do_divergence_detail`, over the endpoints of the graph's edges (which
    every orientation holds) in sorted order, computed before anything is
    scored, and an iterator of one tuple (vector, edge list as
    `EdgeRanks.lists` renders it, gf, gcf, gcf_abs, flags) per vector.  On
    every tables source, each score is bitwise the one `score_set` gives
    the vector's `TaggedDag` of a `DagSet` with the graph's undirected
    edges as source.

    Consecutive vectors of the walk share a prefix, so the scores are kept
    per prefix length and only the bits after the shared prefix are
    rescored.  Every sum is exact and rounded once per vector, so it has no
    order.  GF adds a node's term once its last undirected edge is
    oriented.  Of GCF's sums only the signed one over the undirected edges
    depends on the bits: it is kept per prefix, each term split into an
    exact integer and a special float (0.0, an infinity or nan).  The
    distances, the undefined count and the directed edges' signed sum are
    the same for every vector, so they are summed once.
    """
    _check_edges_policy(edges_policy)
    g = ranks.graph
    tables = data.tables() if isinstance(data, InterventionBundle) else data
    if g.schema != tables.schema:
        raise SchemaMismatch("table schema differs from graph schema")
    ends = sorted({n for e in ranks.edges for n in e})
    do_detail = {n: do_divergence_detail(n, tables, missing_policy) for n in ends}
    dmap = {n: d for n, (d, _) in do_detail.items()}
    return do_detail, _walk_scores(ranks, vectors, tables, dmap, edges_policy)


def _split(x: float) -> tuple[int, float]:
    """``x`` as (multiple of 2**-1074, special): (exact, 0.0) if finite, else
    (0, ``x``); `_total` of terms is `_joined` of the sum of each part."""
    return (_exact(x), 0.0) if math.isfinite(x) else (0, x)


def _joined(exact: int, special: float) -> float:
    """The sum of split terms from the sums of their parts: infinite terms
    outweigh any finite sum, so they decide it where there are any."""
    return special or _rounded(exact)


def _walk_scores(ranks: EdgeRanks, vectors, tables: InterventionTables, dmap, edges_policy):
    """The iterator of `score_orientations`."""
    g, families = ranks.graph, _Families(tables.entropy)
    joint, und, k = tables.joint_entropy(), g.undirected, len(g.undirected)

    # GF: a node whose undirected edges are all oriented at depth i + 1
    # joins closing[i]; one without undirected edges joins every vector
    fixed = {n: [] for n in g.schema.names}
    for a, b in g.directed:
        fixed[b].append(a)
    incident = {n: [] for n in g.schema.names}  # (edge index, neighbour, its parent bit)
    for i, (a, b) in enumerate(und):
        incident[b].append((i, a, "0"))
        incident[a].append((i, b, "1"))
    acc = [0] * (k + 1)  # acc[i]: the GF terms added by the first i bits
    closing = [[] for _ in range(k)]
    for node, edges in incident.items():
        if not edges:
            acc[0] += families.term(node, tuple(sorted(fixed[node])))
        else:
            key = itemgetter(*[i for i, _, _ in edges])
            closing[edges[-1][0]].append((node, edges, key, {}))

    # GCF: an edge's distance and undefined flag do not depend on its
    # direction, so of its sums only the signed one over und depends on the bits
    terms = dict(zip(ranks.edges, _edge_terms(ranks.edges, dmap, {})))  # per oriented edge
    scored = [terms[e] for e in (und if edges_policy == "pd" else g.directed + und)]
    den, bad = _total(d for _, d, _ in scored), sum(u for _, _, u in scored)
    signed = {e: _split(s * d) for e, (s, d, _) in terms.items()}
    base = [signed[e] for e in g.directed]  # the terms every vector holds
    base_exact, base_special = sum(e for e, _ in base), _total(x for _, x in base)
    by_bit = [{"0": signed[a, b], "1": signed[b, a]} for a, b in und]
    # exact[i], special[i]: the signed sum over the first i undirected edges
    exact, special = [0] * (k + 1), [0.0] * (k + 1)
    for vec, start, text in ranks.lists(vectors):
        # rescore from the first bit where vec differs from the previous vector
        for i in range(start, k):
            total = acc[i]
            for node, edges, key, memo in closing[i]:
                bits = key(vec)
                term = memo.get(bits)
                if term is None:
                    ps = fixed[node] + [nb for j, nb, bit in edges if vec[j] == bit]
                    term = memo[bits] = families.term(node, tuple(sorted(ps)))
                total += term
            acc[i + 1] = total
            e, x = by_bit[i][vec[i]]
            exact[i + 1] = exact[i] + e
            special[i + 1] = special[i] + x
        gcf_abs = _joined(base_exact + exact[k], base_special + special[k])
        if edges_policy == "pd":
            value, flags = _gcf_value(k, _joined(exact[k], special[k]), den, bad)
        else:
            value, flags = _gcf_value(len(scored), gcf_abs, den, bad)
        yield vec, text, _gf(_rounded(acc[k]), joint), value, gcf_abs, flags
