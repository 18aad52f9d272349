"""Discrete Bayesian networks: exact joints, do-interventions, CPT fitting
and seeded forward sampling.

do(X=x) has one definition, `_mutilate`: the same DAG with X's CPT
replaced by a point mass at x in every parent configuration.  Every exact
quantity runs one elimination loop, `_eliminate`, over every CPT of a net
(`_factors`): `joint` keeps all variables, `do_intervene` every variable
but X in the mutilated net, and `CliqueTree` keeps none, to calibrate a
junction tree that then answers many marginals.  Sampling has one path,
`sample_jobs`, which draws many datasets in shared passes; `sample` and
`sample_do` are one-job calls of it, and an intervened column is filled
with its value, which is what the mutilated net's point mass draws.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math

import numpy as np

from .errors import GcfitError, ParseError, SchemaMismatch
from .graphs import Dag, VariableSchema, _integer, _Record, check_names, json_object, read_text
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


class Cpt(_Record):
    """Conditional distribution of one node given its parents.

    ``parents`` is a tuple or list of names.  ``table`` has shape
    ``(*parent_cardinalities, child_cardinality)``; each row (last axis) is
    a normalized distribution over child states, given as numbers.
    """

    _fields = ("child", "parents", "table")
    __slots__ = _fields + ("_thresholds",)
    _hidden = ("table",)

    def __init__(self, child: str, parents: tuple[str, ...], table: np.ndarray):
        parents = check_names(parents, f"parents of {child!r}")
        arr = float_array(table, f"CPT for {child!r}").copy()
        # written as what is accepted, so that NaN fails both checks
        if not np.all(arr >= 0):
            raise GcfitError(f"CPT for {child!r} has negative or NaN entries")
        sums = arr.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= NORMALIZATION_TOL):
            raise GcfitError(f"CPT rows for {child!r} do not sum to 1")
        arr.setflags(write=False)
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
        super().__init__(child, parents, arr)


class BayesNet(_Record):
    """A DAG plus one CPT per node; the joint is the product of the CPTs."""

    _fields = __slots__ = ("dag", "cpts")

    def __init__(self, dag: Dag, cpts: dict[str, Cpt]):
        schema = dag.schema
        if set(cpts) != set(schema.names):
            raise GcfitError("need exactly one CPT per node")
        for node, cpt in cpts.items():
            if cpt.child != node:
                raise GcfitError(f"CPT keyed {node!r} describes {cpt.child!r}")
            if cpt.parents != dag.parents(node):
                raise GcfitError(
                    f"CPT parents {cpt.parents} differ from DAG parents "
                    f"{dag.parents(node)} for {node!r}"
                )
            expected = tuple(schema.cardinality(p) for p in cpt.parents) + (
                schema.cardinality(node),
            )
            if cpt.table.shape != expected:
                raise GcfitError(
                    f"CPT for {node!r} has shape {cpt.table.shape}, expected {expected}"
                )
        super().__init__(dag, cpts)

    @property
    def schema(self) -> VariableSchema:
        return self.dag.schema


def _mutilate(net: BayesNet, node: str, value: int) -> BayesNet:
    """The net under do(node=value): the same DAG, ``node``'s CPT replaced
    by point-mass rows at ``value`` in every parent configuration.  The
    incoming edges stay: only ``node``'s CPT changes."""
    net.schema.check_state(node, value)
    cpt = net.cpts[node]
    table = np.zeros(cpt.table.shape)
    table[..., value] = 1.0
    return BayesNet(net.dag, {**net.cpts, node: Cpt(node, cpt.parents, table)})


def _multiply(factors, out) -> np.ndarray:
    """Product of ``(table, scope)`` factors, summed onto the variables
    ``out`` (axes in that order).  Each einsum takes two operands labelled
    only by the variables they span, the running product starting from the
    first factor; no factors give ``np.ones(())``.  A lone factor with
    nothing to sum out comes back as a view of its table, which may be a
    read-only CPT table."""
    if not factors:
        return np.ones(())
    (table, scope), *rest = factors
    for other, other_scope in rest:
        merged = scope + tuple(v for v in other_scope if v not in scope)
        label = {v: i for i, v in enumerate(merged)}
        table = np.einsum(table, [label[v] for v in scope],
                          other, [label[v] for v in other_scope], list(range(len(merged))))
        scope = merged
    label = {v: i for i, v in enumerate(scope)}
    return np.einsum(table, list(range(len(scope))), [label[v] for v in out])


def _product(factors) -> tuple[np.ndarray, tuple]:
    """The product of ``factors`` as one factor over every variable they span."""
    scope = tuple(dict.fromkeys(v for _, s in factors for v in s))
    return _multiply(factors, scope), scope


def _eliminate(factors, keep, card, position, steps=None) -> np.ndarray:
    """The product of ``factors``, ``(table, scope)`` pairs, summed onto the
    variables ``keep`` (axes in that order).

    The others are summed out one at a time, each time the one whose
    factors span the fewest cells (ties to the smallest ``position``), so
    the cost follows the width of the factors' graph, not its size.  A heap
    of (cells, position) is updated only for the variables a new factor
    spans.  Factors are numbered as made, ``factors`` first, and multiplied
    in that order; no einsum sees more than two operands.  ``steps``, if
    given, gets one ``(variable, ids, table, scope)`` per elimination: the
    numbers of the factors it multiplied and the factor it made.  The
    result may be a read-only view of a table.
    """
    factors = dict(enumerate(factors))
    # variable -> the ids of the factors that span it
    index, ids = {}, itertools.count(len(factors))
    for fid, (_, scope) in factors.items():
        for v in scope:
            index.setdefault(v, set()).add(fid)

    def cells(v):
        return math.prod(card[u] for u in set().union(*(factors[i][1] for i in index[v])))

    weight = {v: cells(v) for v in index if v not in keep}
    heap = [(w, position[v], v) for v, w in weight.items()]
    heapq.heapify(heap)
    while heap:
        w, _, var = heapq.heappop(heap)
        if weight.get(var) != w:
            continue  # eliminated, or re-weighed since this entry was pushed
        del weight[var]
        gone = sorted(index.pop(var))
        touching = [factors.pop(i) for i in gone]
        scope = tuple(dict.fromkeys(v for _, s in touching for v in s if v != var))
        fid, table = next(ids), _multiply(touching, scope)
        factors[fid] = table, scope
        for v in scope:
            index[v].difference_update(gone)
            index[v].add(fid)
        if steps is not None:
            steps.append((var, gone, table, scope))
        # only the variables the new factor spans have new neighbours
        for v in scope:
            if v in weight:
                weight[v] = cells(v)
                heapq.heappush(heap, (weight[v], position[v], v))
    return _multiply(list(factors.values()), keep)


def _factors(net: BayesNet):
    """Every CPT of ``net`` as a ``(table, parents + (node,))`` factor in
    schema order, with the cardinalities and positions `_eliminate` takes."""
    schema = net.schema
    factors = [(net.cpts[n].table, net.cpts[n].parents + (n,)) for n in schema.names]
    return factors, dict(zip(schema.names, schema.cardinalities)), schema._position


class CliqueTree:
    """Exact marginals of a net from one calibrated junction tree of its
    moral graph (Lauritzen & Spiegelhalter, JRSS-B 1988; Koller & Friedman,
    2009, ch. 10).  One `_eliminate` of every CPT, keeping nothing, builds
    the tree and runs its upward pass: eliminating v makes clique(v), v and
    its neighbours then, from the CPTs placed there and its children's
    messages, and the factor it makes is its message to its parent, the
    clique of the separator's first-eliminated variable; an empty separator
    ends a component.  The downward pass multiplies and never divides
    (Shafer-Shenoy), so zero cells need no 0/0 rule."""

    def __init__(self, net: BayesNet):
        cpts, self._card, self._position = _factors(net)
        steps = []
        _eliminate(cpts, (), self._card, self._position, steps)
        made = len(cpts)  # the id of the first factor a step makes
        self._home = {var: k for k, (var, _, _, _) in enumerate(steps)}
        self._clique = [(var,) + scope for var, _, _, scope in steps]
        self._own = [[cpts[i] for i in ids if i < made] for _, ids, _, _ in steps]
        self._children = [[i - made for i in ids if i >= made] for _, ids, _, _ in steps]
        self._up = [(table, scope) for _, _, table, scope in steps]
        self._parent, self._root = [None] * len(steps), list(range(len(steps)))
        self._down, self._beliefs = [None] * len(steps), {}
        # parents come after their children, so this runs root first; a
        # child's message multiplies the clique's own factors by one product
        # of the messages before it and one of those after it: O(d) products
        # for d children, not O(d**2)
        for k in reversed(range(len(steps))):
            kids = self._children[k]
            before = [self._potentials(k, set(kids))]
            for c in kids[:-1]:
                before.append([_product(before[-1] + [self._up[c]])])
            after = []
            for c, factors in zip(reversed(kids), reversed(before)):
                self._parent[c], self._root[c] = k, self._root[k]
                factors = factors + after  # constant in the separator's other variables
                sep = tuple(v for v in self._up[c][1] if any(v in s for _, s in factors))
                self._down[c] = _multiply(factors, sep), sep
                after = [_product(after + [self._up[c]])] if after else [self._up[c]]

    def _potentials(self, k: int, inside=()) -> list:
        """Clique k's CPTs and the messages it gets from cliques not in ``inside``."""
        parent = self._parent[k]
        down = [self._down[k]] if parent is not None and parent not in inside else []
        return self._own[k] + [self._up[j] for j in self._children[k] if j not in inside] + down

    def marginal(self, names) -> np.ndarray:
        """P(names), one axis per name in the order given.  From the belief of
        clique(first-eliminated name) when every name is in it, else by
        `_eliminate` over the smallest subtree holding every name's clique,
        with the messages that enter it; P() is 1.  The result may be a
        read-only view of a belief."""
        names = tuple(names)
        homes = {self._home[n] for n in names}
        if homes and set(names) <= set(self._clique[min(homes)]):
            k = min(homes)
            if k not in self._beliefs:
                self._beliefs[k] = _multiply(self._potentials(k), self._clique[k])
            return _multiply([(self._beliefs[k], self._clique[k])], names)
        # the lowest clique climbs to its parent while another of its
        # component is left: none of those can be below it
        nodes = set(homes)
        while homes:
            k = min(homes)
            homes.remove(k)
            if any(self._root[j] == self._root[k] for j in homes):
                homes.add(self._parent[k])
                nodes.add(self._parent[k])
        factors = [f for k in sorted(nodes) for f in self._potentials(k, nodes)]
        return _eliminate(factors, names, self._card, self._position)


def joint(net: BayesNet) -> ProbTable:
    """Exact joint distribution: the product of all CPT factors."""
    factors, card, position = _factors(net)
    return ProbTable(net.schema, _eliminate(factors, net.schema.names, card, position))


def do_intervene(net: BayesNet, node: str, value: int) -> ProbTable:
    """P(rest | do(node)=value): the marginal of every other variable in
    the mutilated net, as a normalized table."""
    rest = net.schema.subset(set(net.schema.names) - {node})
    factors, card, position = _factors(_mutilate(net, node, value))
    return ProbTable.from_weights(rest, _eliminate(factors, rest.names, card, position))


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


def _seed(seed) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence: a SeedSequence as it is, or a
    non-negative integer (a numpy one too, not a bool); anything else
    raises GcfitError, where numpy would read 1.5 as 1 and "3" as 3."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    value = _integer(seed)
    if value is None or value < 0:
        raise GcfitError(f"seed must be a non-negative integer or a SeedSequence, got {seed!r}")
    return np.random.SeedSequence(value)


def substream(seed, key: int) -> np.random.SeedSequence:
    """Child ``key`` of ``seed`` (a non-negative integer or a SeedSequence):
    the same (seed, key) always gives the same stream, distinct keys
    independent ones."""
    base = _seed(seed)
    return np.random.SeedSequence(base.entropy, spawn_key=base.spawn_key + (key,))


def _uniform(seed: np.random.SeedSequence, pos: int, out: np.ndarray) -> None:
    """Fill ``out`` with the uniforms [0, 1) of the node at topological
    position ``pos``: its own substream of the job's seed, drawn by the
    generator ``np.random.default_rng`` returns for it, built directly."""
    np.random.Generator(np.random.PCG64(substream(seed, pos))).random(out=out)


def _job(schema: VariableSchema, n, seed, do) -> tuple:
    """A sampling job, checked: (rows, seed as a SeedSequence, None or
    (node, state))."""
    if do is not None:
        node, value = do
        schema.check_state(node, value)
        do = node, _integer(value)
    rows = _integer(n)
    if rows is None:
        raise GcfitError(f"n must be an integer, got {n!r}")
    if rows < 1:
        raise GcfitError("n must be >= 1")
    return rows, _seed(seed), do


def sample_jobs(net: BayesNet, jobs):
    """Ancestral sampling of many datasets: one `Dataset` per job ``(n,
    seed, intervention)``, in order, the intervention None or ``(node,
    value)``.  Every job is checked before anything is drawn.

    Consecutive jobs share a pass while their rows add up to at most the
    largest job's, so no pass holds more rows than one dataset.  A pass
    samples in place into one ``(variables, rows)`` array, walking the
    nodes once in topological order: each node writes and each child reads
    a contiguous row, and one parent code and one threshold compare per
    state cover every job.  A job's node draws from its own substream,
    keyed by the node's topological position, so a job's rows do not
    depend on the other jobs.  An intervened node is filled with its value
    and draws no stream: the point mass of do(node=value) gives that value
    for every u, and no other node reads the stream."""
    schema = net.schema
    jobs = [_job(schema, *job) for job in jobs]
    order = net.dag.topological_order()
    cap = max((rows for rows, _, _ in jobs), default=0)
    start = 0
    while start < len(jobs):
        stop, rows = start + 1, jobs[start][0]
        while stop < len(jobs) and rows + jobs[stop][0] <= cap:
            rows += jobs[stop][0]
            stop += 1
        batch = _sample_pass(net, order, jobs[start:stop])
        start = stop
        while batch:  # each dataset is released once its consumer drops it
            yield batch.pop(0)


def _sample_pass(net: BayesNet, order, jobs) -> list[Dataset]:
    """One pass of `sample_jobs`: the datasets of ``jobs``, drawn together,
    each job into its own slice of the pass's rows."""
    schema = net.schema
    cards = schema.cardinalities
    ends = list(itertools.accumulate(n for n, _, _ in jobs))
    spans = [(end - n, end, seed, do) for (n, seed, do), end in zip(jobs, ends)]
    cols = np.zeros((len(cards), ends[-1]), dtype=row_dtype(cards))
    u = np.empty(ends[-1])
    for pos, node in enumerate(order):
        cpt = net.cpts[node]
        out = cols[schema.index(node)]
        clamped = []
        for a, b, seed, do in spans:
            if do is not None and do[0] == node:
                clamped.append((a, b, do[1]))
            else:
                _uniform(seed, pos, u[a:b])
        if len(clamped) < len(spans):
            # row-major index of each row's parent configuration; a root's is 0
            config = row_codes(cols.T, [schema.index(p) for p in cpt.parents], cards)
            thresholds = cpt._thresholds
            for k in range(thresholds.shape[1]):
                out += thresholds[:, k].take(config) <= u
        for a, b, value in clamped:
            out[a:b] = value
    del u  # so that the uniforms and the datasets' copies are never held at once
    return [Dataset(schema, cols[:, a:b].T) for a, b, _, _ in spans]


def sample(net: BayesNet, n: int, seed) -> Dataset:
    """Forward (ancestral) sampling of ``n`` rows, ``seed`` a non-negative
    integer or a SeedSequence; identical (net, n, seed) gives an identical
    dataset."""
    return next(sample_jobs(net, [(n, seed, None)]))


def sample_do(net: BayesNet, node: str, value: int, n: int, seed) -> Dataset:
    """Forward sampling under do(node=value): the output keeps all columns,
    and the intervened column is constant."""
    return next(sample_jobs(net, [(n, seed, (node, value))]))


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
