import csv
import io
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from gcfit import BayesNet, Cpt, Dag, DagSet, GcfitError, PdGraph, ProbTable, VariableSchema
from gcfit import kl_divergence


def random_table(schema, rng, floor=0.0):
    w = rng.uniform(floor, 1.0, size=schema.n_cells) + 1e-12
    return ProbTable.from_weights(schema, w)


def random_net(dag, rng, lo=0.1, hi=0.9):
    """Seeded BayesNet on ``dag`` with rows bounded away from 0 and 1."""
    schema = dag.schema
    cpts = {}
    for node in schema.names:
        parents = dag.parents(node)
        shape = tuple(schema.cardinality(p) for p in parents)
        card = schema.cardinality(node)
        table = np.empty(shape + (card,))
        for idx in itertools.product(*(range(c) for c in shape)):
            row = rng.uniform(lo, hi, card)
            table[idx] = row / row.sum()
        cpts[node] = Cpt(node, parents, table)
    return BayesNet(dag, cpts)


def random_dag(rng, min_nodes=3, max_nodes=6, max_card=3):
    """Seeded DAG of ``min_nodes``..``max_nodes`` nodes of cardinality
    2..``max_card``; each pair is an edge with probability 1/2, directed
    along a random order."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    names = tuple(f"v{i}" for i in range(n))
    schema = VariableSchema(names, tuple(int(c) for c in rng.integers(2, max_card + 1, n)))
    rank = rng.permutation(n)
    edges = [
        (names[i], names[j]) if rank[i] < rank[j] else (names[j], names[i])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < 0.5
    ]
    return Dag(schema, tuple(edges))


def oracle_v_structures(dag):
    """{(a, c, b)}: a -> c <- b with a and b not adjacent, a before b.  Two
    DAGs on one skeleton are Markov equivalent iff these sets are equal."""
    edges = set(dag.edges)
    return {
        (a, c, b)
        for c in dag.schema.names
        for a, b in itertools.combinations(dag.parents(c), 2)
        if (a, b) not in edges and (b, a) not in edges
    }


# --- Figure-style fixtures: the three-node and five-node running examples ---

@pytest.fixture
def fig1_schema():
    return VariableSchema(("a", "b", "z"), (2, 2, 2))


@pytest.fixture
def fig1_pdgraph(fig1_schema):
    # undirected a-b; directed a->z, b->z
    return PdGraph(fig1_schema, (("a", "z"), ("b", "z")), (("a", "b"),))


@pytest.fixture
def fig1_truth(fig1_schema):
    # ground truth: orientation a->b
    return Dag(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")))


@pytest.fixture
def fig2_schema():
    return VariableSchema(("x1", "x2", "x3", "x4", "x5"), (2,) * 5)


@pytest.fixture
def fig2_pdgraph(fig2_schema):
    return PdGraph(
        fig2_schema,
        (("x2", "x4"), ("x3", "x4"), ("x4", "x5")),
        (("x1", "x2"), ("x1", "x3")),
    )


@pytest.fixture
def fig2_truth(fig2_schema):
    # ground truth: x2->x1, x1->x3 plus the directed part
    return Dag(
        fig2_schema,
        (("x2", "x1"), ("x1", "x3"), ("x2", "x4"), ("x3", "x4"), ("x4", "x5")),
    )


# --- Independent brute-force oracles (nested loops over all cells) ---

def oracle_marginalize(table, keep):
    schema = table.schema
    sub = schema.subset(keep)
    out = np.zeros(sub.cardinalities)
    for cell in np.ndindex(*schema.cardinalities):
        assign = dict(zip(schema.names, cell))
        out[tuple(assign[n] for n in sub.names)] += table.probs[cell]
    return out


def oracle_condition(table, variable, value):
    schema = table.schema
    rest = schema.subset(set(schema.names) - {variable})
    out = np.zeros(rest.cardinalities)
    for cell in np.ndindex(*schema.cardinalities):
        assign = dict(zip(schema.names, cell))
        if assign[variable] != value:
            continue
        out[tuple(assign[n] for n in rest.names)] += table.probs[cell]
    return out / out.sum()


def oracle_kl(po, pe):
    total = 0.0
    for cell in np.ndindex(*po.schema.cardinalities):
        p = po.probs[cell]
        q = pe.probs[cell]
        if p == 0:
            continue
        if q == 0:
            return float("inf")
        total += p * np.log(p / q)
    return max(total, 0.0)


def oracle_gf(table, dag):
    """GF as ln(1 / KL) over every cell, against the product of the table's
    own conditionals P(x_i | pa_i) read off brute-force marginals."""
    schema = table.schema
    factors = []
    for node in schema.names:
        parents = dag.parents(node)
        family = set(parents) | {node}
        factors.append((
            schema.subset(family).names, oracle_marginalize(table, family),
            schema.subset(parents).names, oracle_marginalize(table, parents),
        ))
    total = 0.0
    for cell in np.ndindex(*schema.cardinalities):
        p = table.probs[cell]
        if p == 0:
            continue
        assign = dict(zip(schema.names, cell))
        q = 1.0
        for fam_names, fam, par_names, par in factors:
            q *= fam[tuple(assign[n] for n in fam_names)] / par[tuple(assign[n] for n in par_names)]
        total += p * np.log(p / q)
    kl = max(total, 0.0)
    return float("inf") if kl == 0 else -np.log(kl)


def oracle_dense_entropy(table, names):
    """Entropy (nats) of a dense table's marginal over ``names``, summed out
    by `ProbTable.marginalize`."""
    p = table.marginalize(names).flat()
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


def oracle_dense_do_terms(table, do, node):
    """[(value, P(value), D_value)] of a dense observational table and its
    do-tables, for each value of positive probability: D_value is the
    `kl_divergence` of `ProbTable.condition` against ``do[node, value]``,
    None when there is no such do-table."""
    terms = []
    for value, weight in enumerate(table.marginalize([node]).probs):
        if weight > 0:
            do_table = do.get((node, value))
            terms.append((value, float(weight), None if do_table is None else kl_divergence(
                table.condition(node, value), do_table)))
    return terms


def oracle_count_entropy(rows, cols):
    """Entropy (nats) of the plug-in distribution of ``rows`` over the
    ``cols`` columns, from a Counter of row tuples."""
    counts = Counter(tuple(row[c] for c in cols) for row in rows.tolist())
    n = len(rows)
    return -sum(k / n * math.log(k / n) for k in counts.values())


def oracle_count_kl(obs_rows, do_rows, col, value):
    """Plug-in KL(P(rest | col=value) || P_do(rest)), rest being every other
    column, from Counters of row tuples; +inf when a conditioned row's rest
    is missing from the do-rows."""
    p = Counter(tuple(r[:col] + r[col + 1:]) for r in obs_rows.tolist() if r[col] == value)
    q = Counter(tuple(r[:col] + r[col + 1:]) for r in do_rows.tolist())
    n_p, n_q = sum(p.values()), sum(q.values())
    total = 0.0
    for cell, k in p.items():
        if cell not in q:
            return math.inf
        total += k / n_p * math.log((k / n_p) / (q[cell] / n_q))
    return max(total, 0.0)


def oracle_pearson(po, pe):
    total = 0.0
    for cell in np.ndindex(*po.schema.cardinalities):
        p = po.probs[cell]
        q = pe.probs[cell]
        if q == 0:
            if p > 0:
                return float("inf")
            continue
        total += p * p / q
    return max(total - 1.0, 0.0)


def oracle_euclidean(po, pe):
    return sum((po.probs[c] - pe.probs[c]) ** 2 for c in np.ndindex(*po.schema.cardinalities))


def oracle_joint(net):
    """Nested-loop factor multiplication, no array broadcasting."""
    schema = net.schema
    out = np.zeros(schema.cardinalities)
    for cell in np.ndindex(*schema.cardinalities):
        assign = dict(zip(schema.names, cell))
        p = 1.0
        for node in schema.names:
            cpt = net.cpts[node]
            idx = tuple(assign[par] for par in cpt.parents) + (assign[node],)
            p *= cpt.table[idx]
        out[cell] = p
    return out


def oracle_has_cycle(names, edges):
    """Depth-first search with white/grey/black colouring; a grey node
    reached again closes a cycle."""
    children = {n: [] for n in names}
    for a, b in edges:
        children[a].append(b)
    colour = dict.fromkeys(names, "white")

    def visit(node):
        colour[node] = "grey"
        for c in children[node]:
            if colour[c] == "grey" or (colour[c] == "white" and visit(c)):
                return True
        colour[node] = "black"
        return False

    return any(colour[n] == "white" and visit(n) for n in names)


def oracle_orientations(g):
    """[(orientation vector, sorted edges)] of every acyclic orientation of a
    PD graph: all 2^k vectors in lexicographic order, filtered."""
    out = []
    for bits in itertools.product("01", repeat=len(g.undirected)):
        oriented = [(a, b) if bit == "0" else (b, a) for bit, (a, b) in zip(bits, g.undirected)]
        edges = list(g.directed) + oriented
        if not oracle_has_cycle(g.schema.names, edges):
            out.append(("".join(bits), tuple(sorted(edges))))
    return out


def oracle_orientation_subset(dags, orientations):
    """The members of a `DagSet` whose orientation vector is in
    ``orientations``, filtered from the whole set; an unknown vector raises
    the error `orientation_subset` raises."""
    wanted = set(orientations)
    missing = wanted - {m.orientation for m in dags}
    if missing:
        raise GcfitError(f"unknown orientation vectors: {sorted(missing)}")
    return DagSet(tuple(m for m in dags if m.orientation in wanted), dags.source_undirected)


def oracle_topological_order(names, edges):
    """First permutation, in lexicographic order of schema index, that puts
    every parent before its child; None if there is none."""
    for perm in itertools.permutations(names):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in edges):
            return list(perm)
    return None


def oracle_csv_text(schema, rows):
    """Dataset CSV written with one csv.writer call per data row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema.names)
    for row in rows:
        writer.writerow([int(v) for v in row])
    return buf.getvalue()


def oracle_csv_rows(text):
    """(header, data rows as lists of ints) of a dataset CSV, read with
    csv.reader; blank lines are skipped."""
    header, *rows = csv.reader(io.StringIO(text))
    return header, [[int(c) for c in row] for row in rows if row]


def oracle_sample(net, n, seed, do=None):
    """Rows of ancestral sampling with the n x card inverse-CDF block: in
    topological order each node draws u from ``bayesnet.substream(seed,
    position)``, counts the cumulative CPT values <= u in its row's block
    and clamps the count to the row's last state of positive probability.
    ``do=(node, value)`` samples that node as a point mass at value."""
    from gcfit.bayesnet import substream

    schema = net.schema
    columns = {}
    for pos, node in enumerate(net.dag.topological_order()):
        u = np.random.default_rng(substream(seed, pos)).random(n)
        cpt = net.cpts[node]
        card = schema.cardinality(node)
        table = cpt.table.reshape(-1, card)
        if do is not None and do[0] == node:
            table = np.eye(card)[[do[1]] * len(table)]
        if cpt.parents:
            shape = tuple(schema.cardinality(p) for p in cpt.parents)
            row = np.ravel_multi_index(tuple(columns[p] for p in cpt.parents), shape)
        else:
            row = np.zeros(n, dtype=int)
        block = np.cumsum(table, axis=1)[row]
        last = np.array([max(np.flatnonzero(r > 0)) for r in table])[row]
        columns[node] = np.minimum((block <= u[:, None]).sum(axis=1), last)
    return np.stack([columns[name] for name in schema.names], axis=1)
