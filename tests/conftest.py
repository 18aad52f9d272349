import itertools

import numpy as np
import pytest

from gcfit import BayesNet, Cpt, Dag, PdGraph, ProbTable, VariableSchema


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
    out = np.zeros(sub.shape)
    for cell in schema.cells():
        assign = dict(zip(schema.names, cell))
        out[tuple(assign[n] for n in sub.names)] += table.cell(cell)
    return out


def oracle_condition(table, variable, value):
    schema = table.schema
    rest = schema.subset(set(schema.names) - {variable})
    out = np.zeros(rest.shape)
    for cell in schema.cells():
        assign = dict(zip(schema.names, cell))
        if assign[variable] != value:
            continue
        out[tuple(assign[n] for n in rest.names)] += table.cell(cell)
    return out / out.sum()


def oracle_kl(po, pe):
    total = 0.0
    for cell in po.schema.cells():
        p = po.cell(cell)
        q = pe.cell(cell)
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
    for cell in schema.cells():
        p = table.cell(cell)
        if p == 0:
            continue
        assign = dict(zip(schema.names, cell))
        q = 1.0
        for fam_names, fam, par_names, par in factors:
            q *= fam[tuple(assign[n] for n in fam_names)] / par[tuple(assign[n] for n in par_names)]
        total += p * np.log(p / q)
    kl = max(total, 0.0)
    return float("inf") if kl == 0 else -np.log(kl)


def oracle_pearson(po, pe):
    total = 0.0
    for cell in po.schema.cells():
        p = po.cell(cell)
        q = pe.cell(cell)
        if q == 0:
            if p > 0:
                return float("inf")
            continue
        total += p * p / q
    return max(total - 1.0, 0.0)


def oracle_euclidean(po, pe):
    return sum((po.cell(c) - pe.cell(c)) ** 2 for c in po.schema.cells())


def oracle_joint(net):
    """Nested-loop factor multiplication, no array broadcasting."""
    schema = net.schema
    out = np.zeros(schema.shape)
    for cell in schema.cells():
        assign = dict(zip(schema.names, cell))
        p = 1.0
        for node in schema.names:
            cpt = net.cpts[node]
            idx = tuple(assign[par] for par in cpt.parents) + (assign[node],)
            p *= cpt.table[idx]
        out[cell] = p
    return out
