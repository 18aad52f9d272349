"""Build a workload's inputs from its seed: the ground-truth net and the PD graph.

    python bench/inputs.py --workload NAME --seed N --out-dir DIR

Writes ``DIR/net.json`` and ``DIR/graph.json``.  The CPTs come from the
same logic as ``tests/conftest.py::random_net``.
"""

from __future__ import annotations

import argparse
import itertools
import os

import numpy as np

from gcfit import BayesNet, Cpt, Dag, PdGraph, VariableSchema
from gcfit.bayesnet import save_bayesnet
from gcfit.graphs import save_pdgraph

from workloads import WORKLOADS, Workload


def random_net(dag, rng, lo=0.1, hi=0.9):
    """Seeded BayesNet on ``dag`` with rows bounded away from 0 and 1."""
    schema = dag.schema
    cpts = {}
    for name in schema.names:
        parents = dag.parents(name)
        shape = tuple(schema.cardinality(p) for p in parents)
        card = schema.cardinality(name)
        table = np.empty(shape + (card,))
        for idx in itertools.product(*(range(c) for c in shape)):
            row = rng.uniform(lo, hi, card)
            table[idx] = row / row.sum()
        cpts[name] = Cpt(name, parents, table)
    return BayesNet(dag, cpts)


def build(workload: Workload, seed: int, out_dir: str) -> None:
    schema = VariableSchema(tuple(workload.names), (2,) * workload.n_nodes)
    directed, undirected = workload.pdgraph_edges()
    graph = PdGraph(schema, tuple(directed), tuple(undirected))
    net = random_net(Dag(schema, tuple(workload.truth_edges)), np.random.default_rng(seed))
    save_pdgraph(graph, os.path.join(out_dir, "graph.json"))
    save_bayesnet(net, os.path.join(out_dir, "net.json"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    build(WORKLOADS[args.workload], args.seed, args.out_dir)


if __name__ == "__main__":
    main()
