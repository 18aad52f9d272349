"""Library scoring step of the exact-wide workload, run in its own child process.

    python bench/exact.py NET_JSON GRAPH_JSON RECORDS_JSON

Loads the net and the PD graph (the set-up part), then times the way from
net and PD graph to score records: ``InterventionTables.from_net``,
``enumerate_orientations`` and ``score_set`` on exact tables.  Writes the
records to RECORDS_JSON and prints ``{"load_s": ..., "score_s": ...}``,
where ``load_s`` runs from the first line of this file, so it covers the
imports and the net construction.
"""

import time

_START = time.perf_counter()

import json
import sys

from gcfit import bayesnet, graphs, scoring


def load(net_path, graph_path):
    return bayesnet.load_bayesnet(net_path), graphs.load_pdgraph(graph_path)


def score(net, graph):
    # Module attribute lookups, so that the tracer's wrappers see these calls.
    tables = scoring.InterventionTables.from_net(net)
    return scoring.score_set(graphs.enumerate_orientations(graph), tables)


def write_records(records, path) -> None:
    doc = [
        {
            "graph_id": r.graph_id,
            "orientation": r.orientation,
            "edges": [list(e) for e in r.dag.edges],
            "gf": r.gf,
            "gcf": r.gcf,
            "gcf_abs": r.gcf_abs,
            "flags": list(r.flags),
        }
        for r in records
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(net_path, graph_path, out_path) -> None:
    net, graph = load(net_path, graph_path)
    loaded = time.perf_counter()
    records = score(net, graph)
    scored = time.perf_counter()
    write_records(records, out_path)
    print(json.dumps({"load_s": loaded - _START, "score_s": scored - loaded}))


if __name__ == "__main__":
    main(*sys.argv[1:4])
