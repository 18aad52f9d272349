"""Command-line pipeline: enumerate candidate DAGs, score them against
observational + interventional data, synthesize ground-truth datasets.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 enumeration
cap exceeded.  The numeric layers are imported by the commands that use
them, so ``--version`` and ``enumerate`` never import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import EnumerationLimit, GcfitError, ParseError
from .graphs import DEFAULT_ENUMERATION_CAP, enumerate_orientations, json_object, load_pdgraph

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ENUMERATION = 3


def format_number(x: float) -> str:
    """Full-precision rendering: 12 significant digits, inf/-inf spelled out."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.12g}"


def _edges_str(edges) -> str:
    return ";".join(f"{a}->{b}" for a, b in edges)


def load_manifest(path, schema):
    """Read a manifest JSON and the datasets it references.

    Layout: {"observational": <csv path>,
             "interventions": [{"file": <csv path>, "node": ..., "value": ...}]}
    Relative paths resolve against the manifest's directory.
    """
    from .tables import Dataset

    with open(path, encoding="utf-8") as fh:
        doc = json_object(fh.read(), "observational", path)
    entries = doc.get("interventions", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError("'interventions' must be a list of objects", path=path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if not isinstance(p, str):
            raise ParseError(f"path {p!r} is not a string", path=path)
        if "\0" in p:
            raise ParseError(f"path {p!r} holds a NUL byte", path=path)
        return p if os.path.isabs(p) else os.path.join(base, p)

    observational = Dataset.read_csv(resolve(doc["observational"]), schema)
    interventional = {}
    for entry in entries:
        try:
            node = entry["node"]
            value = entry["value"]
            file_ = entry["file"]
            if not isinstance(node, str):
                raise ValueError(f"node {node!r} is not a string")
            # only a JSON integer: coercing 1.7 or true would label the file with another state
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"value {value!r} is not an integer")
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad intervention entry {entry!r}: {exc}", path=path) from None
        if (node, value) in interventional:
            raise GcfitError(f"duplicate intervention entry for ({node}, {value})")
        interventional[(node, value)] = Dataset.read_csv(resolve(file_), schema)
    return observational, interventional


def cmd_enumerate(args) -> int:
    graph = load_pdgraph(args.graph)
    dags = enumerate_orientations(graph, args.max_undirected)
    for member in dags:
        orientation = member.orientation or "-"
        print(f"{member.graph_id}\t{orientation}\t{_edges_str(member.dag.edges)}")
    return EXIT_OK


def cmd_score(args) -> int:
    from .scoring import InterventionBundle, score_set
    from .tables import check_smoothing, csv_lines

    check_smoothing(args.smoothing)
    graph = load_pdgraph(args.graph)
    dags = enumerate_orientations(graph, args.max_undirected)
    if args.subset:
        # "-" is how enumerate and scores.csv print the empty vector
        dags = dags.subset("" if v == "-" else v for v in args.subset)
    observational, interventional = load_manifest(args.manifest, graph.schema)
    bundle = InterventionBundle(observational, interventional, smoothing=args.smoothing)
    records = score_set(
        dags,
        bundle,
        edges_policy=args.edges,
        missing_policy=args.missing,
    )

    do_detail = records[0].do_detail  # every member shares it; a DagSet is never empty
    files = {
        "scores.csv": [["graph_id", "orientation_vector", "edges", "gf", "gcf", "gcf_abs", "flags"]]
        + [
            [
                r.graph_id,
                r.orientation or "-",
                _edges_str(r.dag.edges),
                format_number(r.gf),
                format_number(r.gcf),
                format_number(r.gcf_abs),
                ";".join(r.flags),
            ]
            for r in records
        ],
        "do_divergences.csv": [["node", "value", "D_a", "weight", "D_node"]]
        + [
            [node, value, format_number(d_value), format_number(weight), format_number(divergence)]
            for node, (divergence, detail) in do_detail.items()
            for value, weight, d_value in detail
        ],
    }
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rows in files.items():
        with open(os.path.join(args.out_dir, name), "w", newline="", encoding="utf-8") as fh:
            fh.write(csv_lines(rows))

    if args.svg:
        from .svg import scatter_svg

        points = [(r.gf, r.gcf, r.graph_id) for r in records]
        with open(os.path.join(args.out_dir, "plot.svg"), "w", encoding="utf-8") as fh:
            fh.write(scatter_svg(points))
    return EXIT_OK


def cmd_synth(args) -> int:
    from .bayesnet import load_bayesnet, sample, sample_do, substream

    if args.n_obs < 1 or args.n_do < 1:
        raise GcfitError("sample counts must be positive")
    if args.seed < 0:
        raise GcfitError("seed must be non-negative")
    net = load_bayesnet(args.net)
    schema = net.schema
    # each name is part of a file name, do_<node>_<value>.csv
    for name in schema.names:
        if any(c and c in name for c in (os.sep, os.altsep, "\0")):
            raise GcfitError(f"variable name {name!r} cannot be part of a file name")
    os.makedirs(args.out_dir, exist_ok=True)

    obs = sample(net, args.n_obs, substream(args.seed, 0))
    obs.write_csv(os.path.join(args.out_dir, "obs.csv"))

    entries = []
    for node in schema.names:
        for value in range(schema.cardinality(node)):
            # substream 0 drew obs.csv; each (node, value) takes the next, in schema order
            data = sample_do(net, node, value, args.n_do, substream(args.seed, len(entries) + 1))
            fname = f"do_{node}_{value}.csv"
            data.write_csv(os.path.join(args.out_dir, fname))
            entries.append({"file": fname, "node": node, "value": value})
    manifest = {"observational": "obs.csv", "interventions": entries}
    with open(os.path.join(args.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcf",
        description="Score candidate DAG orientations by goodness of fit "
        "and goodness of causal fit.",
    )
    parser.add_argument("--version", action="version", version=f"gcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list all acyclic orientations of a PD graph")
    p_enum.add_argument("--graph", required=True, help="PD graph JSON file")
    p_enum.add_argument("--max-undirected", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_enum.set_defaults(func=cmd_enumerate)

    p_score = sub.add_parser("score", help="score every orientation against data")
    p_score.add_argument("--graph", required=True, help="PD graph JSON file")
    p_score.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_score.add_argument("--out-dir", default=".", help="output directory")
    p_score.add_argument("--smoothing", type=float, default=1.0,
                         help="Laplace smoothing for empirical tables")
    p_score.add_argument("--edges", choices=["pd", "all"], default="pd",
                         help="score the PD graph's undirected edges or each DAG's full edge set")
    p_score.add_argument("--missing", choices=["strict", "renormalize"], default="strict",
                         help="policy for values without interventional data")
    p_score.add_argument("--svg", action="store_true", help="also write plot.svg")
    p_score.add_argument("--subset", nargs="+", metavar="BITS",
                         help="restrict to these orientation vectors")
    p_score.add_argument("--max-undirected", type=int, default=DEFAULT_ENUMERATION_CAP)
    p_score.set_defaults(func=cmd_score)

    p_synth = sub.add_parser("synth", help="synthesize datasets from a ground-truth net")
    p_synth.add_argument("--net", required=True, help="BayesNet JSON file")
    p_synth.add_argument("--n-obs", type=int, default=10000, help="observational sample count")
    p_synth.add_argument("--n-do", type=int, default=10000,
                         help="sample count per (node, value) intervention")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-dir", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GcfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
