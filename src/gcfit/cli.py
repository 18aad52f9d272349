"""Command-line pipeline: enumerate candidate DAGs, score them against
observational + interventional data, synthesize ground-truth datasets.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 enumeration
cap exceeded.

Import rule: what a command runs (the library layers ``graphs``,
``tables``, ``bayesnet``, ``scoring`` and ``svg``, and ``json``) is
imported by the function that runs it, never at module level.  So
parsing arguments, ``--version``, ``--help`` and usage errors load only
``gcfit``, this module and ``gcfit.errors``, and ``enumerate`` adds only
``graphs``, never numpy.  Every line on a command's import path is
start-up cost: a run without a bytecode cache compiles each module it
imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import __version__
from .errors import DEFAULT_ENUMERATION_CAP, EnumerationLimit, GcfitError, ParseError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ENUMERATION = 3

# scores.csv lines rendered per write: the file is streamed, never held whole
WRITE_BATCH = 1024

# the longest file name, in bytes, of the common file systems (NAME_MAX on Linux)
MAX_FILE_NAME_BYTES = 255


def format_number(x: float) -> str:
    """Full-precision rendering: 12 significant digits, or inf, -inf, nan."""
    return f"{x:.12g}"


def load_manifest(path, schema):
    """Read a manifest JSON and the datasets it references.

    Layout: {"observational": <csv path>,
             "interventions": [{"file": <csv path>, "node": ..., "value": ...}]}
    Relative paths resolve against the manifest's directory.
    """
    from .graphs import json_object, read_text
    from .tables import Dataset

    doc = json_object(read_text(path), "observational", path)
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
    from .graphs import EdgeRanks, iter_orientations, load_pdgraph

    graph = load_pdgraph(args.graph)
    # a tab or a line break in a name would split the tab-separated lines
    ranks = EdgeRanks(graph, (";", "->", "\t", "\n", "\r"))
    lists = ranks.lists(iter_orientations(graph, args.max_undirected))
    lines = (f"G{vec}\t{vec or '-'}\t{text}\n" for vec, _, text in lists)
    try:
        # a few hundred lines per write, as stdout may be unbuffered (python -u)
        while chunk := "".join(islice(lines, 256)):
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has closed the pipe: stop quietly, with stdout on devnull
        # so that the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def score_lines(graph, scores, points=None):
    """The lines of scores.csv: its header, then one line per tuple of
    ``scores`` (`score_orientations`' stream), each as `csv_lines` renders
    its fields.  Each candidate's (gf, gcf, graph id) is appended to
    ``points`` unless it is None.

    Only the edge list can need quoting: the vector, `format_number`'s
    numbers and the flags hold no ``,``, ``"``, CR or LF.  Every edge list
    names each endpoint of the graph's edges, so it is decided once: the
    list needs quoting iff one of those names holds such a character, and
    is then quoted as `csv.writer` quotes, in ``"`` with each ``"`` doubled.
    """
    from .tables import csv_lines

    yield csv_lines([["graph_id", "orientation_vector", "edges", "gf", "gcf", "gcf_abs", "flags"]])
    quote = any(c in name for edge in graph.directed + graph.undirected for name in edge
                for c in ',"\r\n')
    for vec, text, gf, gcf, gcf_abs, flags in scores:
        if quote:
            text = '"' + text.replace('"', '""') + '"'
        if points is not None:
            points.append((gf, gcf, f"G{vec}"))
        yield (f"G{vec},{vec or '-'},{text},{format_number(gf)},{format_number(gcf)},"
               f"{format_number(gcf_abs)},{';'.join(flags)}\n")


def cmd_score(args) -> int:
    from .graphs import EdgeRanks, iter_orientations, load_pdgraph, subset_orientations
    from .scoring import InterventionBundle, score_orientations
    from .tables import check_smoothing, csv_lines

    check_smoothing(args.smoothing)
    graph = load_pdgraph(args.graph)
    ranks = EdgeRanks(graph)
    if args.subset:
        # "-" is how enumerate and scores.csv print the empty vector
        wanted = ("" if v == "-" else v for v in args.subset)
        vectors = subset_orientations(graph, wanted, args.max_undirected)
    else:
        vectors = iter_orientations(graph, args.max_undirected)
    observational, interventional = load_manifest(args.manifest, graph.schema)
    bundle = InterventionBundle(observational, interventional, smoothing=args.smoothing)
    do_detail, scores = score_orientations(
        ranks, vectors, bundle, edges_policy=args.edges, missing_policy=args.missing
    )

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "do_divergences.csv"), "w", newline="",
              encoding="utf-8") as fh:
        fh.write(csv_lines(
            [["node", "value", "D_a", "weight", "D_node"]]
            + [
                [node, value, format_number(d_value), format_number(weight),
                 format_number(divergence)]
                for node, (divergence, detail) in do_detail.items()
                for value, weight, d_value in detail
            ]
        ))
    points = [] if args.svg else None
    lines = score_lines(graph, scores, points)
    with open(os.path.join(args.out_dir, "scores.csv"), "w", newline="", encoding="utf-8") as fh:
        while chunk := "".join(islice(lines, WRITE_BATCH)):
            fh.write(chunk)

    if args.svg:
        from .svg import scatter_svg

        with open(os.path.join(args.out_dir, "plot.svg"), "w", encoding="utf-8") as fh:
            fh.write(scatter_svg(points))
    return EXIT_OK


def _file_name_ok(name: str) -> bool:
    """True iff ``name`` names one file: no separator or NUL byte, and at
    most MAX_FILE_NAME_BYTES in the file-system encoding."""
    if any(c and c in name for c in (os.sep, os.altsep, "\0")):
        return False
    try:
        return len(os.fsencode(name)) <= MAX_FILE_NAME_BYTES
    except UnicodeEncodeError:  # a lone surrogate
        return False


def cmd_synth(args) -> int:
    import json

    # graphs is compiled before bayesnet imports numpy: compiled after it,
    # its compile memory left synth's peak RSS about 0.4 MB higher
    from . import graphs  # noqa: F401
    from .bayesnet import load_bayesnet, sample_jobs, substream
    from .tables import csv_header

    if args.n_obs < 1 or args.n_do < 1:
        raise GcfitError("sample counts must be positive")
    if args.seed < 0:
        raise GcfitError("seed must be non-negative")
    net = load_bayesnet(args.net)
    schema = net.schema
    entries = [
        {"file": f"do_{node}_{value}.csv", "node": node, "value": value}
        for node in schema.names
        for value in range(schema.cardinality(node))
    ]
    # checked before anything is sampled or written, so no partial tree is left
    for entry in entries:
        if not _file_name_ok(entry["file"]):
            raise GcfitError(f"variable name {entry['node']!r} cannot be part of a file name")
    csv_header(schema.names)  # every CSV's header
    os.makedirs(args.out_dir, exist_ok=True)

    # substream 0 draws obs.csv; each (node, value) takes the next, in schema order
    jobs = [(args.n_obs, substream(args.seed, 0), None)] + [
        (args.n_do, substream(args.seed, k), (entry["node"], entry["value"]))
        for k, entry in enumerate(entries, start=1)
    ]
    datasets = sample_jobs(net, jobs)
    for name in ["obs.csv"] + [entry["file"] for entry in entries]:
        # no name keeps the dataset written: it is freed before the next pass
        next(datasets).write_csv(os.path.join(args.out_dir, name))
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
