"""Output checks of one benchmark run, computed without gcfit.

    python bench/checks.py WORKLOAD WORK_DIR

Reads the inputs (``graph.json``, ``net.json``) and the first
repetition's outputs from WORK_DIR (``enumerate.txt``, ``data/``, and
``score/`` or ``exact.json``) and prints one JSON line
``{"checks": [[name, ok, detail], ...]}``.  Everything is recomputed from
the files with numpy and plain Python:

- the acyclic orientations of the PD graph, by backtracking (a different
  algorithm from gcfit's filter over all 2^k vectors);
- do-divergences from the data files at the scoring smoothing, and from
  them the GCF and ``gcf_abs`` of every scored candidate (smoothed GF
  values are not pinned);
- on exact tables, GF = -ln(sum_i H(X_i | Pa_i) - H(X)) from the net's
  joint, built by gathering CPT entries cell by cell.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import numpy as np

from workloads import SMOOTHING, WORKLOADS, Workload

REL_TOL = 1e-9  # outputs carry 12 significant digits


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


# --- graph -------------------------------------------------------------------


def load_graph(path):
    with open(path) as fh:
        doc = json.load(fh)
    names = [v["name"] for v in doc["variables"]]
    cards = [int(v["cardinality"]) for v in doc["variables"]]
    directed = [tuple(e) for e in doc["directed"]]
    undirected = sorted(tuple(sorted(e)) for e in doc["undirected"])
    return names, cards, directed, undirected


def acyclic_orientations(names, directed, undirected) -> dict[str, list[tuple[str, str]]]:
    """Orientation vector -> sorted edge list, for every acyclic orientation.

    Edges are oriented one at a time ('0': smaller name -> larger, tried
    first, so vectors come out in lexicographic order); u -> v is refused
    when v already reaches u."""
    children = {n: set() for n in names}
    for a, b in directed:
        children[a].add(b)

    def reaches(src, dst):
        seen, todo = {src}, [src]
        while todo:
            for nxt in children[todo.pop()]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return False

    found = {}
    bits, oriented = [], []

    def extend(i):
        if i == len(undirected):
            found["".join(bits)] = sorted(directed + oriented)
            return
        a, b = undirected[i]
        for bit, (u, v) in (("0", (a, b)), ("1", (b, a))):
            if u != v and not reaches(v, u):
                children[u].add(v)
                bits.append(bit)
                oriented.append((u, v))
                extend(i + 1)
                oriented.pop()
                bits.pop()
                children[u].discard(v)

    extend(0)
    return found


def parse_edges(text: str) -> list[tuple[str, str]]:
    return [tuple(e.split("->")) for e in text.split(";")] if text else []


def check_enumerate(path, expected) -> tuple[bool, str]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    got = [line.split("\t") for line in lines]
    if len(got) != len(expected):
        return False, f"{len(got)} lines, expected {len(expected)} acyclic orientations"
    for (gid, vec, edges), (want_vec, want_edges) in zip(got, expected.items()):
        if gid != "G" + want_vec or vec != want_vec or parse_edges(edges) != want_edges:
            return False, f"line {gid} differs from orientation {want_vec}"
    return True, f"{len(got)} acyclic orientations"


# --- data --------------------------------------------------------------------


def read_rows(path, names) -> np.ndarray:
    """Parse a CSV of single-digit states strictly, as one byte array."""
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    if header.decode().split(",") != names:
        raise ValueError(f"{path}: header {header!r}")
    width = 2 * len(names)
    raw = np.frombuffer(body, dtype=np.uint8)
    if raw.size % width:
        raise ValueError(f"{path}: not single-digit rows of {len(names)} cells")
    raw = raw.reshape(-1, width)
    digits = raw[:, 0::2].astype(np.int64) - ord("0")
    if (raw[:, 1:-1:2] != ord(",")).any() or (raw[:, -1] != ord("\n")).any():
        raise ValueError(f"{path}: bad separators")
    if (digits < 0).any() or (digits > 9).any():
        raise ValueError(f"{path}: non-digit cell")
    return digits


def load_data(data_dir, names, cards, workload: Workload):
    """Observational rows and {(node, value): rows}; also checks the synth
    layout: one file per (node, value), row counts and clamped columns."""
    with open(os.path.join(data_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    obs = read_rows(os.path.join(data_dir, manifest["observational"]), names)
    do = {}
    for entry in manifest["interventions"]:
        rows = read_rows(os.path.join(data_dir, entry["file"]), names)
        if (rows[:, names.index(entry["node"])] != entry["value"]).any():
            raise ValueError(f"{entry['file']}: intervened column not clamped")
        if len(rows) != workload.n_do:
            raise ValueError(f"{entry['file']}: {len(rows)} rows")
        do[(entry["node"], entry["value"])] = rows
    expected = [(n, v) for n, c in zip(names, cards) for v in range(c)]
    if list(do) != expected or len(obs) != workload.n_obs:
        raise ValueError("manifest does not list one dataset per (node, value)")
    if (obs >= np.array(cards)).any():
        raise ValueError("observational state out of range")
    return obs, do


def smoothed(rows, cards, s) -> np.ndarray:
    """(count + s) / (N + s * cells) over the joint of ``rows``' columns."""
    code = np.zeros(len(rows), dtype=np.int64)
    for j, c in enumerate(cards):
        code = code * c + rows[:, j]
    size = int(np.prod(cards))
    counts = np.bincount(code, minlength=size).astype(float) + s
    return (counts / counts.sum()).reshape(cards)


def do_divergences(names, cards, obs, do, s):
    """{node: (D_node, [(value, weight, D_a), ...])} at smoothing ``s``."""
    joint = smoothed(obs, cards, s)
    out = {}
    for i, name in enumerate(names):
        rest = [c for j, c in enumerate(cards) if j != i]
        detail = []
        for value in range(cards[i]):
            block = np.take(joint, value, axis=i)
            weight = block.sum()
            cond = block / weight
            q = smoothed(np.delete(do[(name, value)], i, axis=1), rest, s)
            detail.append((value, float(weight), float(np.sum(cond * np.log(cond / q)))))
        out[name] = (sum(w * d for _, w, d in detail), detail)
    return out


def check_do_divergences(path, expected) -> tuple[bool, str]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    want = [
        (name, value, d_a, weight, total)
        for name, (total, detail) in sorted(expected.items())
        for value, weight, d_a in detail
    ]
    if rows[0] != ["node", "value", "D_a", "weight", "D_node"] or len(rows) - 1 != len(want):
        return False, f"{len(rows) - 1} rows, expected {len(want)}"
    for row, (name, value, d_a, weight, total) in zip(rows[1:], want):
        got = [float(x) for x in row[2:]]
        if row[0] != name or int(row[1]) != value or not all(
            close(g, w) for g, w in zip(got, (d_a, weight, total))
        ):
            return False, f"row {row} differs from ({name}, {value}, {d_a}, {weight}, {total})"
    return True, f"{len(want)} (node, value) divergences"


def signed_terms(edges, pairs, dmap):
    """(sign, distance) per pair; +1 when the edge points to the endpoint
    with the larger do-divergence."""
    terms = []
    for a, b in pairs:
        tail, head = (a, b) if (a, b) in edges else (b, a)
        terms.append((1 if dmap[head] >= dmap[tail] else -1, abs(dmap[head] - dmap[tail])))
    return terms


def check_scores(path, expected_vectors, undirected, dmap) -> tuple[bool, str]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    ids = [r["graph_id"] for r in rows]
    if ids != ["G" + v for v in expected_vectors]:
        return False, f"graph ids {ids[:3]}... differ from the {len(expected_vectors)} expected"
    for r in rows:
        edges = set(parse_edges(r["edges"]))
        scored = signed_terms(edges, undirected, dmap)
        gcf = sum(s * d for s, d in scored) / sum(d for _, d in scored)
        gcf_abs = sum(s * d for s, d in signed_terms(edges, sorted(edges), dmap))
        if not (close(float(r["gcf"]), gcf) and close(float(r["gcf_abs"]), gcf_abs)):
            return False, f"{r['graph_id']}: gcf {r['gcf']} / gcf_abs {r['gcf_abs']}, expected {gcf} / {gcf_abs}"
        if r["flags"] or not math.isfinite(float(r["gf"])):
            return False, f"{r['graph_id']}: flags {r['flags']!r}, gf {r['gf']}"
    return True, f"{len(rows)} candidates: ids, gcf and gcf_abs"


def check_svg(path, n_points) -> tuple[bool, str]:
    with open(path) as fh:
        text = fh.read()
    markers = text.count("<circle ") + text.count("<polygon ")
    return markers == n_points, f"{markers} markers for {n_points} candidates"


# --- exact tables --------------------------------------------------------------


def exact_joint(net_path) -> tuple[list[str], np.ndarray]:
    """Joint of the net, one gather of CPT entries per node over all cells."""
    with open(net_path) as fh:
        doc = json.load(fh)
    names = [v["name"] for v in doc["variables"]]
    cards = [int(v["cardinality"]) for v in doc["variables"]]
    size = int(np.prod(cards))
    cell = np.arange(size)
    strides = [int(np.prod(cards[j + 1:])) for j in range(len(cards))]

    def state(name):
        j = names.index(name)
        return (cell // strides[j]) % cards[j]

    p = np.ones(size)
    for name in names:
        cpt = doc["cpts"][name]
        parents = cpt["parents"]
        table = np.asarray(cpt["rows"], dtype=float)
        row = np.zeros(size, dtype=np.int64)
        for parent in parents:
            row = row * cards[names.index(parent)] + state(parent)
        p *= table[row, state(name)]
    return names, p.reshape(cards)


def entropy(p) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def check_exact_gf(path, names, joint, expected_vectors) -> tuple[bool, str]:
    with open(path) as fh:
        records = json.load(fh)
    ids = [r["graph_id"] for r in records]
    if ids != ["G" + v for v in expected_vectors]:
        return False, f"graph ids {ids[:3]}... differ from the {len(expected_vectors)} expected"
    h_joint = entropy(joint)
    cache = {}

    def h(family):
        if family not in cache:
            drop = tuple(j for j, n in enumerate(names) if n not in family)
            cache[family] = entropy(joint.sum(axis=drop)) if family else 0.0
        return cache[family]

    for r in records:
        kl = -h_joint
        for name in names:
            parents = frozenset(a for a, b in r["edges"] if b == name)
            kl += h(parents | {name}) - h(parents)
        gf = r["gf"]
        if kl < 1e-10:  # an I-map of the truth: KL is rounding error, GF huge or inf
            ok = gf > 20
        else:
            ok = abs(gf + math.log(kl)) <= 1e-6 + 1e-12 / kl
        if not ok:
            return False, f"{r['graph_id']}: gf {gf}, expected -ln({kl})"
    return True, f"{len(records)} candidates: GF from exact entropies"


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    work = sys.argv[2]
    names, cards, directed, undirected = load_graph(os.path.join(work, "graph.json"))
    orientations = acyclic_orientations(names, directed, undirected)
    results = []

    def run(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append([name, bool(ok), detail])

    run("enumerate", check_enumerate, os.path.join(work, "enumerate.txt"), orientations)

    try:
        obs, do = load_data(os.path.join(work, "data"), names, cards, workload)
        results.append(["synth", True, f"{len(obs)} + {len(do)}x{workload.n_do} rows"])
    except (OSError, ValueError, KeyError) as exc:
        obs = do = None
        results.append(["synth", False, f"{type(exc).__name__}: {exc}"])

    if workload.scorer == "exact":
        _, joint = exact_joint(os.path.join(work, "net.json"))
        run("gf_exact", check_exact_gf, os.path.join(work, "exact.json"), names, joint, list(orientations))
    elif obs is not None:
        vectors = sorted(workload.subset) if workload.subset else list(orientations)
        expected = do_divergences(names, cards, obs, do, SMOOTHING)
        dmap = {n: d for n, (d, _) in expected.items()}
        score_dir = os.path.join(work, "score")
        run("do_divergences", check_do_divergences, os.path.join(score_dir, "do_divergences.csv"), expected)
        run("scores", check_scores, os.path.join(score_dir, "scores.csv"), vectors, undirected, dmap)
        run("svg", check_svg, os.path.join(score_dir, "plot.svg"), len(vectors))
    print(json.dumps({"checks": results}))


if __name__ == "__main__":
    main()
