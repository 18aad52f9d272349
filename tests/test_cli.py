import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcfit import (
    Dag,
    Dataset,
    InterventionBundle,
    PdGraph,
    VariableSchema,
    do_divergence_map,
    enumerate_orientations,
    gcf_abs,
    gcf_detail,
    gf,
    save_bayesnet,
    save_pdgraph,
)
from gcfit.cli import format_number, load_manifest, main, score_lines
from gcfit.graphs import EdgeRanks, iter_orientations
from gcfit.scoring import FLAG_NO_CAUSAL_SIGNAL, FLAG_UNDEFINED_DISTANCE, score_orientations
from gcfit.svg import scatter_svg
from gcfit.tables import csv_lines
from conftest import random_net


@pytest.fixture
def workdir(tmp_path, fig1_pdgraph, fig1_truth):
    net = random_net(fig1_truth, np.random.default_rng(1))
    save_bayesnet(net, tmp_path / "truth.json")
    save_pdgraph(fig1_pdgraph, tmp_path / "gpd.json")
    return tmp_path


def run_synth(workdir, out="data", seed="7", n_obs="20000", n_do="10000"):
    return main(
        [
            "synth",
            "--net", str(workdir / "truth.json"),
            "--n-obs", n_obs,
            "--n-do", n_do,
            "--seed", seed,
            "--out-dir", str(workdir / out),
        ]
    )


def read_scores(path):
    with open(path, newline="") as fh:  # keeps a quoted "\r" as written
        return list(csv.DictReader(fh))


def path_graph(tmp_path, k):
    """A PD graph file of a path with k undirected edges: its 2**k
    orientations are all acyclic."""
    names = tuple(f"v{i:02d}" for i in range(k + 1))
    graph = tmp_path / f"path{k}.json"
    schema = VariableSchema(names, (2,) * (k + 1))
    save_pdgraph(PdGraph(schema, (), tuple(zip(names, names[1:]))), graph)
    return graph


def matching_graph(tmp_path, k):
    """A PD graph file of k undirected edges a_i - b_i that share no node,
    every b name sorting after every a name: its 2**k orientations are all
    acyclic, and one block of their edge lists reads every bit."""
    names = tuple(f"a{i:02d}" for i in range(k)) + tuple(f"b{i:02d}" for i in range(k))
    graph = tmp_path / f"matching{k}.json"
    schema = VariableSchema(names, (2,) * (2 * k))
    save_pdgraph(PdGraph(schema, (), tuple(zip(names, names[k:]))), graph)
    return graph


def net_data(tmp_path, names, edges, out, seed):
    """The manifest file of data sampled from a random binary net of the
    DAG ``edges`` on ``names`` (CPTs drawn with ``seed``), written to the
    folder ``out``."""
    dag = Dag(VariableSchema(names, (2,) * len(names)), edges)
    save_bayesnet(random_net(dag, np.random.default_rng(seed)), tmp_path / "truth.json")
    assert run_synth(tmp_path, out=out, n_obs="500", n_do="50") == 0
    return tmp_path / out / "manifest.json"


def path_data(tmp_path, k):
    """A path skeleton with k undirected edges and data from a net along it:
    (graph file, manifest file)."""
    names = tuple(f"v{i:02d}" for i in range(k + 1))
    return path_graph(tmp_path, k), net_data(tmp_path, names, tuple(zip(names, names[1:])),
                                             f"data{k}", k)


def matching_data(tmp_path, k):
    """`matching_graph` and data from a net with the edges a_i -> b_i:
    (graph file, manifest file)."""
    names = tuple(f"a{i:02d}" for i in range(k)) + tuple(f"b{i:02d}" for i in range(k))
    return matching_graph(tmp_path, k), net_data(tmp_path, names, tuple(zip(names, names[k:])),
                                                 f"matching{k}", k)


def tree_digest(root):
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        h.update(name.encode())
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class TestFormatNumber:
    def test_infinities(self):
        assert format_number(math.inf) == "inf"
        assert format_number(-math.inf) == "-inf"

    def test_nan_of_either_sign(self):
        assert format_number(math.nan) == format_number(-math.nan) == "nan"

    def test_twelve_significant_digits(self):
        assert format_number(1 / 3) == "0.333333333333"


class TestEnumerate:
    def test_fig1_two_lines(self, workdir, capsys):
        assert main(["enumerate", "--graph", str(workdir / "gpd.json")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "G0\t0\ta->b;a->z;b->z",
            "G1\t1\ta->z;b->a;b->z",
        ]

    def test_fig2_four_lines(self, tmp_path, fig2_pdgraph, capsys):
        save_pdgraph(fig2_pdgraph, tmp_path / "g2.json")
        assert main(["enumerate", "--graph", str(tmp_path / "g2.json")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_triangle_six_lines(self, tmp_path, capsys):
        from gcfit import VariableSchema

        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        save_pdgraph(
            PdGraph(schema, (), (("a", "b"), ("a", "c"), ("b", "c"))),
            tmp_path / "tri.json",
        )
        assert main(["enumerate", "--graph", str(tmp_path / "tri.json")]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_pair_directed_both_ways_exit_1(self, tmp_path, capsys):
        graph = tmp_path / "both.json"
        graph.write_text(json.dumps({
            "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
            "directed": [["a", "b"], ["b", "a"]],
        }))
        assert main(["enumerate", "--graph", str(graph)]) == 1
        assert capsys.readouterr().err == (
            f"error: {graph}: bad graph: pair appears twice in directed part\n"
        )

    def test_cap_exit_code(self, tmp_path, capsys):
        from gcfit import VariableSchema

        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        save_pdgraph(
            PdGraph(schema, (), (("a", "b"), ("a", "c"), ("b", "c"))),
            tmp_path / "tri.json",
        )
        rc = main(
            ["enumerate", "--graph", str(tmp_path / "tri.json"), "--max-undirected", "2"]
        )
        assert rc == 3

    def test_negative_cap_exit_2(self, workdir, fig1_schema, capsys):
        # no undirected edge exceeds a cap of -1: the cap itself is invalid
        graph = workdir / "directed.json"
        save_pdgraph(PdGraph(fig1_schema, (("a", "b"),), ()), graph)
        rc = main(["enumerate", "--graph", str(graph), "--max-undirected", "-1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: enumeration cap must be non-negative")

    @staticmethod
    def traced_peak(graph):
        """The traced peak of a warm `gcf enumerate` of ``graph``."""
        argv = ["enumerate", "--graph", str(graph)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("k", [12, 14])
    def test_flat_memory(self, tmp_path, k):
        # lines are printed 256 at a time as their DAGs are found, so the
        # traced peak of a warm run does not grow with the 2**k DAGs
        assert self.traced_peak(path_graph(tmp_path, k)) < 2**20

    def test_flat_memory_on_a_matching(self, tmp_path):
        # the edges out of every b node render as one block, which takes
        # 2**14 values; its memo is bounded, so the peak stays flat
        assert self.traced_peak(matching_graph(tmp_path, 14)) < 2**20

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # 4096 lines of about 140 bytes fill the pipe long before the last
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        graph = path_graph(tmp_path, 12)
        proc = subprocess.Popen(
            [sys.executable, "-m", "gcfit.cli", "enumerate", "--graph", str(graph)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert first.startswith(b"G000000000000\t000000000000\tv00->v01;")
        assert err == b""

    @pytest.mark.parametrize("command", ["enumerate", "score"])
    def test_names_holding_edge_separators_exit_2(self, tmp_path, capsys, command):
        # a->"b->c" and "a->b"->c would both print as a->b->c
        schema = VariableSchema(("a", "b->c", "a->b", "c"), (2,) * 4)
        graph = tmp_path / "arrows.json"
        save_pdgraph(PdGraph(schema, (("a", "b->c"), ("a->b", "c")), ()), graph)
        argv = [command, "--graph", str(graph)]
        if command == "score":  # refused before the manifest is read
            argv += ["--manifest", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: variable name 'b->c' holds '->', so its edges cannot be printed "
            "unambiguously\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["enumerate", "score"])
    def test_name_holding_a_semicolon_exit_2(self, tmp_path, capsys, command):
        schema = VariableSchema(("a;b", "c"), (2, 2))
        graph = tmp_path / "semicolon.json"
        save_pdgraph(PdGraph(schema, (), (("a;b", "c"),)), graph)
        argv = [command, "--graph", str(graph)]
        if command == "score":
            argv += ["--manifest", str(tmp_path / "nope.json")]
        assert main(argv) == 2
        assert "holds ';'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "score"])
    def test_name_utf8_cannot_encode_exit_2(self, tmp_path, command):
        # a lone surrogate reaches stdout as a raw byte that is not UTF-8;
        # refused before anything is printed, and without importing numpy
        graph = tmp_path / "surrogate.json"
        graph.write_text(json.dumps({
            "variables": [{"name": "a\udc80", "cardinality": 2}, {"name": "b", "cardinality": 2}],
            "undirected": [["a\udc80", "b"]],
        }))
        argv = [command, "--graph", str(graph)]
        if command == "score":
            argv += ["--manifest", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "out")]
        script = ("import sys\nfrom gcfit.cli import main\nrc = main(sys.argv[1:])\n"
                  "print('numpy' in sys.modules, file=sys.stderr)\nsys.exit(rc)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == b""
        error, numpy_imported = proc.stderr.splitlines()
        assert error == b"error: variable name 'a\\udc80' cannot be encoded as UTF-8"
        assert command == "score" or numpy_imported == b"False"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_name_that_would_split_a_line_exit_2(self, tmp_path, capsys, char):
        # enumerate prints tab-separated lines; gcf score quotes such names in its CSV
        schema = VariableSchema((f"a{char}b", "c"), (2, 2))
        graph = tmp_path / "split.json"
        save_pdgraph(PdGraph(schema, (), ((f"a{char}b", "c"),)), graph)
        assert main(["enumerate", "--graph", str(graph)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: variable name {f'a{char}b'!r} holds")


class TestSynth:
    def test_writes_all_files(self, workdir):
        assert run_synth(workdir) == 0
        out = workdir / "data"
        names = sorted(os.listdir(out))
        # 3 binary nodes: obs + 6 interventional + manifest
        assert names == [
            "do_a_0.csv", "do_a_1.csv", "do_b_0.csv", "do_b_1.csv",
            "do_z_0.csv", "do_z_1.csv", "manifest.json", "obs.csv",
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["observational"] == "obs.csv"
        assert len(manifest["interventions"]) == 6

    def test_same_seed_byte_identical(self, workdir):
        assert run_synth(workdir, out="d1") == 0
        assert run_synth(workdir, out="d2") == 0
        assert tree_digest(workdir / "d1") == tree_digest(workdir / "d2")

    def test_negative_seed_exit_2(self, workdir, capsys):
        assert run_synth(workdir, seed="-1") == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"

    def test_nan_net_exit_1(self, workdir, capsys):
        path = workdir / "truth.json"
        doc = json.loads(path.read_text())
        doc["cpts"]["a"]["rows"] = [[math.nan, math.nan]]  # json writes and reads NaN
        path.write_text(json.dumps(doc))
        assert run_synth(workdir) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "data").exists()

    def test_missing_net_file(self, workdir):
        rc = main(["synth", "--net", str(workdir / "nope.json"), "--out-dir", str(workdir)])
        assert rc == 1

    @pytest.mark.parametrize(
        "name",
        # 300 bytes; 248 bytes in 124 characters; not encodable; a file name
        # through surrogateescape, but no UTF-8 header
        [f"a{os.sep}b", "a\0b", "x" * 300, "\u00e9" * 124, "\ud800", "a\udc80"],
        ids=["separator", "nul", "long", "long_encoded", "lone_surrogate", "lone_low_surrogate"],
    )
    def test_name_that_cannot_be_a_file_name_exit_2(self, tmp_path, capsys, name):
        # do_<node>_<value>.csv must name a file in --out-dir: checked before
        # anything is sampled or written, so no partial tree is left
        schema = VariableSchema((name, "c"), (2, 2))
        truth = Dag(schema, ((name, "c"),))
        save_bayesnet(random_net(truth, np.random.default_rng(3)), tmp_path / "truth.json")
        assert run_synth(tmp_path, n_obs="20", n_do="10") == 2
        assert capsys.readouterr().err.startswith(f"error: variable name {name!r}")
        assert not (tmp_path / "data").exists()

    def test_longest_file_name_is_written(self, tmp_path):
        name = "x" * (255 - len("do__1.csv"))  # do_<name>_1.csv is 255 bytes
        schema = VariableSchema((name, "c"), (2, 2))
        truth = Dag(schema, ((name, "c"),))
        save_bayesnet(random_net(truth, np.random.default_rng(3)), tmp_path / "truth.json")
        assert run_synth(tmp_path, n_obs="20", n_do="10") == 0
        assert (tmp_path / "data" / f"do_{name}_1.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-obs", "0", "sample counts must be positive"),
            ("--seed", "-1", "seed must be non-negative"),
        ],
    )
    def test_bad_argument_checked_before_net_is_read(self, workdir, capsys, flag, value, message):
        net = str(workdir / "nope.json")
        rc = main(["synth", "--net", net, flag, value, "--out-dir", str(workdir)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestScore:
    @pytest.fixture
    def scored(self, workdir):
        assert run_synth(workdir) == 0
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out"),
                "--svg",
            ]
        )
        assert rc == 0
        return workdir / "out"

    def test_fig1_signs(self, scored):
        rows = read_scores(scored / "scores.csv")
        assert [r["graph_id"] for r in rows] == ["G0", "G1"]
        assert float(rows[0]["gcf"]) == 1.0  # truth orientation a->b
        assert float(rows[1]["gcf"]) == -1.0

    def test_do_divergences_csv(self, scored):
        with open(scored / "do_divergences.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["node"] for r in rows} == {"a", "b", "z"}
        for node in ("a", "b", "z"):
            per_value = [r for r in rows if r["node"] == node]
            weights = [float(r["weight"]) for r in per_value]
            assert sum(weights) == pytest.approx(1.0)
            expected = sum(float(r["D_a"]) * w for r, w in zip(per_value, weights))
            assert float(per_value[0]["D_node"]) == pytest.approx(expected, rel=1e-9)

    def test_svg_written(self, scored):
        svg = (scored / "plot.svg").read_text()
        assert svg.startswith("<svg")
        assert "G0" in svg and "G1" in svg

    def test_svg_finite_points_are_circles(self):
        # fig1 data at smoothing 1 gives +inf GF, so the CLI plots only diamonds
        svg = scatter_svg([(1.0, 0.5, "G0"), (2.0, -0.5, "G1"), (math.inf, 1.0, "G2")])
        assert svg.count("<circle") == 2 and svg.count("<polygon") == 1
        assert svg.index("G0") < svg.index("G1") < svg.index("<polygon") < svg.index("G2")

    def test_svg_equal_finite_gfs_share_the_middle(self):
        # one finite GF value is widened to [gf - 0.5, gf + 0.5], then padded
        # by 5%: its points sit mid-axis, between ticks 1.45 and 2.55
        svg = scatter_svg([(2.0, 0.5, "G0"), (2.0, -0.5, "G1")])
        assert svg.count('<circle cx="410.0"') == 2
        assert ">1.45</text>" in svg and ">2.55</text>" in svg

    def test_svg_minus_inf_gf_is_a_diamond_on_the_left_margin(self):
        svg = scatter_svg([(1.0, 0.5, "G0"), (-math.inf, -1.0, "G1")])
        assert svg.count("<circle") == 1 and svg.count("<polygon") == 1
        assert '<polygon points="70.0,' in svg

    def test_reruns_byte_identical(self, workdir, scored):
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out2"),
                "--svg",
            ]
        )
        assert rc == 0
        assert tree_digest(scored) == tree_digest(workdir / "out2")

    def test_singleton_fully_directed_graph(self, workdir, fig1_schema):
        run_synth(workdir)
        pd = PdGraph(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")), ())
        save_pdgraph(pd, workdir / "full.json")
        rc = main(
            [
                "score",
                "--graph", str(workdir / "full.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "single"),
            ]
        )
        assert rc == 0
        rows = read_scores(workdir / "single" / "scores.csv")
        assert len(rows) == 1
        assert float(rows[0]["gcf"]) == 1.0

    def test_forty_binary_node_chain(self, tmp_path):
        # 2**40 joint cells: scored from counts of distinct rows, never dense
        names = tuple(f"x{i:02d}" for i in range(40))
        schema = VariableSchema(names, (2,) * 40)
        chain = tuple(zip(names, names[1:]))
        net = random_net(Dag(schema, chain), np.random.default_rng(3))
        save_bayesnet(net, tmp_path / "net.json")
        undirected = tuple(chain[i] for i in (5, 20, 33))
        pd = PdGraph(schema, tuple(e for e in chain if e not in undirected), undirected)
        save_pdgraph(pd, tmp_path / "graph.json")
        assert main(["synth", "--net", str(tmp_path / "net.json"), "--n-obs", "2000",
                     "--n-do", "200", "--seed", "1", "--out-dir", str(tmp_path / "data")]) == 0
        assert main(["score", "--graph", str(tmp_path / "graph.json"),
                     "--manifest", str(tmp_path / "data" / "manifest.json"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        rows = read_scores(tmp_path / "out" / "scores.csv")
        assert len(rows) == 8
        for r in rows:
            assert math.isfinite(float(r["gf"])) and math.isfinite(float(r["gcf"]))

    def test_subset_dash_names_the_empty_vector(self, workdir, fig1_schema):
        # enumerate and scores.csv print the empty orientation vector as "-"
        run_synth(workdir)
        pd = PdGraph(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")), ())
        save_pdgraph(pd, workdir / "full.json")
        args = [
            "score",
            "--graph", str(workdir / "full.json"),
            "--manifest", str(workdir / "data" / "manifest.json"),
            "--svg",
        ]
        assert main(args + ["--out-dir", str(workdir / "all")]) == 0
        assert main(args + ["--out-dir", str(workdir / "dash"), "--subset", "-"]) == 0
        assert tree_digest(workdir / "dash") == tree_digest(workdir / "all")

    def test_subset_filter(self, workdir):
        run_synth(workdir)
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "sub"),
                "--subset", "1",
            ]
        )
        assert rc == 0
        rows = read_scores(workdir / "sub" / "scores.csv")
        assert [r["graph_id"] for r in rows] == ["G1"]

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing_exit_2(self, workdir, capsys, smoothing):
        assert run_synth(workdir) == 0
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out"),
                "--smoothing", smoothing,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: smoothing must be")
        assert not (workdir / "out").exists()

    def test_smoothing_checked_before_manifest_is_read(self, workdir, capsys):
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "nope.json"),
                "--smoothing", "nan",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: smoothing must be")

    def test_smoothing_mass_past_the_largest_float_exit_2_before_any_file(self, workdir, capsys):
        # 1e308 over fig1's 8 cells; at the parent this wrote a
        # do_divergences.csv of nan rows, then died with a traceback
        assert run_synth(workdir, n_obs="200", n_do="50") == 0
        rc = main(["score", "--graph", str(workdir / "gpd.json"),
                   "--manifest", str(workdir / "data" / "manifest.json"),
                   "--out-dir", str(workdir / "out"), "--smoothing", "1e308"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: smoothing 1e+308 times the joint's cell count overflows a float\n"
        )
        assert not (workdir / "out").exists()

    def test_unsmoothed_score_of_more_cells_than_a_float_holds(self, tmp_path):
        # 1100 binary columns, 2**1100 cells: at the parent --smoothing 0
        # multiplied that count by 0.0 and raised OverflowError
        names = [f"x{i:04d}" for i in range(1100)]
        schema = VariableSchema(tuple(names), (2,) * len(names))
        edge = (names[0], names[1])
        save_pdgraph(PdGraph(schema, (), (edge,)), tmp_path / "g.json")
        rng = np.random.default_rng(12)
        obs = Dataset(schema, rng.integers(0, 2, (50, len(names))))
        obs.write_csv(tmp_path / "obs.csv")
        entries = []
        for col, value in itertools.product((0, 1), (0, 1)):
            rows = rng.integers(0, 2, (5, len(names)))
            rows[:, col] = value
            Dataset(schema, rows).write_csv(tmp_path / f"do{col}{value}.csv")
            entries.append({"file": f"do{col}{value}.csv", "node": names[col], "value": value})
        manifest = {"observational": "obs.csv", "interventions": entries}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        assert main(["score", "--graph", str(tmp_path / "g.json"),
                     "--manifest", str(tmp_path / "m.json"),
                     "--out-dir", str(tmp_path / "out"), "--smoothing", "0"]) == 0
        rows = read_scores(tmp_path / "out" / "scores.csv")
        assert [r["graph_id"] for r in rows] == ["G0", "G1"]
        assert rows[0]["gf"] == format_number(gf(Dag(schema, (edge,)), obs, 0))

    def test_missing_intervention_strict_exit_2(self, workdir):
        run_synth(workdir)
        manifest_path = workdir / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["interventions"] = [e for e in doc["interventions"] if e["node"] != "b" or e["value"] != 1]
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 2

    def test_missing_intervention_renormalize_succeeds(self, workdir):
        run_synth(workdir)
        manifest_path = workdir / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["interventions"] = [e for e in doc["interventions"] if e["node"] != "b" or e["value"] != 1]
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "renorm"),
                "--missing", "renormalize",
            ]
        )
        assert rc == 0
        with open(workdir / "renorm" / "do_divergences.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["node"] == "b"]
        # only b=0 is covered, and its weight is renormalized to 1
        assert len(rows) == 1
        assert rows[0]["value"] == "0" and float(rows[0]["weight"]) == 1.0
        assert rows[0]["D_node"] == rows[0]["D_a"]

    def test_all_edges_policy_matches_in_process_scores(self, workdir, fig1_pdgraph):
        assert run_synth(workdir) == 0
        manifest = workdir / "data" / "manifest.json"
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest),
                "--out-dir", str(workdir / "all"),
                "--edges", "all",
            ]
        )
        assert rc == 0
        observational, interventional = load_manifest(manifest, fig1_pdgraph.schema)
        tables = InterventionBundle(observational, interventional, smoothing=1.0).tables()
        dmap = do_divergence_map(fig1_pdgraph.schema.names, tables)
        dags = {m.graph_id: m.dag for m in enumerate_orientations(fig1_pdgraph)}
        rows = read_scores(workdir / "all" / "scores.csv")
        assert [r["graph_id"] for r in rows] == list(dags)
        for row in rows:
            dag = dags[row["graph_id"]]
            assert row["gcf"] == format_number(gcf_detail(dag, dag.edges, dmap)[0])
            assert row["gcf_abs"] == format_number(gcf_abs(dag, dmap))

    def test_parse_error_exit_1(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{broken")
        rc = main(
            [
                "score",
                "--graph", str(bad),
                "--manifest", str(bad),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("kind", ["graph", "net", "manifest", "dataset"])
    def test_non_utf8_input_exit_1(self, workdir, capsys, kind):
        assert run_synth(workdir) == 0
        graph, net = workdir / "gpd.json", workdir / "truth.json"
        manifest = workdir / "data" / "manifest.json"
        score = ["score", "--graph", str(graph), "--manifest", str(manifest),
                 "--out-dir", str(workdir / "out")]
        path, argv = {
            "graph": (graph, ["enumerate", "--graph", str(graph)]),
            "net": (net, ["synth", "--net", str(net), "--out-dir", str(workdir / "d2")]),
            "manifest": (manifest, score),
            "dataset": (workdir / "data" / "obs.csv", score),
        }[kind]
        raw = path.read_bytes()
        path.write_bytes(raw + b"\xff\n")
        capsys.readouterr()
        assert main(argv) == 1
        line = raw.count(b"\n") + 1
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: not UTF-8 text: invalid start byte at byte {len(raw)}\n"
        )

    @pytest.mark.parametrize("value", [1.7, True, "0"])
    def test_non_integer_intervention_value_exit_1(self, workdir, capsys, value):
        run_synth(workdir)
        manifest_path = workdir / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        entry = next(e for e in doc["interventions"] if e["file"] == "do_z_0.csv")
        entry["value"] = value  # int() would read 1.7 and true as the real (z, 1)
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 1
        assert "bad intervention entry" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("observational", 5),
            ("interventions", 5),
            ("interventions", [5]),
            ("file", 5),
            ("node", ["z"]),
            ("observational", "obs\0.csv"),  # no file name holds a NUL byte
            ("file", "do\0.csv"),
        ],
    )
    def test_mistyped_manifest_field_exit_1(self, workdir, capsys, field, value):
        run_synth(workdir, n_obs="200", n_do="100")
        manifest_path = workdir / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        if field in doc:
            doc[field] = value
        else:
            doc["interventions"][0][field] = value
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_duplicate_intervention_entry_exit_2(self, workdir, capsys):
        run_synth(workdir, n_obs="200", n_do="100")
        manifest_path = workdir / "data" / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["interventions"].append(doc["interventions"][0])
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: duplicate intervention entry for (a, 0)\n"

    @pytest.mark.parametrize("header_only", [True, False], ids=["header-only", "with-rows"])
    def test_intervention_value_outside_the_node_states_exit_2(self, workdir, capsys, header_only):
        run_synth(workdir, n_obs="200", n_do="100")
        data = workdir / "data"
        if header_only:
            (data / "do_a_0.csv").write_text((data / "do_a_0.csv").read_text().split("\n")[0] + "\n")
        manifest_path = data / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        next(e for e in doc["interventions"] if e["file"] == "do_a_0.csv")["value"] = 5
        manifest_path.write_text(json.dumps(doc))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(manifest_path),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: state 5 out of range for 'a'\n"

    def test_variable_name_needing_quotes(self, tmp_path):
        for i, name in enumerate(["a,b", "a\rb"]):  # csv quotes both; a bare CR only with CRLF
            root = tmp_path / str(i)
            root.mkdir()
            schema = VariableSchema((name, "c"), (2, 2))
            truth = Dag(schema, ((name, "c"),))
            save_bayesnet(random_net(truth, np.random.default_rng(3)), root / "truth.json")
            save_pdgraph(PdGraph(schema, (), ((name, "c"),)), root / "g.json")
            assert run_synth(root, n_obs="2000", n_do="1000") == 0
            rc = main(
                [
                    "score",
                    "--graph", str(root / "g.json"),
                    "--manifest", str(root / "data" / "manifest.json"),
                    "--out-dir", str(root / "out"),
                ]
            )
            assert rc == 0
            rows = read_scores(root / "out" / "scores.csv")
            assert [(r["graph_id"], r["edges"]) for r in rows] == [
                ("G0", f"{name}->c"), ("G1", f"c->{name}"),
            ]
            assert all(None not in r for r in rows)  # no row has more fields than the header
            dd = read_scores(root / "out" / "do_divergences.csv")
            assert [(r["node"], r["value"]) for r in dd] == [
                (name, "0"), (name, "1"), ("c", "0"), ("c", "1"),
            ]
            for r in dd:
                assert None not in r
                assert float(r["weight"]) > 0

    def test_score_does_not_import_bayesnet(self, workdir):
        # only exact tables from a net need bayesnet
        assert run_synth(workdir, n_obs="200", n_do="50") == 0
        argv = ["score", "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out"), "--svg"]
        code = (
            "import sys\n"
            "from gcfit.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('gcfit.bayesnet' in sys.modules, 'gcfit.scoring' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True\n"
        assert len(read_scores(workdir / "out" / "scores.csv")) == 2

    @staticmethod
    def traced_peak(tmp_path, graph, manifest, k):
        """The traced peak of a warm `gcf score` of the 2**k candidates of
        ``graph``."""
        argv = ["score", "--graph", str(graph), "--manifest", str(manifest),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(tmp_path / "out" / "scores.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 2**k + 1
        return peak

    @pytest.mark.parametrize("k", [12, 14])
    def test_flat_memory(self, tmp_path, k):
        # scores.csv is written as the walk scores each DAG, so the traced
        # peak of a warm run does not grow with the 2**k DAGs
        assert self.traced_peak(tmp_path, *path_data(tmp_path, k), k) < 2**21

    def test_flat_memory_on_a_matching(self, tmp_path):
        # the edges out of every b node render as one block, which takes
        # 2**14 values; its memo is bounded, so the peak stays flat
        assert self.traced_peak(tmp_path, *matching_data(tmp_path, 14), 14) < 2**21

    # cyclic, short, not bits, and "-", the empty vector, printed as enumerate prints it
    @pytest.mark.parametrize("vector", ["010", "01", "0x0", "-"])
    def test_bad_subset_vector_exit_2_before_any_file(self, workdir, fig1_schema, capsys, vector):
        assert run_synth(workdir, n_obs="200", n_do="50") == 0
        triangle = workdir / "triangle.json"  # "010" orients a->b, z->a, b->z
        save_pdgraph(PdGraph(fig1_schema, (), (("a", "b"), ("a", "z"), ("b", "z"))), triangle)
        rc = main(["score", "--graph", str(triangle),
                   "--manifest", str(workdir / "data" / "manifest.json"),
                   "--out-dir", str(workdir / "out"), "--subset", "000", vector])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown orientation vectors: [{vector!r}]\n"
        assert not (workdir / "out").exists()

    def test_cap_exit_3_before_the_manifest_is_read(self, workdir, capsys):
        rc = main(["score", "--graph", str(workdir / "gpd.json"),
                   "--manifest", str(workdir / "nope.json"), "--max-undirected", "0"])
        assert rc == 3
        assert "nope.json" not in capsys.readouterr().err

    def test_corrupt_dataset_exit_1(self, workdir):
        run_synth(workdir)
        obs = workdir / "data" / "obs.csv"
        obs.write_text(obs.read_text().replace("a,b,z", "a,b,z") + "9,9,9\n")
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 1

    def test_bare_cr_in_data_exit_1(self, workdir, capsys):
        # old Mac line endings: csv.reader cannot split the first line
        run_synth(workdir)
        obs = workdir / "data" / "obs.csv"
        obs.write_bytes(obs.read_bytes().replace(b"\n", b"\r", 3))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "data" / "manifest.json"),
                "--out-dir", str(workdir / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {obs}:1: malformed CSV: new-line character")
        assert "Traceback" not in err

    def test_crlf_copy_scores_identically(self, workdir, scored):
        # CRLF files miss the canonical layout and go through the strict parser
        shutil.copytree(workdir / "data", workdir / "crlf")
        for path in (workdir / "crlf").glob("*.csv"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        rc = main(
            [
                "score",
                "--graph", str(workdir / "gpd.json"),
                "--manifest", str(workdir / "crlf" / "manifest.json"),
                "--out-dir", str(workdir / "out_crlf"),
                "--svg",
            ]
        )
        assert rc == 0
        assert tree_digest(workdir / "out_crlf") == tree_digest(scored)

    def test_score_independent_of_locale(self, tmp_path):
        schema = VariableSchema(("é", "名前"), (2, 3))
        truth = Dag(schema, (("é", "名前"),))
        save_bayesnet(random_net(truth, np.random.default_rng(4)), tmp_path / "truth.json")
        save_pdgraph(PdGraph(schema, (), (("é", "名前"),)), tmp_path / "g.json")
        assert run_synth(tmp_path, n_obs="500", n_do="200") == 0
        assert (tmp_path / "data" / "obs.csv").read_bytes().startswith("é,名前\n".encode())
        score = ["score", "--graph", str(tmp_path / "g.json"), "--svg", "--manifest"]
        assert main([*score, str(tmp_path / "data" / "manifest.json"), "--out-dir", str(tmp_path / "out")]) == 0
        # the same data under ASCII file names, scored in an ASCII locale with
        # Python's UTF-8 mode and locale coercion off
        doc = json.loads((tmp_path / "data" / "manifest.json").read_text())
        os.makedirs(tmp_path / "ascii")
        for i, entry in enumerate([doc, *doc["interventions"]]):
            key = "observational" if entry is doc else "file"
            shutil.copy(tmp_path / "data" / entry[key], tmp_path / "ascii" / f"{i}.csv")
            entry[key] = f"{i}.csv"
        (tmp_path / "ascii" / "manifest.json").write_text(json.dumps(doc))
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "gcfit.cli", *score, str(tmp_path / "ascii" / "manifest.json"),
             "--out-dir", str(tmp_path / "out_c")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert tree_digest(tmp_path / "out_c") == tree_digest(tmp_path / "out")


def expected_scores(pd, obs, inter, smoothing, edges_policy, vectors):
    """Per DAG of ``enumerate_orientations`` with a vector in ``vectors``: its
    scores.csv row, and its scores from the one-DAG functions, floats as hex."""
    tables = InterventionBundle(obs, inter, smoothing=smoothing).tables()
    dmap = do_divergence_map(sorted({n for e in pd.directed + pd.undirected for n in e}), tables)
    rows, bits = [], []
    for m in enumerate_orientations(pd):
        if m.orientation not in vectors:
            continue
        scored = m.dag.edges if edges_policy == "all" else pd.undirected
        value, _, flags = gcf_detail(m.dag, scored, dmap)
        gf_value, abs_value = gf(m.dag, obs, smoothing), gcf_abs(m.dag, dmap)
        rows.append([
            m.graph_id, m.orientation or "-", ";".join(f"{a}->{b}" for a, b in m.dag.edges),
            format_number(gf_value), format_number(value), format_number(abs_value), ";".join(flags),
        ])
        bits.append((m.orientation, gf_value.hex(), value.hex(), abs_value.hex(), flags))
    return rows, bits


def check_streamed_scores(root, pd, obs, inter, smoothing, edges_policy, subset):
    """`gcf score` streams the rows the one-DAG functions give, and the
    stream it writes them from holds their floats bitwise.  ``subset`` is
    a list of vectors for --subset, or None."""
    save_pdgraph(pd, os.path.join(root, "g.json"))
    obs.write_csv(os.path.join(root, "obs.csv"))
    entries = []
    for i, ((node, value), data) in enumerate(inter.items()):
        data.write_csv(os.path.join(root, f"do{i}.csv"))
        entries.append({"file": f"do{i}.csv", "node": node, "value": value})
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump({"observational": "obs.csv", "interventions": entries}, fh)
    argv = ["score", "--graph", os.path.join(root, "g.json"),
            "--manifest", os.path.join(root, "manifest.json"),
            "--out-dir", os.path.join(root, "out"),
            "--smoothing", str(smoothing), "--edges", edges_policy]
    if subset is not None:
        argv += ["--subset", *(v or "-" for v in subset)]
    assert main(argv) == 0

    vectors = set(iter_orientations(pd) if subset is None else subset)
    rows, bits = expected_scores(pd, obs, inter, smoothing, edges_policy, vectors)
    with open(os.path.join(root, "out", "scores.csv"), newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == rows
    walk = iter_orientations(pd) if subset is None else sorted(subset)
    _, stream = score_orientations(
        EdgeRanks(pd), walk, InterventionBundle(obs, inter, smoothing=smoothing), edges_policy
    )
    streamed = [(v, g.hex(), c.hex(), a.hex(), flags) for v, _, g, c, a, flags in stream]
    assert streamed == bits
    return streamed


@st.composite
def scoring_problems(draw):
    """A PD graph on 2..5 variables (names not in schema order), some of
    each kind of edge, sparse data on it, and the scoring options."""
    n = draw(st.integers(2, 5))
    names = ("n", "b", "z", "a", "m")[:n]
    schema = VariableSchema(names, tuple(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))))
    order = draw(st.permutations(range(n)))
    directed, undirected = [], []
    for i, j in itertools.combinations(range(n), 2):
        kind = draw(st.sampled_from(["none", "directed", "undirected"]))
        edge = (names[i], names[j]) if order.index(i) < order.index(j) else (names[j], names[i])
        {"none": [], "directed": directed, "undirected": undirected}[kind].append(edge)
    pd = PdGraph(schema, tuple(directed), tuple(undirected))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cards = schema.cardinalities
    obs = Dataset(schema, rng.integers(0, cards, (draw(st.integers(1, 40)), n)))
    inter = {}
    for col, node in enumerate(names):
        for value in range(cards[col]):
            rows = rng.integers(0, cards, (draw(st.integers(1, 6)), n))
            rows[:, col] = value
            inter[node, value] = Dataset(schema, rows)

    smoothing = draw(st.sampled_from([0.0, 1.0]))
    edges_policy = draw(st.sampled_from(["pd", "all"]))
    subset = None
    if draw(st.booleans()):
        every = list(iter_orientations(pd))
        subset = draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    return pd, obs, inter, smoothing, edges_policy, subset


class TestStreamedScores:
    @settings(max_examples=60, deadline=None)
    @given(scoring_problems())
    def test_rows_equal_the_one_dag_functions(self, problem):
        with tempfile.TemporaryDirectory() as root:  # no tmp_path inside @given
            check_streamed_scores(root, *problem)

    @pytest.mark.parametrize("edges_policy", ["pd", "all"])
    def test_infinite_do_divergences(self, tmp_path, edges_policy):
        # at smoothing 0 every do-set but b's misses the one rest its
        # conditioned rows reach: D(a) = D(c) = D(d) = inf, D(b) = 0
        schema = VariableSchema(("a", "b", "c", "d"), (2,) * 4)
        obs = Dataset(schema, [[0, 0, 0, 0], [1, 1, 1, 1]])
        inter = {}
        for col, node in enumerate(schema.names):
            for value in (0, 1):
                row = [value] * 4 if node == "b" else [1 - value] * 4
                row[col] = value
                inter[node, value] = Dataset(schema, [row])
        pd = PdGraph(schema, (), (("a", "b"), ("b", "c"), ("c", "d")))
        streamed = check_streamed_scores(str(tmp_path), pd, obs, inter, 0.0, edges_policy, None)
        # G000 is a->b->c->d: -inf and +inf distances, and c->d with both D infinite
        assert streamed[0][0] == "000"
        assert streamed[0][2:] == (
            "0x0.0p+0", "nan", (FLAG_UNDEFINED_DISTANCE, FLAG_NO_CAUSAL_SIGNAL)
        )
        rows = read_scores(tmp_path / "out" / "scores.csv")
        assert rows[0]["gcf_abs"] == "nan"


# what csv.writer quotes (",", '"', CR, LF), a space and non-ASCII text; no
# ";" or ">", as EdgeRanks refuses a name holding ";" or "->"
NAME_TEXT = st.text(st.sampled_from(list(',"\r\n ab-é名\u2028')), min_size=1, max_size=4)


@st.composite
def scored_graphs(draw):
    """A PD graph on 1..4 variables named from NAME_TEXT, with some of each
    kind of edge, and a score tuple per orientation, as
    `score_orientations` streams them, of drawn numbers and flags."""
    names = draw(st.lists(NAME_TEXT, min_size=1, max_size=4, unique=True))
    directed, undirected = [], []
    for edge in itertools.combinations(names, 2):  # schema order, so acyclic
        kind = draw(st.sampled_from([[], directed, undirected]))
        kind.append(edge)
    pd = PdGraph(VariableSchema(tuple(names), (2,) * len(names)), directed, undirected)
    number = st.floats(allow_nan=True, allow_infinity=True)
    flags = st.lists(st.sampled_from([FLAG_UNDEFINED_DISTANCE, FLAG_NO_CAUSAL_SIGNAL]), max_size=2)
    scores = [(vec, text, draw(number), draw(number), draw(number), tuple(draw(flags)))
              for vec, _, text in EdgeRanks(pd).lists(iter_orientations(pd))]
    return pd, scores


class TestScoreLines:
    @settings(max_examples=300, deadline=None)
    @given(scored_graphs())
    def test_each_line_is_csv_lines_of_its_fields(self, problem):
        pd, scores = problem
        points = []
        rows = [["graph_id", "orientation_vector", "edges", "gf", "gcf", "gcf_abs", "flags"]]
        rows += [[f"G{vec}", vec or "-", text, format_number(gf), format_number(gcf),
                  format_number(gcf_abs), ";".join(flags)]
                 for vec, text, gf, gcf, gcf_abs, flags in scores]
        assert list(score_lines(pd, scores, points)) == [csv_lines([row]) for row in rows]
        assert points == [(gf, gcf, f"G{vec}") for vec, _, gf, gcf, _, _ in scores]
