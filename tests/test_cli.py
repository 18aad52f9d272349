import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gcfit import (
    Dag,
    InterventionBundle,
    PdGraph,
    VariableSchema,
    do_divergence_map,
    enumerate_orientations,
    gcf_abs,
    gcf_detail,
    save_bayesnet,
    save_pdgraph,
)
from gcfit.cli import format_number, load_manifest, main
from gcfit.svg import scatter_svg
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

    @pytest.mark.parametrize("name", [f"a{os.sep}b", "a\0b"], ids=["separator", "nul"])
    def test_name_that_cannot_be_a_file_name_exit_2(self, tmp_path, capsys, name):
        # do_<node>_<value>.csv must name a file in --out-dir
        schema = VariableSchema((name, "c"), (2, 2))
        truth = Dag(schema, ((name, "c"),))
        save_bayesnet(random_net(truth, np.random.default_rng(3)), tmp_path / "truth.json")
        assert run_synth(tmp_path, n_obs="20", n_do="10") == 2
        assert capsys.readouterr().err.startswith(f"error: variable name {name!r}")
        assert not (tmp_path / "data").exists()

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
