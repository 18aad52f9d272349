import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcfit
import gcfit.errors
import gcfit.graphs
import gcfit.tables

PUBLIC_NAMES = [
    "BayesNet", "Cpt", "Dag", "DagSet", "Dataset", "EmptyDataset", "EnumerationLimit",
    "GcfitError", "InterventionBundle", "InterventionTables", "InvalidState",
    "MissingIntervention", "ParseError", "PdGraph", "ProbTable", "SchemaMismatch", "ScoreRecord",
    "TaggedDag", "UnknownEdge", "UnknownVariable", "VariableSchema", "ZeroProbabilityEvidence",
    "bayesnet_from_json", "bayesnet_to_json", "do_divergence", "do_divergence_detail",
    "do_divergence_map", "do_intervene", "dodiv_distance", "edge_sign", "empirical_from_dataset",
    "enumerate_orientations", "euclidean_distance_sq", "fit_cpts", "gcf", "gcf_abs",
    "gcf_detail", "gf", "gf_from_table", "is_acyclic", "joint", "kl_divergence",
    "load_bayesnet", "load_pdgraph", "pdgraph_from_json", "pdgraph_to_json",
    "pearson_divergence", "sample", "sample_do", "save_bayesnet", "save_pdgraph", "score_set",
]


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert gcfit.__all__ == PUBLIC_NAMES

    def test_each_name_is_its_defining_modules_object(self):
        for name in gcfit.__all__:
            value = getattr(gcfit, name)
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_dir_and_star_import_cover_all(self):
        assert set(gcfit.__all__) <= set(dir(gcfit))
        namespace = {}
        exec("from gcfit import *", namespace)
        assert set(gcfit.__all__) <= set(namespace)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gcfit.no_such_name
        assert not hasattr(gcfit, "tables_")

    def test_variable_schema_lives_beside_its_json_format(self):
        assert gcfit.VariableSchema is gcfit.graphs.VariableSchema
        assert gcfit.tables.VariableSchema is gcfit.graphs.VariableSchema


def graph_file(tmp_path):
    """A PD graph file on a, b, c with two undirected edges."""
    graph = tmp_path / "g.json"
    variables = [{"name": n, "cardinality": 2} for n in "abc"]
    graph.write_text(json.dumps({"variables": variables, "undirected": [["a", "b"], ["b", "c"]]}))
    return str(graph)


def run_child(*lines):
    """Run ``lines`` in a fresh interpreter on this test run's path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize(
    "code",
    [
        "import gcfit",
        "import gcfit.cli",
        "from gcfit.cli import main; main(['--version'])",
        "from gcfit.cli import main; main(['enumerate', '--graph', GRAPH])",
    ],
)
def test_numpy_free_paths(tmp_path, code):
    """The numpy-free paths import neither numpy nor dataclasses and
    inspect, which cost several milliseconds of start-up each."""
    proc = run_child(
        "import sys",
        "try:",
        "    " + code.replace("GRAPH", repr(graph_file(tmp_path))),
        "finally:",
        "    print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


ARGUMENT_LAYER = ["gcfit", "gcfit.cli", "gcfit.errors"]


@pytest.mark.parametrize(
    "argv, status, loaded",
    [
        (["--version"], 0, ARGUMENT_LAYER),
        (["--help"], 0, ARGUMENT_LAYER),
        (["score", "--help"], 0, ARGUMENT_LAYER),
        ([], 2, ARGUMENT_LAYER),  # the usage error
        (["enumerate", "--graph", "GRAPH"], 0, ARGUMENT_LAYER + ["gcfit.graphs"]),
    ],
    ids=["version", "help", "score-help", "usage-error", "enumerate"],
)
def test_each_command_loads_only_its_layers(tmp_path, argv, status, loaded):
    """A child compiles every gcfit module it imports, so parsing arguments
    loads no library layer, and enumerate only graphs: no tables, scoring,
    bayesnet or numpy."""
    argv = [graph_file(tmp_path) if arg == "GRAPH" else arg for arg in argv]
    proc = run_child(
        "import sys",
        "try:",
        f"    from gcfit.cli import main; main({argv!r})",
        "finally:",
        "    print(sorted(m for m in sys.modules if m.partition('.')[0] in ('gcfit', 'numpy')))",
    )
    assert proc.returncode == status, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_enumeration_cap_has_one_definition():
    """The parser reads the cap from errors, beside the error it bounds,
    and graphs uses that same object."""
    assert gcfit.graphs.DEFAULT_ENUMERATION_CAP is gcfit.errors.DEFAULT_ENUMERATION_CAP
    sources = sorted(Path(gcfit.__file__).resolve().parent.glob("*.py"))
    defining = [path.name for path in sources
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "DEFAULT_ENUMERATION_CAP" for t in node.targets)]
    assert defining == ["errors.py"]


def test_no_module_imports_dataclasses():
    sources = sorted(Path(gcfit.__file__).resolve().parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_readme_library_example_runs(capsys):
    """README's first python block runs as it stands and prints one line
    per candidate for each of its two table sources."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
