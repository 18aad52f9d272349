import json
import os
import subprocess
import sys

import pytest

import gcfit
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
    graph = tmp_path / "g.json"
    variables = [{"name": n, "cardinality": 2} for n in "abc"]
    graph.write_text(json.dumps({"variables": variables, "undirected": [["a", "b"], ["b", "c"]]}))
    script = "\n".join([
        "import sys",
        "try:",
        "    " + code.replace("GRAPH", repr(str(graph))),
        "finally:",
        "    print('numpy' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
