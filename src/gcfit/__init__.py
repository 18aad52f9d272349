"""gcfit: goodness-of-fit and goodness-of-causal-fit scoring for
candidate DAGs against observational and interventional data.

Public names resolve on first use (PEP 562), so importing the package,
or a numpy-free module such as ``graphs``, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "bayesnet": "BayesNet Cpt bayesnet_from_json bayesnet_to_json do_intervene fit_cpts joint "
    "load_bayesnet sample sample_do save_bayesnet",
    "divergences": "euclidean_distance_sq kl_divergence pearson_divergence",
    "errors": "EmptyDataset EnumerationLimit GcfitError InvalidState MissingIntervention "
    "ParseError SchemaMismatch UnknownEdge UnknownVariable ZeroProbabilityEvidence",
    "graphs": "Dag DagSet PdGraph TaggedDag VariableSchema enumerate_orientations is_acyclic "
    "load_pdgraph pdgraph_from_json pdgraph_to_json save_pdgraph",
    "scoring": "InterventionBundle InterventionTables ScoreRecord do_divergence "
    "do_divergence_detail do_divergence_map dodiv_distance edge_sign gcf gcf_abs gcf_detail "
    "gf gf_from_table score_set",
    "tables": "Dataset ProbTable empirical_from_dataset",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
