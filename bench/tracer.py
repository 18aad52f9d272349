"""Traced run of one benchmark step, from outside the program.

    python bench/tracer.py SPANS_JSON cli ARGS...          # gcfit.cli.main(ARGS)
    python bench/tracer.py SPANS_JSON exact NET GRAPH OUT  # the exact-wide library step

Wraps the public functions of each gcfit layer in this process only,
replacing every module-level reference to them (so calls between layers,
and the module-internal calls such as ``score_set`` -> ``gf``, go through
the wrapper) and the methods on their classes.  Nothing under ``src/`` is
changed.  Each call records a span (name, start, end, parent); hot
predicates (``is_acyclic``) are only counted.  Spans stay in memory and
are written, with a summary, when the step ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import gcfit.cli
from gcfit import bayesnet, divergences, graphs, scoring, svg, tables

LAYERS = ("cli", "tables", "bayesnet", "graphs", "scoring", "divergences", "svg")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.families: set = set()

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, args, result)``
        records counts outside the span."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters recorded at the same boundaries as the spans ----------

    def _bytes_read(self, args, result):
        self.counts["csv_bytes_read"] += os.path.getsize(args[1])  # (cls, path, schema)

    def _bytes_written(self, args, result):
        self.counts["csv_bytes_written"] += os.path.getsize(args[1])  # (self, path)

    def _rows(self, args, result):
        self.counts["rows_sampled"] += len(result)

    def _fit(self, args, result):
        self.counts["families_fitted"] += len(args[0].schema.names)

    def _joint_cells(self, args, result):
        schema = args[0].schema
        self.counts["exact_cells"] += schema.n_cells * len(schema.names)

    def _do_cells(self, args, result):
        schema = args[0].schema
        self.counts["exact_cells"] += schema.n_cells * (len(schema.names) - 1)

    def _kl_cells(self, args, result):
        self.counts["kl_cells"] += args[0].schema.n_cells

    def _dags_kept(self, args, result):
        self.counts["dags_kept"] += len(result)

    def _gf_families(self, args, result):
        dag = args[0]
        for name in dag.schema.names:
            self.counts["families_scored"] += 1
            self.families.add((name, dag.parents(name)))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        functions = [
            (gcfit.cli, "main", "cli.main", None),
            (gcfit.cli, "cmd_enumerate", "cli.cmd_enumerate", None),
            (gcfit.cli, "cmd_synth", "cli.cmd_synth", None),
            (gcfit.cli, "cmd_score", "cli.cmd_score", None),
            (tables, "empirical_from_dataset", "tables.empirical", None),
            (bayesnet, "load_bayesnet", "bayesnet.load", None),
            (bayesnet, "sample", "bayesnet.sample", Tracer._rows),
            (bayesnet, "sample_do", "bayesnet.sample", Tracer._rows),
            (bayesnet, "fit_cpts", "bayesnet.fit_cpts", Tracer._fit),
            (bayesnet, "joint", "bayesnet.joint", Tracer._joint_cells),
            (bayesnet, "do_intervene", "bayesnet.do_intervene", Tracer._do_cells),
            (graphs, "load_pdgraph", "graphs.load", None),
            (graphs, "enumerate_orientations", "graphs.enumerate", Tracer._dags_kept),
            (scoring, "score_set", "scoring.score_set", None),
            (scoring, "do_divergence_detail", "scoring.dodiv", None),
            (scoring, "gf", "scoring.gf", Tracer._gf_families),
            (scoring, "gf_from_table", "scoring.gf", Tracer._gf_families),
            (scoring, "gcf_detail", "scoring.gcf", None),
            (scoring, "gcf_abs", "scoring.gcf", None),
            (divergences, "kl_divergence", "divergences.kl", Tracer._kl_cells),
            (svg, "scatter_svg", "svg.scatter", None),
        ]
        for module, attr, name, after in functions:
            original = getattr(module, attr)
            _replace(original, self.span(name, original, after))
        _replace(graphs.is_acyclic, self.counter("acyclicity_checks", graphs.is_acyclic))

        methods = [
            (tables.Dataset, "read_csv", "tables.read_csv", Tracer._bytes_read),
            (tables.Dataset, "write_csv", "tables.write_csv", Tracer._bytes_written),
            (scoring.InterventionBundle, "tables", "scoring.tables", None),
            (scoring.InterventionTables, "from_net", "scoring.from_net", None),
        ]
        for cls, attr, name, after in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__, after)))
            else:
                setattr(cls, attr, self.span(name, raw, after))

    # -- summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive time and calls per span name, self time per layer and per
        name, the time covered by top-level spans, and the counters."""
        inclusive = defaultdict(float)
        calls = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += (end - start) / 1e9
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        self_by_name = defaultdict(float)
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_ns):
            self_by_name[name] += (end - start - children) / 1e9
            if parent < 0:
                covered += (end - start) / 1e9
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self_by_name.items():
            self_by_layer[name.split(".", 1)[0]] += seconds
        return {
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "self_s": dict(self_by_name),
            "layer_self_s": self_by_layer,
            "covered_s": covered,
            "counts": dict(self.counts),
            "families": sorted(f"{n}|{','.join(p)}" for n, p in self.families),
            "spans": len(self.spans),
        }


def _replace(original, wrapper) -> None:
    """Point every gcfit module-level name bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "gcfit" or name.startswith("gcfit."):
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper


def main() -> int:
    spans_path, kind, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    if kind == "exact":
        import exact

        tracer.install()
        net, graph = exact.load(rest[0], rest[1])
        exact.write_records(exact.score(net, graph), rest[2])
        status = 0
    else:
        tracer.install()
        status = gcfit.cli.main(rest)
    with open(spans_path, "w") as fh:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
