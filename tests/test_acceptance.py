"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline)."""

import csv
import hashlib
import itertools
import math
import os
import time

import numpy as np
import pytest

import gcfit as g
from conftest import (
    oracle_euclidean,
    oracle_kl,
    oracle_pearson,
    random_net,
    random_table,
)
from gcfit.cli import main


def report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def fig1_setup():
    schema = g.VariableSchema(("a", "b", "z"), (2, 2, 2))
    truth = g.Dag(schema, (("a", "b"), ("a", "z"), ("b", "z")))
    pd = g.PdGraph(schema, (("a", "z"), ("b", "z")), (("a", "b"),))
    net = random_net(truth, np.random.default_rng(1))
    return schema, truth, pd, net


def fig2_setup(seed=5):
    schema = g.VariableSchema(("x1", "x2", "x3", "x4", "x5"), (2,) * 5)
    shared = (("x2", "x4"), ("x3", "x4"), ("x4", "x5"))
    pd = g.PdGraph(schema, shared, (("x1", "x2"), ("x1", "x3")))
    truth = g.Dag(schema, (("x2", "x1"), ("x1", "x3")) + shared)
    net = random_net(truth, np.random.default_rng(seed))
    return schema, truth, pd, net, shared


def test_criterion_1_example1_replication(tmp_path):
    """Synthetic truth a->b, a->z, b->z; empirical pipeline recovers the
    paper-example sign assignments in under 10 seconds."""
    start = time.monotonic()
    _, _, pd, net = fig1_setup()
    g.save_bayesnet(net, tmp_path / "truth.json")
    g.save_pdgraph(pd, tmp_path / "gpd.json")
    assert main([
        "synth", "--net", str(tmp_path / "truth.json"),
        "--n-obs", "50000", "--n-do", "20000", "--seed", "11",
        "--out-dir", str(tmp_path / "data"),
    ]) == 0
    assert main([
        "score", "--graph", str(tmp_path / "gpd.json"),
        "--manifest", str(tmp_path / "data" / "manifest.json"),
        "--out-dir", str(tmp_path / "out"), "--svg",
    ]) == 0
    with open(tmp_path / "out" / "scores.csv") as fh:
        rows = {r["orientation_vector"]: r for r in csv.DictReader(fh)}
    with open(tmp_path / "out" / "do_divergences.csv") as fh:
        dd = {r["node"]: float(r["D_node"]) for r in csv.DictReader(fh)}
    assert dd["a"] < dd["b"]
    assert float(rows["0"]["gcf"]) == 1.0   # G_2: a->b, the truth
    assert float(rows["1"]["gcf"]) == -1.0  # G_1: b->a
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"D_a={dd['a']:.3g} < D_b={dd['b']:.3g}, GCF=(+1,-1), {elapsed:.2f}s")


def test_criterion_2_example1_exact_distributions():
    """With exact tables from the truth net, the root's do-divergence is
    zero and the GCF assignments are exactly +/-1."""
    _, _, pd, net = fig1_setup()
    tables = g.InterventionTables.from_net(net)
    d_a = g.do_divergence("a", tables)
    assert d_a == pytest.approx(0.0, abs=1e-12)
    records = g.score_set(g.enumerate_orientations(pd), tables)
    by_orientation = {r.orientation: r for r in records}
    assert by_orientation["0"].gcf == 1.0
    assert by_orientation["1"].gcf == -1.0
    report(2, f"D_a={d_a:.2e} <= 1e-12, GCF exactly (+1,-1)")


def test_criterion_3_example2_exact_distributions():
    """Five-node example with exact tables: truth +1, full reversal -1,
    and the mixed orientation matches the hand-assembled ratio."""
    schema, truth, pd, net, shared = fig2_setup(seed=5)
    tables = g.InterventionTables.from_net(net)
    dmap = g.do_divergence_map(("x1", "x2", "x3"), tables)
    d1, d2, d3 = dmap["x1"], dmap["x2"], dmap["x3"]
    assert d2 <= d1 <= d3  # the ordering the example assumes; holds for this net
    d21 = abs(d2 - d1)
    d13 = abs(d1 - d3)
    scored = (("x1", "x2"), ("x1", "x3"))
    g1 = g.Dag(schema, (("x1", "x2"), ("x1", "x3")) + shared)
    g3 = g.Dag(schema, (("x1", "x2"), ("x3", "x1")) + shared)
    assert g.gcf(truth, scored, dmap) == 1.0
    assert g.gcf(g3, scored, dmap) == -1.0
    expected_g1 = (-d21 + d13) / (d21 + d13)
    assert g.gcf(g1, scored, dmap) == pytest.approx(expected_g1, abs=1e-12)
    report(3, f"GCF(truth)=+1, GCF(reversed)=-1, GCF(G1)={expected_g1:.6f} matched")


def test_criterion_4_gf_observational_equivalence():
    """The three Markov-equivalent orientations get identical GF on any
    shared dataset, with or without smoothing."""
    schema, truth, pd, net, shared = fig2_setup(seed=5)
    trio = [
        m.dag
        for m in g.enumerate_orientations(pd)
        if not (("x2", "x1") in m.dag.edges and ("x3", "x1") in m.dag.edges)
    ]
    assert len(trio) == 3
    spreads = []
    for seed in (1, 2, 3):
        data = g.sample(net, 20_000, seed)
        for smoothing in (0, 1.0):
            values = [g.gf(dag, data, smoothing=smoothing) for dag in trio]
            spread = max(values) - min(values)
            assert spread < 1e-9
            spreads.append(spread)
    report(4, f"max GF spread over 3 seeds x smoothing (0, 1) = {max(spreads):.2e} < 1e-9")


def test_criterion_5_divergence_oracles():
    """Brute-force agreement on 100 random pairs and the small-perturbation
    KL~chi-squared bound."""
    rng = np.random.default_rng(55)
    schema = g.VariableSchema(("a", "b", "c"), (3, 2, 3))
    for _ in range(100):
        po = random_table(schema, rng)
        pe = random_table(schema, rng)
        assert g.kl_divergence(po, pe) == pytest.approx(oracle_kl(po, pe), abs=1e-12)
        assert g.pearson_divergence(po, pe) == pytest.approx(
            oracle_pearson(po, pe), abs=1e-12
        )
        assert g.euclidean_distance_sq(po, pe) == pytest.approx(
            oracle_euclidean(po, pe), abs=1e-12
        )
    for delta in (1e-2, 1e-3):
        for _ in range(100):
            pe = random_table(schema, rng, floor=0.2)
            u = rng.uniform(-1.0, 1.0, schema.n_cells)
            po = g.ProbTable.from_weights(schema, pe.flat() * (1 + delta * u))
            gap = abs(g.kl_divergence(po, pe) - g.pearson_divergence(po, pe))
            assert gap <= 10 * delta**2
    report(5, "100 oracle pairs at 1e-12; KL-vs-chi2 bound at delta=1e-2, 1e-3")


def test_criterion_6_enumeration_counts():
    """Orientation counts match brute force for the running examples."""
    _, _, pd1, _ = fig1_setup()
    _, _, pd2, _, _ = fig2_setup()
    tri_schema = g.VariableSchema(("a", "b", "c"), (2, 2, 2))
    tri = g.PdGraph(tri_schema, (), (("a", "b"), ("a", "c"), ("b", "c")))
    for graph, expected in ((pd1, 2), (pd2, 4), (tri, 6)):
        got = len(g.enumerate_orientations(graph))
        brute = 0
        for bits in itertools.product((0, 1), repeat=len(graph.undirected)):
            edges = graph.directed + tuple(
                (a, b) if bit == 0 else (b, a)
                for bit, (a, b) in zip(bits, graph.undirected)
            )
            brute += g.is_acyclic(graph.schema, edges)
        assert got == expected == brute
    report(6, "counts 2 / 4 / 6 match brute force")


def test_criterion_7_property_suite():
    """1000 randomized cases per property, zero failures."""
    rng = np.random.default_rng(77)
    schema = g.VariableSchema(("a", "b", "c", "d"), (2, 2, 2, 2))
    pairs = list(itertools.combinations(schema.names, 2))

    def random_dag():
        order = list(schema.names)
        rng.shuffle(order)
        rank = {n: i for i, n in enumerate(order)}
        chosen = rng.random(len(pairs)) < 0.6
        edges = tuple(
            (a, b) if rank[a] < rank[b] else (b, a)
            for keep, (a, b) in zip(chosen, pairs)
            if keep
        )
        return g.Dag(schema, edges)

    n_cases = 1000
    for _ in range(n_cases):
        dag = random_dag()
        dmap = {n: float(rng.uniform(0, 1)) for n in schema.names}
        scored = tuple(tuple(sorted(e)) for e in dag.edges)
        value, _, flags = g.gcf_detail(dag, scored, dmap)
        # bounds (or flagged)
        assert -1.0 <= value <= 1.0 or flags
        # singleton convention
        assert g.gcf(dag, (), dmap) == 1.0
        if scored:
            # reversal antisymmetry
            assert g.gcf(dag.reversed(), scored, dmap) == pytest.approx(-value, abs=1e-12)
            assert g.gcf_abs(dag.reversed(), dmap) == pytest.approx(
                -g.gcf_abs(dag, dmap), abs=1e-12
            )
            # edge-permutation invariance
            perm = list(scored)
            rng.shuffle(perm)
            assert g.gcf(dag, perm, dmap) == pytest.approx(value, abs=1e-12)

    # dmap dag-independence: the map is a function of the data alone
    _, _, pd, net = fig1_setup()
    tables = g.InterventionTables.from_net(net)
    baseline = g.do_divergence_map(sorted(net.schema.names), tables)
    for _ in range(n_cases):
        order = list(net.schema.names)
        rng.shuffle(order)
        assert g.do_divergence_map(order, tables) == baseline
    records = g.score_set(g.enumerate_orientations(pd), tables)
    assert all(r.do_divergences == records[0].do_divergences for r in records)
    report(7, f"{n_cases} cases per property, zero failures")


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Two identical synth+score runs produce byte-identical artifacts."""
    _, _, pd, net = fig1_setup()
    g.save_bayesnet(net, tmp_path / "truth.json")
    g.save_pdgraph(pd, tmp_path / "gpd.json")

    def run(tag):
        assert main([
            "synth", "--net", str(tmp_path / "truth.json"),
            "--n-obs", "5000", "--n-do", "5000", "--seed", "3",
            "--out-dir", str(tmp_path / f"data{tag}"),
        ]) == 0
        assert main([
            "score", "--graph", str(tmp_path / "gpd.json"),
            "--manifest", str(tmp_path / f"data{tag}" / "manifest.json"),
            "--out-dir", str(tmp_path / f"out{tag}"), "--svg",
        ]) == 0
        h = hashlib.sha256()
        for root in (tmp_path / f"data{tag}", tmp_path / f"out{tag}"):
            for name in sorted(os.listdir(root)):
                h.update(name.encode())
                h.update((root / name).read_bytes())
        return h.hexdigest()

    assert run("A") == run("B")
    report(8, "synth+score artifact trees byte-identical across runs")
