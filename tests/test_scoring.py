import itertools
import math

import numpy as np
import pytest

from gcfit import (
    Dag,
    Dataset,
    GcfitError,
    InterventionBundle,
    InterventionTables,
    InvalidState,
    MissingIntervention,
    PdGraph,
    SchemaMismatch,
    UnknownEdge,
    VariableSchema,
    do_divergence,
    do_divergence_detail,
    do_divergence_map,
    do_intervene,
    dodiv_distance,
    edge_sign,
    empirical_from_dataset,
    enumerate_orientations,
    gcf,
    gcf_abs,
    gcf_detail,
    gf,
    gf_from_table,
    joint,
    sample,
    sample_do,
    score_set,
)
from gcfit import scoring
from gcfit.scoring import FLAG_NO_CAUSAL_SIGNAL, FLAG_UNDEFINED_DISTANCE
from conftest import oracle_gf, oracle_v_structures, random_dag, random_net, random_table


@pytest.fixture
def fig1_net(fig1_truth):
    return random_net(fig1_truth, np.random.default_rng(1))


@pytest.fixture
def fig1_tables(fig1_net):
    return InterventionTables.from_net(fig1_net)


def make_bundle(net, n_obs=20_000, n_do=10_000, seed=0, smoothing=1.0):
    schema = net.schema
    obs = sample(net, n_obs, seed)
    inter = {}
    stream = 1
    for node in schema.names:
        for value in range(schema.cardinality(node)):
            inter[(node, value)] = sample_do(net, node, value, n_do, seed + 1000 * stream)
            stream += 1
    return InterventionBundle(obs, inter, smoothing=smoothing)


class TestGf:
    def test_saturated_model_gives_plus_inf(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        dag = Dag(schema, (("a", "b"),))
        data = Dataset(schema, [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0], [1, 1]])
        assert gf(dag, data, smoothing=0) == math.inf

    def test_edgeless_dag_is_mutual_information(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        dag = Dag(schema, ())
        rows = [[0, 0]] * 40 + [[0, 1]] * 10 + [[1, 0]] * 10 + [[1, 1]] * 40
        data = Dataset(schema, rows)
        # oracle: empirical mutual information by direct summation
        emp = empirical_from_dataset(data)
        mi = 0.0
        for x, y in itertools.product(range(2), range(2)):
            pxy = emp.probs[x, y]
            px = emp.probs[x, :].sum()
            py = emp.probs[:, y].sum()
            mi += pxy * math.log(pxy / (px * py))
        assert gf(dag, data, smoothing=0) == pytest.approx(math.log(1 / mi))

    def test_markov_equivalent_dags_share_gf(self, fig2_pdgraph, fig2_truth):
        net = random_net(fig2_truth, np.random.default_rng(5))
        dags = enumerate_orientations(fig2_pdgraph)
        # drop the collider orientation: it is not Markov equivalent
        trio = [
            m.dag
            for m in dags
            if not (("x2", "x1") in m.dag.edges and ("x3", "x1") in m.dag.edges)
        ]
        assert len(trio) == 3
        for seed in (1, 2, 3):
            data = sample(net, 20_000, seed)
            values = [gf(dag, data, smoothing=0) for dag in trio]
            assert max(values) - min(values) < 1e-9

    def test_schema_mismatch(self, fig1_truth):
        other = Dataset(VariableSchema(("a", "b"), (2, 2)), [[0, 0]])
        with pytest.raises(SchemaMismatch):
            gf(fig1_truth, other)

    def test_gf_from_table_exact_truth_is_inf(self, fig1_net):
        assert gf_from_table(fig1_net.dag, joint(fig1_net)) == math.inf

    def test_gf_from_table_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(11)
        schema = VariableSchema(("a", "b", "c", "d"), (2, 3, 2, 3))
        pairs = list(itertools.combinations(schema.names, 2))
        for _ in range(20):
            order = rng.permutation(len(schema.names))
            rank = {schema.names[i]: r for r, i in enumerate(order)}
            edges = [
                (a, b) if rank[a] < rank[b] else (b, a)
                for a, b in pairs
                if rng.random() < 0.5
            ]
            dag = Dag(schema, tuple(edges))
            table = random_table(schema, rng)
            assert gf_from_table(dag, table) == pytest.approx(oracle_gf(table, dag), abs=1e-9)

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    def test_gf_matches_oracle_on_smoothed_empirical_tables(self, fig2_pdgraph, fig2_truth, smoothing):
        net = random_net(fig2_truth, np.random.default_rng(5))
        data = sample(net, 300, 2)  # sparse: most of the 32 cells are rare or empty
        table = empirical_from_dataset(data, smoothing)
        for member in enumerate_orientations(fig2_pdgraph):
            expected = oracle_gf(table, member.dag)
            assert gf(member.dag, data, smoothing) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("smoothing", [1.0, 5.0])
    def test_markov_equivalent_dags_share_smoothed_gf(self, fig2_pdgraph, fig2_truth, smoothing):
        net = random_net(fig2_truth, np.random.default_rng(5))
        trio = [
            m.dag
            for m in enumerate_orientations(fig2_pdgraph)
            if not (("x2", "x1") in m.dag.edges and ("x3", "x1") in m.dag.edges)
        ]
        data = sample(net, 2_000, 1)
        values = [gf(dag, data, smoothing) for dag in trio]
        assert max(values) - min(values) < 1e-9


class TestDoDivergence:
    def test_exact_root_divergence_is_zero(self, fig1_tables):
        # 'a' is a root of the fig-1 truth net, so conditioning == intervening
        assert do_divergence("a", fig1_tables) == pytest.approx(0.0, abs=1e-12)

    def test_identical_interventional_slices_give_zero(self, fig1_net):
        full = joint(fig1_net)
        do = {
            ("b", v): full.condition("b", v)
            for v in range(2)
        }
        tables = InterventionTables(full, do)
        assert do_divergence("b", tables) == pytest.approx(0.0, abs=1e-12)

    def test_hand_summed_oracle_for_fig1(self, fig1_net, fig1_tables):
        # D_b = sum_b P(b) * KL(P(a,z | b) || P(a,z | do(b)=b)), summed by hand
        full = joint(fig1_net)
        expected = 0.0
        for b in range(2):
            pb = full.marginalize({"b"}).probs[b]
            cond = full.condition("b", b)
            dob = do_intervene(fig1_net, "b", b)
            term = 0.0
            for a, z in itertools.product(range(2), range(2)):
                p = cond.probs[a, z]
                q = dob.probs[a, z]
                term += p * math.log(p / q)
            expected += pb * term
        assert do_divergence("b", fig1_tables) == pytest.approx(expected, abs=1e-12)

    def test_strict_missing_intervention(self, fig1_net):
        full = joint(fig1_net)
        tables = InterventionTables(full, {("b", 0): full.condition("b", 0)})
        with pytest.raises(MissingIntervention) as exc:
            do_divergence("b", tables)
        assert exc.value.node == "b"
        assert exc.value.value == 1

    def test_renormalize_policy_drops_missing_values(self, fig1_net):
        full = joint(fig1_net)
        tables = InterventionTables(full, {("b", 0): do_intervene(fig1_net, "b", 0)})
        divergence, detail = do_divergence_detail("b", tables, "renormalize")
        assert len(detail) == 1
        value, weight, d0 = detail[0]
        assert value == 0
        assert weight == pytest.approx(1.0)  # renormalized over covered values
        assert divergence == pytest.approx(d0)

    def test_weights_follow_observational_marginal(self, fig1_net, fig1_tables):
        _, detail = do_divergence_detail("b", fig1_tables)
        marg = joint(fig1_net).marginalize({"b"})
        for value, weight, _ in detail:
            assert weight == pytest.approx(marg.probs[value])


class TestDodivDistance:
    def test_identical(self):
        assert dodiv_distance(0.4, 0.4) == 0.0

    def test_absolute_and_symmetric(self):
        assert dodiv_distance(0.1, 0.7) == pytest.approx(0.6)
        assert dodiv_distance(0.7, 0.1) == pytest.approx(0.6)

    def test_infinite_minus_finite(self):
        assert dodiv_distance(math.inf, 0.2) == math.inf

    def test_infinite_minus_infinite_is_flagged_zero(self):
        assert dodiv_distance(math.inf, math.inf) == 0.0


class TestEdgeSign:
    @pytest.fixture
    def dmap(self):
        return {"a": 0.1, "b": 0.7}

    def test_arrow_toward_larger(self, fig1_schema, dmap):
        dag = Dag(fig1_schema, (("a", "b"),))
        assert edge_sign(dag, ("a", "b"), dmap) == 1

    def test_arrow_toward_smaller(self, fig1_schema, dmap):
        dag = Dag(fig1_schema, (("b", "a"),))
        assert edge_sign(dag, ("a", "b"), dmap) == -1

    def test_tie_is_plus_one(self, fig1_schema):
        dag = Dag(fig1_schema, (("b", "a"),))
        assert edge_sign(dag, ("a", "b"), {"a": 0.5, "b": 0.5}) == 1

    def test_unknown_edge(self, fig1_schema, dmap):
        dag = Dag(fig1_schema, (("a", "b"),))
        with pytest.raises(UnknownEdge):
            edge_sign(dag, ("a", "z"), dmap)


class TestGcf:
    def test_fig1_assignments(self, fig1_pdgraph):
        dags = enumerate_orientations(fig1_pdgraph)
        dmap = {"a": 0.1, "b": 0.7, "z": 0.4}
        scored = fig1_pdgraph.undirected
        values = {m.orientation: gcf(m.dag, scored, dmap) for m in dags}
        assert values["0"] == 1.0  # a->b
        assert values["1"] == -1.0  # b->a

    def test_fig2_formula(self, fig2_schema):
        # D2 <= D1 <= D3; scored edges are x1-x2 and x1-x3
        dmap = {"x1": 0.3, "x2": 0.1, "x3": 0.8}
        d21 = abs(dmap["x2"] - dmap["x1"])
        d13 = abs(dmap["x1"] - dmap["x3"])
        scored = (("x1", "x2"), ("x1", "x3"))
        shared = (("x2", "x4"), ("x3", "x4"), ("x4", "x5"))
        g1 = Dag(fig2_schema, (("x1", "x2"), ("x1", "x3")) + shared)
        g2 = Dag(fig2_schema, (("x2", "x1"), ("x1", "x3")) + shared)
        g3 = Dag(fig2_schema, (("x1", "x2"), ("x3", "x1")) + shared)
        assert gcf(g1, scored, dmap) == pytest.approx((-d21 + d13) / (d21 + d13))
        assert gcf(g2, scored, dmap) == 1.0
        assert gcf(g3, scored, dmap) == -1.0

    def test_symmetric_cancellation(self, fig2_schema):
        dmap = {"x1": 0.5, "x2": 0.2, "x3": 0.8}  # d21 == d13 == 0.3
        shared = (("x2", "x4"), ("x3", "x4"), ("x4", "x5"))
        g1 = Dag(fig2_schema, (("x1", "x2"), ("x1", "x3")) + shared)
        scored = (("x1", "x2"), ("x1", "x3"))
        assert gcf(g1, scored, dmap) == pytest.approx(0.0)

    def test_empty_edge_list_is_one(self, fig1_truth):
        assert gcf(fig1_truth, (), {}) == 1.0

    def test_zero_denominator_flagged(self, fig1_schema):
        dag = Dag(fig1_schema, (("a", "b"),))
        value, _, flags = gcf_detail(dag, (("a", "b"),), {"a": 0.3, "b": 0.3})
        assert value == 0.0
        assert FLAG_NO_CAUSAL_SIGNAL in flags

    def test_infinite_denominator(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        dag = Dag(schema, (("a", "b"), ("b", "c")))
        scored = (("a", "b"), ("b", "c"))
        # the two infinite distances have opposite signs: no answer
        value, _, flags = gcf_detail(dag, scored, {"a": 0.1, "b": math.inf, "c": 0.2})
        assert (value, flags) == (0.0, (FLAG_NO_CAUSAL_SIGNAL,))
        # inf - inf is no distance; the one infinite distance decides
        value, _, flags = gcf_detail(dag, scored, {"a": math.inf, "b": math.inf, "c": 0.2})
        assert (value, flags) == (-1.0, (FLAG_UNDEFINED_DISTANCE,))

    def test_bounds_random(self, fig1_schema):
        rng = np.random.default_rng(7)
        edges = (("a", "b"), ("a", "z"), ("b", "z"))
        for _ in range(300):
            bits = rng.integers(0, 2, 3)
            oriented = tuple(
                (x, y) if bit == 0 else (y, x) for bit, (x, y) in zip(bits, edges)
            )
            try:
                dag = Dag(fig1_schema, oriented)
            except GcfitError:
                continue
            dmap = {n: float(rng.uniform(0, 1)) for n in fig1_schema.names}
            value, _, flags = gcf_detail(dag, edges, dmap)
            assert -1.0 <= value <= 1.0 or flags

    def test_reversal_antisymmetry(self, fig1_schema):
        rng = np.random.default_rng(19)
        for _ in range(200):
            dag = Dag(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")))
            dmap = {n: float(rng.uniform(0, 1)) for n in fig1_schema.names}
            scored = tuple(tuple(sorted(e)) for e in dag.edges)
            assert gcf(dag.reversed(), scored, dmap) == pytest.approx(
                -gcf(dag, scored, dmap)
            )
            assert gcf_abs(dag.reversed(), dmap) == pytest.approx(-gcf_abs(dag, dmap))

    def test_edge_order_invariance(self, fig1_schema):
        dag = Dag(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")))
        dmap = {"a": 0.2, "b": 0.9, "z": 0.5}
        scored = [("a", "b"), ("a", "z"), ("b", "z")]
        baseline = gcf(dag, scored, dmap)
        for perm in itertools.permutations(scored):
            assert gcf(dag, perm, dmap) == pytest.approx(baseline)


class TestGcfAbs:
    def test_edgeless_is_zero(self, fig1_schema):
        assert gcf_abs(Dag(fig1_schema, ()), {}) == 0.0

    def test_all_edges_toward_larger(self, fig1_schema):
        dmap = {"a": 0.1, "b": 0.5, "z": 0.9}
        dag = Dag(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")))
        expected = (0.5 - 0.1) + (0.9 - 0.1) + (0.9 - 0.5)
        assert gcf_abs(dag, dmap) == pytest.approx(expected)
        scored = tuple(tuple(sorted(e)) for e in dag.edges)
        assert gcf(dag, scored, dmap) == pytest.approx(1.0)

    def test_full_pipeline_value(self, fig1_net, fig1_tables):
        dmap = do_divergence_map(("a", "b", "z"), fig1_tables)
        dag = fig1_net.dag  # truth: a->b, a->z, b->z
        expected = sum(
            (1 if dmap[h] >= dmap[t] else -1) * abs(dmap[h] - dmap[t])
            for t, h in dag.edges
        )
        assert gcf_abs(dag, dmap) == pytest.approx(expected, abs=1e-12)


class TestBundle:
    def test_non_constant_intervened_column_rejected(self, fig1_schema):
        obs = Dataset(fig1_schema, [[0, 0, 0]])
        bad = Dataset(fig1_schema, [[0, 0, 0], [1, 0, 0]])
        with pytest.raises(GcfitError):
            InterventionBundle(obs, {("a", 0): bad})

    @pytest.mark.parametrize("value", [5, -1])
    @pytest.mark.parametrize("rows", [[], [[1, 0, 0]]], ids=["header-only", "with-rows"])
    def test_value_outside_the_node_states_rejected(self, fig1_schema, value, rows):
        # checked before the constant column, so rows cannot make it
        # "not constant 5" and an empty file cannot let it pass
        obs = Dataset(fig1_schema, [[0, 0, 0]])
        with pytest.raises(InvalidState, match=f"state {value} out of range for 'a'"):
            InterventionBundle(obs, {("a", value): Dataset(fig1_schema, rows)})

    def test_schema_mismatch_rejected(self, fig1_schema):
        obs = Dataset(fig1_schema, [[0, 0, 0]])
        other = Dataset(VariableSchema(("a", "b"), (2, 2)), [[0, 0]])
        with pytest.raises(SchemaMismatch):
            InterventionBundle(obs, {("a", 0): other})

    def test_do_table_schema_checked(self, fig1_net):
        full = joint(fig1_net)
        with pytest.raises(SchemaMismatch):
            InterventionTables(full, {("a", 0): full})

    def test_tables_drop_intervened_column(self, fig1_net):
        bundle = make_bundle(fig1_net, n_obs=2_000, n_do=1_000, smoothing=1.0)
        tables = bundle.tables()
        assert tables.do[("a", 0)].schema.names == ("b", "z")


class TestScoreSet:
    def test_singleton_fully_directed_graph(self, fig1_schema, fig1_net):
        pd = PdGraph(fig1_schema, (("a", "b"), ("a", "z"), ("b", "z")), ())
        dags = enumerate_orientations(pd)
        records = score_set(dags, InterventionTables.from_net(fig1_net))
        assert len(records) == 1
        assert records[0].gcf == 1.0
        assert records[0].graph_id == "G"

    def test_fig1_sign_assignments_from_synthetic_data(self, fig1_pdgraph, fig1_net):
        bundle = make_bundle(fig1_net, seed=3)
        records = score_set(enumerate_orientations(fig1_pdgraph), bundle)
        by_orientation = {r.orientation: r for r in records}
        assert by_orientation["0"].gcf == 1.0  # truth direction a->b
        assert by_orientation["1"].gcf == -1.0

    def test_dmap_is_shared_across_dags(self, fig1_pdgraph, fig1_net):
        records = score_set(
            enumerate_orientations(fig1_pdgraph), InterventionTables.from_net(fig1_net)
        )
        assert records[0].do_divergences == records[1].do_divergences
        assert records[0].do_divergences is records[1].do_divergences

    def test_do_detail_is_one_shared_mapping(self, fig1_pdgraph, fig1_net):
        tables = InterventionTables.from_net(fig1_net)
        records = score_set(enumerate_orientations(fig1_pdgraph), tables)
        assert records[0].do_detail is records[1].do_detail
        for node, (divergence, detail) in records[0].do_detail.items():
            assert (divergence, detail) == do_divergence_detail(node, tables)
            assert records[0].do_divergences[node] == divergence

    def test_gf_is_the_same_per_dag_and_from_bundle_or_tables(self, fig2_pdgraph, fig2_truth):
        net = random_net(fig2_truth, np.random.default_rng(5))
        bundle = make_bundle(net, n_obs=2_000, n_do=500, seed=4, smoothing=1.0)
        dags = enumerate_orientations(fig2_pdgraph)
        from_bundle = [r.gf for r in score_set(dags, bundle)]
        from_tables = [r.gf for r in score_set(dags, bundle.tables())]
        per_dag = [gf(m.dag, bundle.observational, bundle.smoothing) for m in dags]
        assert from_bundle == from_tables == per_dag

    def test_records_in_dagset_order(self, fig2_pdgraph, fig2_truth):
        net = random_net(fig2_truth, np.random.default_rng(5))
        dags = enumerate_orientations(fig2_pdgraph)
        records = score_set(dags, InterventionTables.from_net(net))
        assert [r.graph_id for r in records] == [m.graph_id for m in dags]

    def test_all_edges_policy_scores_each_dags_own_edges(self, fig1_pdgraph, fig1_net):
        tables = InterventionTables.from_net(fig1_net)
        records = score_set(enumerate_orientations(fig1_pdgraph), tables, edges_policy="all")
        for r in records:
            assert len(r.edge_details) == 3

    def test_gcf_in_bounds_or_flagged(self, fig2_pdgraph, fig2_truth):
        net = random_net(fig2_truth, np.random.default_rng(8))
        records = score_set(
            enumerate_orientations(fig2_pdgraph), InterventionTables.from_net(net)
        )
        for r in records:
            assert -1.0 <= r.gcf <= 1.0 or r.flags


def dense_tables(net):
    """The explicitly dense tables of a net: its joint and every do-table."""
    schema = net.schema
    do = {
        (node, value): do_intervene(net, node, value)
        for node in schema.names
        for value in range(schema.cardinality(node))
    }
    return InterventionTables(joint(net), do)


def entropy_of(p):
    p = p[p > 0]
    return -float(np.sum(p * np.log(p)))


class TestNetTables:
    """`InterventionTables.from_net` answers from CPTs and marginals over
    ancestral sets; the explicitly dense tables are the oracle."""

    def test_identity_and_gf_on_random_nets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            truth = random_dag(rng)
            net = random_net(truth, rng)
            exact, dense = InterventionTables.from_net(net), dense_tables(net)
            full = joint(net)
            for node in truth.schema.names:
                # D(X) = I(X; Pa(X)) = H(X) + H(Pa) - H(X, Pa)
                parents = truth.parents(node)
                mutual = entropy_of(full.marginalize([node]).flat()) - entropy_of(
                    full.marginalize(parents + (node,)).flat()
                ) + (entropy_of(full.marginalize(parents).flat()) if parents else 0.0)
                value, detail = do_divergence_detail(node, exact)
                expected_value, expected_detail = do_divergence_detail(node, dense)
                assert value == pytest.approx(expected_value, abs=1e-12)
                assert value == pytest.approx(mutual, abs=1e-12)
                assert [v for v, _, _ in detail] == [v for v, _, _ in expected_detail]
                for (_, w, d), (_, ew, ed) in zip(detail, expected_detail):
                    assert w == pytest.approx(ew, abs=1e-12)
                    assert d == pytest.approx(ed, abs=1e-12)

            # candidates on the truth's skeleton: an I-map of the truth is
            # then exactly a DAG with the truth's v-structures
            undirected = truth.edges[:6]
            pd = PdGraph(truth.schema, tuple(e for e in truth.edges if e not in undirected), undirected)
            records = score_set(enumerate_orientations(pd), exact)
            by_class = {}
            for r in records:
                dense_gf = gf_from_table(r.dag, full)
                i_map = oracle_v_structures(r.dag) == oracle_v_structures(truth)
                if i_map:
                    assert r.gf == math.inf
                    assert math.exp(-dense_gf) < 1e-12
                else:
                    assert math.isfinite(r.gf)
                    assert math.exp(-r.gf) == pytest.approx(math.exp(-dense_gf), abs=1e-12)
                by_class.setdefault(frozenset(oracle_v_structures(r.dag)), []).append((r.gf, dense_gf))
            # Markov-equivalent candidates: bitwise-equal GF on both paths
            for values in by_class.values():
                assert len(set(values)) == 1

    def test_each_variable_set_is_eliminated_once(self, monkeypatch, fig2_pdgraph, fig2_truth):
        # the do-term of a node reads its family marginal, which GF of the
        # truth (a candidate here) reads as well: one elimination serves both
        counts = {}
        real = scoring.marginal

        def counting(net, names):
            key = frozenset(names)
            counts[key] = counts.get(key, 0) + 1
            return real(net, names)

        monkeypatch.setattr(scoring, "marginal", counting)
        net = random_net(fig2_truth, np.random.default_rng(3))
        dags = enumerate_orientations(fig2_pdgraph)
        assert any(set(m.dag.edges) == set(fig2_truth.edges) for m in dags)
        score_set(dags, InterventionTables.from_net(net))
        assert counts and max(counts.values()) == 1

    def test_sixty_node_net(self):
        # a dense table would need 2**60 cells; the last node's ancestral set
        # has 60 CPT factors, past numpy 1.x's 32 einsum operands and 52
        # sublist labels
        names = tuple(f"x{i:02d}" for i in range(60))
        schema = VariableSchema(names, (2,) * 60)
        chain = [(a, b) for a, b in zip(names, names[1:])]
        skip = [(a, b) for a, b in zip(names, names[2:])]
        truth = Dag(schema, tuple(chain + skip))
        net = random_net(truth, np.random.default_rng(6))
        undirected = tuple(chain[i] for i in (3, 20, 40, 57))
        pd = PdGraph(schema, tuple(e for e in truth.edges if e not in undirected), undirected)
        tables = InterventionTables.from_net(net)
        records = score_set(enumerate_orientations(pd), tables)
        assert len(records) == 16
        for r in records:
            is_truth = set(r.dag.edges) == set(truth.edges)
            assert (r.gf == math.inf) == is_truth
            assert math.isfinite(r.gcf) and -1.0 <= r.gcf <= 1.0
        assert records[0].do_divergences[names[0]] == 0.0  # a root
        assert all(d > 0 for n, d in records[0].do_divergences.items() if n != names[0])
