import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gcfit import (
    BayesNet,
    Cpt,
    Dag,
    DagSet,
    Dataset,
    EmptyDataset,
    GcfitError,
    InterventionBundle,
    InterventionTables,
    InvalidState,
    MissingIntervention,
    PdGraph,
    ProbTable,
    SchemaMismatch,
    TaggedDag,
    UnknownEdge,
    UnknownVariable,
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
    kl_divergence,
    sample,
    sample_do,
    score_set,
)
from gcfit import bayesnet, tables as tables_module
from gcfit.graphs import EdgeRanks, iter_orientations
from gcfit.scoring import (
    FLAG_NO_CAUSAL_SIGNAL,
    FLAG_UNDEFINED_DISTANCE,
    _Families,
    _gcf_value,
    _walk_scores,
    score_orientations,
)
from conftest import (
    oracle_count_entropy,
    oracle_count_kl,
    oracle_dense_do_terms,
    oracle_dense_entropy,
    oracle_gf,
    oracle_marginal,
    oracle_v_structures,
    random_dag,
    random_net,
    random_table,
)


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
        other = VariableSchema(("a", "b"), (2, 2))
        with pytest.raises(SchemaMismatch):
            gf(fig1_truth, Dataset(other, [[0, 0]]))
        with pytest.raises(SchemaMismatch, match="^table schema differs from DAG schema$"):
            gf_from_table(fig1_truth, ProbTable(other, [0.25] * 4))

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

    @pytest.mark.parametrize("smoothing", [0.5, 1.0, 5.0])
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
        assert len(set(values)) == 1  # bitwise: the same signed multiset of entropies


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

    def test_renormalize_policy_with_no_do_table_raises(self, fig1_net):
        tables = InterventionTables(joint(fig1_net), {})
        with pytest.raises(MissingIntervention) as exc:
            do_divergence_detail("b", tables, "renormalize")
        assert (exc.value.node, exc.value.value) == ("b", "any")

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

    def test_opposite_infinite_distances_give_nan(self):
        # a->b points away from an infinite D and d->c toward one: the signed
        # sum is -inf + inf; GCF maps the same case to 0 with a flag
        schema = VariableSchema(("a", "b", "c", "d"), (2,) * 4)
        dag = Dag(schema, (("a", "b"), ("d", "c")))
        dmap = {"a": math.inf, "b": 0.1, "c": math.inf, "d": 0.2}
        assert math.isnan(gcf_abs(dag, dmap))
        value, _, flags = gcf_detail(dag, dag.edges, dmap)
        assert (value, flags) == (0.0, (FLAG_NO_CAUSAL_SIGNAL,))

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

    @pytest.mark.parametrize("value", [5, -1, True, 1.0])
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

    @pytest.mark.parametrize("key, error, match", [
        (("a", 5), InvalidState, "state 5 out of range for 'a'"),
        (("a", -1), InvalidState, "state -1 out of range for 'a'"),
        (("zz", 0), UnknownVariable, "unknown variable 'zz'"),
    ], ids=["past-the-last-state", "negative-state", "unknown-node"])
    def test_do_table_key_checked(self, fig1_net, key, error, match):
        # checked as `InterventionBundle` checks its keys, before the schema:
        # ("zz", 0) drops no variable, so a full-schema table would pass it
        full = joint(fig1_net)
        table = full if key[0] == "zz" else full.marginalize({"b", "z"})
        with pytest.raises(error, match=match):
            InterventionTables(full, {key: table})

    @pytest.mark.parametrize("key", ["a", ("a",), ("a", 0, 1), "a0"],
                             ids=["str", "one-item", "three-items", "two-letter-str"])
    def test_do_key_must_be_a_node_value_pair(self, fig1_net, fig1_schema, key):
        # at the parent unpacking the key raised a bare ValueError, and "a0"
        # was read as the state "0" of "a"
        obs = Dataset(fig1_schema, [[0, 0, 0]])
        full = joint(fig1_net)
        with pytest.raises(GcfitError, match=r"do-key must be a \(node, value\) pair"):
            InterventionBundle(obs, {key: obs})
        with pytest.raises(GcfitError, match=r"do-key must be a \(node, value\) pair"):
            InterventionTables(full, {key: full.marginalize({"b", "z"})})

    @pytest.mark.parametrize("smoothing", ["1", True, 1j, -1.0])
    def test_smoothing_checked_when_the_bundle_is_built(self, fig1_schema, smoothing):
        # at the parent the check ran in `tables()`, "1" raised a bare
        # TypeError there and True passed as 1
        obs = Dataset(fig1_schema, [[0, 0, 0]])
        with pytest.raises(GcfitError, match="smoothing must be a finite nonnegative number"):
            InterventionBundle(obs, {}, smoothing=smoothing)
        with pytest.raises(GcfitError, match="smoothing must be a finite nonnegative number"):
            gf(Dag(fig1_schema, ()), obs, smoothing=smoothing)

    @pytest.mark.parametrize("smoothing, n", [(1e308, 1), (2.0**1022, 2), (1e-300, 1100)],
                             ids=["inf-mass", "mass-of-2**1024", "cell-count-past-a-float"])
    def test_smoothing_mass_past_the_largest_float_rejected(self, smoothing, n):
        # the tables add s·C over the C cells of the joint; at the parent an
        # infinite mass gave nan tables and a math domain error, and a cell
        # count past the largest float an OverflowError
        schema = VariableSchema(tuple(f"x{i:04d}" for i in range(n)), (2,) * n)
        obs = Dataset(schema, np.zeros((2, n), dtype=int))
        message = "times the joint's cell count overflows a float"
        with pytest.raises(GcfitError, match=message):
            InterventionBundle(obs, {}, smoothing=smoothing)
        with pytest.raises(GcfitError, match=message):
            gf(Dag(schema, ()), obs, smoothing=smoothing)
        if n < 1024:  # half the mass is finite
            InterventionBundle(obs, {}, smoothing=smoothing / 2)

    def test_unsmoothed_tables_of_more_cells_than_a_float_holds(self):
        # 2**1100 cells: at the parent 0.0 times that count raised
        # OverflowError where the int 0 worked; nothing is smoothed, so no
        # float multiplies it, and both give the same values
        n = 1100
        names = tuple(f"x{i:04d}" for i in range(n))
        schema = VariableSchema(names, (2,) * n)
        rng = np.random.default_rng(12)
        obs = Dataset(schema, rng.integers(0, 2, (50, n)))
        inter = {}
        for value in (0, 1):
            rows = rng.integers(0, 2, (5, n))
            rows[:, 0] = value
            inter[names[0], value] = Dataset(schema, rows)
        dag = Dag(schema, ((names[0], names[1]),))
        assert math.isfinite(gf(dag, obs, 0.0))
        assert gf(dag, obs, 0.0) == gf(dag, obs, 0)
        detail = do_divergence_detail(names[0], InterventionBundle(obs, inter, 0.0).tables())
        assert detail == do_divergence_detail(names[0], InterventionBundle(obs, inter, 0).tables())

    @pytest.fixture
    def two_binary_nodes(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        obs = Dataset(schema, [[0, 0], [0, 1], [1, 1], [1, 0], [1, 1]])
        inter = {("a", 0): Dataset(schema, [[0, 0], [0, 1], [0, 1]]),
                 ("a", 1): Dataset(schema, [[1, 1], [1, 0]]),
                 ("b", 0): Dataset(schema, [[0, 0], [1, 0], [1, 0]]),
                 ("b", 1): Dataset(schema, [[1, 1], [0, 1]])}
        return obs, inter

    @staticmethod
    def d_values(obs, inter, smoothing):
        tables = InterventionBundle(obs, inter, smoothing=smoothing).tables()
        return [do_divergence(node, tables) for node in ("a", "b")]

    def test_int_smoothing_past_int64_scores_as_its_float(self, two_binary_nodes):
        # an int mass within a float's range but past int64: at the parent
        # the bundle took it and do_divergence raised a bare OverflowError
        huge, huge_float = self.d_values(*two_binary_nodes, 10**307), self.d_values(
            *two_binary_nodes, 1e307)
        assert [d.hex() for d in huge] == [d.hex() for d in huge_float]

    def test_int_smoothing_scores_as_its_float(self, two_binary_nodes):
        one, one_float = self.d_values(*two_binary_nodes, 1), self.d_values(*two_binary_nodes, 1.0)
        assert [d.hex() for d in one] == [d.hex() for d in one_float]
        assert all(d > 0 for d in one)

    def test_tables_drop_intervened_column(self, fig1_net):
        # smoothing spreads over the 4 (b, z) cells of the do-set, none of
        # them on the unclamped a=1 states: D_a is the KL against the dense
        # table of the do-rows with column a dropped
        bundle = make_bundle(fig1_net, n_obs=2_000, n_do=1_000, smoothing=1.0)
        do = bundle.interventional[("a", 0)].select({"b", "z"})
        expected = kl_divergence(
            empirical_from_dataset(bundle.observational, 1.0).condition("a", 0),
            empirical_from_dataset(do, 1.0),
        )
        leaked = kl_divergence(  # smoothed over all 8 cells, then a summed out
            empirical_from_dataset(bundle.observational, 1.0).condition("a", 0),
            empirical_from_dataset(bundle.interventional[("a", 0)], 1.0).marginalize({"b", "z"}),
        )
        _, detail = do_divergence_detail("a", bundle.tables())
        assert detail[0][0] == 0
        assert detail[0][2] == pytest.approx(expected, rel=1e-12)
        assert detail[0][2] != pytest.approx(leaked, rel=1e-3)


SOURCES = ("dense", "net", "data")


def source_tables(net, source):
    """The net's tables from one source: its dense tables, its CPTs or sampled data."""
    if source == "dense":
        return InterventionTables(*dense_tables(net))
    if source == "net":
        return InterventionTables.from_net(net)
    return make_bundle(net, n_obs=500, n_do=100).tables()


@pytest.mark.parametrize("source", SOURCES)
class TestEverySource:
    """Names outside the schema raise the same typed error on every source."""

    def test_entropy_of_an_unknown_name_raises(self, fig1_net, source):
        tables = source_tables(fig1_net, source)
        for names in ({"typo"}, {"a", "typo"}):
            with pytest.raises(UnknownVariable, match="typo"):
                tables.entropy(names)
        assert tables.entropy({"a"}) > 0

    def test_do_divergence_of_an_unknown_node_raises(self, fig1_net, source):
        with pytest.raises(UnknownVariable, match="zz"):
            do_divergence_detail("zz", source_tables(fig1_net, source))

    def test_foreign_schema_dag_rejected_before_any_do_divergence(self, fig1_net, source):
        other = VariableSchema(("p", "q"), (2, 2))
        members = (
            TaggedDag("G0", "0", fig1_net.dag),
            TaggedDag("G1", "1", Dag(other, (("p", "q"),))),
        )
        tables = source_tables(fig1_net, source)
        with pytest.raises(SchemaMismatch, match=r"^\[G1\] table schema differs from DAG schema$"):
            score_set(DagSet(members), tables, edges_policy="all")


class TestScoreSet:
    def test_several_candidates_with_no_scored_edges_rejected(self):
        # a hand-built set left at the default source_undirected=() would
        # give every candidate GCF 1.0 from no edge at all
        schema = VariableSchema(("a", "b"), (2, 2))
        members = tuple(
            TaggedDag(f"G{i}", str(i), Dag(schema, (edge,)))
            for i, edge in enumerate([("a", "b"), ("b", "a")])
        )
        tables = InterventionTables(ProbTable(schema, [[0.4, 0.1], [0.2, 0.3]]), {})
        with pytest.raises(GcfitError, match="2 candidates but no undirected edges to score"):
            score_set(DagSet(members), tables)

    @pytest.mark.parametrize("policy, message", [
        ({"edges_policy": "some"}, "unknown edges policy 'some'"),
        ({"missing_policy": "drop"}, "unknown missing policy 'drop'"),
    ], ids=["edges", "missing"])
    def test_unknown_policy_rejected(self, fig1_pdgraph, fig1_tables, policy, message):
        with pytest.raises(GcfitError, match=f"^{message}$"):
            score_set(enumerate_orientations(fig1_pdgraph), fig1_tables, **policy)

    def test_candidate_error_is_prefixed_with_its_graph_id(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        net = random_net(Dag(schema, (("a", "b"), ("b", "c"))), np.random.default_rng(3))
        members = (
            TaggedDag("G0", "0", Dag(schema, (("a", "b"),))),
            TaggedDag("G1", "1", net.dag),
        )
        dags = DagSet(members, (("b", "c"),))
        with pytest.raises(UnknownEdge, match=r"^\[G0\] edge 'b'-'c' not in DAG$"):
            score_set(dags, InterventionTables.from_net(net))

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
        tables = InterventionTables.from_net(fig1_net)
        records = score_set(enumerate_orientations(fig1_pdgraph), tables)
        assert records[0].do_divergences == records[1].do_divergences
        assert records[0].do_divergences is records[1].do_divergences
        assert list(records[0].do_divergences) == ["a", "b", "z"]
        for node, divergence in records[0].do_divergences.items():
            assert divergence == do_divergence_detail(node, tables)[0]

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
    return joint(net), do


class TestNetTables:
    """`InterventionTables.from_net` answers from CPTs and marginals over
    ancestral sets; the dense oracle on the explicitly dense tables checks it."""

    def test_identity_and_gf_on_random_nets(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            truth = random_dag(rng)
            net = random_net(truth, rng)
            exact = InterventionTables.from_net(net)
            full, do = dense_tables(net)
            for node in truth.schema.names:
                # D(X) = I(X; Pa(X)) = H(X) + H(Pa) - H(X, Pa)
                parents = truth.parents(node)
                mutual = oracle_dense_entropy(full, [node]) - oracle_dense_entropy(
                    full, parents + (node,)
                ) + (oracle_dense_entropy(full, parents) if parents else 0.0)
                value, detail = do_divergence_detail(node, exact)
                # the weighted terms' sum is rounded once, in no order
                assert value.hex() == math.fsum(w * d for _, w, d in detail).hex()
                expected_detail = oracle_dense_do_terms(full, do, node)
                assert value == pytest.approx(sum(w * d for _, w, d in expected_detail), abs=1e-12)
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

    def test_value_of_zero_probability_is_skipped(self):
        # a never takes value 1, so no D_1 is defined: only value 0 is listed,
        # as on the dense tables at smoothing 0
        schema = VariableSchema(("a", "b"), (2, 3))
        truth = Dag(schema, (("a", "b"),))
        b = random_net(truth, np.random.default_rng(8)).cpts["b"]
        net = BayesNet(truth, {"a": Cpt("a", (), np.array([1.0, 0.0])), "b": b})
        exact, dense = InterventionTables.from_net(net), InterventionTables(*dense_tables(net))
        assert [v for v, _, _ in do_divergence_detail("a", exact)[1]] == [0]
        for node in schema.names:
            (value, detail), (expected, expected_detail) = (
                do_divergence_detail(node, t) for t in (exact, dense))
            assert value == pytest.approx(expected, abs=1e-12)
            assert [v for v, _, _ in detail] == [v for v, _, _ in expected_detail]
            for (_, w, d), (_, ew, ed) in zip(detail, expected_detail):
                assert (w, d) == pytest.approx((ew, ed), abs=1e-12)

    def test_each_variable_set_is_eliminated_once(self, monkeypatch, fig2_pdgraph, fig2_truth):
        # the tree is calibrated once per tables object; the do-term of a node
        # reads its parents' marginal, which GF of the truth (a candidate
        # here) reads as well: one query serves both
        calibrated, counts = [], {}
        real_init, real_marginal = bayesnet.CliqueTree.__init__, bayesnet.CliqueTree.marginal

        def counting_init(tree, net):
            calibrated.append(net)
            real_init(tree, net)

        def counting_marginal(tree, names):
            key = frozenset(names)
            counts[key] = counts.get(key, 0) + 1
            return real_marginal(tree, names)

        monkeypatch.setattr(bayesnet.CliqueTree, "__init__", counting_init)
        monkeypatch.setattr(bayesnet.CliqueTree, "marginal", counting_marginal)
        net = random_net(fig2_truth, np.random.default_rng(3))
        dags = enumerate_orientations(fig2_pdgraph)
        assert any(set(m.dag.edges) == set(fig2_truth.edges) for m in dags)
        tables = InterventionTables.from_net(net)
        score_set(dags, tables)
        score_set(dags, tables)
        assert calibrated == [net]
        assert counts and max(counts.values()) == 1
        assert all(frozenset(fig2_truth.parents(n)) in counts for n in fig2_truth.schema.names)

    def test_tree_marginals_match_the_oracle(self):
        # every variable set, the empty one too, on random nets of 2-4 states
        # with zero CPT entries; some nets fall apart into components, and
        # some sets fit in no clique
        rng = np.random.default_rng(23)
        seen = {"components": 0, "spanning": 0}
        for _ in range(30):
            truth = random_dag(rng, min_nodes=4, max_nodes=6, max_card=4)
            net = with_zeros(random_net(truth, rng), rng)
            tree = bayesnet.CliqueTree(net)
            names = truth.schema.names
            seen["components"] += sum(tree._parent[k] is None for k in range(len(names))) > 1
            for size in range(len(names) + 1):
                for keep in itertools.combinations(names, size):
                    keep = tuple(rng.permutation(keep)) if keep else ()
                    expected = oracle_marginal(net, keep)
                    got = tree.marginal(keep)
                    assert got.shape == expected.shape
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
                    seen["spanning"] += not any(set(keep) <= set(c) for c in tree._clique)
        assert seen["components"] >= 3 and seen["spanning"] >= 30

    def test_family_reversing_a_chain_edge_spans_cliques(self):
        # x1's family in the candidate that reverses x1 -> x2 is {x0, x1, x2},
        # which spans the cliques {x0, x1} and {x1, x2} of the chain
        names = ("x0", "x1", "x2", "x3")
        truth = Dag(VariableSchema(names, (3, 2, 4, 2)), tuple(zip(names, names[1:])))
        net = with_zeros(random_net(truth, np.random.default_rng(4)), np.random.default_rng(5))
        tree = bayesnet.CliqueTree(net)
        assert sorted(len(c) for c in tree._clique) == [1, 2, 2, 2]
        for keep in (("x0", "x1", "x2"), ("x2", "x0"), ("x3", "x0", "x1")):
            assert not any(set(keep) <= set(c) for c in tree._clique)
            np.testing.assert_allclose(tree.marginal(keep), oracle_marginal(net, keep),
                                       rtol=0, atol=1e-12)

    def test_calibrated_tables_follow_the_tree_width(self):
        # the skip-2 chain triangulates into cliques of 3 variables, so no
        # message or belief passes 2**3 cells
        names = tuple(f"x{i:02d}" for i in range(60))
        edges = tuple((a, b) for k in (1, 2) for a, b in zip(names, names[k:]))
        truth = Dag(VariableSchema(names, (2,) * 60), edges)
        tree = bayesnet.CliqueTree(random_net(truth, np.random.default_rng(6)))
        for n in names:
            tree.marginal((n,))
        tables = [t for t, _ in tree._up + tree._down[:-1]] + list(tree._beliefs.values())
        assert tree._down[-1] is None  # the root's
        assert len(tree._beliefs) == 60 and max(t.size for t in tables) == 8

    def test_root_divergence_is_exactly_zero(self):
        # P(a | ()) / P(a) is exactly 1, so no rounding of a marginal makes D
        # of a root -0.0 or a tiny nonzero
        rng = np.random.default_rng(31)
        roots = 0
        for _ in range(20):
            truth = random_dag(rng, max_card=4)
            tables = InterventionTables.from_net(random_net(truth, rng))
            for node in truth.schema.names:
                if not truth.parents(node):
                    d = do_divergence(node, tables)
                    assert d == 0.0 and math.copysign(1.0, d) == 1.0
                    roots += 1
        assert roots >= 20

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


def with_zeros(net, rng):
    """``net`` with one entry of about a third of its CPT rows set to 0 and
    the row renormalized."""
    cpts = {}
    for node, cpt in net.cpts.items():
        rows = cpt.table.reshape(-1, cpt.table.shape[-1]).copy()
        for row in rows:
            if rng.random() < 0.35:
                row[rng.integers(len(row))] = 0.0
                row /= row.sum()
        cpts[node] = Cpt(node, cpt.parents, rows.reshape(cpt.table.shape))
    return BayesNet(net.dag, cpts)


def bitwise(gf_value, gcf_value, gcf_abs_value, details, flags):
    """Scores with every float spelled as its hex string, so that == is bitwise."""
    return (
        gf_value.hex(),
        gcf_value.hex(),
        gcf_abs_value.hex(),
        [(tuple(e), s, d.hex()) for e, s, d in details],
        tuple(flags),
    )


def record_bits(r):
    return bitwise(r.gf, r.gcf, r.gcf_abs, r.edge_details, r.flags)


def random_pdgraph(rng):
    """A random DAG with a random half of its edges made undirected, and its net."""
    truth = random_dag(rng, min_nodes=4, max_nodes=6)
    undirected = tuple(e for e in truth.edges if rng.random() < 0.6)
    directed = tuple(e for e in truth.edges if e not in undirected)
    return PdGraph(truth.schema, directed, undirected), random_net(truth, rng)


# the parent lists of a -> b, a -> c, b -> c, c -> d, and the name sets
# their GF terms H(family) - H(parents) read
FAMILY_PARENTS = {"a": [], "b": ["a"], "c": ["a", "b"], "d": ["c"]}
FAMILY_SETS = sorted({frozenset(ps + [n]) for n, ps in FAMILY_PARENTS.items()}
                     | {frozenset(ps) for ps in FAMILY_PARENTS.values()}, key=sorted)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=len(FAMILY_SETS), max_size=len(FAMILY_SETS)))
def test_exact_family_sum_rounds_as_fsum(values):
    # each term is an exact integer multiple of 2**-1074, and the sum is
    # rounded once: the float math.fsum gives, subnormal and huge terms too
    entropy = dict(zip(FAMILY_SETS, values))
    terms = []
    for node, ps in FAMILY_PARENTS.items():
        terms += [entropy[frozenset(ps + [node])], -entropy[frozenset(ps)]]
    families = _Families(lambda names: entropy[frozenset(names)])
    assert families.conditional_entropy(FAMILY_PARENTS).hex() == math.fsum(terms).hex()


def exact_sum(values):
    """The float nearest the exact sum of ``values`` on the extended reals:
    the sum of the infinite ones where there are any (nan where -inf meets
    +inf), else the `Fraction` sum rounded once, ±inf past the largest float."""
    values = list(values)
    infinite = [x for x in values if not math.isfinite(x)]
    if infinite:
        return math.nan if len(set(infinite)) > 1 else infinite[0]
    exact = sum(Fraction(x) for x in values)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


# a - b, a - c and b - d undirected, c -> d directed: 8 candidates, of which
# "111" closes the cycle a -> c -> d -> b -> a
SUM_GRAPH = PdGraph(VariableSchema(("a", "b", "c", "d"), (2,) * 4),
                    (("c", "d"),), (("a", "b"), ("a", "c"), ("b", "d")))
SUM_TABLES = InterventionTables.from_net(
    random_net(Dag(SUM_GRAPH.schema, (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
               np.random.default_rng(30)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, sys.float_info.max), st.just(math.inf)),
                min_size=4, max_size=4),
       st.sampled_from(["pd", "all"]))
# D of a, b, c, d: candidate "000" holds the signed terms +1e16, +1, -1e16
# and -1, in sorted edge order; added left to right they read 0.0 (GCF's
# numerator on "pd") and -1.0 (gcf_abs), where the exact sums are 1 and 0
@example([0.0, 1e16, 1.0, 0.0], "pd")
@example([0.0, 1e16, 1.0, 0.0], "all")
# "000" holds +1e308, 0, 0, +1e308, whose sum is past the largest float
# (inf), and +1e308, +1e308, -5e307, -5e307, whose sum is 1e308 although
# that of its first two terms is past it; fsum raises on both
@example([0.0, 1e308, 0.0, 1e308], "all")
@example([0.0, 1e308, 1e308, 5e307], "all")
def test_edge_sums_round_as_fsum(values, edges_policy):
    # GCF's numerator and denominator and gcf_abs are each the float nearest
    # the exact sum of their edge terms, on the one-DAG functions and on the
    # walk's split sums; a finite sum past the largest float is that
    # infinity, and opposite infinite terms give nan, as
    # test_opposite_infinite_distances_give_nan has it
    dmap = dict(zip(SUM_GRAPH.schema.names, values))
    walk = _walk_scores(EdgeRanks(SUM_GRAPH), iter_orientations(SUM_GRAPH), SUM_TABLES, dmap,
                        edges_policy)
    members = enumerate_orientations(SUM_GRAPH).members
    for member, (vec, _, _, walk_gcf, walk_abs, walk_flags) in itertools.zip_longest(members, walk):
        dag = member.dag
        assert vec == member.orientation
        signed = [(1 if dmap[h] >= dmap[t] else -1) * dodiv_distance(dmap[t], dmap[h])
                  for t, h in dag.edges]
        assert gcf_abs(dag, dmap).hex() == walk_abs.hex() == exact_sum(signed).hex()
        scored = dag.edges if edges_policy == "all" else SUM_GRAPH.undirected
        value, details, flags = gcf_detail(dag, scored, dmap)
        expected, expected_flags = _gcf_value(
            len(details),
            exact_sum(s * d for _, s, d in details),
            exact_sum(d for _, _, d in details),
            flags.count(FLAG_UNDEFINED_DISTANCE),
        )
        assert (value.hex(), flags) == (walk_gcf.hex(), walk_flags) == (expected.hex(), expected_flags)


class TestLocalTerms:
    """`score_set` sums memoized local terms -- GF's entropy pair per (node,
    parents), GCF's signed distance per oriented edge -- and must give each
    DAG what the one-DAG functions give it, bitwise."""

    @pytest.mark.parametrize("edges_policy", ["pd", "all"])
    @pytest.mark.parametrize(
        "source, smoothing", [("net", None), ("data", 0.0), ("data", 1.0)]
    )
    def test_records_equal_the_one_dag_functions(self, source, smoothing, edges_policy):
        rng = np.random.default_rng(29)
        flags_seen = set()
        for trial in range(8):
            pd, net = random_pdgraph(rng)
            if source == "net":
                tables = InterventionTables.from_net(net)
            else:
                # few rows: at smoothing 0 some do-divergences are infinite
                bundle = make_bundle(net, n_obs=300, n_do=30, seed=trial, smoothing=smoothing)
                tables = bundle.tables()
            dags = enumerate_orientations(pd)
            records = score_set(dags, tables, edges_policy=edges_policy)
            for r in records:
                dmap = r.do_divergences
                edges = r.dag.edges if edges_policy == "all" else pd.undirected
                value, details, flags = gcf_detail(r.dag, edges, dmap)
                gf_value, abs_value = gf_from_table(r.dag, tables), gcf_abs(r.dag, dmap)
                assert record_bits(r) == bitwise(gf_value, value, abs_value, details, flags)
                flags_seen.update(r.flags)

            # the same DAGs under arbitrary tags, in another order: the
            # memos are keyed on edges, never on the orientation strings
            members = [
                TaggedDag(f"H{i}", f"tag {i} {'1' * i}", m.dag)
                for i, m in enumerate(reversed(dags.members))
            ]
            by_edges = {r.dag.edges: record_bits(r) for r in records}
            hand_built = score_set(
                DagSet(tuple(members), dags.source_undirected), tables, edges_policy=edges_policy
            )
            assert [r.graph_id for r in hand_built] == [m.graph_id for m in members]
            for r in hand_built:
                assert record_bits(r) == by_edges[r.dag.edges]
        if smoothing == 0.0:
            assert {FLAG_UNDEFINED_DISTANCE, FLAG_NO_CAUSAL_SIGNAL} <= flags_seen

    def test_walk_of_another_schema_raises(self, fig1_tables):
        schema = VariableSchema(("p", "q"), (2, 2))
        ranks = EdgeRanks(PdGraph(schema, (), (("p", "q"),)))
        with pytest.raises(SchemaMismatch, match="^table schema differs from graph schema$"):
            score_orientations(ranks, iter_orientations(ranks.graph), fig1_tables)

    @pytest.mark.parametrize("edges_policy", ["pd", "all"])
    @pytest.mark.parametrize("source", ["net", "dense"])
    def test_walk_scores_equal_the_records(self, source, edges_policy):
        # `score_orientations` on the table sources `gcf score` never reads:
        # on net tables the truth's Markov class gets GF +inf
        rng = np.random.default_rng(31)
        infinite = 0
        for _ in range(8):
            pd, net = random_pdgraph(rng)
            tables = source_tables(net, source)
            records = score_set(enumerate_orientations(pd), tables, edges_policy=edges_policy)
            ranks = EdgeRanks(pd)
            detail, stream = score_orientations(ranks, iter_orientations(pd), tables, edges_policy)
            dmap = records[0].do_divergences
            assert [(n, d) for n, (d, _) in detail.items()] == list(dmap.items())
            assert detail == {n: do_divergence_detail(n, tables) for n in dmap}
            streamed = [(v, text, g.hex(), c.hex(), a.hex(), flags)
                        for v, text, g, c, a, flags in stream]
            assert streamed == [
                (r.orientation, ";".join(f"{a}->{b}" for a, b in r.dag.edges), r.gf.hex(),
                 r.gcf.hex(), r.gcf_abs.hex(), r.flags)
                for r in records
            ]
            infinite += sum(r.gf == math.inf for r in records)
        if source == "net":
            assert infinite >= 8  # the truth is a candidate of each graph

    @pytest.mark.parametrize("edges_policy", ["pd", "all"])
    def test_walk_scores_in_any_order(self, edges_policy):
        # each vector rescores from its first bit that differs from the
        # previous one, so a shuffled order gives the same items bitwise
        rng = np.random.default_rng(37)
        for _ in range(8):
            pd, net = random_pdgraph(rng)
            tables, ranks = source_tables(net, "net"), EdgeRanks(pd)
            walk = list(iter_orientations(pd))
            shuffled = [walk[i] for i in rng.permutation(len(walk))]
            by_vector = [
                {v: (text, g.hex(), c.hex(), a.hex(), flags) for v, text, g, c, a, flags
                 in score_orientations(ranks, order, tables, edges_policy)[1]}
                for order in (walk, shuffled)
            ]
            assert by_vector[0] == by_vector[1]

    @pytest.mark.parametrize("source", ["net", "data"])
    def test_each_local_term_is_computed_once_per_set(self, monkeypatch, source):
        # a chain of 8 nodes, every edge undirected: 128 candidates share
        # at most 8 x 4 (node, parents) keys and 14 oriented edges
        names = tuple(f"c{i}" for i in range(8))
        schema = VariableSchema(names, (2,) * 8)
        chain = tuple(zip(names, names[1:]))
        net = random_net(Dag(schema, chain), np.random.default_rng(4))
        tables = (
            InterventionTables.from_net(net)
            if source == "net"
            else make_bundle(net, n_obs=500, n_do=50, seed=2).tables()
        )
        dags = enumerate_orientations(PdGraph(schema, (), chain))
        assert len(dags) == 128

        counts = {"entropy": 0, "parents": 0}
        real_entropy, real_parents = InterventionTables.entropy, Dag.parents

        def entropy(self, names):
            counts["entropy"] += 1
            return real_entropy(self, names)

        def parents(self, node):
            counts["parents"] += 1
            return real_parents(self, node)

        monkeypatch.setattr(InterventionTables, "entropy", entropy)
        monkeypatch.setattr(Dag, "parents", parents)
        tables.joint_entropy()
        joint_calls, counts["entropy"] = counts["entropy"], 0
        records = score_set(dags, tables)
        assert counts["parents"] == 0

        families = {
            (child, frozenset(a for a, b in r.dag.edges if b == child))
            for r in records
            for child in names
        }
        assert counts["entropy"] <= 2 * len(families) + joint_calls


def dense_bundle_tables(bundle):
    """The bundle's dense empirical tables, built by hand: the observational
    joint and each do-set with its intervened column dropped."""
    names, s = set(bundle.schema.names), bundle.smoothing
    do = {
        (node, value): empirical_from_dataset(data.select(names - {node}), s)
        for (node, value), data in bundle.interventional.items()
    }
    return empirical_from_dataset(bundle.observational, s), do


def random_bundle(rng, smoothing, empty_do_set):
    """Sparse random data over 3..5 variables of cardinality 2..4: 40
    observational rows, none of them at the last state of the first
    variable, and 12 rows per do-set (one do-set empty if ``empty_do_set``)."""
    n = int(rng.integers(3, 6))
    cards = tuple(int(c) for c in rng.integers(2, 5, n))
    schema = VariableSchema(tuple(f"v{i}" for i in range(n)), cards)
    obs = rng.integers(0, cards, (40, n))
    obs[:, 0] = rng.integers(0, cards[0] - 1, 40)
    inter = {}
    for col, node in enumerate(schema.names):
        for value in range(cards[col]):
            rows = rng.integers(0, cards, (12, n))
            rows[:, col] = value
            inter[(node, value)] = Dataset(schema, rows)
    if empty_do_set:
        inter[(schema.names[1], 0)] = Dataset(schema, np.zeros((0, n), dtype=int))
    return InterventionBundle(Dataset(schema, obs), inter, smoothing)


def close(value, expected):
    return value == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestCountTables:
    """`InterventionBundle.tables` answers from counts of distinct rows, with
    closed-form smoothing; dense empirical tables built by hand and Counters
    of row tuples are the oracles."""

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    def test_entropies_and_do_terms_match_dense_tables(self, smoothing):
        rng = np.random.default_rng(31)
        infinite = 0
        for _ in range(30):
            bundle = random_bundle(rng, smoothing, empty_do_set=smoothing > 0)
            counted, (full, do) = bundle.tables(), dense_bundle_tables(bundle)
            names = bundle.schema.names
            for k in range(1, len(names) + 1):
                for subset in itertools.combinations(names, k):
                    assert close(counted.entropy(subset), oracle_dense_entropy(full, subset))
            for node in names:
                terms = list(counted._do_terms(node))
                expected = oracle_dense_do_terms(full, do, node)
                assert [v for v, _, _ in terms] == [v for v, _, _ in expected]
                for (_, w, d), (_, ew, ed) in zip(terms, expected):
                    assert close(w, ew) and close(d, ed)
                    infinite += d == math.inf
            # the first variable's last state has no observational row
            skipped = bundle.schema.cardinalities[0] - 1
            assert (skipped in [v for v, _, _ in counted._do_terms(names[0])]) == (smoothing > 0)
        assert (infinite > 0) == (smoothing == 0)

    def test_dense_tables_match_the_dense_oracle(self):
        # a dense table is answered as its cells of positive probability,
        # weighted by their probabilities; zero cells leave a value of
        # probability 0 and make some D infinite
        rng = np.random.default_rng(41)

        def sparse(shape, keep):
            weights = np.where(rng.random(shape) < keep, rng.uniform(size=shape), 0.0)
            weights.flat[0] = 0.5
            return weights

        infinite = missing = 0
        for _ in range(30):
            schema = random_dag(rng, max_nodes=4).schema
            probs = sparse(schema.cardinalities, 0.7)
            probs[-1] = 0.0  # no cell at the first variable's last state
            full, do = ProbTable.from_weights(schema, probs), {}
            for node in schema.names:
                rest = schema.subset(set(schema.names) - {node})
                for value in range(schema.cardinality(node)):
                    if rng.random() < 0.8:
                        weights = sparse(rest.cardinalities, 0.9)
                        do[node, value] = ProbTable.from_weights(rest, weights)
            tables = InterventionTables(full, do)
            for k in range(1, len(schema.names) + 1):
                for subset in itertools.combinations(schema.names, k):
                    expected = oracle_dense_entropy(full, subset)
                    assert tables.entropy(subset) == pytest.approx(expected, abs=1e-12)
            for node in schema.names:
                terms = list(tables._do_terms(node))
                expected = oracle_dense_do_terms(full, do, node)
                assert [v for v, _, _ in terms] == [v for v, _, _ in expected]
                for (_, w, d), (_, ew, ed) in zip(terms, expected):
                    assert w == pytest.approx(ew, abs=1e-12)
                    assert (d is None and ed is None) or d == pytest.approx(ed, abs=1e-12)
                    infinite += d == math.inf
                    missing += d is None
            last = schema.cardinalities[0] - 1
            assert last not in [v for v, _, _ in tables._do_terms(schema.names[0])]
        assert infinite and missing

    def test_empty_do_set_needs_smoothing(self):
        bundle = random_bundle(np.random.default_rng(2), 0.0, empty_do_set=True)
        with pytest.raises(EmptyDataset):
            bundle.tables()
        smoothed = InterventionBundle(bundle.observational, bundle.interventional, 1.0)
        node = bundle.schema.names[1]
        d = {v: d for v, _, d in smoothed.tables()._do_terms(node)}[0]
        terms = oracle_dense_do_terms(*dense_bundle_tables(smoothed), node)
        expected = {v: d for v, _, d in terms}[0]
        assert math.isfinite(d) and close(d, expected)

    def test_unseen_do_cell_gives_infinite_divergences_and_flags(self):
        # at smoothing 0 every conditioned row has a rest the do-rows never reach
        schema = VariableSchema(("a", "b"), (2, 2))
        obs = Dataset(schema, [[0, 0], [0, 1], [1, 0], [1, 1]])
        inter = {
            ("a", 0): Dataset(schema, [[0, 0]]),
            ("a", 1): Dataset(schema, [[1, 0]]),
            ("b", 0): Dataset(schema, [[0, 0]]),
            ("b", 1): Dataset(schema, [[0, 1]]),
        }
        bundle = InterventionBundle(obs, inter, smoothing=0.0)
        pd = PdGraph(schema, (), (("a", "b"),))
        records = score_set(enumerate_orientations(pd), bundle)
        assert records[0].do_divergences == {"a": math.inf, "b": math.inf}
        for r in records:
            assert (r.gcf, r.flags) == (0.0, (FLAG_UNDEFINED_DISTANCE, FLAG_NO_CAUSAL_SIGNAL))

    def test_scopes_past_int64_codes_match_row_counters(self):
        # 65 binary columns: the joint has 2**65 cells and a D_a's rest 2**64,
        # past int64 row codes; 63 columns make exactly 2**63 cells, the
        # widest scope with int64 codes
        n = 65
        rng = np.random.default_rng(8)
        schema = VariableSchema(tuple(f"w{i:02d}" for i in range(n)), (2,) * n)
        patterns = rng.integers(0, 2, (12, n))
        obs = patterns[rng.integers(0, 12, 300)]
        inter = {}
        for node, col, kept in (("w00", 0, 12), ("w64", 64, 5)):
            for value in (0, 1):
                rows = patterns[rng.integers(0, kept, 100)]
                rows[:, col] = value
                inter[(node, value)] = Dataset(schema, rows)
        tables = InterventionBundle(Dataset(schema, obs), inter, 0.0).tables()
        for cols in (range(n), range(64), range(63), range(2, 12)):
            expected = oracle_count_entropy(obs, list(cols))
            assert close(tables.entropy([schema.names[c] for c in cols]), expected)
        divergences = []
        for node, col in (("w00", 0), ("w64", 64)):
            for value, weight, d in tables._do_terms(node):
                assert close(weight, np.mean(obs[:, col] == value))
                assert close(d, oracle_count_kl(obs, inter[(node, value)].rows, col, value))
                divergences.append(d)
        assert any(map(math.isfinite, divergences)) and math.inf in divergences

    def test_card_256_scopes_match_row_counters(self):
        # a and b are uint8 columns whose joint codes reach 65 535: arithmetic
        # in the rows' dtype would wrap
        schema = VariableSchema(("a", "b", "c"), (256, 256, 2))
        rng = np.random.default_rng(256)
        patterns = np.vstack([[[255, 255], [0, 0], [255, 0]], rng.integers(0, 256, (9, 2))])
        obs = np.column_stack([patterns[rng.integers(0, 12, 400)], rng.integers(0, 2, 400)])
        inter = {}
        for value, kept in ((0, 12), (1, 6)):
            inter[("c", value)] = Dataset(schema, np.column_stack(
                [patterns[rng.integers(0, kept, 150)], np.full(150, value)]))
        tables = InterventionBundle(Dataset(schema, obs), inter, 0.0).tables()
        assert tables._rows.dtype == np.uint8
        for cols in ([0], [0, 1], [1, 2], [0, 1, 2]):
            expected = oracle_count_entropy(obs, cols)
            assert close(tables.entropy([schema.names[c] for c in cols]), expected)
        divergences = [d for _, _, d in tables._do_terms("c")]
        for value, d in enumerate(divergences):
            assert close(d, oracle_count_kl(obs, inter[("c", value)].rows, 2, value))
        assert math.isfinite(divergences[0]) and divergences[1] == math.inf

    @pytest.mark.parametrize(
        "cards",
        [(255,), (256,), (3, 85), (2, 2**15), (2**16 - 1,), (2**16, 2**16 - 1), (2**16, 2**16),
         (2**31, 2**32), (255, 256, 257)],
    )
    def test_row_codes_at_each_accumulator_width(self, cards):
        # the codes' dtype holds the cell count: uint8 to 255 cells, uint16
        # to 65 535, uint32 to 2**32 - 1, then int64 to 2**63
        schema = VariableSchema(tuple(f"v{i}" for i in range(len(cards))), cards)
        rng = np.random.default_rng(len(cards))
        rows = np.vstack([[c - 1 for c in cards], [0] * len(cards),
                          np.column_stack([rng.integers(0, c, 20) for c in cards])])
        data = Dataset(schema, rows)
        codes = tables_module.row_codes(data.rows, range(len(cards)), cards)
        expected = []
        for row in rows.tolist():
            code = 0
            for value, card in zip(row, cards):
                code = code * card + value
            expected.append(code)
        assert codes.tolist() == expected and expected[0] == math.prod(cards) - 1

    @pytest.mark.parametrize("cards", [(2,) * 65, (3,) * 41, (300,) * 8],
                             ids=["65-binary", "41-ternary", "8x300"])
    def test_row_codes_past_int64_equal_and_sort_as_rows(self, cards):
        # past 2**63 cells the Horner codes would wrap; the codes must still
        # be equal exactly when the rows are, and sort as the rows sort
        assert math.prod(cards) > 2**63
        schema = VariableSchema(tuple(f"v{i:02d}" for i in range(len(cards))), cards)
        rng = np.random.default_rng(len(cards))
        patterns = np.column_stack([rng.integers(0, c, 40) for c in cards])
        rows = patterns[rng.integers(0, 40, 300)]
        first_only = rows[0].copy()  # differs from rows[0] in the first column alone
        first_only[0] = (first_only[0] + 1) % cards[0]
        rows = np.vstack([rows, first_only, [c - 1 for c in cards], [0] * len(cards)])
        data = Dataset(schema, rows)
        codes = tables_module.row_codes(data.rows, range(len(cards)), cards)
        assert codes.dtype == np.int64 and codes[0] != codes[300]
        keys = [tuple(r) for r in rows.tolist()]
        for i, key in enumerate(keys):
            assert ((codes == codes[i]) == [k == key for k in keys]).all()
        order = np.argsort(codes, kind="stable")
        assert [keys[i] for i in order] == sorted(keys)

    def test_single_variable_schema(self):
        # the rest of the only variable is empty: both sides are point masses
        schema = VariableSchema(("a",), (2,))
        inter = {("a", v): Dataset(schema, [[v]] * 3) for v in (0, 1)}
        bundle = InterventionBundle(Dataset(schema, [[0], [1], [1]]), inter, 0.0)
        detail = (0.0, [(0, 1 / 3, 0.0), (1, 2 / 3, 0.0)])
        assert do_divergence_detail("a", bundle.tables()) == detail
        point = ProbTable(VariableSchema((), ()), 1.0)
        do = {("a", v): point for v in (0, 1)}
        dense = InterventionTables(ProbTable(schema, [1 / 3, 2 / 3]), do)
        assert do_divergence_detail("a", dense) == detail
        assert gf(Dag(schema, ()), bundle.observational) == math.inf

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double here"
    )
    def test_gf_matches_a_long_double_recomputation(self):
        # GF is -ln of a small difference of entropies: dense float64 tables
        # of 2**16 cells lose about 1e-12 of it
        n, s = 16, 1.0
        names = tuple(f"x{i:02d}" for i in range(n))
        schema = VariableSchema(names, (2,) * n)
        chain = tuple(zip(names, names[1:]))
        truth = Dag(schema, chain + tuple(zip(names, names[2:])))
        data = sample(random_net(truth, np.random.default_rng(1)), 5_000, 1)
        cells = np.bincount(np.ravel_multi_index(tuple(data.rows.T), schema.cardinalities),
                            minlength=schema.n_cells)
        p = (cells.astype(np.longdouble) + s).reshape(schema.cardinalities)
        p /= p.sum()

        def entropy(cols):
            m = p.sum(axis=tuple(i for i in range(n) if i not in cols))
            return -(m * np.log(m)).sum() if cols else np.longdouble(0)

        kl = sum(entropy({i - 1, i} - {-1}) - entropy({i - 1} - {-1}) for i in range(n))
        expected = -np.log(kl - entropy(set(range(n))))
        assert gf(Dag(schema, chain), data, s) == pytest.approx(float(expected), rel=1e-12)

    def test_data_path_builds_no_dense_table(self, monkeypatch, fig2_pdgraph, fig2_truth):
        net = random_net(fig2_truth, np.random.default_rng(5))
        bundle = make_bundle(net, n_obs=2_000, n_do=500, seed=4, smoothing=1.0)
        dags = enumerate_orientations(fig2_pdgraph)
        expected = [record_bits(r) for r in score_set(dags, bundle)]

        def dense(*args, **kwargs):
            raise AssertionError("a dense table was built")

        monkeypatch.setattr(tables_module, "empirical_from_dataset", dense)
        monkeypatch.setattr(Dataset, "select", dense)
        monkeypatch.setattr(ProbTable, "__post_init__", dense)
        assert [record_bits(r) for r in score_set(dags, bundle)] == expected
        assert gf(dags.members[0].dag, bundle.observational, 1.0) == score_set(dags, bundle)[0].gf
