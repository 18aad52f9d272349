import itertools
import json

import numpy as np
import pytest

from gcfit import (
    Dag,
    EnumerationLimit,
    GcfitError,
    ParseError,
    PdGraph,
    UnknownVariable,
    VariableSchema,
    enumerate_orientations,
    is_acyclic,
    load_pdgraph,
    pdgraph_from_json,
    pdgraph_to_json,
)
from gcfit.graphs import EdgeRanks, iter_orientations, subset_orientations, topological_order
from conftest import (
    oracle_orientation_subset,
    oracle_orientations,
    oracle_scan_topological_order,
    oracle_topological_order,
)


@pytest.fixture
def triangle():
    schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
    return PdGraph(schema, (), (("a", "b"), ("a", "c"), ("b", "c")))


class TestDag:
    def test_cycle_rejected(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        with pytest.raises(GcfitError):
            Dag(schema, (("a", "b"), ("b", "a")))

    def test_duplicate_edge_rejected(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        with pytest.raises(GcfitError, match="^duplicate edge$"):
            Dag(schema, (("a", "b"), ("a", "b")))

    def test_self_loop_rejected(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        with pytest.raises(GcfitError):
            Dag(schema, (("a", "a"),))

    @pytest.mark.parametrize("edges", [["ab"], "ab", [("a", "b", "a")]],
                             ids=["str-edge", "str-edges", "triple"])
    def test_edges_must_be_pairs_of_names(self, edges):
        # tuple() would read "ab" as the edge a->b
        with pytest.raises(GcfitError):
            Dag(VariableSchema(("a", "b"), (2, 2)), edges)

    def test_parents_in_schema_order(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        dag = Dag(schema, (("c", "b"), ("a", "b")))
        assert dag.parents("b") == ("a", "c")

    def test_schema_index_by_name(self):
        schema = VariableSchema(("c", "a", "b"), (2, 3, 2))
        assert [schema.index(n) for n in ("a", "b", "c")] == [1, 2, 0]
        assert schema == VariableSchema(["c", "a", "b"], [2, 3, 2])
        for name in ("d", ["a"], None):  # a list is unhashable
            with pytest.raises(UnknownVariable):
                schema.index(name)
        with pytest.raises(UnknownVariable):
            Dag(schema, (("c", "a"),)).parents("d")

    def test_topological_order_is_deterministic(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        dag = Dag(schema, (("c", "a"),))
        assert dag.topological_order() == ["b", "c", "a"]
        # random edge sets, cyclic ones and duplicate edges included, with
        # schema orders that are not alphabetical
        rng = np.random.default_rng(11)
        cyclic = 0
        for _ in range(300):
            n = int(rng.integers(1, 7))
            names = tuple(str(x) for x in rng.permutation(list("abcdef"))[:n])
            schema = VariableSchema(names, (2,) * n)
            m = int(rng.integers(0, 2 * n + 1))
            edges = [tuple(map(str, rng.choice(names, size=2, replace=n < 2))) for _ in range(m)]
            edges += edges[: int(rng.integers(0, 2))]
            expected = oracle_topological_order(names, edges)
            cyclic += expected is None
            assert topological_order(schema, edges) == expected
            assert is_acyclic(schema, edges) == (expected is not None)
        assert 0 < cyclic < 300

    def test_heap_order_equals_the_scan(self):
        # graphs too large for the permutation oracle, against the scan that
        # rescans the pending nodes at each step; repeated edges, self-loops
        # and cycles included
        rng = np.random.default_rng(30)
        cyclic = 0
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            names = tuple(f"v{i}" for i in rng.permutation(n))
            schema = VariableSchema(names, (2,) * n)
            rank = rng.permutation(n)  # edges follow it, but for a few reversed ones
            edges = []
            for _ in range(int(rng.integers(0, 2 * n + 1))):
                i, j = sorted(rng.integers(0, n, 2), key=rank.__getitem__)
                edges.append((names[j], names[i]) if rng.random() < 0.03 else (names[i], names[j]))
            edges += edges[: int(rng.integers(0, 3))]
            expected = oracle_scan_topological_order(names, edges)
            cyclic += expected is None
            assert topological_order(schema, edges) == expected
        assert 0 < cyclic < 1000


class TestIsAcyclic:
    def test_empty_edges(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        assert is_acyclic(schema, ())

    def test_two_cycle(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        assert not is_acyclic(schema, (("a", "b"), ("b", "a")))

    def test_endpoint_outside_schema_raises(self):
        # an unknown parent must not read as a node that is never ready
        schema = VariableSchema(("a", "b"), (2, 2))
        for edges in ((("a", "z"),), (("z", "a"),)):
            with pytest.raises(KeyError):
                is_acyclic(schema, edges)

    def test_triangle_orientations(self, triangle):
        schema = triangle.schema
        good = 0
        for bits in itertools.product((0, 1), repeat=3):
            edges = tuple(
                (a, b) if bit == 0 else (b, a)
                for bit, (a, b) in zip(bits, triangle.undirected)
            )
            good += is_acyclic(schema, edges)
        assert good == 6


def skeleton(dag):
    """Edge set with orientations erased; pairs sorted lexicographically."""
    return frozenset(tuple(sorted(e)) for e in dag.edges)


class TestSkeleton:
    def test_edgeless(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        assert skeleton(Dag(schema, ())) == frozenset()

    def test_both_fig1_orientations_share_skeleton(self, fig1_pdgraph):
        dags = [m.dag for m in enumerate_orientations(fig1_pdgraph)]
        assert len(dags) == 2
        assert skeleton(dags[0]) == skeleton(dags[1])
        assert skeleton(dags[0]) == {("a", "b"), ("a", "z"), ("b", "z")}

    def test_reversal_invariance(self):
        schema = VariableSchema(("p", "q", "r", "s"), (2, 2, 2, 2))
        dag = Dag(schema, (("p", "q"), ("p", "r"), ("r", "s")))
        assert skeleton(dag) == skeleton(dag.reversed())


class TestEnumerateOrientations:
    def test_fig1_two_dags(self, fig1_pdgraph):
        dags = enumerate_orientations(fig1_pdgraph)
        assert [m.graph_id for m in dags] == ["G0", "G1"]
        assert dags.members[0].dag.edges == (("a", "b"), ("a", "z"), ("b", "z"))
        assert dags.members[1].dag.edges == (("a", "z"), ("b", "a"), ("b", "z"))

    def test_fig2_four_dags_including_collider(self, fig2_pdgraph):
        dags = enumerate_orientations(fig2_pdgraph)
        assert len(dags) == 4
        collider = [
            m
            for m in dags
            if ("x2", "x1") in m.dag.edges and ("x3", "x1") in m.dag.edges
        ]
        assert len(collider) == 1

    def test_triangle_six_dags(self, triangle):
        dags = enumerate_orientations(triangle)
        assert len(dags) == 6

    def test_skeleton_matches_source(self, fig2_pdgraph):
        expected = {tuple(sorted(e)) for e in fig2_pdgraph.directed} | set(
            fig2_pdgraph.undirected
        )
        for m in enumerate_orientations(fig2_pdgraph):
            assert skeleton(m.dag) == expected

    def test_count_bound_brute_force(self):
        # random PD graphs: an acyclic directed part (edges follow a random
        # node order) plus k undirected edges on other pairs; 60 on 5 nodes
        # (<= 4 directed, k <= 6), then 40 on 7 nodes (<= 12 directed,
        # k <= 8), where cycles through multi-hop directed paths are common
        rng = np.random.default_rng(5)
        for names, n_graphs, max_dir, max_k in (("abcde", 60, 4, 6), ("abcdefg", 40, 12, 8)):
            schema = VariableSchema(tuple(names), (2,) * len(names))
            pairs = list(itertools.combinations(schema.names, 2))
            for _ in range(n_graphs):
                rank = {n: i for i, n in enumerate(rng.permutation(list(schema.names)))}
                shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
                n_dir = int(rng.integers(0, max_dir + 1))
                k = int(rng.integers(0, max_k + 1))
                directed = tuple(
                    (a, b) if rank[a] < rank[b] else (b, a) for a, b in shuffled[:n_dir]
                )
                g = PdGraph(schema, directed, tuple(shuffled[n_dir : n_dir + k]))
                dags = enumerate_orientations(g)
                expected = oracle_orientations(g)
                assert [(m.orientation, m.dag.edges) for m in dags] == expected
                assert [m.graph_id for m in dags] == ["G" + v for v, _ in expected]
                assert 1 <= len(dags) <= 2**k
                # the members are built unchecked; they must equal checked Dags
                assert all(m.dag == Dag(g.schema, m.dag.edges) for m in dags)

    def test_deep_forced_chain_needs_no_recursion(self):
        # v_i -> v_{i+1} with v_i - v_{i+2} undirected: reversing any
        # undirected edge closes a 3-cycle, so each is forced to "0", and the
        # search goes 1198 levels deep, past the default recursion limit
        n = 1200
        names = tuple(f"v{i:04d}" for i in range(n))
        g = PdGraph(
            VariableSchema(names, (2,) * n),
            tuple((names[i], names[i + 1]) for i in range(n - 1)),
            tuple((names[i], names[i + 2]) for i in range(n - 2)),
        )
        dags = enumerate_orientations(g, max_undirected=2000)
        assert [m.orientation for m in dags] == ["0" * 1198]

    def test_enumeration_cap(self, triangle):
        with pytest.raises(EnumerationLimit) as exc:
            enumerate_orientations(triangle, max_undirected=2)
        assert exc.value.n_undirected == 3

    def test_determinism(self, fig2_pdgraph):
        a = enumerate_orientations(fig2_pdgraph)
        b = enumerate_orientations(fig2_pdgraph)
        assert [m.graph_id for m in a] == [m.graph_id for m in b]
        assert [m.dag.edges for m in a] == [m.dag.edges for m in b]

    def test_subset_selection(self, fig2_pdgraph):
        assert subset_orientations(fig2_pdgraph, ["10", "00"]) == ["00", "10"]
        with pytest.raises(GcfitError):
            subset_orientations(fig2_pdgraph, ["99"])
        # the empty vector is printed as gcf enumerate and scores.csv print it
        with pytest.raises(GcfitError, match=r"^unknown orientation vectors: \['-'\]$"):
            subset_orientations(fig2_pdgraph, ["00", ""])

    def test_subset_orientations_walks_to_what_the_oracle_keeps(self):
        # random PD graphs on 6 nodes; every vector of the right length is
        # asked for in a random order with repeats, so cyclic ones are too
        rng = np.random.default_rng(11)
        schema = VariableSchema(tuple("abcdef"), (2,) * 6)
        pairs = list(itertools.combinations(schema.names, 2))
        for _ in range(30):
            rank = {n: i for i, n in enumerate(rng.permutation(list(schema.names)))}
            shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
            n_dir, k = int(rng.integers(0, 6)), int(rng.integers(0, 7))
            directed = tuple((a, b) if rank[a] < rank[b] else (b, a) for a, b in shuffled[:n_dir])
            g = PdGraph(schema, directed, tuple(shuffled[n_dir : n_dir + k]))
            acyclic = [vec for vec, _ in oracle_orientations(g)]
            wanted = [acyclic[i] for i in rng.integers(0, len(acyclic), 4)]
            assert subset_orientations(g, wanted) == oracle_orientation_subset(acyclic, wanted)
            cyclic = sorted(set(map("".join, itertools.product("01", repeat=k))) - set(acyclic))
            for bad in cyclic[:2] + ["2" * max(k, 1), "0" * (k + 1)]:
                with pytest.raises(GcfitError, match="unknown orientation vectors") as exc:
                    subset_orientations(g, wanted + [bad])
                with pytest.raises(GcfitError) as expected:
                    oracle_orientation_subset(acyclic, wanted + [bad])
                assert str(exc.value) == str(expected.value)
        # no vectors; the empty vector of a graph with no undirected edges; a
        # vector whose 10**6 prefixes would hold 5e11 characters, so it must
        # be found unknown by its length; repeats
        g = PdGraph(schema, (("a", "b"),), (("b", "c"), ("c", "d")))
        assert subset_orientations(g, []) == []
        directed = PdGraph(schema, (("a", "b"),), ())
        assert subset_orientations(directed, [""]) == [""]
        with pytest.raises(GcfitError) as exc:
            subset_orientations(g, ["01", "0" * 10**6])
        assert str(exc.value) == f"unknown orientation vectors: {['0' * 10**6]}"
        assert subset_orientations(g, ["10", "00", "10", "00"]) == ["00", "10"]

    def test_subset_orientations_lists_unknown_vectors_sorted(self):
        # the unknown vectors are a set, which iterates in string-hash order
        # and so differs from run to run; eight of them, passed in reverse,
        # leave an unsorted listing 1 chance in 40 320 of reading sorted
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        g = PdGraph(schema, (), (("a", "b"), ("b", "c")))
        unknown = [f"{i}{j}" for i in "23" for j in "0123"]
        with pytest.raises(GcfitError) as exc:
            subset_orientations(g, ["00"] + unknown[::-1])
        assert str(exc.value) == f"unknown orientation vectors: {unknown}"

    def test_subset_orientations_checks_the_cap_first(self, triangle):
        with pytest.raises(EnumerationLimit):
            subset_orientations(triangle, ["999"], max_undirected=2)


def through_hubs(rng):
    """A random PD graph whose undirected edges join a few terminals and
    whose directed edges mostly run through nodes with no undirected edge,
    so reach between terminals goes through them.  The schema lists the
    names out of name order, and "a" is a prefix of "ab"."""
    names = [str(n) for n in rng.permutation(["m", "ab", "c", "a", "x", "b", "z", "k"])]
    rank = {n: i for i, n in enumerate(rng.permutation(names))}
    terminals = set(names[: int(rng.integers(2, 7))])
    pairs = [tuple(sorted(p)) for p in itertools.combinations(names, 2)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    undirected = [p for p in pairs if set(p) <= terminals][: int(rng.integers(0, 9))]
    directed = [(a, b) if rank[a] < rank[b] else (b, a)
                for a, b in pairs if not set((a, b)) <= terminals][: int(rng.integers(0, 12))]
    directed += [(a, b) if rank[a] < rank[b] else (b, a)
                 for a, b in pairs if {a, b} <= terminals and (a, b) not in undirected][:1]
    schema = VariableSchema(tuple(names), (2,) * len(names))
    return PdGraph(schema, tuple(directed), tuple(undirected))


class TestReachThroughOtherNodes:
    """The walk keeps reach among the undirected edges' endpoints only; a
    directed path through other nodes must still refuse a cycle."""

    def test_path_through_a_node_without_undirected_edges(self):
        # a -> x -> b and a - b: b -> a, vector "1", closes a cycle
        schema = VariableSchema(("b", "x", "a"), (2, 2, 2))
        g = PdGraph(schema, (("a", "x"), ("x", "b")), (("a", "b"),))
        assert list(iter_orientations(g)) == ["0"] == [v for v, _ in oracle_orientations(g)]
        with pytest.raises(GcfitError, match=r"^unknown orientation vectors: \['1'\]$"):
            subset_orientations(g, ["0", "1"])

    def test_walks_equal_the_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            g = through_hubs(rng)
            acyclic = [vec for vec, _ in oracle_orientations(g)]
            assert list(iter_orientations(g)) == acyclic
            wanted = [acyclic[i] for i in rng.integers(0, len(acyclic), 3)]
            assert subset_orientations(g, wanted) == oracle_orientation_subset(acyclic, wanted)
            k = len(g.undirected)
            cyclic = sorted(set(map("".join, itertools.product("01", repeat=k))) - set(acyclic))
            for bad in cyclic[:2]:
                with pytest.raises(GcfitError, match="unknown orientation vectors"):
                    subset_orientations(g, wanted + [bad])


class TestEdgeLists:
    """`EdgeRanks.lists` renders each vector's sorted edges, a block per
    depth, for vectors in any order."""

    @staticmethod
    def expected(g):
        return {vec: ";".join(f"{a}->{b}" for a, b in edges)
                for vec, edges in oracle_orientations(g)}

    def test_every_candidate_in_walk_and_shuffled_orders(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            g = through_hubs(rng)
            expected = self.expected(g)
            ranks = EdgeRanks(g)
            walk = list(iter_orientations(g))
            assert [(v, text) for v, _, text in ranks.lists(walk)] == list(expected.items())
            shuffled = [walk[i] for i in rng.permutation(len(walk))]
            rendered = [(v, text) for v, _, text in ranks.lists(shuffled)]
            assert rendered == [(v, expected[v]) for v in shuffled]
            # the depth a vector rebuilds from is where it first differs from the previous
            depths = [start for _, start, _ in ranks.lists(shuffled)]
            assert depths[0] == 0
            assert depths[1:] == [
                next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), len(v))
                for u, v in zip(shuffled, shuffled[1:])
            ]

    def test_empty_vector_and_tails_without_edges(self):
        schema = VariableSchema(("d", "c", "b", "a"), (2,) * 4)
        # no undirected edge: the one vector is empty
        g = PdGraph(schema, (("c", "a"), ("b", "a")), ())
        assert list(EdgeRanks(g).lists([""])) == [("", 0, "b->a;c->a")]
        # no edge at all
        assert list(EdgeRanks(PdGraph(schema, (), ())).lists([""])) == [("", 0, "")]
        # "b" has edges only as a head or when its undirected edge points
        # out of it, and "d" has none: a block's text may be empty
        g = PdGraph(schema, (("a", "c"),), (("a", "b"), ("b", "c"), ("c", "d")))
        expected = self.expected(g)
        assert [(v, text) for v, _, text in EdgeRanks(g).lists(expected)] == list(expected.items())
        assert expected["000"] == "a->b;a->c;b->c;c->d"


class TestPdGraphValidation:
    def test_pair_both_directed_and_undirected(self):
        schema = VariableSchema(("a", "b"), (2, 2))
        with pytest.raises(GcfitError):
            PdGraph(schema, (("a", "b"),), (("a", "b"),))

    @pytest.mark.parametrize("directed, undirected", [((), ["ab"]), (["ab"], ()), ((), "ab")],
                             ids=["str-undirected-edge", "str-directed-edge", "str-edges"])
    def test_edges_must_be_pairs_of_names(self, directed, undirected):
        with pytest.raises(GcfitError):
            PdGraph(VariableSchema(("a", "b"), (2, 2)), directed, undirected)

    def test_directed_part_must_be_acyclic(self):
        schema = VariableSchema(("a", "b", "c"), (2, 2, 2))
        with pytest.raises(GcfitError):
            PdGraph(schema, (("a", "b"), ("b", "c"), ("c", "a")), ())


class TestJson:
    def test_round_trip_is_byte_identical(self, fig2_pdgraph):
        text = pdgraph_to_json(fig2_pdgraph)
        assert pdgraph_to_json(pdgraph_from_json(text)) == text

    def test_invalid_json_reports_location(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            pdgraph_from_json('{\n"variables": nope}', path="x.json")
        assert str(exc.value).startswith("x.json:2: invalid JSON")
        # a file's lines are counted as text mode reads them, whatever they end with
        for newline in (b"\n", b"\r\n", b"\r"):
            (tmp_path / "x.json").write_bytes(newline.join([b"{", b'"variables":', b"nope}"]))
            with pytest.raises(ParseError) as exc:
                load_pdgraph(tmp_path / "x.json")
            assert exc.value.line == 3

    def test_missing_variables_block(self):
        for text in ("{}", "[]"):
            with pytest.raises(ParseError, match="^missing 'variables' block$"):
                pdgraph_from_json(text)

    @pytest.mark.parametrize(
        "key, value", [("cardinality", 2.7), ("cardinality", "3"), ("cardinality", True), ("name", 5)]
    )
    def test_variables_must_be_json_strings_and_integers(self, fig2_pdgraph, key, value):
        doc = json.loads(pdgraph_to_json(fig2_pdgraph))
        doc["variables"][0][key] = value  # int() would read 2.7 as 2 and "3" as 3
        with pytest.raises(ParseError, match="bad variables block"):
            pdgraph_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("directed", ["az", "bz"]),  # tuple() would read "az" as the edge a->z
            ("undirected", ["ab"]),
            ("directed", [["a", "z", "b"]]),
            ("undirected", [["a", 5]]),
            ("directed", "az"),
        ],
    )
    def test_edges_must_be_pairs_of_json_strings(self, fig1_pdgraph, key, value):
        doc = json.loads(pdgraph_to_json(fig1_pdgraph))
        doc[key] = value
        with pytest.raises(ParseError, match="bad graph"):
            pdgraph_from_json(json.dumps(doc))
