import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gcfit import bayesnet
from gcfit import (
    BayesNet,
    Cpt,
    Dag,
    Dataset,
    GcfitError,
    InvalidState,
    ParseError,
    ProbTable,
    SchemaMismatch,
    VariableSchema,
    bayesnet_from_json,
    bayesnet_to_json,
    do_intervene,
    fit_cpts,
    joint,
    sample,
    sample_do,
)
from conftest import (
    ancestral_factors,
    oracle_joint,
    oracle_marginal,
    oracle_sample,
    random_dag,
    random_net,
)


@pytest.fixture
def chain_net():
    # a -> b with P(a=1)=0.3, P(b=1|a=0)=0.2, P(b=1|a=1)=0.9
    schema = VariableSchema(("a", "b"), (2, 2))
    dag = Dag(schema, (("a", "b"),))
    cpts = {
        "a": Cpt("a", (), np.array([0.7, 0.3])),
        "b": Cpt("b", ("a",), np.array([[0.8, 0.2], [0.1, 0.9]])),
    }
    return BayesNet(dag, cpts)


@pytest.fixture
def fig1_net(fig1_truth):
    return random_net(fig1_truth, np.random.default_rng(2))


class TestConstruction:
    def test_cpt_rows_must_normalize(self):
        with pytest.raises(GcfitError):
            Cpt("a", (), np.array([0.7, 0.7]))

    @pytest.mark.parametrize("parents, rows", [
        ((), [math.nan, math.nan]),
        (("a",), [[0.8, 0.2], [math.nan, 0.5]]),
    ])
    def test_cpt_nan_rejected(self, parents, rows):
        with pytest.raises(GcfitError):
            Cpt("b", parents, np.array(rows))

    @pytest.mark.parametrize("parents, table", [
        ((), ["0.25", "0.75"]),
        ((), [True, False]),
        ((), [1, False]),  # numpy reads a bool among numbers as a number
        ("a", [[0.5, 0.5], [0.5, 0.5]]),  # tuple() would read "a" as ("a",)
    ], ids=["str-entries", "bool-entries", "bool-among-numbers", "str-parents"])
    def test_cpt_rejects_what_it_would_coerce(self, parents, table):
        with pytest.raises(GcfitError):
            Cpt("b", parents, table)

    def test_cpt_parents_must_match_dag(self, chain_net):
        bad = {
            "a": Cpt("a", (), np.array([0.7, 0.3])),
            "b": Cpt("b", (), np.array([0.5, 0.5])),
        }
        with pytest.raises(GcfitError):
            BayesNet(chain_net.dag, bad)

    @pytest.mark.parametrize("change, message", [
        ({"b": None}, "need exactly one CPT per node"),
        ({"b": Cpt("a", (), np.array([0.5, 0.5]))}, "CPT keyed 'b' describes 'a'"),
        ({"b": Cpt("b", ("a",), np.full((2, 3), 1 / 3))},
         r"CPT for 'b' has shape \(2, 3\), expected \(2, 2\)"),
    ], ids=["missing", "keyed-under-another-node", "wrong-shape"])
    def test_one_cpt_of_the_family_shape_per_node(self, chain_net, change, message):
        cpts = {k: v for k, v in {**chain_net.cpts, **change}.items() if v is not None}
        with pytest.raises(GcfitError, match=f"^{message}$"):
            BayesNet(chain_net.dag, cpts)


class TestJoint:
    def test_single_node(self):
        schema = VariableSchema(("a", "pad"), (2, 2))
        dag = Dag(schema, ())
        net = BayesNet(
            dag,
            {
                "a": Cpt("a", (), np.array([0.7, 0.3])),
                "pad": Cpt("pad", (), np.array([1.0, 0.0])),
            },
        )
        assert joint(net).marginalize({"a"}).flat() == pytest.approx([0.7, 0.3])

    def test_chain_hand_product(self, chain_net):
        assert joint(chain_net).flat() == pytest.approx([0.56, 0.14, 0.03, 0.27])

    def test_matches_brute_force_factor_multiplication(self):
        rng = np.random.default_rng(6)
        binary = VariableSchema(("a", "b", "c", "d"), (2, 2, 2, 2))
        # edges against schema order, into and out of a 3-state variable
        mixed = VariableSchema(("a", "b", "c", "d"), (2, 3, 2, 2))
        for schema, edges in [
            (binary, (("a", "b"), ("b", "c"), ("c", "d"))),
            (binary, (("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"))),
            (binary, ()),
            (mixed, (("d", "a"), ("c", "b"), ("d", "b"), ("b", "a"))),
        ]:
            net = random_net(Dag(schema, edges), rng)
            np.testing.assert_allclose(joint(net).probs, oracle_joint(net), atol=1e-12)

    def test_family_marginal_reproduces_cpt(self, fig1_net):
        # sum_x P(x) over a node's family, divided by the parent marginal,
        # recovers the CPT row by row
        full = joint(fig1_net)
        schema = fig1_net.schema
        for node in schema.names:
            parents = fig1_net.dag.parents(node)
            fam = full.marginalize(set(parents) | {node})
            for pa in itertools.product(*(range(schema.cardinality(p)) for p in parents)):
                cond = fam
                for p, v in zip(parents, pa):
                    cond = cond.condition(p, v)
                np.testing.assert_allclose(
                    cond.probs, fig1_net.cpts[node].table[pa], atol=1e-9
                )


def eliminate_ancestral(net, keep):
    """`bayesnet._eliminate` over the `ancestral_factors` of ``keep``."""
    _, card, position = bayesnet._factors(net)
    return bayesnet._eliminate(ancestral_factors(net, keep), tuple(keep), card, position)


class TestMarginal:
    def test_matches_the_dense_joint_on_random_nets(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            net = random_net(random_dag(rng), rng)
            names = list(net.schema.names)
            full = joint(net)
            for size in range(1, len(names) + 1):
                keep = [str(n) for n in rng.permutation(names)[:size]]
                # the dense marginal has schema order; compare in ``keep`` order
                order = [full.schema.subset(keep).names.index(n) for n in keep]
                expected = full.marginalize(keep).probs.transpose(order)
                got = eliminate_ancestral(net, keep)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)
                # the heap-kept order multiplies what the min scan did, in its order
                assert np.array_equal(got, oracle_marginal(net, keep))

    def test_equals_the_min_scan_bit_for_bit_on_a_long_chain_with_skips(self):
        # 60 binary nodes, v_i -> v_i+1 and v_i -> v_i+2: long ancestral sets
        # in which many variables tie on cells, so the tie rule decides the order
        names = [f"v{i:02d}" for i in range(60)]
        edges = [(a, b) for k in (1, 2) for a, b in zip(names, names[k:])]
        rng = np.random.default_rng(5)
        net = random_net(Dag(VariableSchema(tuple(names), (2,) * 60), edges), rng)
        queries = [net.dag.parents(n) + (n,) for n in names]
        queries += [[str(n) for n in rng.permutation(names)[:size]] for size in (1, 2, 3, 4) * 3]
        for keep in queries:
            assert np.array_equal(eliminate_ancestral(net, keep), oracle_marginal(net, keep))

    def test_dense_tables_are_the_oracle_products_bit_for_bit(self):
        # joint and do_intervene eliminate every CPT, barren ones included:
        # the product must still be the ancestral oracle's, and a do-table
        # that product over its sum in C order.  Under do(a), a has no
        # children and adjacent parents: its summed-out factor is one more
        # operand of the product, and einsum lays that product out otherwise
        schema = VariableSchema(("a", "b", "c", "d", "e"), (3, 2, 3, 3, 3))
        dag = Dag(schema, (("c", "b"), ("d", "a"), ("d", "c"), ("e", "a"), ("e", "d")))
        nets = [random_net(dag, np.random.default_rng(0))]
        rng = np.random.default_rng(7)
        nets += [random_net(random_dag(rng), rng) for _ in range(300)]
        for net in nets:
            names = net.schema.names
            assert np.array_equal(joint(net).probs, oracle_marginal(net, names))
            for node in names:
                rest = [n for n in names if n != node]
                for value in range(net.schema.cardinality(node)):
                    w = oracle_marginal(bayesnet._mutilate(net, node, value), rest)
                    w = np.asarray(w, order="C")
                    assert np.array_equal(do_intervene(net, node, value).probs, w / w.sum())


class TestDoIntervene:
    def test_root_intervention_equals_conditioning(self, chain_net):
        assert do_intervene(chain_net, "a", 1).flat() == pytest.approx([0.1, 0.9])

    def test_child_intervention_leaves_parent_marginal(self, chain_net):
        assert do_intervene(chain_net, "b", 1).flat() == pytest.approx([0.7, 0.3])

    def test_matches_mutilate_then_enumerate_oracle(self, fig1_schema):
        mixed = VariableSchema(("a", "b", "c", "d"), (2, 3, 2, 2))
        for dag, seed in [
            # Fig-1-style graph b->a, b->z, a->z
            (Dag(fig1_schema, (("b", "a"), ("b", "z"), ("a", "z"))), 8),
            # edges against schema order; 3-state b has two parents and a child
            (Dag(mixed, (("d", "a"), ("c", "b"), ("d", "b"), ("b", "a"))), 9),
            # 3-state b a root whose child has two parents
            (Dag(mixed, (("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"))), 10),
        ]:
            schema = dag.schema
            net = random_net(dag, np.random.default_rng(seed))
            for node in schema.names:
                for value in range(schema.cardinality(node)):
                    got = do_intervene(net, node, value)
                    # oracle: cut node's parent edges, replace its CPT with a point
                    # mass, enumerate the joint, then condition on the clamp
                    delta = np.zeros(schema.cardinality(node))
                    delta[value] = 1.0
                    cpts = dict(net.cpts)
                    cpts[node] = Cpt(node, (), delta)
                    mutilated = BayesNet(
                        Dag(schema, tuple(e for e in dag.edges if e[1] != node)), cpts
                    )
                    oracle = ProbTable(schema, oracle_joint(mutilated)).condition(node, value)
                    np.testing.assert_allclose(got.probs, oracle.probs, atol=1e-12)

    def test_root_node_equivalence_property(self):
        rng = np.random.default_rng(13)
        schema = VariableSchema(("a", "b", "c", "d"), (2, 3, 2, 2))
        dag = Dag(schema, (("a", "c"), ("b", "c"), ("c", "d")))
        for _ in range(5):
            net = random_net(dag, rng)
            for root in ("a", "b"):
                for v in range(schema.cardinality(root)):
                    got = do_intervene(net, root, v)
                    expected = joint(net).condition(root, v)
                    np.testing.assert_allclose(got.probs, expected.probs, atol=1e-12)

    def test_non_descendant_marginal_unchanged(self, fig1_net):
        # intervening on b (a child of a) cannot move a's marginal
        base = joint(fig1_net).marginalize({"a"})
        for v in (0, 1):
            after = do_intervene(fig1_net, "b", v).marginalize({"a"})
            np.testing.assert_allclose(after.probs, base.probs, atol=1e-12)

    def test_invalid_state(self, chain_net):
        with pytest.raises(InvalidState):
            do_intervene(chain_net, "a", 7)

    def test_only_variable_leaves_empty_table(self):
        schema = VariableSchema(("a",), (2,))
        net = BayesNet(Dag(schema, ()), {"a": Cpt("a", (), np.array([0.3, 0.7]))})
        got = do_intervene(net, "a", 1)
        assert got.schema.names == () and float(got.probs) == 1.0


class TestFitCpts:
    def test_deterministic_net_recovered_exactly(self, fig1_schema):
        dag = Dag(fig1_schema, (("a", "b"),))
        data = Dataset(fig1_schema, [[0, 1, 0]] * 5 + [[1, 0, 0]] * 5)
        net = fit_cpts(dag, data)
        assert net.cpts["b"].table[0].tolist() == [0.0, 1.0]
        assert net.cpts["b"].table[1].tolist() == [1.0, 0.0]

    def test_unseen_parent_configuration_uniform(self, fig1_schema):
        dag = Dag(fig1_schema, (("a", "b"),))
        data = Dataset(fig1_schema, [[0, 1, 0]] * 4)  # a=1 never occurs
        net = fit_cpts(dag, data)
        assert net.cpts["b"].table[1].tolist() == [0.5, 0.5]
        # with no rows at all, every row of every CPT is unseen
        empty = fit_cpts(dag, Dataset(fig1_schema, np.empty((0, 3), dtype=int)))
        for cpt in empty.cpts.values():
            assert (cpt.table == 0.5).all()

    def test_recovery_from_large_sample(self, fig1_net):
        data = sample(fig1_net, 50_000, seed=21)
        fitted = fit_cpts(fig1_net.dag, data, smoothing=1.0)
        for node in fig1_net.schema.names:
            assert (
                np.abs(fitted.cpts[node].table - fig1_net.cpts[node].table).max() < 0.02
            )

    def test_error_shrinks_with_sample_size(self, fig1_net):
        # mean max-abs CPT error over 3 seeds is nonincreasing through
        # n = 1e3, 1e4, 1e5
        def mean_err(n):
            errs = []
            for seed in (1, 2, 3):
                fitted = fit_cpts(fig1_net.dag, sample(fig1_net, n, seed), smoothing=0)
                errs.append(
                    max(
                        np.abs(fitted.cpts[v].table - fig1_net.cpts[v].table).max()
                        for v in fig1_net.schema.names
                    )
                )
            return np.mean(errs)

        e1, e2, e3 = mean_err(1_000), mean_err(10_000), mean_err(100_000)
        assert e1 >= e2 >= e3

    def test_foreign_schema_rejected(self, fig1_net):
        other = Dataset(VariableSchema(("a", "b"), (2, 2)), [[0, 1]])
        with pytest.raises(SchemaMismatch, match="^dataset schema differs from DAG schema$"):
            fit_cpts(fig1_net.dag, other)

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_smoothing_must_be_finite_and_nonnegative(self, fig1_net, smoothing):
        with pytest.raises(GcfitError, match="smoothing"):
            fit_cpts(fig1_net.dag, sample(fig1_net, 10, seed=1), smoothing=smoothing)


class TestSampling:
    def test_zero_rows_rejected(self, chain_net):
        with pytest.raises(GcfitError, match="^n must be >= 1$"):
            sample(chain_net, 0, seed=1)

    @pytest.mark.parametrize("n", [True, 2.5, np.float64(3.0), "3", None])
    def test_rows_must_be_an_integer(self, chain_net, n):
        # numpy would raise its own TypeError, or read True as 1
        for draw in (lambda: sample(chain_net, n, seed=1),
                     lambda: sample_do(chain_net, "a", 1, n, seed=1)):
            with pytest.raises(GcfitError, match="^n must be an integer, got "):
                draw()

    @pytest.mark.parametrize("n", [0, -1, np.int64(0)])
    def test_rows_below_one_rejected(self, chain_net, n):
        with pytest.raises(GcfitError, match="^n must be >= 1$"):
            sample_do(chain_net, "a", 1, n, seed=1)

    @pytest.mark.parametrize("seed", [1.5, "3", -1, np.int64(-2), True, np.float64(1.0), None])
    def test_seed_must_be_a_non_negative_integer(self, chain_net, seed):
        # numpy would read 1.5 as 1 and "3" as 3, and raise its own ValueError at -1
        message = "^seed must be a non-negative integer or a SeedSequence, got "
        for draw in (lambda: sample(chain_net, 5, seed=seed),
                     lambda: sample_do(chain_net, "a", 1, 5, seed=seed),
                     lambda: bayesnet.substream(seed, 0)):
            with pytest.raises(GcfitError, match=message):
                draw()

    def test_numpy_integer_counts_and_seeds(self, chain_net):
        rows = sample(chain_net, 5, seed=3).rows
        assert np.array_equal(sample(chain_net, np.int64(5), seed=np.uint8(3)).rows, rows)
        assert np.array_equal(sample(chain_net, 5, seed=np.random.SeedSequence(3)).rows, rows)
        assert np.array_equal(sample_do(chain_net, "a", np.int64(1), np.int32(5), np.int64(3)).rows,
                              sample_do(chain_net, "a", 1, 5, seed=3).rows)

    def test_jobs_are_the_one_job_draws(self):
        # passes hold jobs whose rows add up to at most the largest job's:
        # each job's rows are those of its own one-job call, wherever the
        # pass boundaries fall
        rng = np.random.default_rng(5)
        net = random_net(random_dag(rng, max_card=4), rng)
        schema = net.schema
        jobs = [(n, 10 + k, None if k % 3 == 0 else (schema.names[k % len(schema.names)], 1))
                for k, n in enumerate([7, 30, 3, 3, 24, 1, 30, 12, 19, 5])]
        datasets = list(bayesnet.sample_jobs(net, jobs))
        assert len(datasets) == len(jobs)
        for (n, seed, do), data in zip(jobs, datasets):
            one = sample(net, n, seed) if do is None else sample_do(net, *do, n, seed)
            assert data.schema == schema
            assert np.array_equal(data.rows, one.rows)

    def test_every_job_is_checked_before_any_draw(self, chain_net, monkeypatch):
        def fail(*args):
            raise AssertionError("drew before every job was checked")

        monkeypatch.setattr(bayesnet, "_uniform", fail)
        jobs = [(5, 1, None), (5, 2, ("b", 0)), (5, 3, ("b", 2))]
        with pytest.raises(InvalidState):
            next(bayesnet.sample_jobs(chain_net, jobs))

    def test_deterministic_cpts_force_assignment(self, fig1_schema):
        dag = Dag(fig1_schema, ())
        net = BayesNet(
            dag,
            {
                "a": Cpt("a", (), np.array([0.0, 1.0])),
                "b": Cpt("b", (), np.array([1.0, 0.0])),
                "z": Cpt("z", (), np.array([0.0, 1.0])),
            },
        )
        data = sample(net, 50, seed=0)
        assert (data.rows == [1, 0, 1]).all()

    # zero-probability states 0 and 2, summing to 1 - 1e-10; cumulative
    # values 0, 0.25, 0.25 and the row's sum, below nextafter(1, 0)
    B_ROW = np.array([0.0, 0.25, 0.0, 0.75 - 1e-10])

    @pytest.mark.parametrize("u, b_state", [
        pytest.param(0.0, 1, id="zero"),
        pytest.param(np.cumsum(B_ROW)[1], 3, id="inner-boundary"),
        pytest.param(np.cumsum(B_ROW)[-1], 3, id="last-boundary"),
        pytest.param(np.nextafter(1.0, 0.0), 3, id="past-cumulative-sum"),
    ])
    def test_zero_uniform_draw_skips_zero_probability_state(self, monkeypatch, u, b_state):
        # Generator.random draws from [0, 1), so u = 0.0 can occur; it must
        # not select a state of probability 0, and a u past the row's
        # cumulative sum selects the last state
        monkeypatch.setattr(bayesnet, "_uniform", lambda seed, pos, out: out.fill(u))
        schema = VariableSchema(("a", "b"), (2, 4))
        net = BayesNet(
            Dag(schema, ()),
            {
                "a": Cpt("a", (), np.array([0.0, 1.0])),
                "b": Cpt("b", (), self.B_ROW),
            },
        )
        assert (sample(net, 5, seed=0).rows == [1, b_state]).all()
        assert (sample_do(net, "b", 0, 5, seed=0).column("a") == 1).all()
        assert (sample_do(net, "a", 0, 5, seed=0).column("b") == b_state).all()

    def test_zero_last_state_is_never_drawn(self, monkeypatch):
        # the row sums to 1 - 1e-10 (within Cpt's tolerance), so u may pass
        # its cumulative sum: the last state of positive probability takes it
        drawn = []

        def last_below_one(seed, pos, out):
            drawn.append(pos)
            out.fill(np.nextafter(1.0, 0.0))

        monkeypatch.setattr(bayesnet, "_uniform", last_below_one)
        schema = VariableSchema(("a",), (2,))
        net = BayesNet(Dag(schema, ()), {"a": Cpt("a", (), np.array([1 - 1e-10, 0.0]))})
        assert (sample(net, 5, seed=0).rows == 0).all()
        assert drawn == [0]  # the u above, not a generator's

    def test_matches_the_reference_block_sampler(self):
        # cardinalities 2..12 with zero-probability states and rows summing
        # to 1 - 1e-10 (within Cpt's tolerance), a node of 16 x 17 parent
        # configurations (uint16 row codes) and a 300-state node (uint16
        # rows): sample and sample_do give the reference's rows exactly
        rng = np.random.default_rng(47)

        def check(dag, seed):
            schema = dag.schema
            cpts = {}
            for node in schema.names:
                parents = dag.parents(node)
                shape = tuple(schema.cardinality(p) for p in parents) + (schema.cardinality(node),)
                table = rng.random(shape) * (rng.random(shape) < 0.6)
                table[..., 0] += table.sum(axis=-1) == 0
                table *= (1 - 1e-10) / table.sum(axis=-1, keepdims=True)
                cpts[node] = Cpt(node, parents, table)
            net = BayesNet(dag, cpts)
            data = sample(net, 300, seed=seed)
            assert data.rows.dtype == np.min_scalar_type(max(schema.cardinalities) - 1)
            assert np.array_equal(data.rows, oracle_sample(net, 300, seed))
            for node in schema.names:
                for value in range(schema.cardinality(node)):
                    assert np.array_equal(sample_do(net, node, value, 300, seed=seed).rows,
                                          oracle_sample(net, 300, seed, do=(node, value)))

        for k, card in enumerate(range(2, 13)):
            dag = random_dag(rng, min_nodes=2, max_nodes=4, max_card=12)
            # the first node takes each cardinality in turn
            schema = VariableSchema(dag.schema.names, (card,) + dag.schema.cardinalities[1:])
            check(Dag(schema, dag.edges), k)
        check(Dag(VariableSchema(("a", "b", "c"), (16, 17, 3)), (("a", "c"), ("b", "c"))), 11)
        check(Dag(VariableSchema(("a", "b"), (300, 3)), (("a", "b"),)), 12)

    def test_net_of_no_variables_samples_empty_rows(self):
        net = BayesNet(Dag(VariableSchema((), ()), ()), {})
        assert sample(net, 3, seed=0).rows.shape == (3, 0)

    def test_sampling_peaks_below_four_bytes_per_cell(self):
        # rows are sampled in place in the schema's row dtype (uint8 here):
        # no int64 columns, no stacked int64 copy; tracemalloc counts this
        # process's allocations, numpy's included
        n_rows, n_cols = 50_000, 12
        names = tuple(f"x{i:02d}" for i in range(n_cols))
        edges = tuple(zip(names, names[1:])) + tuple(zip(names, names[2:]))
        net = random_net(Dag(VariableSchema(names, (2,) * n_cols), edges), np.random.default_rng(3))
        tracemalloc.start()
        try:
            data = sample(net, n_rows, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.rows.shape == (n_rows, n_cols)
        assert peak <= 4 * n_rows * n_cols

    def test_same_seed_identical(self, fig1_net):
        a = sample(fig1_net, 1_000, seed=99)
        b = sample(fig1_net, 1_000, seed=99)
        assert np.array_equal(a.rows, b.rows)

    def test_different_seeds_differ(self, fig1_net):
        a = sample(fig1_net, 1_000, seed=99)
        b = sample(fig1_net, 1_000, seed=100)
        assert not np.array_equal(a.rows, b.rows)

    def test_empirical_close_to_joint(self, fig1_net):
        from gcfit import empirical_from_dataset

        data = sample(fig1_net, 100_000, seed=12)
        emp = empirical_from_dataset(data)
        assert np.abs(emp.flat() - joint(fig1_net).flat()).sum() < 0.02


class TestSampleDo:
    @pytest.mark.parametrize("value", [1.5, True, np.float64(1.0)])
    def test_state_must_be_an_integer(self, chain_net, value):
        # no state that is not an integer may reach numpy as an index
        with pytest.raises(InvalidState):
            sample_do(chain_net, "a", value, 10, seed=1)

    def test_clamped_column_constant(self, fig1_net):
        data = sample_do(fig1_net, "b", 1, 500, seed=4)
        assert (data.column("b") == 1).all()

    def test_root_clamp_matches_conditional(self, fig1_net):
        from gcfit import empirical_from_dataset

        data = sample_do(fig1_net, "a", 0, 100_000, seed=5)
        emp = empirical_from_dataset(data.select({"b", "z"}))
        expected = joint(fig1_net).condition("a", 0)
        assert np.abs(emp.flat() - expected.flat()).sum() < 0.02

    def test_non_descendant_columns_match_sample(self):
        # clamping a node leaves every other node's substream, so the
        # columns it cannot reach equal those of the unclamped draw
        rng = np.random.default_rng(41)
        for k in range(20):
            net = random_net(random_dag(rng), rng)
            schema = net.schema
            base = sample(net, 200, seed=k)
            for node in schema.names:
                reached = {node}
                for other in net.dag.topological_order():
                    if reached.intersection(net.dag.parents(other)):
                        reached.add(other)
                for value in range(schema.cardinality(node)):
                    data = sample_do(net, node, value, 200, seed=k)
                    assert (data.column(node) == value).all()
                    for other in set(schema.names) - reached:
                        assert np.array_equal(data.column(other), base.column(other))

    def test_matches_do_intervene_at_large_n(self, fig1_net):
        from gcfit import empirical_from_dataset

        data = sample_do(fig1_net, "b", 0, 100_000, seed=6)
        emp = empirical_from_dataset(data.select({"a", "z"}))
        expected = do_intervene(fig1_net, "b", 0)
        assert np.abs(emp.flat() - expected.flat()).sum() < 0.02


class TestJson:
    def test_round_trip(self, fig1_net):
        text = bayesnet_to_json(fig1_net)
        again = bayesnet_from_json(text)
        assert again.dag.edges == fig1_net.dag.edges
        for node in fig1_net.schema.names:
            np.testing.assert_allclose(
                again.cpts[node].table, fig1_net.cpts[node].table, atol=1e-12
            )
        assert bayesnet_to_json(again) == text

    def test_bad_row_normalization_rejected(self, chain_net):
        import json

        doc = json.loads(bayesnet_to_json(chain_net))
        doc["cpts"]["a"]["rows"] = [[0.7, 0.2]]
        with pytest.raises(ParseError):
            bayesnet_from_json(json.dumps(doc))

    def test_nan_rows_rejected(self, chain_net):
        import json

        doc = json.loads(bayesnet_to_json(chain_net))
        doc["cpts"]["a"]["rows"] = [[math.nan, math.nan]]  # json writes and reads NaN
        with pytest.raises(ParseError, match="normalization"):
            bayesnet_from_json(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            bayesnet_from_json("nope{")

    @pytest.mark.parametrize("value", [2.7, "2"])
    def test_cardinality_must_be_a_json_integer(self, chain_net, value):
        import json

        doc = json.loads(bayesnet_to_json(chain_net))
        doc["variables"][0]["cardinality"] = value  # int() would read both as 2
        with pytest.raises(ParseError, match="bad variables block"):
            bayesnet_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("edges", ["ab"], "bad network structure"),  # tuple() would read "ab" as a->b
            ("parents", "a", "bad CPT for 'b'"),
            ("parents", [["a"]], "bad CPT for 'b'"),
            ("rows", [["0.1", "0.9"], ["0.8", "0.2"]], "bad CPT for 'b'"),
            ("rows", [[True, False], [False, True]], "bad CPT for 'b'"),
            ("rows", 1, "bad CPT for 'b'"),
        ],
    )
    def test_list_fields_must_be_json_arrays(self, chain_net, field, value, message):
        import json

        doc = json.loads(bayesnet_to_json(chain_net))
        if field == "edges":
            doc["edges"] = value
        else:
            doc["cpts"]["b"][field] = value
        with pytest.raises(ParseError, match=message):
            bayesnet_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value, message", [
        ("rows", [[1.5, -0.5], [0.1, 0.9]], "^bad CPT for 'b': .*negative"),
        ("parents", [], "^inconsistent network: CPT parents"),
    ], ids=["negative-entry", "parents-differ-from-edges"])
    def test_cpt_must_be_a_distribution_over_the_edges(self, chain_net, field, value, message):
        import json

        doc = json.loads(bayesnet_to_json(chain_net))
        doc["cpts"]["b"][field] = value
        if field == "parents":
            doc["cpts"]["b"]["rows"] = [0.5, 0.5]
        with pytest.raises(ParseError, match=message):
            bayesnet_from_json(json.dumps(doc))
