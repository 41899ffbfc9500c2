import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    Dataset,
    FitConfig,
    ModelError,
    Schema,
    StagedTree,
    Variable,
    atom_probability,
    bic,
    encode_bn,
    fit,
    log_likelihood,
    log_likelihood_by_depth,
    n_parameters,
    tree_from_json,
    tree_to_json,
)
from stagedtree.tree import canonical_stage_assignment, context_tuples, n_contexts

from conftest import (
    random_dataset,
    reference_bn_inputs,
    reference_tree,
    saturated_tree,
    staging_from_ids,
)


def one_var_dataset(labels):
    schema = Schema((Variable("u", ("a", "b")),))
    rows = np.array([[0 if c == "a" else 1] for c in labels])
    return Dataset(schema, rows), schema


def staging_dict(staging, schema, order):
    """Map each context tuple of the staging's depth to its stage id."""
    return {
        ctx: int(staging.stage_of[i]) for i, ctx in enumerate(context_tuples(schema, order, staging.depth))
    }


def atoms_by_hand(tree):
    """Independent joint-table builder: walk the staging dictionaries."""
    schema = tree.schema
    joint = {}
    for combo in itertools.product(*(range(len(v.levels)) for v in schema.variables)):
        prob = 1.0
        for depth in range(tree.p):
            context = tuple(combo[tree.order[i]] for i in range(depth))
            stage = staging_dict(tree.stagings[depth], schema, tree.order)[context]
            prob *= tree.probs[depth][stage][combo[tree.order[depth]]]
        joint[combo] = prob
    return joint


class TestSaturated:
    def test_two_binary_variables(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        tree = saturated_tree(schema, (0, 1))
        assert [s.n_stages for s in tree.stagings] == [1, 2]

    def test_reference_shape_depth_counts(self):
        tree = saturated_tree(reference_tree().schema, (0, 1, 2, 3))
        assert [s.n_stages for s in tree.stagings] == [1, 4, 8, 16]

    def test_single_variable(self):
        schema = Schema((Variable("u", ("a", "b", "c")),))
        tree = saturated_tree(schema, (0,))
        assert [s.n_stages for s in tree.stagings] == [1]


class TestFit:
    def test_empirical_frequency(self):
        d, schema = one_var_dataset("aaab")
        tree = fit(saturated_tree(schema, (0,)), d)
        assert tree.probs[0][0].tolist() == [0.75, 0.25]

    def test_additive_smoothing(self):
        d, schema = one_var_dataset("aaab")
        tree = fit(saturated_tree(schema, (0,)), d, FitConfig(smoothing=1.0))
        assert tree.probs[0][0].tolist() == [4 / 6, 2 / 6]

    def test_stage_pooling(self):
        # two contexts in one stage, counts (3,1) and (1,3) -> pooled (0.5, 0.5)
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        rows = [[0, 0]] * 3 + [[0, 1]] + [[1, 0]] + [[1, 1]] * 3
        d = Dataset(schema, np.array(rows))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        tree = fit(StagedTree(schema, (0, 1), stagings), d)
        assert tree.probs[1][0].tolist() == [0.5, 0.5]

    def test_empty_stage_goes_uniform(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        d = Dataset(schema, np.array([[0, 0], [0, 1]]))  # u=b never observed
        tree = fit(saturated_tree(schema, (0, 1)), d)
        assert tree.probs[1][1].tolist() == [0.5, 0.5]

    def test_idempotent_refit(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, p=3, n=80)
        tree = fit(saturated_tree(d.schema, (2, 0, 1)), d)
        again = fit(tree, d)
        for a, b in zip(tree.probs, again.probs):
            assert np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), smoothing=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rows_always_sum_to_one(self, seed, smoothing):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, p=3, n=40)
        tree = fit(saturated_tree(d.schema, tuple(rng.permutation(3))), d, FitConfig(smoothing))
        for mat in tree.probs:
            assert np.allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestLogLikelihood:
    def test_uniform_binary(self):
        d, schema = one_var_dataset("ab")
        tree = fit(saturated_tree(schema, (0,)), d)
        assert log_likelihood(tree, d) == pytest.approx(2 * math.log(0.5), abs=1e-15)

    def test_depth_decomposition(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, p=4, n=60)
        tree = fit(saturated_tree(d.schema, tuple(rng.permutation(4))), d, FitConfig(1.0))
        total = log_likelihood(tree, d)
        assert total == pytest.approx(sum(log_likelihood_by_depth(tree, d)), rel=1e-9)

    def test_matches_enumerated_joint(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, p=3, n=50)
        tree = fit(saturated_tree(d.schema, (1, 2, 0)), d, FitConfig(1.0))
        joint = atoms_by_hand(tree)
        expected = sum(math.log(joint[tuple(row)]) for row in d.rows)
        assert log_likelihood(tree, d) == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_gives_minus_inf(self):
        schema = Schema((Variable("u", ("a", "b")),))
        train = Dataset(schema, np.array([[0], [0]]))
        tree = fit(saturated_tree(schema, (0,)), train)
        held_out = Dataset(schema, np.array([[1]]))
        assert log_likelihood(tree, held_out) == -math.inf


def binary_chain_square_bn():
    """Four binary variables wired 1->2, 1->3, (2,3)->4 with all-distinct rows."""
    schema = Schema(tuple(Variable(f"X{i+1}", ("f", "t")) for i in range(4)))
    parents = {"X1": [], "X2": ["X1"], "X3": ["X1"], "X4": ["X2", "X3"]}
    cpts = {
        "X1": np.array([0.3, 0.7]),
        "X2": np.array([[0.2, 0.8], [0.6, 0.4]]),
        "X3": np.array([[0.15, 0.85], [0.55, 0.45]]),
        "X4": np.array(
            [[[0.1, 0.9], [0.35, 0.65]], [[0.6, 0.4], [0.8, 0.2]]]
        ),
    }
    return encode_bn(schema, parents, cpts, order=["X1", "X2", "X3", "X4"])


class TestParameterCounting:
    def test_binary_network_is_nine(self):
        assert n_parameters(binary_chain_square_bn()) == 9

    def test_saturated_binary_four_is_fifteen(self):
        schema = Schema(tuple(Variable(f"X{i+1}", ("f", "t")) for i in range(4)))
        assert n_parameters(saturated_tree(schema, (0, 1, 2, 3))) == 15

    def test_reference_tree_counts_distinct_rows(self):
        # Independent count: one stage per distinct CPT row at each depth.
        schema, parents, cpts = reference_bn_inputs()
        expected = 0
        for name, cpt in cpts.items():
            rows = cpt.reshape(-1, cpt.shape[-1])
            distinct = {row.tobytes() for row in rows}
            expected += len(distinct) * (cpt.shape[-1] - 1)
        assert expected == 14
        assert n_parameters(reference_tree()) == expected

    def test_saturated_formula(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, p=4, n=10)
        order = tuple(rng.permutation(4))
        tree = saturated_tree(d.schema, order)
        counts = [d.schema.level_counts[v] for v in order]
        expected = sum(
            int(np.prod(counts[:j])) * (counts[j] - 1) for j in range(4)
        )
        assert n_parameters(tree) == expected


class TestBic:
    def test_single_binary_formula(self):
        d, schema = one_var_dataset("aaab")
        tree = fit(saturated_tree(schema, (0,)), d)
        expected = -2 * (3 * math.log(0.75) + math.log(0.25)) + 1 * math.log(4)
        assert bic(tree, d) == pytest.approx(expected, rel=1e-12)

    def test_merging_identical_counts_never_hurts(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        rows = [[0, 0]] * 5 + [[0, 1]] * 3 + [[1, 0]] * 5 + [[1, 1]] * 3
        d = Dataset(schema, np.array(rows))
        split = fit(saturated_tree(schema, (0, 1)), d)
        merged_staging = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        merged = fit(StagedTree(schema, (0, 1), merged_staging), d)
        assert bic(merged, d) <= bic(split, d)

    def test_saturated_maximizes_likelihood(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, p=2, n=100, max_levels=2)
        sat = fit(saturated_tree(d.schema, (0, 1)), d)
        coarse_staging = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        coarse = fit(StagedTree(d.schema, (0, 1), coarse_staging), d)
        assert log_likelihood(sat, d) >= log_likelihood(coarse, d)


class TestAtomProbability:
    def test_worked_example_value(self, table_model):
        assert atom_probability(table_model, ("SE", "Low", "High", "High")) == 0.009

    def test_accepts_mapping(self, table_model):
        x = {"Country": "SE", "Length": "Low", "Income": "High", "Satisfaction": "High"}
        assert atom_probability(table_model, x) == 0.009

    def test_unknown_label_rejected(self, table_model):
        with pytest.raises(Exception, match="unknown level"):
            atom_probability(table_model, ("SE", "Low", "High", "Huge"))

    def test_all_atoms_sum_to_one(self, table_model):
        total = sum(
            atom_probability(table_model, combo)
            for combo in itertools.product(
                *(v.levels for v in table_model.schema.variables)
            )
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        assert len(list(itertools.product(*(v.levels for v in table_model.schema.variables)))) == 48

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_smoothed_fit_atoms_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, p=3, n=30)
        tree = fit(saturated_tree(d.schema, tuple(rng.permutation(3))), d, FitConfig(0.5))
        total = sum(
            atom_probability(tree, combo)
            for combo in itertools.product(*(v.levels for v in d.schema.variables))
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_tree_gives_zero_or_one(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 1]))
        probs = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        tree = StagedTree(schema, (0, 1), stagings, probs)
        values = {atom_probability(tree, (a, b)) for a in "ab" for b in "xy"}
        assert values == {0.0, 1.0}


class TestEncodeBn:
    def test_reference_depth_two_merges_equal_rows(self, table_model):
        # Income stages: EE alone, NE and WE pooled (bit-equal rows), SE alone.
        assert table_model.stagings[2].stage_of.tolist() == [0, 0, 1, 1, 2, 2, 1, 1]

    def test_reference_satisfaction_stages(self, table_model):
        # (H,H), (H,L) distinct; (L,H) == (L,L) pooled; repeated per country.
        assert table_model.stagings[3].n_stages == 3

    def test_fully_independent_network(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        cpts = {"u": np.array([0.4, 0.6]), "v": np.array([0.1, 0.9])}
        tree = encode_bn(schema, {"u": [], "v": []}, cpts)
        assert [s.n_stages for s in tree.stagings] == [1, 1]

    def test_joint_matches_bn_product(self):
        rng = np.random.default_rng(21)
        schema = Schema(
            (Variable("A", ("a", "b")), Variable("B", ("x", "y", "z")), Variable("C", ("u", "v")))
        )
        cpt_a = rng.dirichlet(np.ones(2))
        cpt_b = rng.dirichlet(np.ones(3), size=2)  # B | A
        cpt_c = rng.dirichlet(np.ones(2), size=(2, 3))  # C | A, B
        tree = encode_bn(
            schema,
            {"A": [], "B": ["A"], "C": ["A", "B"]},
            {"A": cpt_a, "B": cpt_b, "C": cpt_c},
        )
        for a in range(2):
            for b in range(3):
                for c in range(2):
                    expected = cpt_a[a] * cpt_b[a, b] * cpt_c[a, b, c]
                    labels = (
                        schema.variables[0].levels[a],
                        schema.variables[1].levels[b],
                        schema.variables[2].levels[c],
                    )
                    assert atom_probability(tree, labels) == pytest.approx(expected, rel=1e-15)

    def test_cyclic_input_rejected(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        cpts = {"u": np.array([[0.4, 0.6], [0.5, 0.5]]), "v": np.array([[0.1, 0.9], [0.2, 0.8]])}
        with pytest.raises(ModelError, match="cyclic"):
            encode_bn(schema, {"u": ["v"], "v": ["u"]}, cpts)

    def test_order_inconsistent_with_dag_rejected(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        cpts = {"u": np.array([0.4, 0.6]), "v": np.array([[0.1, 0.9], [0.2, 0.8]])}
        with pytest.raises(ModelError, match="inconsistent"):
            encode_bn(schema, {"u": [], "v": ["u"]}, cpts, order=["v", "u"])


def encode_bn_loop(schema, parents, cpts, order):
    """The context-by-context encoding: each context's CPT row looked up by its
    parent values, stages numbered by the first context whose row bytes they
    hold. Reference for encode_bn's vectorised staging."""
    stagings, probs = [], []
    for depth, var in enumerate(order):
        name = schema.names[var]
        par_pos = [order.index(schema.index(q)) for q in parents[name]]
        raw = []
        rows, seen = [], {}
        for ctx in context_tuples(schema, order, depth):
            row = np.asarray(cpts[name], dtype=float)[tuple(ctx[pos] for pos in par_pos)]
            raw.append(seen.setdefault(row.tobytes(), len(seen)))
            if len(rows) < len(seen):
                rows.append(row)
        stagings.append(raw)
        probs.append(np.array(rows))
    return stagings, probs


@st.composite
def bayesian_networks(draw):
    """Random networks with parentless variables, parent lists in an order
    other than the ordering's, and CPT rows repeated across configurations."""
    p = draw(st.integers(1, 5))
    levels = [draw(st.integers(2, 3)) for _ in range(p)]
    schema = Schema(tuple(Variable(f"V{j}", tuple("abc"[:n])) for j, n in enumerate(levels)))
    order = draw(st.permutations(range(p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents, cpts = {}, {}
    for depth, var in enumerate(order):
        pars = draw(st.lists(st.sampled_from(order[:depth]), unique=True) if depth else st.just([]))
        shape = tuple(levels[q] for q in pars)
        pool = rng.dirichlet(np.ones(levels[var]), size=draw(st.integers(1, 3)))
        picks = rng.integers(0, len(pool), size=shape)
        parents[schema.names[var]] = [schema.names[q] for q in pars]
        cpts[schema.names[var]] = pool[picks]
    return schema, parents, cpts, tuple(order)


class TestEncodeBnOracle:
    @settings(max_examples=150, deadline=None)
    @given(net=bayesian_networks())
    def test_matches_context_loop(self, net):
        schema, parents, cpts, order = net
        tree = encode_bn(schema, parents, cpts, order=[schema.names[v] for v in order])
        stagings, probs = encode_bn_loop(schema, parents, cpts, order)
        for staging, raw, got, want in zip(tree.stagings, stagings, tree.probs, probs):
            assert staging.stage_of.tolist() == raw
            assert staging.n_stages == len(want)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape


class TestModelJson:
    def test_round_trip_identity(self, table_model):
        text = tree_to_json(table_model)
        again = tree_from_json(text)
        assert again.schema == table_model.schema
        assert again.order == table_model.order
        for a, b in zip(again.stagings, table_model.stagings):
            assert np.array_equal(a.stage_of, b.stage_of)
        for a, b in zip(again.probs, table_model.probs):
            assert np.array_equal(a, b)

    def test_round_trip_is_stable_text(self, table_model):
        text = tree_to_json(table_model)
        assert tree_to_json(tree_from_json(text)) == text

    def test_format_version_checked(self, table_model):
        payload = json.loads(tree_to_json(table_model))
        payload["format_version"] = 999
        with pytest.raises(Exception, match="format version"):
            tree_from_json(json.dumps(payload))

    def test_unfitted_round_trip(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        tree = saturated_tree(schema, (1, 0))
        again = tree_from_json(tree_to_json(tree))
        assert again.probs is None and again.order == (1, 0)


class TestValidation:
    def test_noncontiguous_stage_ids_rejected(self):
        from stagedtree.tree import StageAssignment

        # Ids past the count, an id below 0, and a stage in range left unused.
        for ids, n_stages in (([0, 2], 2), ([0, 1, 2], 2), ([-1, 0], 1), ([0, 2], 3)):
            with pytest.raises(ModelError, match="contiguous"):
                StageAssignment(0, np.array(ids), n_stages)

    def test_bad_probability_rows_rejected(self):
        schema = Schema((Variable("u", ("a", "b")),))
        stagings = (staging_from_ids(0, [0]),)
        with pytest.raises(ModelError, match="sum to 1"):
            StagedTree(schema, (0,), stagings, (np.array([[0.5, 0.6]]),))

    def test_context_budget_enforced(self):
        schema = Schema(tuple(Variable(f"X{i}", tuple("abcdefghij")) for i in range(9)))
        with pytest.raises(ModelError, match="desk scale"):
            n_contexts(schema, tuple(range(9)), 8)

    def test_canonical_relabel_orders_by_first_occurrence(self):
        staging = canonical_stage_assignment(1, np.array([7, 3, 7, 9]))
        assert staging.stage_of.tolist() == [0, 1, 0, 2]
