"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them live).

Every expected value is either fixed by the worked reference example or
checked against an independent oracle computed inside the test.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from stagedtree import (
    CONTEXT_SPECIFIC,
    LOCAL,
    PARTIAL,
    SYMMETRIC,
    Dataset,
    LearnConfig,
    ResamplePlan,
    Schema,
    Variable,
    atom_probability,
    cmi,
    compress,
    condition_hard,
    condition_soft,
    consensus_order,
    consensus_staging,
    encode_bn,
    ensemble_from_stagings,
    joint_table,
    kparents_learn,
    learn,
    marginal,
    n_parameters,
    order_search_dp,
    ordering_score,
    run_bootstrap_consensus,
    tally_orders,
)
from stagedtree.tree import canonical_stage_assignment, stage_counts

from conftest import (
    local_variant_tree,
    max_in_degree,
    random_dataset,
    random_fitted_tree,
    reference_tree,
    saturated_tree,
    survey_data,
)
from staging_oracle import depth_bic, exhaustive_stage


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_seconds:
        print(
            f"[acceptance] criterion {number:2d} FAIL  {description} "
            f"(took {elapsed:.2f}s, budget {budget_seconds}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
        )
    print(f"[acceptance] criterion {number:2d} PASS  {description} ({elapsed:.2f}s)")


def test_01_worked_example_exactness():
    with criterion(1, "worked-example atom probability is exactly 0.009", 1.0):
        tree = reference_tree()
        assert atom_probability(tree, ("SE", "Low", "High", "High")) == 0.009


def test_02_aldag_reconstruction():
    with criterion(2, "compressed reference graph has the exact four labeled edges", 1.0):
        tree = reference_tree()
        names = tree.schema.names
        labels = {
            (names[e.parent], names[e.child]): e.label for e in compress(tree).edges
        }
        assert labels == {
            ("Country", "Length"): PARTIAL,
            ("Country", "Income"): PARTIAL,
            ("Length", "Satisfaction"): SYMMETRIC,
            ("Income", "Satisfaction"): CONTEXT_SPECIFIC,
        }
        variant = local_variant_tree()
        variant_labels = {
            (names[e.parent], names[e.child]): e.label for e in compress(variant).edges
        }
        assert variant_labels[("Length", "Satisfaction")] == LOCAL
        assert variant_labels[("Income", "Satisfaction")] == LOCAL


def test_03_parameter_counting():
    with criterion(3, "binary square network has 9 parameters, saturated tree 15", 1.0):
        schema = Schema(tuple(Variable(f"X{i+1}", ("f", "t")) for i in range(4)))
        parents = {"X1": [], "X2": ["X1"], "X3": ["X1"], "X4": ["X2", "X3"]}
        cpts = {
            "X1": np.array([0.3, 0.7]),
            "X2": np.array([[0.2, 0.8], [0.6, 0.4]]),
            "X3": np.array([[0.15, 0.85], [0.55, 0.45]]),
            "X4": np.array([[[0.1, 0.9], [0.35, 0.65]], [[0.6, 0.4], [0.8, 0.2]]]),
        }
        tree = encode_bn(schema, parents, cpts, order=["X1", "X2", "X3", "X4"])
        assert n_parameters(tree) == 9
        assert n_parameters(saturated_tree(schema, (0, 1, 2, 3))) == 15


def test_04_hard_evidence_oracle():
    with criterion(4, "hard conditioning matches joint-table slices on 50 random trees", 30.0):
        rng = np.random.default_rng(404)
        for _ in range(50):
            tree = random_fitted_tree(rng, max_p=4, max_levels=3)
            table = joint_table(tree)
            n_ev = int(rng.integers(1, tree.p))
            ev_vars = sorted(rng.choice(tree.p, size=n_ev, replace=False).tolist())
            ev = {v: int(rng.integers(0, tree.schema.level_counts[v])) for v in ev_vars}

            index = tuple(ev.get(j, slice(None)) for j in range(tree.p))
            sliced = table[index]
            expected_prob = float(sliced.sum())

            evidence = {
                tree.schema.names[v]: tree.schema.variables[v].levels[l]
                for v, l in ev.items()
            }
            result = condition_hard(tree, evidence)
            assert abs(result.evidence_probability - expected_prob) < 1e-12
            kept = [j for j in range(tree.p) if j not in ev]
            for pos, var in enumerate(kept):
                other = tuple(a for a in range(len(kept)) if a != pos)
                expected = sliced.sum(axis=other) / expected_prob
                got = result.marginals[tree.schema.names[var]]
                assert np.abs(got - expected).max() < 1e-12


def test_05_soft_evidence_fixed_point_and_jeffrey():
    with criterion(5, "soft-evidence fixed point and single-finding Jeffrey reduction", 10.0):
        rng = np.random.default_rng(505)
        for _ in range(20):
            tree = random_fitted_tree(rng, max_p=4, max_levels=3)
            var = int(rng.integers(0, tree.p))
            name = tree.schema.names[var]

            current = marginal(tree, name)
            fixed = condition_soft(tree, {name: current})
            assert fixed.iterations == 0
            assert fixed.max_deviation < 1e-9
            for other in tree.schema.names:
                assert np.abs(fixed.marginals[other] - marginal(tree, other)).max() < 1e-9

            target = rng.dirichlet(np.ones(current.size))
            result = condition_soft(tree, {name: target})
            assert result.iterations <= 1
            table = joint_table(tree)
            shape = [1] * tree.p
            shape[var] = current.size
            jeffrey = table * (target / current).reshape(shape)
            for v, vname in enumerate(tree.schema.names):
                other_axes = tuple(a for a in range(tree.p) if a != v)
                expected = jeffrey.sum(axis=other_axes)
                assert np.abs(result.marginals[vname] - expected).max() < 1e-12


def test_06_staging_search_oracles():
    with criterion(6, "exhaustive staging bounds greedy staging; greedy is a local optimum", 60.0):
        rng = np.random.default_rng(606)
        order = (0, 1, 2)
        for _ in range(20):
            schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(3)))
            d = Dataset(schema, rng.integers(0, 2, size=(200, 3)))
            for depth in (1, 2):
                greedy = learn(d, order, LearnConfig()).stagings[depth]
                oracle = exhaustive_stage(d, order, depth)

                def staging_score(staging):
                    counts = stage_counts(d, order, depth, staging.stage_of, staging.n_stages)
                    return depth_bic(counts, d.n, 0.0)

                greedy_score = staging_score(greedy)
                assert staging_score(oracle) <= greedy_score + 1e-9

                # local optimum: no single pair merge improves the score
                for a, b in itertools.combinations(range(greedy.n_stages), 2):
                    ids = greedy.stage_of.copy()
                    ids[ids == b] = a
                    merged = canonical_stage_assignment(depth, ids)
                    assert staging_score(merged) >= greedy_score - 1e-9


def test_07_order_search_exactness():
    with criterion(7, "subset dynamic programming equals factorial enumeration", 60.0):
        rng = np.random.default_rng(707)
        cfg = LearnConfig()
        for _ in range(10):
            d = random_dataset(rng, p=4, n=150, max_levels=3)
            dp_order, dp_score = order_search_dp(d, cfg)
            cache = {}
            brute = min(
                ordering_score(d, perm, cfg, cache)
                for perm in itertools.permutations(range(4))
            )
            assert dp_score == brute
            assert ordering_score(d, dp_order, cfg, cache) == brute


def test_08_kparents_guarantee():
    with criterion(8, "learned trees respect the parent budget after compression", 120.0):
        rng = np.random.default_rng(808)
        for trial in range(10):
            schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(6)))
            base = rng.integers(0, 2, size=(250, 6))
            # inject dependence so parent selection is non-trivial
            base[:, 3] = np.where(rng.random(250) < 0.8, base[:, 1], base[:, 3])
            base[:, 5] = np.where(rng.random(250) < 0.8, base[:, 2], base[:, 5])
            d = Dataset(schema, base)
            for k in (1, 2, 3):
                tree, parent_sets = kparents_learn(d, tuple(range(6)), k=k)
                assert all(len(parents) <= max(k, depth) for depth, parents in enumerate(parent_sets))
                assert max_in_degree(compress(tree)) <= k


def test_09_consensus_properties():
    with criterion(9, "consensus reproduces unanimity, ignores duplication, recovers blocks", 30.0):
        # unanimity: identical replicate stagings and orders come back unchanged
        staging = [np.array([0]), np.array([0, 1]), np.array([0, 1, 1, 2])]
        ensemble = ensemble_from_stagings((0, 1, 2), [staging] * 7)
        for depth in range(3):
            got = consensus_staging(ensemble.dissimilarity[depth], 0.5, depth)
            assert np.array_equal(got.stage_of, staging[depth])
        votes = tally_orders([(2, 0, 1)] * 7, p=3)
        assert consensus_order(votes).order == (2, 0, 1)

        # duplication: M -> 2M leaves votes, dissimilarity, and outputs unchanged
        rng = np.random.default_rng(909)
        orders = [tuple(rng.permutation(3)) for _ in range(6)]
        once, twice = tally_orders(orders, 3), tally_orders(orders * 2, 3)
        assert np.array_equal(once.frequencies, twice.frequencies)
        assert consensus_order(once) == consensus_order(twice)

        replicates = [
            [np.array([0]), rng.integers(0, 2, size=2), rng.integers(0, 4, size=4)]
            for _ in range(6)
        ]
        replicates = [
            [canonical_stage_assignment(d_, ids).stage_of for d_, ids in enumerate(rep)]
            for rep in replicates
        ]
        ens1 = ensemble_from_stagings((0, 1, 2), replicates)
        ens2 = ensemble_from_stagings((0, 1, 2), replicates * 2)
        for depth in range(3):
            assert np.array_equal(ens1.dissimilarity[depth], ens2.dissimilarity[depth])
            a = consensus_staging(ens1.dissimilarity[depth], 0.5, depth)
            b = consensus_staging(ens2.dissimilarity[depth], 0.5, depth)
            assert np.array_equal(a.stage_of, b.stage_of)

        # exact complement identity on integer counts
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert once.counts[j, k] + once.counts[k, j] == once.replicates

        # planted block structure survives the 0.5 cut
        within, between = 0.1, 0.9
        d_matrix = np.full((6, 6), between)
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    d_matrix[i, j] = within
        np.fill_diagonal(d_matrix, 0.0)
        staged = consensus_staging(d_matrix, 0.5, depth=1)
        assert staged.stage_of.tolist() == [0, 0, 0, 1, 1, 1]


def test_10_binary_data_has_no_partial_labels():
    with criterion(10, "200-replicate bootstrap on binary data yields zero partial mass", 300.0):
        rng = np.random.default_rng(1010)
        d = survey_data(rng, n=1500, p=5)
        plan = ResamplePlan(200, seed=17)
        result = run_bootstrap_consensus(d, tuple(range(5)), plan, LearnConfig())
        assert result.edge_table, "expected at least one edge across replicates"
        for row in result.edge_table:
            assert row.label_counts.get(PARTIAL, 0) == 0


def test_11_desk_scale_performance():
    rng = np.random.default_rng(1111)
    d = survey_data(rng, n=10_000, p=7)
    plan = ResamplePlan(200, seed=23)
    order = tuple(range(7))

    with criterion(11, "M=200 consensus on 10k x 7 data within time budgets", 360.0):
        elapsed, results = [], []
        for _ in range(2):
            started = time.perf_counter()
            results.append(run_bootstrap_consensus(d, order, plan, LearnConfig()))
            elapsed.append(time.perf_counter() - started)
            assert elapsed[-1] < 180.0, f"M=200 run took {elapsed[-1]:.1f}s"

        first, second = results
        for a, b in zip(first.stagings, second.stagings):
            assert np.array_equal(a.stage_of, b.stage_of)
        print(f"[acceptance]   timings: {elapsed[0]:.1f}s, {elapsed[1]:.1f}s")


def test_12_cmi_oracle():
    with criterion(12, "plug-in conditional mutual information matches the triple sum", 30.0):
        rng = np.random.default_rng(1212)

        def cmi_by_hand(d, i, s, cond):
            total = 0.0
            cond = tuple(cond)
            cond_ranges = [range(d.schema.level_counts[c]) for c in cond]
            for cvals in itertools.product(*cond_ranges):
                mask = np.ones(d.n, dtype=bool)
                for c, cv in zip(cond, cvals):
                    mask &= d.rows[:, c] == cv
                n_c = int(mask.sum())
                if n_c == 0:
                    continue
                for a in range(d.schema.level_counts[i]):
                    mask_a = mask & (d.rows[:, i] == a)
                    n_a = int(mask_a.sum())
                    for b in range(d.schema.level_counts[s]):
                        n_ab = int((mask_a & (d.rows[:, s] == b)).sum())
                        if n_ab == 0:
                            continue
                        n_b = int((mask & (d.rows[:, s] == b)).sum())
                        total += (n_ab / d.n) * math.log(n_ab * n_c / (n_a * n_b))
            return max(total, 0.0)

        for _ in range(50):
            d = random_dataset(rng, p=3, n=int(rng.integers(30, 120)), max_levels=3)
            use_cond = bool(rng.integers(0, 2))
            cond = (2,) if use_cond else ()
            assert abs(cmi(d, 0, 1, cond) - cmi_by_hand(d, 0, 1, cond)) < 1e-12

        big = Dataset(
            Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y")))),
            np.column_stack([rng.integers(0, 2, 10_000), rng.integers(0, 2, 10_000)]),
        )
        assert cmi(big, 0, 1) < 0.01
