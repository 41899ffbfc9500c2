import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from stagedtree import (
    Dataset,
    EdgeStrengthRow,
    LearnConfig,
    ModelError,
    OrderVoteMatrix,
    ResamplePlan,
    Schema,
    StagedTree,
    Variable,
    bootstrap_orders,
    compress,
    consensus_order,
    consensus_staging,
    ensemble_from_stagings,
    fit,
    learn,
    order_search_dp,
    run_bootstrap_consensus,
    staging_heatmap_export,
    tally_orders,
)
from stagedtree import aldag, consensus, learning
from stagedtree.consensus import _disagreement, _nn_chain, context_labels_for_depth
from stagedtree.dataset import _write_csv, bootstrap_replicate
from stagedtree.harness import run_cv

from conftest import fail_replicate, random_dataset, saturated_tree, staging_from_ids, survey_data
from staging_oracle import reference_consensus_staging, reference_stage_depth


def chain_data(rng, n=400, p=3):
    cols = [rng.integers(0, 2, n)]
    for _ in range(p - 1):
        prev = cols[-1]
        cols.append(np.where(rng.random(n) < 0.85, prev, 1 - prev))
    schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(p)))
    return Dataset(schema, np.column_stack(cols))


class TestOrderVotes:
    def test_unanimous_votes(self):
        votes = tally_orders([(2, 0, 1)] * 5, p=3)
        freq = votes.frequencies
        assert freq[2, 0] == 1.0 and freq[2, 1] == 1.0 and freq[0, 1] == 1.0
        assert freq[1, 0] == 0.0

    def test_split_vote(self):
        votes = tally_orders([(0, 1), (1, 0)], p=2)
        assert votes.frequencies[0, 1] == 0.5

    def test_complement_identity_exact(self):
        rng = np.random.default_rng(0)
        orders = [tuple(rng.permutation(4)) for _ in range(7)]
        votes = tally_orders(orders, p=4)
        for j in range(4):
            for k in range(4):
                if j != k:
                    assert votes.counts[j, k] + votes.counts[k, j] == votes.replicates

    def test_invalid_counts_rejected(self):
        counts = np.array([[0, 2], [1, 0]])
        with pytest.raises(ModelError, match="sum to the replicate count"):
            OrderVoteMatrix(counts, 2)

    def test_relabeling_replicates_is_irrelevant(self):
        orders = [(0, 1, 2), (2, 1, 0), (0, 2, 1)]
        votes_a = tally_orders(orders, p=3)
        votes_b = tally_orders(orders[::-1], p=3)
        assert np.array_equal(votes_a.counts, votes_b.counts)


class TestConsensusOrder:
    def test_unanimous(self):
        votes = tally_orders([(2, 0, 1)] * 9, p=3)
        decision = consensus_order(votes)
        assert decision.order == (2, 0, 1)
        assert not decision.cyclic

    def test_tie_breaks_by_index(self):
        votes = tally_orders([(0, 1), (1, 0)], p=2)
        decision = consensus_order(votes)
        assert decision.order == (0, 1)
        assert not decision.cyclic

    def test_cycle_flagged(self):
        # rock-paper-scissors: 0 beats 1, 1 beats 2, 2 beats 0, all at 2/3
        orders = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        votes = tally_orders(orders, p=3)
        decision = consensus_order(votes)
        assert decision.order == (0, 1, 2)
        assert decision.cyclic

    def test_random_tie_breaking_is_seeded(self):
        votes = tally_orders([(0, 1), (1, 0)], p=2)
        a = consensus_order(votes, tie_seed=5)
        b = consensus_order(votes, tie_seed=5)
        assert a == b

    @pytest.mark.parametrize("tie_seed", [-1, 2**64])
    def test_tie_seed_outside_64_bits_rejected(self, tie_seed):
        votes = tally_orders([(0, 1), (1, 0)], p=2)
        with pytest.raises(ModelError, match="64-bit unsigned"):
            consensus_order(votes, tie_seed=tie_seed)
        assert consensus_order(votes, tie_seed=2**64 - 1).order in ((0, 1), (1, 0))


class TestStagingEnsemble:
    def test_single_replicate_dissimilarity(self):
        staging = [np.array([0]), np.array([0, 1])]
        ensemble = ensemble_from_stagings((0, 1), [staging])
        assert ensemble.dissimilarity[1].tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_duplicated_replicate_matches_single(self):
        staging = [np.array([0]), np.array([0, 1, 0])]
        once = ensemble_from_stagings((0, 1), [staging])
        twice = ensemble_from_stagings((0, 1), [staging, staging])
        assert np.array_equal(once.dissimilarity[1], twice.dissimilarity[1])

    def test_hand_computed_three_replicates(self):
        reps = [
            [np.array([0]), np.array([0, 0, 1])],
            [np.array([0]), np.array([0, 1, 1])],
            [np.array([0]), np.array([0, 0, 0])],
        ]
        ensemble = ensemble_from_stagings((0, 1), reps)
        d = ensemble.dissimilarity[1]
        # contexts 0,1 split only in the second replicate
        assert d[0, 1] == pytest.approx(1 / 3)
        # contexts 0,2 split in the first and second replicates
        assert d[0, 2] == pytest.approx(2 / 3)
        # contexts 1,2 split only in the first replicate
        assert d[1, 2] == pytest.approx(1 / 3)
        assert np.allclose(d, d.T) and not np.diag(d).any()


def disagreement_3d(z):
    """The k x k x M boolean form of the co-staging dissimilarity; reference
    for the integer tally in _disagreement."""
    diff = z[:, None, :] != z[None, :, :]
    return diff.mean(axis=2)


class TestDisagreementTally:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 40), m=st.integers(1, 60), ids=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_3d_mean(self, k, m, ids, seed):
        z = np.random.default_rng(seed).integers(0, ids, size=(k, m))
        got, want = _disagreement(z, 0), disagreement_3d(z)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_tally_guarded_before_allocation(self):
        # Depth 1 behind a first variable of 4096 levels: its 4096 x 4096
        # tally holds more than MAX_CONTEXTS cells.
        stagings = [(np.zeros(1, dtype=np.int64), np.zeros(4096, dtype=np.int64))]
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="desk scale") as err:
                ensemble_from_stagings((0, 1), stagings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "depth 1 with 4096 contexts" in str(err.value)
        assert peak < 1 << 20  # one 4096 x 4096 bool comparison alone takes 16 MB


    @pytest.mark.parametrize("ids", [[0, 2, 2], [1, 1, 2], [0, -1, 0]])
    def test_stage_ids_must_be_contiguous(self, ids):
        good = np.zeros(3, dtype=np.int64)
        with pytest.raises(ModelError, match="replicate 1 at depth 1 must be contiguous from 0"):
            ensemble_from_stagings((0, 1), [(np.zeros(1), good), (np.zeros(1), np.array(ids))])

    def test_tally_refused_before_any_replicate(self, monkeypatch):
        # 13 binary variables at a fixed order: depth 12 has 4096 contexts,
        # whose tally holds more than MAX_CONTEXTS cells.
        schema = Schema(tuple(Variable(f"X{j}", ("a", "b")) for j in range(13)))
        d = Dataset(schema, np.random.default_rng(0).integers(0, 2, size=(50, 13)))
        drawn = []
        real = consensus._bootstrap_rows

        def counted(n, seed):
            drawn.append(seed)
            return real(n, seed)

        monkeypatch.setattr(consensus, "_bootstrap_rows", counted)
        with pytest.raises(ModelError, match="tally of depth 12 with 4096 contexts"):
            run_bootstrap_consensus(d, range(13), ResamplePlan(4, seed=1), LearnConfig("kparents", 1))
        assert drawn == []


class TestConsensusStaging:
    def test_perfect_agreement_single_stage(self):
        d = np.zeros((4, 4))
        staging = consensus_staging(d, cut=0.5, depth=1)
        assert staging.n_stages == 1

    def test_perfect_disagreement_all_singletons(self):
        d = 1 - np.eye(4)
        staging = consensus_staging(d, cut=0.5, depth=1)
        assert staging.n_stages == 4

    def test_planted_blocks_recovered(self):
        within, between = 0.1, 0.9
        d = np.full((6, 6), between)
        for block in ([0, 1, 2], [3, 4, 5]):
            for i in block:
                for j in block:
                    d[i, j] = within
        np.fill_diagonal(d, 0.0)
        staging = consensus_staging(d, cut=0.5, depth=2)
        assert staging.stage_of.tolist() == [0, 0, 0, 1, 1, 1]

    def test_tiny_cut_gives_singletons(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.2, 0.9, size=(5, 5))
        d = (raw + raw.T) / 2
        np.fill_diagonal(d, 0.0)
        staging = consensus_staging(d, cut=1e-9, depth=1)
        assert staging.n_stages == 5

    def test_cut_above_heights_gives_one_stage(self):
        d = np.array([[0, 0.2, 0.3], [0.2, 0, 0.25], [0.3, 0.25, 0]])
        staging = consensus_staging(d, cut=0.5, depth=1)
        assert staging.n_stages == 1

    def test_linkage_options(self):
        d = 1 - np.eye(3)
        for linkage in ("average", "complete", "single"):
            staging = consensus_staging(d, cut=0.5, depth=1, linkage=linkage)
            assert staging.n_stages == 3
        with pytest.raises(ModelError):
            consensus_staging(d, cut=0.5, depth=1, linkage="ward")

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ModelError):
            consensus_staging(np.array([[0.0, 2.0], [2.0, 0.0]]), cut=0.5, depth=1)

    def test_nearly_symmetric_matrix_rejected(self):
        # Off by 4e-6, within numpy's default relative tolerance.
        d = np.array([[0, 0.5, 0.9], [0.500004, 0, 0.2], [0.9, 0.2, 0]])
        with pytest.raises(ModelError, match="square and symmetric"):
            consensus_staging(d, cut=0.5, depth=1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 9), m=st.integers(1, 7))
    def test_disagreement_is_exactly_symmetric(self, seed, k, m):
        z = np.random.default_rng(seed).integers(0, 3, size=(k, m))
        d = _disagreement(z, 1)
        assert np.array_equal(d, d.T)
        consensus_staging(d, cut=0.5, depth=1)


def scipy_linkage_matrix(merges):
    """scipy's linkage matrix from the merges of its nearest-neighbour chain:
    sorted stably by height, each merge's two slots renumbered as the
    nodes they had become, the lower first, and its size counted again
    (scipy's ``label``)."""
    k = len(merges) + 1
    z = merges[np.argsort(merges[:, 2], kind="mergesort")]
    parent = list(range(2 * k - 1))
    size = [1] * (2 * k - 1)
    for step, pair in enumerate(z[:, :2].astype(np.int64).tolist()):
        roots = []
        for node in pair:
            while parent[node] != node:
                node = parent[node]
            roots.append(node)
        parent[roots[0]] = parent[roots[1]] = k + step
        size[k + step] = size[roots[0]] + size[roots[1]]
        z[step] = min(roots), max(roots), z[step, 2], size[k + step]
    return z


def assert_clustered_as_scipy(d, cuts):
    """consensus_staging equals scipy's clustering at every cut and linkage,
    and the average and complete linkage matrices equal scipy's bit for bit."""
    for linkage in ("average", "complete", "single"):
        for cut in cuts:
            got = consensus_staging(d, cut, 1, linkage)
            want = reference_consensus_staging(d, cut, 1, linkage)
            assert np.array_equal(got.stage_of, want.stage_of), (linkage, cut)
    if len(d) > 1:
        for linkage in ("average", "complete"):
            want = scipy_linkage(squareform(d, checks=False), method=linkage)
            assert scipy_linkage_matrix(_nn_chain(d, linkage)).tobytes() == want.tobytes(), linkage


class TestClusteringOracle:
    """The nearest-neighbour chain against scipy, on co-staging
    dissimilarities: apart / M from random stage ids, which tie often."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 64),
        m=st.integers(1, 40),
        ids=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        numerator=st.integers(1, 39),
        cut=st.floats(0.001, 0.999),
    )
    def test_equal_to_scipy(self, k, m, ids, seed, numerator, cut):
        z = np.random.default_rng(seed).integers(0, ids, size=(k, m))
        # A cut at an exact multiple of 1/M meets merge heights head on.
        cuts = [0.5, cut] + ([min(numerator, m - 1) / m] if m > 1 else [])
        assert_clustered_as_scipy(_disagreement(z, 1), cuts)

    def test_height_inversion(self):
        # Average linkage joins {0, 2} at 0.5, then {0, 2} and 1 at 0.7, then
        # that cluster and 3 at (0.7 + 2 * 0.7) / 3, which rounds to below
        # 0.7. Sorted by height, scipy's linkage makes that merge first, as
        # {0, 2} and 3, so a cut at its height leaves 1 alone.
        d = np.array([[0, 6, 5, 7], [6, 0, 8, 7], [5, 8, 0, 7], [7, 7, 7, 0]]) / 10
        low = (0.7 + 2 * 0.7) / 3
        assert low < 0.7
        assert_clustered_as_scipy(d, [low, 0.7])
        assert consensus_staging(d, low, 1).stage_of.tolist() == [0, 1, 0, 0]

    def test_wide_consensus_depth(self):
        # The 512 contexts of depth 9 of the wide_consensus workload's data.
        d = survey_data(np.random.default_rng(1), n=10_000, p=10)
        ensemble = run_bootstrap_consensus(d, range(10), ResamplePlan(8, seed=1), LearnConfig()).ensemble
        assert ensemble.dissimilarity[9].shape == (512, 512)
        assert_clustered_as_scipy(ensemble.dissimilarity[9], [0.5, 0.25, 0.375, 0.9])


class TestAveragedTree:
    def test_saturated_consensus_equals_saturated_fit(self, monkeypatch):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, p=3, n=200)
        order = (0, 1, 2)
        sat = saturated_tree(d.schema, order)
        # Every depth's consensus is the saturated staging, so the averaged
        # model is the saturated tree refit on the full data.
        monkeypatch.setattr(consensus, "consensus_staging", lambda d_matrix, cut, depth, linkage: sat.stagings[depth])
        result = run_bootstrap_consensus(d, order, ResamplePlan(2, seed=4), LearnConfig()).averaged
        direct = fit(sat, d)
        for a, b in zip(result.probs, direct.probs):
            assert np.array_equal(a, b)

    def test_unanimous_ensemble_reproduces_staging(self):
        rng = np.random.default_rng(5)
        d = chain_data(rng)
        tree = learn(d, (0, 1, 2), LearnConfig())
        reps = [[s.stage_of for s in tree.stagings]] * 4
        ensemble = ensemble_from_stagings((0, 1, 2), reps)
        for depth in range(3):
            staging = consensus_staging(ensemble.dissimilarity[depth], 0.5, depth)
            assert np.array_equal(staging.stage_of, tree.stagings[depth].stage_of)


def edge_table_from_lists(edge_lists, names):
    """The edge strength table of replicates given as lists of (parent,
    child, label) edges, tallied one replicate at a time."""
    m = len(edge_lists)
    present, labels = {}, {}
    for edges in edge_lists:
        for parent, child, label in edges:
            key = (parent, child)
            present[key] = present.get(key, 0) + 1
            slot = labels.setdefault(key, {})
            slot[label] = slot.get(label, 0) + 1
    return tuple(
        EdgeStrengthRow(names[key[0]], names[key[1]], m, present[key], dict(sorted(labels[key].items())))
        for key in sorted(present)
    )


def edge_table(graphs):
    """Edge strength table of compressed graphs that share one schema."""
    edge_lists = [tuple((e.parent, e.child, e.label) for e in g.edges) for g in graphs]
    return edge_table_from_lists(edge_lists, graphs[0].schema.names)


def load_dissimilarity_csv(path):
    """Read back a matrix written by staging_heatmap_export."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0][1:]
    values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    return labels, values


class TestEdgeStrength:
    def test_always_present_symmetric_edge(self):
        rng = np.random.default_rng(6)
        d = chain_data(rng, n=600)
        graphs = [compress(learn(d, (0, 1, 2), LearnConfig()))] * 5
        table = edge_table(graphs)
        by_pair = {(r.parent, r.child): r for r in table}
        row = by_pair[("X1", "X2")]
        assert row.strength == 1.0
        assert sum(row.label_counts.values()) == row.present

    def test_absent_edges_omitted(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        stagings = (staging_from_ids(0, [0]), staging_from_ids(1, [0, 0]))
        tree = StagedTree(schema, (0, 1), stagings)
        table = edge_table([compress(tree)])
        assert table == ()

    def test_label_fractions_sum_to_strength(self):
        rng = np.random.default_rng(7)
        d = chain_data(rng, n=200)
        plan = ResamplePlan(8, seed=3)
        result = run_bootstrap_consensus(d, (0, 1, 2), plan, LearnConfig())
        for row in result.edge_table:
            assert sum(row.label_counts.values()) == row.present
            assert 0.0 <= row.strength <= 1.0


class TestBootstrapPipeline:
    def test_bootstrap_orders_on_stable_data(self):
        rng = np.random.default_rng(8)
        d = chain_data(rng, n=800)
        votes = bootstrap_orders(d, ResamplePlan(6, seed=1), LearnConfig())
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert votes.counts[j, k] + votes.counts[k, j] == 6

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.integers(2, 6), tie_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_pinned_variable_comes_last(self, data, p, tie_seed):
        pinned = data.draw(st.integers(0, p - 1))
        rest = st.permutations([v for v in range(p) if v != pinned])
        orders = [tuple(o) + (pinned,) for o in data.draw(st.lists(rest, min_size=1, max_size=9))]
        assert consensus_order(tally_orders(orders, p), tie_seed=tie_seed).order[-1] == pinned

    def test_fixed_last_excluded_from_search(self):
        rng = np.random.default_rng(9)
        d = chain_data(rng, n=300)
        votes = bootstrap_orders(d, ResamplePlan(4, seed=2), LearnConfig(), fixed_last=2)
        # the pinned variable loses every pairwise vote it could have won
        assert votes.counts[2, 0] == 0 and votes.counts[2, 1] == 0

    def test_orders_are_not_scored(self, monkeypatch):
        # The vote needs each replicate's ordering only, so no ordering is
        # scored and the pinned variable is never scored given the rest.
        # Each replicate is drawn once, and the variables the DP arranges of
        # all replicates are tallied in one Dataset.counts call.
        d = chain_data(np.random.default_rng(19), n=200, p=4)
        plan = ResamplePlan(4, seed=3)
        orders = [
            order_search_dp(bootstrap_replicate(d, plan.replicate_seed(i)), LearnConfig(), fixed_last=3)[0]
            for i in range(plan.replicates)
        ]
        drawn, tallied = [], []
        real_draw, real_counts = consensus._bootstrap_rows, Dataset.counts
        monkeypatch.setattr(consensus, "_bootstrap_rows", lambda n, seed: drawn.append(seed) or real_draw(n, seed))
        monkeypatch.setattr(
            Dataset, "counts", lambda self, cols, draws=None: tallied.append((tuple(cols), len(draws))) or real_counts(self, cols, draws)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("bootstrap_orders scored an ordering")

        monkeypatch.setattr(learning, "ordering_score", refuse)
        monkeypatch.setattr(learning, "variable_score", refuse)
        votes = bootstrap_orders(d, plan, LearnConfig(), fixed_last=3)
        assert np.array_equal(votes.counts, tally_orders(orders, 4).counts)
        assert drawn == [plan.replicate_seed(i) for i in range(plan.replicates)]
        assert tallied == [((0, 1, 2), plan.replicates)]

    @pytest.mark.parametrize("fixed_last", [None, 3, 4])
    def test_dp_guard_refused_before_any_replicate(self, monkeypatch, fixed_last):
        d = chain_data(np.random.default_rng(20), n=100, p=4)

        def resample(n, seed):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(consensus, "_bootstrap_rows", resample)
        monkeypatch.setattr(learning, "MAX_DP_VARIABLES", 2)
        message = "out of range" if fixed_last == 4 else "dynamic-programming guard"
        with pytest.raises(ModelError, match=message):
            bootstrap_orders(d, ResamplePlan(3, seed=1), LearnConfig(), fixed_last=fixed_last)

    def test_duplication_invariance_end_to_end(self):
        rng = np.random.default_rng(10)
        d = chain_data(rng, n=250)
        ens_m = run_bootstrap_consensus(d, (0, 1, 2), ResamplePlan(5, seed=4), LearnConfig()).ensemble
        reps = [[ens_m.z[depth][:, i] for depth in range(3)] for i in range(5)]
        doubled = ensemble_from_stagings((0, 1, 2), reps + reps)
        for depth in range(3):
            assert np.array_equal(ens_m.dissimilarity[depth], doubled.dissimilarity[depth])
            a = consensus_staging(ens_m.dissimilarity[depth], 0.5, depth)
            b = consensus_staging(doubled.dissimilarity[depth], 0.5, depth)
            assert np.array_equal(a.stage_of, b.stage_of)

    def test_averaged_tree_is_fitted_on_full_data(self):
        rng = np.random.default_rng(12)
        d = chain_data(rng, n=150)
        plan = ResamplePlan(3, seed=6)
        result = run_bootstrap_consensus(d, (0, 1, 2), plan, LearnConfig())
        refit = fit(result.averaged, d)
        for a, b in zip(result.averaged.probs, refit.probs):
            assert np.array_equal(a, b)


class TestBatchedReplicateStaging:
    """The depths of all replicates merge together in the calling process:
    the result does not depend on the batch cap, and each replicate gets the
    stagings and edges it gets when learned alone."""

    @pytest.mark.parametrize("k", [None, 1])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_cap_free_and_equal_to_replicates_alone(self, monkeypatch, k, smoothing):
        d = chain_data(np.random.default_rng(18), n=300, p=5)
        order = (3, 0, 4, 1, 2)
        cfg = LearnConfig("bhc" if k is None else "kparents", k=k, smoothing=smoothing)
        plan = ResamplePlan(6, seed=9)
        chunks = []
        real = learning._merge_lockstep
        monkeypatch.setattr(learning, "_merge_lockstep", lambda c, n, s: chunks.append(c.shape[0]) or real(c, n, s))
        default = run_bootstrap_consensus(d, order, plan, cfg)
        # One chunk per start-table shape: a depth of every replicate, or
        # (kparents) every depth past the first, whose start tables all
        # have two classes.
        assert sum(chunks) == 5 * plan.replicates
        assert all(size % plan.replicates == 0 for size in chunks)
        whole = len(chunks)
        # Under 64 cells the 8- and 16-context depths (bhc) merge one
        # replicate at a time, and the 24 two-class tables (kparents) go in
        # chunks of 16 and 8.
        chunks.clear()
        monkeypatch.setattr(learning, "MERGE_BATCH_CELLS", 64)
        small = run_bootstrap_consensus(d, order, plan, cfg)
        assert len(chunks) > whole and max(chunks) > 1

        def arrays(result):
            ensemble = result.ensemble
            stages = tuple(s.stage_of for s in result.stagings)
            return [a.tobytes() for a in ensemble.z + ensemble.dissimilarity + stages + result.averaged.probs]

        assert arrays(small) == arrays(default)
        assert default.edge_table == small.edge_table

        edge_lists = []
        for i in range(plan.replicates):
            replicate = bootstrap_replicate(d, plan.replicate_seed(i))
            stagings = tuple(reference_stage_depth(replicate, order, depth, k, smoothing)[0] for depth in range(5))
            for depth, staging in enumerate(stagings):
                np.testing.assert_array_equal(default.ensemble.z[depth][:, i], staging.stage_of)
            tree = StagedTree(d.schema, order, stagings)
            edge_lists.append(tuple((e.parent, e.child, e.label) for e in compress(tree).edges))
        assert edge_table_from_lists(edge_lists, d.schema.names) == default.edge_table

    @pytest.mark.parametrize("k", [None, 2])
    def test_replicate_map_only_tallies(self, monkeypatch, k):
        # Each replicate comes back as its joint counts of the order; the
        # start tables, CMI parents included, are built from those tallies.
        d = chain_data(np.random.default_rng(19), n=200, p=4)
        order = (2, 0, 3, 1)
        plan = ResamplePlan(3, seed=4)
        mapped = []
        real = consensus._replicate_counts
        monkeypatch.setattr(consensus, "_replicate_counts", lambda *args: mapped.append(real(*args)) or mapped[-1])
        run_bootstrap_consensus(d, order, plan, LearnConfig("bhc" if k is None else "kparents", k=k))
        (joints,) = mapped
        assert len(joints) == plan.replicates
        for i, joint in enumerate(joints):
            want = bootstrap_replicate(d, plan.replicate_seed(i)).counts(order)
            assert joint.dtype == np.int64 and np.array_equal(joint, want)


class TestReplicateTallies:
    """Every replicate is tallied from its drawn row indices without a copy
    of the dataset, and equals the tally of its copy."""

    def test_equal_to_each_replicate_copy(self):
        d = random_dataset(np.random.default_rng(30), p=4, n=70, max_levels=3)
        plan = ResamplePlan(9, seed=8)
        copies = [bootstrap_replicate(d, plan.replicate_seed(i)) for i in range(plan.replicates)]
        for columns in [(2, 0, 3), (1,), (3, 2, 1, 0)]:
            want = np.stack([copy.counts(columns) for copy in copies])
            alone = consensus._replicate_counts(d, plan, columns)
            with consensus._shared_draws(d, plan):
                shared = consensus._replicate_counts(d, plan, columns)
            for got in (alone, shared):
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_no_replicate_copied(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replicate was copied")

        monkeypatch.setattr(Dataset, "take_rows", refuse)
        d = chain_data(np.random.default_rng(31), n=90)
        run_bootstrap_consensus(d, (0, 1, 2), ResamplePlan(4, seed=2), LearnConfig("kparents", k=1))
        bootstrap_orders(d, ResamplePlan(4, seed=2), LearnConfig())


class TestEdgeTableOnRead:
    def test_built_once_when_read(self, monkeypatch):
        d = chain_data(np.random.default_rng(32), n=150)
        labelled = []
        real = aldag._label_axes
        monkeypatch.setattr(aldag, "_label_axes", lambda grids: labelled.append(len(grids)) or real(grids))
        result = run_bootstrap_consensus(d, (0, 1, 2), ResamplePlan(5, seed=3), LearnConfig())
        assert labelled == []
        first = result.edge_table
        assert labelled == [5, 5]  # depths 1 and 2, all replicates in one pass each
        assert result.edge_table is first
        assert labelled == [5, 5]

    def test_cv_labels_no_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tree was labelled")

        monkeypatch.setattr(aldag, "_label_axes", refuse)
        d = chain_data(np.random.default_rng(33), n=120)
        run_cv(d, [LearnConfig(), LearnConfig("kparents", k=1)], folds=2, bootstrap_replicates=3, seed=4)


class TestCutHeight:
    @pytest.mark.parametrize("cut", [0.0, 1.0, 1.5, -0.2])
    def test_bad_cut_raises_before_any_replicate(self, monkeypatch, cut):
        d = chain_data(np.random.default_rng(15), n=120)

        def resample(n, seed):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(consensus, "_bootstrap_rows", resample)
        with pytest.raises(ModelError, match="cut height"):
            run_bootstrap_consensus(d, (0, 1, 2), ResamplePlan(5, seed=7), LearnConfig(), cut=cut)


class TestReplicateFailures:
    @pytest.mark.parametrize("stage", ["orders", "stagings"])
    def test_failure_names_replicate_and_seed(self, monkeypatch, stage):
        d = chain_data(np.random.default_rng(14), n=120)
        plan = ResamplePlan(5, seed=7)
        note = fail_replicate(monkeypatch, plan, 3)
        with pytest.raises(ModelError, match="injected failure") as exc:
            if stage == "orders":
                bootstrap_orders(d, plan, LearnConfig())
            else:
                run_bootstrap_consensus(d, (0, 1, 2), plan, LearnConfig())
        assert note in exc.value.__notes__


class TestHeatmapExport:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        raw = rng.random((3, 3))
        d = (raw + raw.T) / 2
        np.fill_diagonal(d, 0.0)
        labels = ["c0", "c1", "c2"]
        path = tmp_path / "diss.csv"
        staging_heatmap_export(d, labels, str(path))
        got_labels, got = load_dissimilarity_csv(str(path))
        assert got_labels == labels
        assert np.array_equal(got, d)
        assert (tmp_path / "diss.csv.plot.json").exists()

    def test_cells_match_per_cell_repr(self, tmp_path):
        # Each distinct value is formatted once; the text must be what a
        # per-cell repr(float(v)) writes, with -0.0 kept apart from 0.0.
        rng = np.random.default_rng(14)
        values = np.array([0.0, -0.0, 0.125, 1 / 3, 1.0, np.inf, np.nan])
        d = values[rng.integers(0, values.size, size=(6, 6))]
        labels = [f"c{i}" for i in range(6)]
        path = tmp_path / "diss.csv"
        staging_heatmap_export(d, labels, str(path))
        want = ["context," + ",".join(labels)]
        want += [",".join([label] + [repr(float(v)) for v in row]) for label, row in zip(labels, d)]
        assert path.read_text().splitlines() == want
        assert "-0.0" in path.read_text()

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(["c", "a,b", 'say "hi"', "two\nlines", "", " pad "]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_to_per_cell_rows(self, tmp_path_factory, labels, seed):
        # The formatted matrix must write what rows of float cells write.
        values = np.array([0.0, -0.0, 0.125, 1 / 3, 1.0, np.inf, np.nan])
        d = values[np.random.default_rng(seed).integers(0, values.size, size=(len(labels),) * 2)]
        out = tmp_path_factory.mktemp("heatmap")
        staging_heatmap_export(d, labels, str(out / "fast.csv"))
        _write_csv(str(out / "cells.csv"), ["context"] + labels, ([label] + row.tolist() for label, row in zip(labels, d)))
        assert (out / "fast.csv").read_bytes() == (out / "cells.csv").read_bytes()

    def test_two_by_two_has_three_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        staging_heatmap_export(np.array([[0.0, 0.4], [0.4, 0.0]]), ["a", "b"], str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_labels_follow_context_enumeration(self, table_model):
        labels = context_labels_for_depth(table_model.schema, table_model.order, 1)
        assert labels[0] == "Country=EE"
        assert labels[-1] == "Country=WE"
