import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagedtree import (
    Dataset,
    LearnConfig,
    ModelError,
    Schema,
    Variable,
    bic,
    cmi,
    compress,
    fit,
    kparents_learn,
    learn,
    order_search_dp,
    order_search_grouped,
    ordering_score,
    variable_score,
)
from stagedtree import learning
from stagedtree.learning import (
    _batched,
    _bhc_scores,
    _learn,
    _merge_lockstep,
    _merge_steps,
    _stage_tables,
    _start_tables,
)
from stagedtree.tree import FitConfig, StageAssignment, StagedTree, pool_counts, probabilities_from_counts, stage_counts

from conftest import max_in_degree, random_dataset, saturated_tree
from staging_oracle import (
    depth_bic,
    exhaustive_stage,
    lockstep_merge_steps,
    reference_bhc_merge,
    reference_stage_depth,
    reference_stage_loglik,
    set_partitions,
)


def binary_dataset(rng, p, n):
    schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(p)))
    return Dataset(schema, rng.integers(0, 2, size=(n, p)))


def sample_from_tree(tree, rng, n):
    """Forward-sample rows from a fitted staged tree."""
    rows = np.zeros((n, tree.p), dtype=np.int64)
    for depth in range(tree.p):
        var = tree.order[depth]
        shape = [tree.schema.level_counts[tree.order[i]] for i in range(depth)]
        codes = np.zeros(n, dtype=np.int64)
        for i in range(depth):
            codes = codes * shape[i] + rows[:, tree.order[i]]
        stages = tree.stagings[depth].stage_of[codes]
        uniforms = rng.random(n)
        cdf = np.cumsum(tree.probs[depth], axis=1)
        rows[:, var] = (uniforms[:, None] > cdf[stages]).sum(axis=1)
    return Dataset(tree.schema, rows)


def stage_depth(d, order, depth, k, smoothing):
    """One depth of ``order`` staged as the learner stages it. Returns the
    staging, its pooled counts and the parent set."""
    starts = _start_tables(order, d.counts(order)[None], k)
    ids, counts = _stage_tables([(starts, d.n, smoothing)])[0][depth]
    ((_, _, _, parents),) = starts[depth]
    return StageAssignment(depth, ids[0], len(counts[0])), counts[0], parents


def bhc_stage_depth(d, order, depth):
    """Greedy staging of one depth, merging from singleton contexts."""
    return stage_depth(d, order, depth, None, 0.0)[0]


def merge_one(counts, n_rows, smoothing):
    """The batched merge of one table: its stage ids, its stages' pooled
    counts and its accepted BIC deltas."""
    stage_of, pooled, n_stages, deltas = _merge_lockstep(counts[None], n_rows, smoothing, trace=True)
    assert n_stages.tolist() == [len(pooled)]
    return stage_of[0], pooled, deltas[0]


def reference_score(counts, n_rows, smoothing):
    """depth_bic of the reference merge of one table, its stages pooled in
    the order of their lowest rows."""
    ids = np.unique(reference_bhc_merge(counts, n_rows, smoothing), return_inverse=True)[1]
    return depth_bic(pool_counts(counts, ids, int(ids.max(initial=-1)) + 1), n_rows, smoothing)


def depth_bic_of(d, order, staging, smoothing=0.0):
    counts = stage_counts(d, order, staging.depth, staging.stage_of, staging.n_stages)
    return depth_bic(counts, d.n, smoothing)


def merge_pair(staging, a, b):
    """Return stage ids with stages a and b pooled (raw, non-canonical)."""
    ids = staging.stage_of.copy()
    ids[ids == b] = a
    return ids


class TestBhc:
    def test_identical_contexts_merged(self):
        rng = np.random.default_rng(0)
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        # both contexts share the exact same conditional counts
        rows = [[0, 0]] * 40 + [[0, 1]] * 10 + [[1, 0]] * 40 + [[1, 1]] * 10
        d = Dataset(schema, np.array(rows))
        staging = bhc_stage_depth(d, (0, 1), 1)
        assert staging.n_stages == 1

    def test_two_stage_ground_truth_recovered(self):
        rng = np.random.default_rng(7)
        schema = Schema((Variable("u", ("a", "b", "c")), Variable("v", ("x", "y"))))
        # contexts a and b share a stage with p(x)=0.9; context c has p(x)=0.1
        stagings = (
            np.array([0]),
            np.array([0, 0, 1]),
        )
        from conftest import staging_from_ids

        truth = StagedTree(
            schema,
            (0, 1),
            (staging_from_ids(0, stagings[0]), staging_from_ids(1, stagings[1])),
            (np.array([[0.4, 0.35, 0.25]]), np.array([[0.9, 0.1], [0.1, 0.9]])),
        )
        d = sample_from_tree(truth, rng, 5000)
        learned = bhc_stage_depth(d, (0, 1), 1)
        assert learned.stage_of.tolist() == [0, 0, 1]

    def test_local_optimum_no_single_merge_improves(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = binary_dataset(rng, 3, 200)
            for depth in (1, 2):
                staging = bhc_stage_depth(d, (0, 1, 2), depth)
                base = depth_bic_of(d, (0, 1, 2), staging)
                from conftest import staging_from_ids

                for a, b in itertools.combinations(range(staging.n_stages), 2):
                    merged = staging_from_ids(depth, merge_pair(staging, a, b))
                    assert depth_bic_of(d, (0, 1, 2), merged) >= base - 1e-9

    def test_bhc_never_worse_than_saturated(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = random_dataset(rng, p=3, n=150)
            order = tuple(rng.permutation(3))
            learned = learn(d, order, LearnConfig())
            sat = fit(saturated_tree(d.schema, order), d)
            assert bic(learned, d) <= bic(sat, d) + 1e-9

    def test_accepted_merges_strictly_improve(self):
        rng = np.random.default_rng(21)
        d = binary_dataset(rng, 4, 300)
        order = (0, 1, 2, 3)
        total = 8  # contexts at depth 3
        counts = stage_counts(d, order, 3, np.arange(total), total)
        trace = merge_one(counts, d.n, 0.0)[2]
        assert len(trace) <= total - 1
        assert all(delta < -1e-9 for delta in trace)

    def test_single_variable_dataset(self):
        rng = np.random.default_rng(1)
        schema = Schema((Variable("u", ("a", "b")),))
        d = Dataset(schema, rng.integers(0, 2, size=(30, 1)))
        tree = learn(d, (0,), LearnConfig())
        assert tree.stagings[0].n_stages == 1
        assert tree.probs is not None


@st.composite
def pooled_counts(draw):
    """Stage count matrices for the merge oracle: 0 to 80 stages over 2 to 9
    levels (numpy sums rows of 8 or more terms pairwise), drawn from a few
    distinct rows so that duplicated rows, all-zero rows and bit-equal
    deltas are common."""
    k = draw(st.integers(0, 80))
    levels = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, max(k, 1)))
    if draw(st.booleans()):
        rows = rng.integers(0, draw(st.sampled_from([2, 6, 40])), size=(distinct, levels))
    else:
        probs = rng.dirichlet(np.ones(levels), size=3)
        rows = np.stack([rng.multinomial(rng.integers(0, 120), probs[rng.integers(3)]) for _ in range(distinct)])
    rows[rng.random(distinct) < draw(st.sampled_from([0.0, 0.3]))] = 0
    counts = rows[rng.integers(0, distinct, size=k)].reshape(k, levels)
    n_rows = int(counts.sum()) + draw(st.integers(1, 60))
    return counts, n_rows, draw(st.sampled_from([0.0, 0.5, 1.0]))


class TestMergeOracle:
    """The row-minimum merge against the global-argmin merge it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=pooled_counts())
    # A merged stage ties bit for bit with a row's cached best partner, and
    # the lower id must win; random inputs rarely reach this.
    @example(case=(np.array([[3, 3], [1, 1], [2, 2], [1, 0], [1, 1], [3, 2], [2, 3], [0, 1], [3, 3]]), 44, 0.0))
    def test_assignment_and_trace_bit_equal(self, case):
        counts, n_rows, smoothing = case
        expected_trace = []
        stage_of, pooled, trace = merge_one(counts, n_rows, smoothing)
        roots = reference_bhc_merge(counts, n_rows, smoothing, trace=expected_trace)
        # The reference names each stage by its lowest row; the merge numbers
        # the stages in that order.
        expected = np.unique(roots, return_inverse=True)[1]
        np.testing.assert_array_equal(stage_of, expected)
        assert np.array(trace).tobytes() == np.array(expected_trace).tobytes()
        n_stages = int(expected.max(initial=-1)) + 1
        assert pooled.dtype == float
        np.testing.assert_array_equal(pooled, pool_counts(counts, expected, n_stages))

    @settings(max_examples=100, deadline=None)
    @given(case=pooled_counts())
    def test_depth_bic_bit_equal(self, case):
        counts, n_rows, smoothing = case
        levels = counts.shape[1]
        loglik = float(reference_stage_loglik(counts, smoothing).sum())
        expected = -2.0 * loglik + counts.shape[0] * (levels - 1) * math.log(n_rows)
        assert depth_bic(counts, n_rows, smoothing) == expected


@st.composite
def merge_batches(draw):
    """B start tables of one shape (k, levels) for the batched merge: 2 to 10
    levels, each table drawn from a few distinct rows on its own count scale,
    so the problems stop after different numbers of merges and bit-equal
    deltas are common."""
    batch = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    levels = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, k))
    tables = []
    for _ in range(batch):
        rows = rng.integers(0, rng.choice([2, 6, 40, 400]), size=(distinct, levels))
        rows[rng.random(distinct) < 0.3] = 0
        tables.append(rows[rng.integers(0, distinct, size=k)])
    counts = np.stack(tables)
    n_rows = int(counts.sum(axis=(1, 2)).max()) + draw(st.integers(1, 60))
    return counts, n_rows, draw(st.sampled_from([0.0, 0.5]))


class TestBatchedMergeOracle:
    """The lockstep merge scores every problem of a batch as the reference
    merge and depth_bic score it alone."""

    @staticmethod
    def one_by_one(counts, n_rows, smoothing):
        return [reference_score(c, n_rows, smoothing) for c in counts]

    @settings(max_examples=300, deadline=None)
    @given(case=merge_batches())
    def test_scores_bit_equal(self, case):
        counts, n_rows, smoothing = case
        got = _bhc_scores(counts, n_rows, smoothing)
        assert all(type(score) is float for score in got)
        assert np.array(got).tobytes() == np.array(self.one_by_one(counts, n_rows, smoothing)).tobytes()

    def test_problems_stopping_at_different_steps(self):
        # The tie case of TestMergeOracle (it merges to one stage) beside a
        # table that cannot merge and one that merges into two stages.
        tie = np.array([[3, 3], [1, 1], [2, 2], [1, 0], [1, 1], [3, 2], [2, 3], [0, 1], [3, 3]])
        apart = np.array([[1000 - 100 * i, 100 * i] for i in range(9)])
        two = np.array([[100, 0]] * 4 + [[0, 100]] * 5)
        counts = np.stack([tie, apart, two])
        stages = [np.unique(reference_bhc_merge(c, 44, 0.0)).size for c in counts]
        assert len(set(stages)) == 3
        got = _bhc_scores(counts, 44, 0.0)
        assert np.array(got).tobytes() == np.array(self.one_by_one(counts, 44, 0.0)).tobytes()


@st.composite
def mixed_batches(draw):
    """Start tables of one to four shapes (k up to 12, 2 to 9 levels), one
    to five tables each, in shuffled order, with a batch cap of 1, 40 or 150
    cells: under 40 and 150 the small tables share chunks and the large ones
    merge alone."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        k, levels = draw(st.integers(1, 12)), draw(st.integers(2, 9))
        distinct = draw(st.integers(1, k))
        for _ in range(draw(st.integers(1, 5))):
            rows = rng.integers(0, rng.choice([2, 6, 40, 400]), size=(distinct, levels))
            rows[rng.random(distinct) < 0.3] = 0
            tables.append(rows[rng.integers(0, distinct, size=k)])
    tables = [tables[at] for at in rng.permutation(len(tables))]
    n_rows = max(int(table.sum()) for table in tables) + draw(st.integers(1, 60))
    smoothing, cap = draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([1, 40, 150]))
    return tables, n_rows, smoothing, cap, draw(st.sampled_from([learning.MERGE_BLOCK_CELLS, 1, 50]))


class TestChunkedMergeOracle:
    """Tables of mixed shapes merged in capped chunks: every problem gets the
    stages, pooled counts and accepted deltas of the reference merge run on
    it alone. Under a block cap of 1 or 50 cells the initial deltas are
    built from row ranges of one problem, or from a few whole problems."""

    @staticmethod
    def merge_chunks(tables, n_rows, smoothing, cap, block=learning.MERGE_BLOCK_CELLS):
        chunks = []

        def merge(stack, _):
            chunks.append(stack.shape)
            stage_of, pooled, n_stages, deltas = _merge_lockstep(stack, n_rows, smoothing, trace=True)
            return zip(stage_of, np.split(pooled, np.cumsum(n_stages)[:-1]), deltas)

        with mock.patch.object(learning, "MERGE_BATCH_CELLS", cap), mock.patch.object(learning, "MERGE_BLOCK_CELLS", block):
            merged = _batched(tables, merge)
            # Each table as a depth of its own of one replicate.
            starts = [[(np.array([0]), np.arange(len(t)), t[None], ())] for t in tables]
            (run,) = _stage_tables([(starts, n_rows, smoothing)])
            staged = [(ids[0], counts[0]) for ids, counts in run]
        assert all(b == 1 or b * k * k <= cap for b, k, _ in chunks)
        assert sum(b for b, _, _ in chunks) == len(tables)
        for table, (stage_of, pooled, trace), (ids_of, counts) in zip(tables, merged, staged):
            expected_trace = []
            roots = reference_bhc_merge(table, n_rows, smoothing, trace=expected_trace)
            ids = np.unique(roots, return_inverse=True)[1]
            want = pool_counts(table, ids, int(ids.max()) + 1)
            np.testing.assert_array_equal(stage_of, ids)
            np.testing.assert_array_equal(ids_of, ids)
            np.testing.assert_array_equal(pooled, want)
            np.testing.assert_array_equal(counts, want)
            assert np.array(trace).tobytes() == np.array(expected_trace).tobytes()
        return [b for b, _, _ in chunks]

    @settings(max_examples=200, deadline=None)
    @given(case=mixed_batches())
    def test_stages_counts_and_trace_bit_equal(self, case):
        self.merge_chunks(*case)

    def test_single_and_shared_chunks(self):
        # Under 40 cells, five 3-row tables go in chunks of 4 and 1
        # (4 * 9 = 36 cells) and two 7-row tables (49 cells) one at a time.
        rng = np.random.default_rng(31)
        tables = [rng.integers(0, 6, size=(3, 2)) for _ in range(5)]
        tables += [rng.integers(0, 6, size=(7, 3)) for _ in range(2)]
        n_rows = max(int(table.sum()) for table in tables) + 5
        assert sorted(self.merge_chunks(tables, n_rows, 0.0, 40)) == [1, 1, 1, 4]


@st.composite
def kernel_batches(draw):
    """B start tables of one shape for the merge kernels: k from 2 (the
    lockstep merge takes no steps below) to 512, over 2, 3, 8 or 9 levels;
    the default block builds the start table in row ranges from k = 256 at
    2 or 3 levels and from k = 128 at 8 or 9, and a block of 1 or 50 cells
    does so at any k. Each table is drawn from a few distinct rows, so rows
    repeat, and some rows are pure (one level) or empty; smoothing is 0 or
    0.5, and n_rows = 1 makes every delta among empty rows and pure rows
    of one level -0.0."""
    batch = draw(st.integers(1, 4))
    k = draw(st.sampled_from([2, 3, 9, 40, 65, 128, 256, 512]))
    levels = draw(st.sampled_from([2, 3, 8, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, min(k, 60)))
    tables = []
    for _ in range(batch):
        rows = rng.integers(0, rng.choice([2, 6, 40, 400]), size=(distinct, levels))
        pure = rng.random(distinct) < draw(st.sampled_from([0.0, 0.3, 1.0]))
        rows[pure] = np.eye(levels, dtype=rows.dtype)[rng.integers(0, levels, size=pure.sum())] * rng.integers(1, 50, size=(pure.sum(), 1))
        rows[rng.random(distinct) < draw(st.sampled_from([0.0, 0.3]))] = 0
        tables.append(rows[rng.integers(0, distinct, size=k)])
    counts = np.stack(tables)
    n_rows = draw(st.sampled_from([1, int(counts.sum(axis=(1, 2)).max()) + draw(st.integers(1, 60))]))
    block = draw(st.sampled_from([learning.MERGE_BLOCK_CELLS, 1, 50]))
    return counts, n_rows, draw(st.sampled_from([0.0, 0.5])), block


class TestLockstepKernelOracle:
    """The merge kernel, which rescans only the rows whose cached minimum
    got worse and mirrors its row-range start table, against the kernel that
    rescanned every row whose partner merged: the same parents, pooled
    counts and accepted deltas, bit for bit."""

    @staticmethod
    def run(steps, counts, n_rows, smoothing):
        out = np.ascontiguousarray(counts.transpose(2, 0, 1), dtype=float)
        parent = np.tile(np.arange(counts.shape[1]), (len(counts), 1))
        deltas = [[] for _ in counts]
        with np.errstate(invalid="ignore", divide="ignore"):
            steps(out, parent, n_rows, smoothing, deltas)
        return out, parent, deltas

    @settings(max_examples=120, deadline=None)
    @given(case=kernel_batches())
    def test_parents_counts_and_deltas_bit_equal(self, case):
        counts, n_rows, smoothing, block = case
        with mock.patch.object(learning, "MERGE_BLOCK_CELLS", block):
            out, parent, deltas = self.run(_merge_steps, counts, n_rows, smoothing)
        want_out, want_parent, want_deltas = self.run(lockstep_merge_steps, counts, n_rows, smoothing)
        assert out.tobytes() == want_out.tobytes()
        assert parent.tobytes() == want_parent.tobytes()
        assert [np.array(d).tobytes() for d in deltas] == [np.array(d).tobytes() for d in want_deltas]

    def test_default_block_mirrors_wide_tables(self):
        # A 512-row binary table is built in row ranges under the default
        # block, and its merge matches the kernel that built it whole.
        assert learning.MERGE_BLOCK_CELLS // (2 * 512) < 512
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 30, size=(2, 512, 2))
        counts[:, ::7] = 0
        got = self.run(_merge_steps, counts, 20_000, 0.0)
        want = self.run(lockstep_merge_steps, counts, 20_000, 0.0)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2] and all(got[2])

    def test_four_wide_tables_share_a_chunk(self):
        # Under the default cap, eight 512-row tables merge in two lockstep
        # chunks of four.
        chunks = []
        tables = [np.zeros((512, 2)) for _ in range(8)]
        _batched(tables, lambda stack, _: chunks.append(len(stack)) or [None] * len(stack))
        assert chunks == [4, 4]


@st.composite
def staging_runs(draw):
    """One to five runs of ``_stage_tables``: each the start tables of one
    to three replicates of one of three schemas (two of them give depths of
    equal shapes), bhc or kparents with one parent, of N or N + 1 rows,
    at smoothing 0 or 0.5; and a batch cap under which the runs share some
    chunks and split others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        levels = draw(st.sampled_from([(2, 2, 2), (2, 2, 3), (3, 2, 2, 2)]))
        joints = np.stack([
            np.bincount(rng.integers(0, math.prod(levels), size=n), minlength=math.prod(levels)).reshape(levels)
            for _ in range(draw(st.integers(1, 3)))
        ])
        k = draw(st.sampled_from([None, 1]))
        starts = _start_tables(tuple(range(len(levels))), joints, k)
        runs.append((starts, n + draw(st.integers(0, 1)), draw(st.sampled_from([0.0, 0.5]))))
    return runs, draw(st.sampled_from([1, 40, learning.MERGE_BATCH_CELLS]))


class TestJointRuns:
    """Runs staged together get the stage ids and pooled counts each gets
    staged alone, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=staging_runs())
    def test_each_run_as_alone(self, case):
        runs, cap = case
        with mock.patch.object(learning, "MERGE_BATCH_CELLS", cap):
            together = _stage_tables(runs)
            alone = [_stage_tables([run])[0] for run in runs]
        assert len(together) == len(runs)
        for joint, single in zip(together, alone):
            assert len(joint) == len(single)
            for (ids, counts), (want_ids, want_counts) in zip(joint, single):
                assert ids.tobytes() == want_ids.tobytes()
                assert [c.tobytes() for c in counts] == [c.tobytes() for c in want_counts]

    def test_keys_split_chunks(self):
        # Two runs of equal shapes but other row counts or smoothing never
        # share a lockstep merge; runs with equal keys do.
        joints = np.arange(24).reshape(3, 2, 2, 2) % 5
        starts = _start_tables((0, 1, 2), joints, None)
        seen = []
        real = learning._merge_lockstep
        with mock.patch.object(learning, "_merge_lockstep", lambda c, n, s, *a: seen.append((len(c), n, s)) or real(c, n, s, *a)):
            _stage_tables([(starts, 10, 0.0), (starts, 11, 0.0), (starts, 10, 0.5), (starts, 10, 0.0)])
        # Three depths of three replicates each: one lockstep merge of each
        # depth's shape per (rows, smoothing) key.
        assert sorted(seen) == sorted([(3, 10, 0.5)] * 3 + [(3, 11, 0.0)] * 3 + [(6, 10, 0.0)] * 3)


class TestStageDepthOracle:
    """One depth staged from the stages the merge hands back, against the
    former relabel-and-repool path."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 5),
        n=st.integers(1, 200),
        k=st.sampled_from([None, 1, 2]),
        smoothing=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_staging_counts_and_score_bit_equal(self, seed, p, n, k, smoothing):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, p=p, n=n)
        order = tuple(int(v) for v in rng.permutation(p))
        cfg = LearnConfig("bhc" if k is None else "kparents", k=k, smoothing=smoothing)
        tree, tree_parents = _learn(d, order, k, smoothing)
        for depth in range(p):
            staging, counts, parents = stage_depth(d, order, depth, k, smoothing)
            np.testing.assert_array_equal(tree.stagings[depth].stage_of, staging.stage_of)
            assert tree_parents[depth] == parents
            assert tree.probs[depth].tobytes() == probabilities_from_counts(counts, smoothing).tobytes()
            want, want_counts, want_parents = reference_stage_depth(d, order, depth, k, smoothing)
            np.testing.assert_array_equal(staging.stage_of, want.stage_of)
            assert staging.n_stages == want.n_stages and parents == want_parents
            np.testing.assert_array_equal(counts, want_counts)
            assert depth_bic(counts, d.n, smoothing) == depth_bic(want_counts, d.n, smoothing)
            got_probs = probabilities_from_counts(counts, smoothing)
            assert got_probs.tobytes() == probabilities_from_counts(want_counts, smoothing).tobytes()
            # The score cache stages the variable behind its sorted predecessors.
            var, predecessors = order[depth], tuple(sorted(order[:depth]))
            score_order = predecessors + (var,) + order[depth + 1:]
            _, want_counts, _ = reference_stage_depth(d, score_order, depth, k, smoothing)
            assert variable_score(d, var, predecessors, cfg) == depth_bic(want_counts, d.n, smoothing)


class TestExhaustive:
    def test_partition_counts(self):
        assert len(list(set_partitions(1))) == 1
        assert len(list(set_partitions(2))) == 2
        assert len(list(set_partitions(4))) == 15

    def test_two_contexts_best_of_both(self):
        rng = np.random.default_rng(2)
        d = binary_dataset(rng, 2, 120)
        staging = exhaustive_stage(d, (0, 1), 1)
        merged = depth_bic_of(d, (0, 1), staging)
        from conftest import staging_from_ids

        for ids in ([0, 0], [0, 1]):
            other = staging_from_ids(1, ids)
            assert merged <= depth_bic_of(d, (0, 1), other) + 1e-12

    def test_four_contexts_beats_all_fifteen(self):
        rng = np.random.default_rng(4)
        d = binary_dataset(rng, 3, 150)
        best = exhaustive_stage(d, (0, 1, 2), 2)
        best_score = depth_bic_of(d, (0, 1, 2), best)
        from conftest import staging_from_ids

        scores = []
        for code in set_partitions(4):
            scores.append(depth_bic_of(d, (0, 1, 2), staging_from_ids(2, code)))
        assert best_score == min(scores)

    def test_identical_count_contexts_merge(self):
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        rows = [[0, 0]] * 6 + [[0, 1]] * 2 + [[1, 0]] * 6 + [[1, 1]] * 2
        d = Dataset(schema, np.array(rows))
        assert exhaustive_stage(d, (0, 1), 1).n_stages == 1

    def test_context_budget(self):
        rng = np.random.default_rng(0)
        d = binary_dataset(rng, 5, 50)
        with pytest.raises(ModelError, match="at most 8"):
            exhaustive_stage(d, tuple(range(5)), 4)

    def test_exhaustive_never_worse_than_bhc(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = binary_dataset(rng, 3, 200)
            for depth in (1, 2):
                oracle = depth_bic_of(d, (0, 1, 2), exhaustive_stage(d, (0, 1, 2), depth))
                greedy = depth_bic_of(d, (0, 1, 2), bhc_stage_depth(d, (0, 1, 2), depth))
                assert oracle <= greedy + 1e-9


def chain_dataset(rng, n, flip=0.15):
    """X1 -> X2 -> X3: X3 depends on X2 only."""
    x1 = rng.integers(0, 2, n)
    x2 = np.where(rng.random(n) < 1 - flip, x1, 1 - x1)
    x3 = np.where(rng.random(n) < 1 - flip, x2, 1 - x2)
    schema = Schema(tuple(Variable(f"X{i+1}", ("a", "b")) for i in range(3)))
    return Dataset(schema, np.column_stack([x1, x2, x3]))


class TestKParents:
    def test_unrestricted_k_equals_bhc(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, p=3, n=150)
        full = learn(d, (0, 1, 2), LearnConfig())
        restricted, parents = kparents_learn(d, (0, 1, 2), k=2)
        for a, b in zip(full.stagings, restricted.stagings):
            assert np.array_equal(a.stage_of, b.stage_of)
        assert parents == ((), (0,), (0, 1))

    def test_chain_selects_middle_parent(self):
        rng = np.random.default_rng(12)
        d = chain_dataset(rng, 5000)
        _, parents = kparents_learn(d, (0, 1, 2), k=1)
        assert parents[2] == (1,)

    def test_in_degree_bound(self):
        rng = np.random.default_rng(13)
        for k in (1, 2):
            d = binary_dataset(rng, 5, 300)
            tree, _ = kparents_learn(d, tuple(range(5)), k=k)
            assert max_in_degree(compress(tree)) <= k

    def test_larger_k_never_scores_worse(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            d = binary_dataset(rng, 4, 250)
            scores = []
            for k in (1, 2, 3):
                tree, _ = kparents_learn(d, (0, 1, 2, 3), k=k)
                scores.append(bic(tree, d))
            assert scores[1] <= scores[0] + 1e-9
            assert scores[2] <= scores[1] + 1e-9

    def test_k_below_one_rejected(self):
        rng = np.random.default_rng(0)
        d = binary_dataset(rng, 3, 50)
        with pytest.raises(ModelError):
            kparents_learn(d, (0, 1, 2), k=0)


class TestCmi:
    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(100)
        d = binary_dataset(rng, 2, 10_000)
        assert cmi(d, 0, 1) < 0.01

    def test_perfect_dependence_is_log_two(self):
        rng = np.random.default_rng(101)
        x = rng.integers(0, 2, 4000)
        schema = Schema((Variable("u", ("a", "b")), Variable("v", ("x", "y"))))
        d = Dataset(schema, np.column_stack([x, x]))
        assert cmi(d, 0, 1) == pytest.approx(math.log(2), abs=5e-3)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(102)
        d = random_dataset(rng, p=3, n=100)
        expected = cmi_by_hand(d, 0, 1, (2,))
        assert cmi(d, 0, 1, (2,)) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            d = random_dataset(rng, p=3, n=80)
            assert abs(cmi(d, 0, 1, (2,)) - cmi(d, 1, 0, (2,))) < 1e-12

    def test_overlapping_conditioning_rejected(self):
        rng = np.random.default_rng(0)
        d = binary_dataset(rng, 3, 50)
        with pytest.raises(ModelError):
            cmi(d, 0, 1, (1,))


def cmi_by_hand(d, i, s, cond):
    """Direct triple-sum plug-in conditional mutual information."""
    n = d.n
    total = 0.0
    cond = tuple(cond)
    cond_levels = [range(d.schema.level_counts[c]) for c in cond]
    for cvals in itertools.product(*cond_levels):
        mask = np.ones(n, dtype=bool)
        for c, cv in zip(cond, cvals):
            mask &= d.rows[:, c] == cv
        n_c = mask.sum()
        if n_c == 0:
            continue
        for a in range(d.schema.level_counts[i]):
            for b in range(d.schema.level_counts[s]):
                n_ab = (mask & (d.rows[:, i] == a) & (d.rows[:, s] == b)).sum()
                if n_ab == 0:
                    continue
                n_a = (mask & (d.rows[:, i] == a)).sum()
                n_b = (mask & (d.rows[:, s] == b)).sum()
                total += (n_ab / n) * math.log(n_ab * n_c / (n_a * n_b))
    return max(total, 0.0)


class TestOrderSearch:
    def test_two_variables_matches_brute_force(self):
        rng = np.random.default_rng(30)
        d = chain_dataset(rng, 400)
        sub = d.select_columns([0, 1])
        cfg = LearnConfig()
        order, score = order_search_dp(sub, cfg)
        assert score == ordering_score(sub, order, cfg)
        assert score == min(ordering_score(sub, o, cfg) for o in itertools.permutations(range(2)))

    def test_four_variables_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            d = random_dataset(rng, p=4, n=120, max_levels=2)
            cfg = LearnConfig()
            order, score = order_search_dp(d, cfg)
            best = min(
                ordering_score(d, o, cfg) for o in itertools.permutations(range(4))
            )
            assert score == best

    def test_fixed_last_is_pinned(self):
        rng = np.random.default_rng(32)
        d = random_dataset(rng, p=4, n=100, max_levels=2)
        order, _ = order_search_dp(d, LearnConfig(), fixed_last=1)
        assert order[-1] == 1
        assert sorted(order) == [0, 1, 2, 3]

    def test_guard_rejects_large_p(self, monkeypatch):
        rng = np.random.default_rng(33)
        d = binary_dataset(rng, 4, 40)
        monkeypatch.setattr(learning, "MAX_DP_VARIABLES", 3)
        with pytest.raises(ModelError, match="grouped"):
            order_search_dp(d, LearnConfig())

    def test_score_matches_learned_tree_bic(self):
        rng = np.random.default_rng(34)
        d = random_dataset(rng, p=3, n=100)
        cfg = LearnConfig()
        order, score = order_search_dp(d, cfg)
        assert score == pytest.approx(bic(learn(d, order, cfg), d), rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(35)
        d = random_dataset(rng, p=4, n=90, max_levels=2)
        assert order_search_dp(d, LearnConfig()) == order_search_dp(d, LearnConfig())


class TestGroupedSearch:
    def test_single_group_equals_dp(self):
        rng = np.random.default_rng(40)
        d = random_dataset(rng, p=3, n=100, max_levels=2)
        cfg = LearnConfig()
        grouped = order_search_grouped(d, [(0, 1, 2)], cfg)
        assert grouped == order_search_dp(d, cfg)

    def test_two_groups_of_two(self):
        rng = np.random.default_rng(41)
        d = random_dataset(rng, p=4, n=150, max_levels=2)
        cfg = LearnConfig()
        order, score = order_search_grouped(d, [(0, 1), (2, 3)], cfg)
        # the winner must beat the other block arrangement of the same
        # internal orders
        first = tuple(v for v in order if v in (0, 1))
        second = tuple(v for v in order if v in (2, 3))
        flipped = second + first if order[:2] == first else first + second
        assert score <= ordering_score(d, flipped, cfg) + 1e-12

    def test_singleton_groups_match_dp_score(self):
        rng = np.random.default_rng(42)
        d = random_dataset(rng, p=3, n=120, max_levels=2)
        cfg = LearnConfig()
        _, grouped_score = order_search_grouped(d, [(0,), (1,), (2,)], cfg)
        _, dp_score = order_search_dp(d, cfg)
        assert grouped_score == dp_score

    def test_partition_enforced(self):
        rng = np.random.default_rng(43)
        d = binary_dataset(rng, 3, 50)
        with pytest.raises(ModelError, match="partition"):
            order_search_grouped(d, [(0, 1)], LearnConfig())

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(44)
        d = binary_dataset(rng, 3, 50)
        with pytest.raises(ModelError, match="partition"):
            order_search_grouped(d, [(0, 1), (2,), ()], LearnConfig())

    def test_group_guard(self, monkeypatch):
        rng = np.random.default_rng(45)
        d = binary_dataset(rng, 4, 40)
        monkeypatch.setattr(learning, "MAX_DP_VARIABLES", 2)
        with pytest.raises(ModelError, match="guard of 2"):
            order_search_grouped(d, [(0, 1, 2), (3,)], LearnConfig())
        assert order_search_grouped(d, [(0, 1), (2, 3)], LearnConfig())[0] is not None


class TestLearnConfig:
    def test_k_only_with_kparents(self):
        assert LearnConfig("kparents", k=2).label() == "kparents:2"
        with pytest.raises(ModelError, match="k applies only to kparents"):
            LearnConfig("bhc", k=3)
        with pytest.raises(ModelError, match="requires k"):
            LearnConfig("kparents")

    @pytest.mark.parametrize("smoothing", [-0.5, float("nan")])
    def test_bad_smoothing_rejected(self, smoothing):
        for config in (LearnConfig, FitConfig):
            with pytest.raises(ModelError, match="smoothing must be non-negative"):
                config(smoothing=smoothing)
        with pytest.raises(ModelError, match="smoothing must be non-negative"):
            kparents_learn(random_dataset(np.random.default_rng(51), p=2, n=20), (0, 1), 1, smoothing)


class TestVariableScoreCache:
    def test_cache_is_reused(self):
        rng = np.random.default_rng(50)
        d = random_dataset(rng, p=3, n=80)
        cache = {}
        a = variable_score(d, 2, (0, 1), LearnConfig(), cache)
        b = variable_score(d, 2, (1, 0), LearnConfig(), cache)
        assert a == b and len(cache) == 1
