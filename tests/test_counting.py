import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import (
    Dataset,
    LearnConfig,
    ModelError,
    ResamplePlan,
    Schema,
    Variable,
    bootstrap_replicate,
    cmi,
    dataset,
    kparents_learn,
    learn,
    learning,
    order_search_dp,
    order_search_grouped,
    ordering_score,
    variable_score,
)
from stagedtree.learning import (
    _bhc_scores,
    _dp_orders,
    _greedy_parents,
    _merge_lockstep,
    _score_subsets,
    _start_groups,
    _start_tables,
    _subset_dp,
)
from stagedtree.tree import (
    FitConfig,
    StagedTree,
    canonical_stage_assignment,
    context_shape,
    fit,
    log_likelihood,
    log_likelihood_by_depth,
    n_contexts,
    stage_counts,
)

from conftest import random_dataset, random_schema, staging_from_ids
from staging_oracle import dataset_start_table, depth_bic, projection_staging, reference_bhc_merge


# Reference counting: the row-wise code that each scorer ran before every
# tally went through Dataset.counts. Each function read the row matrix
# itself, and variable_score copied the data with select_columns first.


def reference_context_codes(d, order, depth):
    if depth == 0:
        return np.zeros(d.n, dtype=np.int64)
    shape = context_shape(d.schema, order, depth)
    n_contexts(d.schema, order, depth)
    cols = [d.rows[:, order[i]] for i in range(depth)]
    return np.ravel_multi_index(cols, dims=shape).astype(np.int64)


def reference_stage_counts(d, order, depth, stage_of, n_stages):
    var = order[depth]
    levels = d.schema.level_counts[var]
    codes = reference_context_codes(d, order, depth)
    stages = stage_of[codes]
    flat = np.bincount(stages * levels + d.rows[:, var], minlength=n_stages * levels)
    return flat.reshape(n_stages, levels).astype(np.int64)


def reference_log_likelihood_by_depth(tree, d):
    probs = tree.require_fitted()
    terms = []
    for depth, staging in enumerate(tree.stagings):
        var = tree.order[depth]
        codes = reference_context_codes(d, tree.order, depth)
        observed = probs[depth][staging.stage_of[codes], d.rows[:, var]]
        with np.errstate(divide="ignore"):
            terms.append(float(np.log(observed).sum()))
    return terms


def reference_cmi(d, i, s, conditioning=()):
    conditioning = tuple(int(c) for c in conditioning)
    counts = d.schema.level_counts
    li, ls = counts[i], counts[s]
    if conditioning:
        shape = tuple(counts[c] for c in conditioning)
        ccode = np.ravel_multi_index([d.rows[:, c] for c in conditioning], dims=shape)
        n_cond = int(np.prod(shape))
    else:
        ccode = np.zeros(d.n, dtype=np.int64)
        n_cond = 1
    flat = np.bincount((ccode * li + d.rows[:, i]) * ls + d.rows[:, s], minlength=n_cond * li * ls)
    table = flat.reshape(n_cond, li, ls).astype(float)

    n_c = table.sum(axis=(1, 2), keepdims=True)
    n_ca = table.sum(axis=2, keepdims=True)
    n_cb = table.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = table * n_c / (n_ca * n_cb)
        terms = np.where(table > 0, table * np.log(ratio), 0.0)
    value = float(terms.sum()) / d.n
    return max(value, 0.0)


def reference_greedy_parents(d, var, candidates, k):
    selected = []
    pool = list(candidates)
    for _ in range(min(k, len(pool))):
        best_var = None
        best_value = -math.inf
        for cand in sorted(set(pool) - set(selected)):
            value = reference_cmi(d, var, cand, tuple(selected))
            if value > best_value:
                best_value = value
                best_var = cand
        selected.append(best_var)
    return tuple(sorted(selected))


def reference_restricted_stage_depth(d, order, depth, parents, smoothing):
    init = projection_staging(d.schema, order, depth, parents)
    n_init = int(init.max()) + 1
    counts = reference_stage_counts(d, order, depth, init, n_init)
    merged = reference_bhc_merge(counts, d.n, smoothing)
    return canonical_stage_assignment(depth, merged[init])


def reference_bhc_stage_depth(d, order, depth, smoothing):
    total = n_contexts(d.schema, order, depth)
    singleton = np.arange(total)
    counts = reference_stage_counts(d, order, depth, singleton, total)
    assign = reference_bhc_merge(counts, d.n, smoothing)
    return canonical_stage_assignment(depth, assign)


def reference_variable_score(d, var, predecessors, cfg):
    predecessors = tuple(sorted(int(v) for v in predecessors))
    cols = list(predecessors) + [var]
    sub = d.select_columns(cols)
    sub_order = tuple(range(len(cols)))
    depth = len(predecessors)
    if cfg.algorithm == "kparents" and depth > cfg.k:
        parents = reference_greedy_parents(sub, depth, tuple(range(depth)), cfg.k)
        staging = reference_restricted_stage_depth(sub, sub_order, depth, parents, cfg.smoothing)
    else:
        staging = reference_bhc_stage_depth(sub, sub_order, depth, cfg.smoothing)
    counts = reference_stage_counts(sub, sub_order, depth, staging.stage_of, staging.n_stages)
    return depth_bic(counts, d.n, cfg.smoothing)


def reference_order_search_grouped(d, groups, cfg):
    """The former grouped search: each group's DP ran on a select_columns
    copy of the group's variables. Returns the group-internal orders, the
    best block arrangement and its score."""
    internal = []
    for group in groups:
        cols = sorted(group)
        sub_order, _ = order_search_dp(d.select_columns(cols), cfg)
        internal.append(tuple(cols[i] for i in sub_order))
    best_order, best_score = None, math.inf
    for perm in itertools.permutations(range(len(groups))):
        candidate = tuple(v for gi in perm for v in internal[gi])
        score = ordering_score(d, candidate, cfg)
        if score < best_score:
            best_order, best_score = candidate, score
    return internal, best_order, best_score


def reference_subset_dp(d, variables, cfg, cache):
    """The subset DP as it ran before its scores were batched: the recursion
    scores each (variable, predecessor set) pair with variable_score, one
    tally and one greedy merge per pair, when it first reads it."""
    m = len(variables)
    full = (1 << m) - 1
    rem_terms = [()] * (1 << m)
    best_next = np.full(1 << m, -1, dtype=np.int64)
    masks_by_size = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(m - 1, -1, -1):
        for mask in masks_by_size[size]:
            prefix = tuple(variables[b] for b in range(m) if mask >> b & 1)
            best, choice, chosen_terms = math.inf, -1, ()
            for b in range(m):
                if mask >> b & 1:
                    continue
                terms = (variable_score(d, variables[b], prefix, cfg, cache),) + rem_terms[mask | (1 << b)]
                value = math.fsum(terms)
                if value < best:
                    best, choice, chosen_terms = value, b, terms
            rem_terms[mask] = chosen_terms
            best_next[mask] = choice
    order, mask = [], 0
    while mask != full:
        b = int(best_next[mask])
        order.append(variables[b])
        mask |= 1 << b
    return tuple(order)


def cache_bits(cache):
    return {key: float(value).hex() for key, value in cache.items()}


# -- strategies ----------------------------------------------------------------


@st.composite
def datasets(draw, max_p=5, max_rows=60):
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(2, max_p))
    n = draw(st.integers(1, max_rows))
    return random_dataset(np.random.default_rng(seed), p=p, n=n)


def random_stagings(rng, schema, order, n_ids):
    return tuple(
        staging_from_ids(depth, rng.integers(0, n_ids, size=n_contexts(schema, order, depth)))
        for depth in range(len(order))
    )


# -- Dataset.counts -------------------------------------------------------------


class TestDatasetCounts:
    @settings(max_examples=60, deadline=None)
    @given(d=datasets(), seed=st.integers(0, 2**32 - 1))
    def test_matches_row_tally(self, d, seed):
        rng = np.random.default_rng(seed)
        cols = tuple(int(c) for c in rng.permutation(d.p)[: rng.integers(0, d.p + 1)])
        table = d.counts(cols)
        assert table.dtype == np.int64
        assert table.shape == tuple(d.schema.level_counts[c] for c in cols)
        tally = Counter(tuple(int(row[c]) for c in cols) for row in d.rows)
        assert int(table.sum()) == d.n
        for cell, count in np.ndenumerate(table):
            assert count == tally.get(cell, 0)

    def test_column_order_sets_axis_order(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, p=3, n=80)
        assert np.array_equal(d.counts((2, 0)), d.counts((0, 2)).T)

    def test_no_columns_counts_rows(self):
        d = random_dataset(np.random.default_rng(4), p=2, n=17)
        assert d.counts(()).shape == ()
        assert int(d.counts(())) == 17

    def test_cap_refuses_large_tables(self, monkeypatch):
        d = random_dataset(np.random.default_rng(5), p=3, n=20, max_levels=2)
        monkeypatch.setattr(dataset, "MAX_CONTEXTS", 4)
        d.counts((0, 1))
        with pytest.raises(ModelError, match="desk scale"):
            d.counts((0, 1, 2))


class TestGuards:
    def binary(self, p):
        schema = Schema(tuple(Variable(f"X{j}", ("a", "b")) for j in range(p)))
        return Dataset(schema, np.random.default_rng(0).integers(0, 2, size=(30, p)))

    def test_cmi_inherits_cap(self, monkeypatch):
        d = self.binary(4)
        cmi(d, 0, 1, (2,))
        monkeypatch.setattr(dataset, "MAX_CONTEXTS", 7)
        with pytest.raises(ModelError, match="desk scale"):
            cmi(d, 0, 1, (2,))

    def test_projection_staging_checks_before_allocating(self, monkeypatch):
        # kparents start classes are built from a count table, which the
        # tally refuses before any start class is allocated.
        d = self.binary(5)
        order = (0, 1, 2, 3, 4)
        monkeypatch.setattr(dataset, "MAX_CONTEXTS", 8)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the context guard")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "unravel_index", refuse)
        monkeypatch.setattr(np, "broadcast_to", refuse)
        for call in (
            lambda: kparents_learn(d, order, 2),
            lambda: variable_score(d, 4, (0, 1, 2, 3), LearnConfig("kparents", k=2)),
        ):
            with pytest.raises(ModelError, match="desk scale"):
                call()

    def test_merge_table_guarded(self, monkeypatch):
        d = self.binary(4)
        learn(d, (0, 1, 2, 3), LearnConfig())
        # Depth 3 has 8 contexts: its 16-cell count table passes the guard,
        # its 8 x 8 merge table does not.
        monkeypatch.setattr(dataset, "MAX_CONTEXTS", 60)
        with pytest.raises(ModelError, match="desk scale") as err:
            learn(d, (0, 1, 2, 3), LearnConfig())
        assert "8 stages" in str(err.value)
        with pytest.raises(ModelError, match="desk scale"):
            _merge_lockstep(np.ones((1, 8, 2)), 10, 0.0)
        with pytest.raises(ModelError, match="8 stages"):
            _bhc_scores(np.ones((1, 8, 2)), 10, 0.0)


# -- new counting against the reference -------------------------------------------


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(d=datasets(), seed=st.integers(0, 2**32 - 1), n_ids=st.integers(1, 4))
    def test_stage_counts_bit_equal(self, d, seed, n_ids):
        rng = np.random.default_rng(seed)
        order = tuple(int(v) for v in rng.permutation(d.p))
        for staging in random_stagings(rng, d.schema, order, n_ids):
            got = stage_counts(d, order, staging.depth, staging.stage_of, staging.n_stages)
            want = reference_stage_counts(d, order, staging.depth, staging.stage_of, staging.n_stages)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(d=datasets(), seed=st.integers(0, 2**32 - 1))
    def test_cmi_bit_equal(self, d, seed):
        rng = np.random.default_rng(seed)
        perm = [int(v) for v in rng.permutation(d.p)]
        i, s = perm[0], perm[1]
        conditioning = tuple(perm[2: 2 + int(rng.integers(0, d.p - 1))])
        assert cmi(d, i, s, conditioning) == reference_cmi(d, i, s, conditioning)

    @settings(max_examples=80, deadline=None)
    @given(
        train=datasets(max_rows=40),
        seed=st.integers(0, 2**32 - 1),
        n_ids=st.integers(1, 4),
        held_out=st.booleans(),
    )
    def test_log_likelihood_matches(self, train, seed, n_ids, held_out):
        rng = np.random.default_rng(seed)
        order = tuple(int(v) for v in rng.permutation(train.p))
        skeleton = StagedTree(train.schema, order, random_stagings(rng, train.schema, order, n_ids))
        tree = fit(skeleton, train)
        # Held-out rows can reach cells the training rows left at probability 0.
        d = train
        if held_out:
            d = Dataset(train.schema, np.column_stack(
                [rng.integers(0, size, size=30) for size in train.schema.level_counts]
            ))
        got = log_likelihood_by_depth(tree, d)
        want = reference_log_likelihood_by_depth(tree, d)
        for g, w in zip(got, want):
            assert (g == -math.inf) == (w == -math.inf)
            if w != -math.inf:
                assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)
        assert (log_likelihood(tree, d) == -math.inf) == (-math.inf in want)

    @settings(max_examples=60, deadline=None)
    @given(d=datasets(max_p=5, max_rows=80), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
    def test_variable_score_bit_equal(self, d, seed, k):
        rng = np.random.default_rng(seed)
        var = int(rng.integers(0, d.p))
        others = [v for v in range(d.p) if v != var]
        predecessors = tuple(int(v) for v in rng.permutation(others)[: rng.integers(0, d.p)])
        smoothing = float(rng.choice([0.0, 0.5]))
        for cfg in (LearnConfig("bhc", smoothing=smoothing), LearnConfig("kparents", k=k, smoothing=smoothing)):
            assert variable_score(d, var, predecessors, cfg) == reference_variable_score(
                d, var, predecessors, cfg
            )

    def test_variable_score_exercises_projection(self):
        # Four predecessors with k=2: the CMI-projection branch, on enough rows
        # that merging has real choices.
        rng = np.random.default_rng(11)
        d = random_dataset(rng, p=5, n=400)
        cfg = LearnConfig("kparents", k=2)
        assert variable_score(d, 4, (0, 1, 2, 3), cfg) == reference_variable_score(d, 4, (0, 1, 2, 3), cfg)
        table = d.counts((0, 1, 2, 3, 4))
        assert _greedy_parents(table[None], (0, 1, 2, 3), 2) == [reference_greedy_parents(d, 4, (0, 1, 2, 3), 2)]

    def test_schema_projection_matches_reference(self, monkeypatch):
        # The parents are forced, and k=0 sends every depth past the root
        # through the projection branch of _start_groups.
        schema = random_schema(np.random.default_rng(2), 4)
        d = Dataset(schema, np.random.default_rng(3).integers(0, 2, size=(30, 4)))
        order = (3, 1, 0, 2)
        for depth in range(4):
            for parents in ((), (3,), (1, 3), (0, 1, 3)):
                parents = tuple(v for v in parents if v in order[:depth])
                monkeypatch.setattr(learning, "_greedy_parents", lambda table, candidates, k: [parents] * len(table))
                ((_, start, pooled, _),) = _start_groups(order, depth, d.counts(order[:depth + 1])[None], 0)
                want = projection_staging(schema, order, depth, parents)
                assert np.array_equal(start, want)
                assert np.array_equal(pooled[0], reference_stage_counts(d, order, depth, want, int(want.max()) + 1))


# -- start tables from one tally against the dataset path --------------------------


def traced_start_tables(monkeypatch):
    """Record every _start_groups call of one replicate as (order, depth, k,
    its groups, the CMI values computed during the call, candidate by
    candidate and step by step)."""
    calls, values = [], []
    real_cmi, real_groups = learning._candidate_cmi, learning._start_groups

    def cmi_values(table, members, axes, candidate_axes):
        result = real_cmi(table, members, axes, candidate_axes)
        values.extend(result[0].tolist())
        return result

    def start_groups(order, depth, table, k):
        assert len(table) == 1
        first = len(values)
        result = real_groups(order, depth, table, k)
        calls.append((tuple(order), depth, k, result, values[first:]))
        return result

    monkeypatch.setattr(learning, "_candidate_cmi", cmi_values)
    monkeypatch.setattr(learning, "_start_groups", start_groups)
    return calls


class TestStartTablesFromOneTally:
    """Start ids, pooled counts, parent sets and the CMI value of every
    candidate behind each parent choice, read from one count table, equal
    the dataset path (a cmi tally per candidate, the projection staging and
    pool_counts) bit for bit."""

    def assert_dataset_path(self, d, calls):
        for order, depth, k, ((members, start, pooled, parents),), values in calls:
            assert members.tolist() == [0] and len(pooled) == 1
            pooled = pooled[0]
            want_values = []
            want_start, want_pooled, want_parents = dataset_start_table(d, order, depth, k, want_values)
            assert parents == want_parents
            assert start.dtype == want_start.dtype and np.array_equal(start, want_start)
            assert pooled.dtype == want_pooled.dtype and np.array_equal(pooled, want_pooled)
            assert all(type(v) is float for v in values)
            assert [v.hex() for v in values] == [v.hex() for v in want_values]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 5),
        n=st.integers(1, 150),
        max_levels=st.integers(2, 4),
        k=st.integers(1, 3),
    )
    def test_bit_equal_to_dataset_path(self, seed, p, n, max_levels, k):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, p=p, n=n, max_levels=max_levels)
        order = tuple(int(v) for v in rng.permutation(p))
        var = int(rng.integers(0, p))
        predecessors = tuple(int(v) for v in rng.permutation([v for v in range(p) if v != var])[: rng.integers(0, p)])
        cfg = LearnConfig("kparents", k=k)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = traced_start_tables(monkeypatch)
            starts = _start_tables(order, d.counts(order)[None], k)
            assert [call[:3] for call in calls] == [(order, depth, k) for depth in range(p)]
            assert all(call[3] is start for call, start in zip(calls, starts))
            self.assert_dataset_path(d, calls)
            # The DP builds its start tables by stacked axis sums and hands
            # them to _batched one layer at a time, in the order its cache
            # takes their keys; only the CMI projections go through
            # _start_groups.
            calls.clear()
            tables, cache = [], {}
            real_batched = learning._batched
            monkeypatch.setattr(learning, "_batched", lambda t, merge: tables.extend(t) or real_batched(t, merge))
            _score_subsets([d.counts(tuple(range(p)))], tuple(range(p)), d.n, cfg, [cache])
            assert len(tables) == len(cache) == p * 2 ** (p - 1)
            for (var, predecessors), table in zip(cache, tables):
                _, want, _ = dataset_start_table(d, predecessors + (var,), len(predecessors), k, [])
                assert table.dtype == want.dtype and np.array_equal(table, want)
            assert len(calls) == p * sum(math.comb(p - 1, depth) for depth in range(k + 1, p))
            self.assert_dataset_path(d, calls)
            calls.clear()
            variable_score(d, var, predecessors, cfg)
            assert [call[:3] for call in calls] == [(tuple(sorted(predecessors)) + (var,), len(predecessors), k)]
            self.assert_dataset_path(d, calls)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 5),
        n=st.integers(1, 120),
        replicates=st.integers(1, 5),
        max_levels=st.integers(2, 4),
        k=st.integers(1, 3),
    )
    def test_stacked_equal_to_each_replicate_alone(self, seed, p, n, replicates, max_levels, k):
        # The start tables of every depth of R replicates built together,
        # with the parents chosen together, against each replicate's own
        # _start_tables: start ids, pooled counts, parent sets and every
        # CMI value, bit for bit.
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, p=p, n=n, max_levels=max_levels)
        order = tuple(int(v) for v in rng.permutation(p))
        plan = ResamplePlan(replicates, seed)
        joints = np.stack([bootstrap_replicate(d, plan.replicate_seed(i)).counts(order) for i in range(replicates)])
        scored = []
        real = learning._candidate_cmi

        def recorded(table, members, axes, candidate_axes):
            values = real(table, members, axes, candidate_axes)
            scored.append((list(members), values))
            return values

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(learning, "_candidate_cmi", recorded)
            together = _start_tables(order, joints, k)
            values_together = [
                [v.hex() for members, values in scored if r in members for v in values[members.index(r)].tolist()]
                for r in range(replicates)
            ]
            for r in range(replicates):
                scored.clear()
                alone = _start_tables(order, joints[r:r + 1], k)
                assert [v.hex() for _, values in scored for v in values[0].tolist()] == values_together[r]
                for groups, (((_, want_start, want_pooled, want_parents),)) in zip(together, alone):
                    ((members, start, pooled, parents),) = [g for g in groups if r in g[0]]
                    got = pooled[members.tolist().index(r)]
                    assert parents == want_parents
                    assert start.dtype == want_start.dtype and np.array_equal(start, want_start)
                    assert got.dtype == want_pooled.dtype and np.array_equal(got, want_pooled[0])
        assert sum(len(members) for groups in together for members, *_ in groups) == p * replicates

    def test_parent_choice_reads_cmi(self, monkeypatch):
        # Enough rows and predecessors that selection has real choices.
        d = random_dataset(np.random.default_rng(12), p=5, n=400, max_levels=4)
        calls = traced_start_tables(monkeypatch)
        _start_tables((4, 2, 0, 3, 1), d.counts((4, 2, 0, 3, 1))[None], 2)
        assert [len(values) for *_, values in calls] == [0, 0, 0, 3 + 2, 4 + 3]
        self.assert_dataset_path(d, calls)


# -- one tally per depth, one subset DP -------------------------------------------


def learn_configs(k, smoothing):
    return (LearnConfig("bhc", smoothing=smoothing), LearnConfig("kparents", k=k, smoothing=smoothing))


class TestLearnFromStagingCounts:
    @settings(max_examples=60, deadline=None)
    @given(d=datasets(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), smoothing=st.sampled_from([0.0, 0.5]))
    def test_probabilities_equal_refit(self, d, seed, k, smoothing):
        order = tuple(int(v) for v in np.random.default_rng(seed).permutation(d.p))
        for cfg in learn_configs(k, smoothing):
            tree = learn(d, order, cfg)
            refit = fit(StagedTree(d.schema, tree.order, tree.stagings), d, FitConfig(smoothing))
            for got, want in zip(tree.probs, refit.probs):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_learn_tallies_once(self, monkeypatch):
        d = random_dataset(np.random.default_rng(6), p=4, n=90)
        calls = []
        real = Dataset.counts
        monkeypatch.setattr(Dataset, "counts", lambda self, cols: calls.append(tuple(cols)) or real(self, cols))
        for cfg in learn_configs(1, 0.0):
            calls.clear()
            learn(d, (2, 0, 3, 1), cfg)
            assert calls == [(2, 0, 3, 1)]


class TestBatchedSubsetDp:
    """Every score computed before the recursion, from one tally and one
    batched merge per start-table shape, against the per-pair DP."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=datasets(max_p=5, max_rows=150),
        k=st.integers(1, 2),
        smoothing=st.sampled_from([0.0, 0.5]),
        drop=st.booleans(),
    )
    def test_orders_and_cache_bit_equal(self, d, k, smoothing, drop):
        variables = list(range(d.p - 1 if drop else d.p))
        for cfg in learn_configs(k, smoothing):
            cache, want = {}, {}
            assert _subset_dp(d, variables, cfg, cache) == reference_subset_dp(d, variables, cfg, want)
            assert all(type(value) is float for value in cache.values())
            assert cache_bits(cache) == cache_bits(want)

    def test_several_shape_groups(self, monkeypatch):
        # Levels 2, 3 and 4 give predecessor sets of one size several
        # context counts, so one layer is scored in several groups.
        schema = Schema(tuple(Variable(f"X{j}", tuple("abcd"[:size])) for j, size in enumerate((2, 3, 4, 2))))
        rng = np.random.default_rng(21)
        d = Dataset(schema, np.column_stack([rng.integers(0, size, 300) for size in (2, 3, 4, 2)]))
        shapes = []
        real = learning._bhc_scores
        monkeypatch.setattr(learning, "_bhc_scores", lambda c, n, s: shapes.append(c.shape) or real(c, n, s))
        for cfg in learn_configs(1, 0.0):
            shapes.clear()
            cache, want = {}, {}
            assert _subset_dp(d, [0, 1, 2, 3], cfg, cache) == reference_subset_dp(d, [0, 1, 2, 3], cfg, want)
            assert cache_bits(cache) == cache_bits(want)
            assert len({shape[1:] for shape in shapes}) >= 5 and len(shapes) > 5

    def test_bhc_dp_counts_once(self, monkeypatch):
        d = random_dataset(np.random.default_rng(22), p=5, n=120)
        calls = []
        real = Dataset.counts
        monkeypatch.setattr(Dataset, "counts", lambda self, cols: calls.append(tuple(cols)) or real(self, cols))
        _subset_dp(d, [3, 0, 4, 1], LearnConfig(), {})
        assert calls == [(0, 1, 3, 4)]

    def test_chunks_stay_within_the_cell_limit(self, monkeypatch):
        # Four binary variables: a 16-cell joint and merge tables of up to
        # 8 x 8 cells, so a batch cap of 64 splits the groups of 4 and 8
        # stages.
        schema = Schema(tuple(Variable(f"X{j}", ("a", "b")) for j in range(4)))
        d = Dataset(schema, np.random.default_rng(23).integers(0, 2, size=(200, 4)))
        want = {}
        order = _subset_dp(d, [0, 1, 2, 3], LearnConfig(), want)
        shapes = []
        real = learning._bhc_scores
        monkeypatch.setattr(learning, "_bhc_scores", lambda c, n, s: shapes.append(c.shape) or real(c, n, s))
        monkeypatch.setattr(learning, "MERGE_BATCH_CELLS", 64)
        cache = {}
        assert _subset_dp(d, [0, 1, 2, 3], LearnConfig(), cache) == order
        assert cache_bits(cache) == cache_bits(want)
        assert all(b * k * k <= 64 for b, k, _ in shapes)
        assert max(k for _, k, _ in shapes) == 8 and max(b for b, _, _ in shapes) > 1
        assert sum(b for b, _, _ in shapes) == len(want)
        # One 8 x 8 table alone passes a limit of 60 cells no longer.
        monkeypatch.setattr(dataset, "MAX_CONTEXTS", 60)
        with pytest.raises(ModelError, match="8 stages"):
            _subset_dp(d, [0, 1, 2, 3], LearnConfig(), {})


class TestReplicatesScoredTogether:
    """The subset DPs of M replicates scored together, each layer of a group
    of replicates in one batched merge, against each replicate's per-pair DP:
    the same cache bits and orderings, whatever the batch cap."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 5),
        n=st.integers(1, 80),
        replicates=st.integers(1, 4),
        k=st.integers(1, 2),
        smoothing=st.sampled_from([0.0, 0.5]),
        pinned=st.booleans(),
        cap=st.sampled_from([None, 16, 256]),
    )
    def test_cache_bits_and_orders_equal_replicates_alone(self, seed, p, n, replicates, k, smoothing, pinned, cap):
        d = random_dataset(np.random.default_rng(seed), p=p, n=n, max_levels=4)
        fixed_last = p - 1 if pinned else None
        variables = tuple(v for v in range(p) if v != fixed_last)
        plan = ResamplePlan(replicates, seed)
        samples = [bootstrap_replicate(d, plan.replicate_seed(i)) for i in range(replicates)]
        joints = [sample.counts(variables) for sample in samples]
        with pytest.MonkeyPatch.context() as monkeypatch:
            if cap is not None:
                monkeypatch.setattr(learning, "MERGE_BATCH_CELLS", cap)
            for cfg in learn_configs(k, smoothing):
                caches = [{} for _ in samples]
                _score_subsets(joints, variables, d.n, cfg, caches)
                orders = _dp_orders(joints, variables, d.n, cfg, fixed_last)
                for sample, order, cache in zip(samples, orders, caches):
                    want = {}
                    alone = reference_subset_dp(sample, list(variables), cfg, want)
                    assert order == alone + (() if fixed_last is None else (fixed_last,))
                    assert all(type(value) is float for value in cache.values())
                    assert cache_bits(cache) == cache_bits(want)

    def test_groups_and_chunks_split_under_a_small_cap(self, monkeypatch):
        # Three binary variables: the 2- and 3-variable layers give 24
        # start-table cells a replicate, so a cap of 64 scores 5 replicates
        # in groups of 2, 2 and 1, and the 4-context tables of the top layer
        # merge at most 4 at a time.
        schema = Schema(tuple(Variable(f"X{j}", ("a", "b")) for j in range(3)))
        d = Dataset(schema, np.random.default_rng(24).integers(0, 2, size=(120, 3)))
        plan = ResamplePlan(5, seed=3)
        samples = [bootstrap_replicate(d, plan.replicate_seed(i)) for i in range(5)]
        alone = []
        for sample in samples:
            alone.append({})
            _subset_dp(sample, [0, 1, 2], LearnConfig(), alone[-1])
        joints = [sample.counts((0, 1, 2)) for sample in samples]
        groups, shapes = [], []
        real_group, real_scores = learning._score_group, learning._bhc_scores
        monkeypatch.setattr(learning, "_score_group", lambda stack, *args: groups.append(len(stack)) or real_group(stack, *args))
        monkeypatch.setattr(learning, "_bhc_scores", lambda c, n, s: shapes.append(c.shape) or real_scores(c, n, s))
        for cap, sizes in ((learning.MERGE_BATCH_CELLS, [5]), (64, [2, 2, 1])):
            groups.clear()
            shapes.clear()
            monkeypatch.setattr(learning, "MERGE_BATCH_CELLS", cap)
            caches = [{} for _ in samples]
            _score_subsets(joints, (0, 1, 2), d.n, LearnConfig(), caches)
            assert groups == sizes
            assert all(b * k * k <= cap for b, k, _ in shapes) and max(b for b, _, _ in shapes) > 1
            assert sum(b for b, _, _ in shapes) == 5 * 12
            assert [cache_bits(cache) for cache in caches] == [cache_bits(cache) for cache in alone]


class TestGroupedAgainstColumnCopies:
    @settings(max_examples=40, deadline=None)
    @given(
        d=datasets(max_p=5, max_rows=80),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 2),
        smoothing=st.sampled_from([0.0, 0.5]),
    )
    def test_orders_and_scores_equal(self, d, seed, k, smoothing):
        rng = np.random.default_rng(seed)
        perm = [int(v) for v in rng.permutation(d.p)]
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, d.p), size=rng.integers(0, d.p), replace=False))
        groups = [tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts + [d.p])]
        for cfg in learn_configs(k, smoothing):
            internal, order, score = reference_order_search_grouped(d, groups, cfg)
            cache = {}
            assert [_subset_dp(d, sorted(g), cfg, cache) for g in groups] == internal
            assert order_search_grouped(d, groups, cfg) == (order, score)
